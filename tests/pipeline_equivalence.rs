//! Parallel/sequential equivalence of the corpus pipeline.
//!
//! For random workloads and random corpora — including documents mutated
//! to *violate* their key set, and documents whose `NodeId` order diverges
//! from document order — the parallel pipeline's merged output (shredded
//! databases, violation sets, per-document stats, propagation covers) must
//! be **bit-for-bit identical** to the sequential facade at every thread
//! count.  The merge is deterministic by document index, never by
//! completion order; this is the property that pins it.
//!
//! The thread counts exercised are `{1, 2, 8}` plus, when the
//! `XMLPROP_TEST_JOBS` environment variable is set (CI runs the suite a
//! second time with `XMLPROP_TEST_JOBS=4`), that value.

use proptest::prelude::*;
use xmlprop::pipeline::{CorpusBundle, CorpusOptions, Jobs};
use xmlprop::workload::{generate, generate_corpus, CorpusConfig, DocConfig, WorkloadConfig};
use xmlprop::xmltransform::Transformation;

/// The thread counts every equivalence check runs at.
fn jobs_grid() -> Vec<usize> {
    let mut grid = vec![1, 2, 8];
    if let Ok(value) = std::env::var("XMLPROP_TEST_JOBS") {
        let extra: usize = value
            .parse()
            .expect("XMLPROP_TEST_JOBS must be a positive integer");
        if !grid.contains(&extra) {
            grid.push(
                Jobs::new(extra)
                    .expect("XMLPROP_TEST_JOBS out of range")
                    .get(),
            );
        }
    }
    grid
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn parallel_pipeline_is_bit_for_bit_sequential(
        fields in 8usize..14,
        depth in 2usize..4,
        keys in 6usize..10,
        seed in 0u64..1000,
        documents in 1usize..7,
        branching in 1usize..4,
        mutate in prop::collection::vec(prop_oneof![Just(true), Just(false)], 8..9),
    ) {
        let w = generate(&WorkloadConfig::new(fields, depth, keys).with_seed(seed));
        let (mut docs, _) = generate_corpus(&w, &CorpusConfig {
            documents,
            base: DocConfig {
                branching,
                omission_probability: 0.25,
                seed: seed ^ 0xc0ffee,
                depth: None,
            },
        });
        // Break Σ in a random subset of documents: an extra `e0` element
        // without its identifier attribute violates the chain key (and,
        // appended under the root, splits NodeId order from document
        // order, exercising the DFS-numbered paths).
        for (i, doc) in docs.iter_mut().enumerate() {
            if mutate[i % mutate.len()] {
                let root = doc.root();
                doc.add_element(root, "e0");
            }
        }

        let transformation = {
            let mut t = Transformation::new(Vec::new());
            t.add_rule(w.universal.clone());
            t
        };
        let bundle = CorpusBundle::prepare(w.sigma.clone(), transformation);
        let sequential = bundle.run_sequential(&docs, &CorpusOptions::default());

        // Sanity on the oracle itself: mutated documents must violate.
        for (i, outcome) in sequential.documents.iter().enumerate() {
            prop_assert_eq!(
                !outcome.violations.is_empty(),
                mutate[i % mutate.len()],
                "document {} violation presence", i
            );
        }
        // Covers are the prepared engines' covers, rule for rule.
        prop_assert_eq!(sequential.covers.len(), 1);
        prop_assert_eq!(
            &sequential.covers[0].cover,
            &bundle.engines()[0].minimum_cover()
        );

        for jobs in jobs_grid() {
            let options = CorpusOptions {
                jobs: Jobs::new(jobs).unwrap(),
                ..CorpusOptions::default()
            };
            let parallel = bundle.run(&docs, &options);
            prop_assert_eq!(
                &parallel, &sequential,
                "jobs = {} diverged from the sequential facade", jobs
            );
        }
    }
}

/// A fixed (non-proptest) smoke check that the env-var override is honored
/// in the grid, so the CI double-run actually exercises a different width.
#[test]
fn jobs_grid_includes_the_env_override() {
    let grid = jobs_grid();
    assert!(grid.contains(&1) && grid.contains(&2) && grid.contains(&8));
    if let Ok(value) = std::env::var("XMLPROP_TEST_JOBS") {
        let extra: usize = value.parse().unwrap();
        assert!(grid.contains(&extra));
    }
}
