//! Property-based tests (proptest) for the core data structures and
//! invariants: path containment, XML key implication soundness, FD cover
//! operations, shredding null/cardinality invariants and the equivalence of
//! the two minimum-cover algorithms on random workloads.

use proptest::prelude::*;
use std::collections::BTreeSet;
use xmlprop::prelude::*;
use xmlprop::reldb::{
    bcnf_decompose, closure, covers_equivalent, decomposition_is_lossless, is_3nf, is_bcnf,
    is_dependency_preserving, is_nonredundant, minimize, synthesize_3nf,
};
use xmlprop::workload::{generate, generate_document, DocConfig, WorkloadConfig};
use xmlprop::xmlkeys::{implies, satisfies, satisfies_all};
use xmlprop::xmlpath::{Atom, CompiledExpr, LabelUniverse};
use xmlprop::xmltree::DocIndex;

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

/// Random path expressions over a two-letter alphabet with `//` wildcards.
fn path_expr_strategy() -> impl Strategy<Value = PathExpr> {
    prop::collection::vec(
        prop_oneof![
            Just(Atom::Label("a".to_string())),
            Just(Atom::Label("b".to_string())),
            Just(Atom::Label("c".to_string())),
            Just(Atom::AnyPath),
        ],
        0..5,
    )
    .prop_map(PathExpr::from_atoms)
}

/// Random concrete words over the same alphabet.
fn word_strategy() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec(
        prop_oneof![
            Just("a".to_string()),
            Just("b".to_string()),
            Just("c".to_string())
        ],
        0..6,
    )
}

/// Random FDs over a tiny attribute universe.
fn fd_strategy() -> impl Strategy<Value = Fd> {
    let attr = prop_oneof![Just("p"), Just("q"), Just("r"), Just("s"), Just("t")];
    (prop::collection::btree_set(attr.clone(), 0..4), attr).prop_filter_map(
        "rhs must not be empty",
        |(lhs, rhs)| {
            let lhs: BTreeSet<String> = lhs.into_iter().map(str::to_string).collect();
            Some(Fd::new(lhs, std::iter::once(rhs.to_string()).collect()))
        },
    )
}

// ---------------------------------------------------------------------------
// Path language
// ---------------------------------------------------------------------------

proptest! {
    /// Containment is sound w.r.t. membership: any word of P is a word of Q
    /// whenever P ⊑ Q.
    #[test]
    fn containment_respects_membership(
        p in path_expr_strategy(),
        q in path_expr_strategy(),
        w in word_strategy(),
    ) {
        let word = Path::from_labels(w);
        if p.contained_in(&q) && word.matches(&p) {
            prop_assert!(word.matches(&q), "word {word} in {p} but not in {q}");
        }
    }

    /// Containment is reflexive and transitive (on the samples generated).
    #[test]
    fn containment_is_a_preorder(
        p in path_expr_strategy(),
        q in path_expr_strategy(),
        r in path_expr_strategy(),
    ) {
        prop_assert!(p.contained_in(&p));
        if p.contained_in(&q) && q.contained_in(&r) {
            prop_assert!(p.contained_in(&r), "transitivity failed: {p} ⊑ {q} ⊑ {r}");
        }
    }

    /// Display/parse round-trip.
    #[test]
    fn path_display_parse_roundtrip(p in path_expr_strategy()) {
        let text = p.to_string();
        let reparsed: PathExpr = text.parse().unwrap();
        prop_assert_eq!(p, reparsed);
    }

    /// Every split re-concatenates to the original expression, and splitting
    /// never changes the language.
    #[test]
    fn splits_reconcatenate(p in path_expr_strategy()) {
        for (a, b) in p.splits() {
            prop_assert_eq!(a.concat(&b), p.clone());
        }
    }

    /// Compiled evaluation agrees with membership of root paths on small
    /// documents.
    #[test]
    fn evaluation_agrees_with_membership(
        p in path_expr_strategy(),
        branching in 1usize..3,
    ) {
        // A small fixed-shape document over the same alphabet.
        let mut doc = Document::new("r");
        let root = doc.root();
        for _ in 0..branching {
            let a = doc.add_element(root, "a");
            let b = doc.add_element(a, "b");
            doc.add_element(b, "c");
            doc.add_element(a, "c");
            doc.add_element(root, "b");
        }
        let mut universe = LabelUniverse::new();
        let compiled = CompiledExpr::compile(&p, &mut universe);
        let index = DocIndex::build(&doc, &mut universe);
        let reached: BTreeSet<NodeId> = compiled.evaluate(&index, root).into_iter().collect();
        for node in doc.all_nodes() {
            let rho = Path::from_labels(doc.path_from_root(node));
            prop_assert_eq!(reached.contains(&node), rho.matches(&p));
        }
    }
}

// ---------------------------------------------------------------------------
// Relational cover operations
// ---------------------------------------------------------------------------

proptest! {
    /// minimize() returns an equivalent, non-redundant, idempotent cover.
    #[test]
    fn minimize_is_equivalent_nonredundant_idempotent(
        fds in prop::collection::vec(fd_strategy(), 0..8)
    ) {
        let cover = minimize(&fds);
        prop_assert!(covers_equivalent(&cover, &fds));
        prop_assert!(is_nonredundant(&cover));
        prop_assert_eq!(minimize(&cover.clone()), cover);
    }

    /// BCNF decomposition produces lossless, BCNF fragments; 3NF synthesis
    /// produces lossless, dependency-preserving, 3NF fragments — for random
    /// FD sets over a small attribute universe.
    #[test]
    fn normalization_invariants(
        fds in prop::collection::vec(fd_strategy(), 0..7)
    ) {
        let universe: BTreeSet<String> =
            ["p", "q", "r", "s", "t"].into_iter().map(str::to_string).collect();

        let bcnf = bcnf_decompose("r", &universe, &fds);
        prop_assert!(decomposition_is_lossless(&universe, &bcnf, &fds));
        for fragment in &bcnf.relations {
            prop_assert!(is_bcnf(&fragment.schema.attribute_set(), &fds));
        }

        let third = synthesize_3nf("r", &universe, &fds);
        prop_assert!(decomposition_is_lossless(&universe, &third, &fds));
        let fragments: Vec<BTreeSet<String>> =
            third.relations.iter().map(|r| r.schema.attribute_set()).collect();
        prop_assert!(is_dependency_preserving(&fragments, &fds));
        for fragment in &fragments {
            prop_assert!(is_3nf(fragment, &fds));
        }
    }

    /// Attribute closure is monotone and idempotent.
    #[test]
    fn closure_is_monotone_and_idempotent(
        fds in prop::collection::vec(fd_strategy(), 0..8),
        seed in prop::collection::btree_set(
            prop_oneof![Just("p"), Just("q"), Just("r"), Just("s"), Just("t")], 0..4),
        extra in prop_oneof![Just("p"), Just("q"), Just("r")],
    ) {
        let seed: BTreeSet<String> = seed.into_iter().map(str::to_string).collect();
        let cl = closure(&seed, &fds);
        prop_assert!(cl.is_superset(&seed));
        prop_assert_eq!(closure(&cl, &fds).clone(), cl.clone());
        let mut bigger = seed.clone();
        bigger.insert(extra.to_string());
        prop_assert!(closure(&bigger, &fds).is_superset(&cl));
    }
}

// ---------------------------------------------------------------------------
// XML keys: implication soundness against model checking
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Whatever the implication procedure derives from a workload's key set
    /// holds on documents generated to satisfy that key set.
    #[test]
    fn implication_is_sound_on_generated_documents(
        fields in 4usize..10,
        depth in 1usize..4,
        extra_keys in 0usize..6,
        seed in 0u64..50,
        ctx_len in 0usize..3,
        tgt_len in 1usize..3,
    ) {
        let depth = depth.min(fields);
        let w = generate(&WorkloadConfig::new(fields, depth, depth + extra_keys).with_seed(seed));
        let doc = generate_document(&w, &DocConfig { seed, ..DocConfig::default() });
        prop_assume!(satisfies_all(&doc, &w.sigma));

        // Probe keys built from the workload's own vocabulary.
        let labels = &w.level_labels;
        let mut context = PathExpr::epsilon().descendant(&labels[0]);
        for label in labels.iter().take(ctx_len.min(labels.len())).skip(1) {
            context = context.child(label);
        }
        let mut target = PathExpr::epsilon();
        for label in labels.iter().skip(1).take(tgt_len.min(labels.len().saturating_sub(1))) {
            target = target.child(label);
        }
        let level = (ctx_len + tgt_len).min(labels.len()) - 1;
        let probe = XmlKey::new(context, target, [format!("@id{level}")]);
        if implies(&w.sigma, &probe) {
            prop_assert!(
                satisfies(&doc, &probe),
                "implication derived {probe} but a satisfying document violates it"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Shredding invariants
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// With no omissions, shredding a workload document produces exactly
    /// branching^depth tuples and no nulls in identifier fields; omissions
    /// introduce nulls only in non-identifier fields.
    #[test]
    fn shredding_cardinality_and_null_placement(
        fields in 4usize..10,
        depth in 1usize..4,
        branching in 1usize..4,
        seed in 0u64..30,
        omit in prop_oneof![Just(0.0f64), Just(0.5f64)],
    ) {
        let depth = depth.min(fields);
        let w = generate(&WorkloadConfig::new(fields, depth, depth + 2).with_seed(seed));
        let doc = generate_document(
            &w,
            &DocConfig { branching, omission_probability: omit, seed, ..DocConfig::default() },
        );
        let instance = w.universal.shred(&doc);
        prop_assert_eq!(instance.len(), branching.pow(depth as u32));
        for row in instance.rows() {
            for level in 0..depth {
                let id = w.id_field(level);
                prop_assert!(
                    !instance.value(&row, id).is_null(),
                    "identifier {id} must never be null"
                );
            }
        }
        if omit == 0.0 {
            prop_assert!(instance.rows().all(|r| !r.has_null()));
        }
    }

    /// The prepared engine, the one-shot facades and the `GminimumCover`
    /// checker all agree on random workloads and random probe FDs — the
    /// facade/engine agreement contract of the compiled path/key layer.
    #[test]
    fn prepared_engine_agrees_with_facades_on_random_workloads(
        fields in 4usize..10,
        depth in 1usize..4,
        extra_keys in 0usize..5,
        seed in 0u64..40,
        probe_seed in 0u64..16,
    ) {
        use rand::SeedableRng;
        let depth = depth.min(fields);
        let w = generate(&WorkloadConfig::new(fields, depth, depth + extra_keys).with_seed(seed));
        let engine = PropagationEngine::prepare(&w.sigma, &w.universal);

        let mut rng = rand::rngs::StdRng::seed_from_u64(probe_seed);
        let mut probes = vec![xmlprop::workload::target_fd(&w)];
        for i in 0..8 {
            probes.push(xmlprop::workload::random_fd(&w, &mut rng, 1 + i % 3));
        }

        // Batch and per-FD facade answers match the prepared engine.
        let batch = engine.propagate_all(&probes);
        for (fd, verdict) in probes.iter().zip(&batch) {
            prop_assert_eq!(
                propagation(&w.sigma, &w.universal, fd), *verdict,
                "facade/engine disagreement on {}", fd
            );
        }

        // The engine's minimum cover is the facade's minimum cover.
        prop_assert_eq!(
            engine.minimum_cover(),
            minimum_cover(&w.sigma, &w.universal)
        );

        // GminimumCover (built from the same engine) agrees on every probe.
        let g = GMinimumCover::from_engine(engine);
        for (fd, verdict) in probes.iter().zip(&batch) {
            prop_assert_eq!(g.check(fd), *verdict, "GminimumCover disagreement on {}", fd);
        }
    }

    /// Serialize → parse round-trips on random workload documents, both in
    /// compact and pretty form: the reparsed tree has the same `value()`
    /// serialization, the same node count and the same label sequence in
    /// document order.
    #[test]
    fn serialize_parse_roundtrip_on_workload_documents(
        fields in 4usize..10,
        depth in 1usize..4,
        branching in 1usize..4,
        seed in 0u64..40,
        omit in prop_oneof![Just(0.0f64), Just(0.4f64)],
        pretty in prop_oneof![Just(false), Just(true)],
    ) {
        let depth = depth.min(fields);
        let w = generate(&WorkloadConfig::new(fields, depth, depth + 2).with_seed(seed));
        let doc = generate_document(
            &w,
            &DocConfig { branching, omission_probability: omit, seed, ..DocConfig::default() },
        );
        let text = if pretty {
            xmlprop::xmltree::to_pretty_xml(&doc)
        } else {
            xmlprop::xmltree::to_xml(&doc)
        };
        let reparsed = Document::parse_str(&text).unwrap();
        prop_assert_eq!(reparsed.len(), doc.len());
        prop_assert_eq!(reparsed.value(reparsed.root()), doc.value(doc.root()));
        let labels = |d: &Document| -> Vec<String> {
            d.all_nodes().into_iter().map(|n| d.label(n).to_string()).collect()
        };
        prop_assert_eq!(labels(&reparsed), labels(&doc));
    }

    /// The polynomial and exponential minimum-cover algorithms agree on
    /// random small workloads (the paper's central claim).
    #[test]
    fn minimum_cover_matches_naive_on_random_workloads(
        fields in 4usize..7,
        depth in 1usize..4,
        extra_keys in 0usize..5,
        seed in 0u64..40,
        ratio in prop_oneof![Just(0.0f64), Just(0.3f64), Just(0.7f64)],
    ) {
        let depth = depth.min(fields);
        let config = WorkloadConfig {
            element_field_ratio: ratio,
            ..WorkloadConfig::new(fields, depth, depth + extra_keys)
        }
        .with_seed(seed);
        let w = generate(&config);
        let fast = xmlprop::core::minimum_cover(&w.sigma, &w.universal);
        let slow = xmlprop::core::naive_minimum_cover(&w.sigma, &w.universal);
        prop_assert!(
            covers_equivalent(&fast, &slow),
            "mismatch for {:?}: fast={:?} slow={:?}", config, fast, slow
        );
    }
}
