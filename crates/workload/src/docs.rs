//! Random document generation for a synthetic workload.
//!
//! Documents produced here are guaranteed to satisfy the workload's key set
//! `Σ` (identifier and alternative-key attributes are unique among siblings,
//! uniqueness-keyed element children appear at most once), which is what the
//! soundness property tests need: whatever the propagation algorithms derive
//! from `Σ` must hold on the shredded instance of any such document.

use crate::Workload;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xmlprop_xmltree::{Document, NodeId};

/// Parameters of document generation.
#[derive(Debug, Clone, PartialEq)]
pub struct DocConfig {
    /// Number of entity children per node at every level.
    pub branching: usize,
    /// Probability that an optional (non-identifier) attribute or element
    /// child is omitted, exercising the null paths of the shredding
    /// semantics.
    pub omission_probability: f64,
    /// RNG seed.
    pub seed: u64,
    /// How many entity levels to materialize: `None` grows all of the
    /// workload's levels; `Some(d)` grows only the topmost `d`.  Together
    /// with `branching` this dials the node count (the entity count is
    /// `branching + branching² + … + branching^levels`, each entity carrying
    /// its level's field nodes on top), which is how the document-engine
    /// benches reach 10⁴–10⁶-node documents deterministically.  There is no
    /// silent cap: asking for more levels than the workload has panics.
    pub depth: Option<usize>,
}

impl Default for DocConfig {
    fn default() -> Self {
        DocConfig {
            branching: 3,
            omission_probability: 0.2,
            seed: 7,
            depth: None,
        }
    }
}

impl DocConfig {
    /// The number of entity levels this configuration materializes for
    /// `workload`.
    ///
    /// # Panics
    ///
    /// Panics if an explicit `depth` exceeds the workload's level count
    /// (the generator refuses to silently cap the request).
    pub fn levels(&self, workload: &Workload) -> usize {
        match self.depth {
            None => workload.config.depth,
            Some(d) => {
                assert!(
                    d <= workload.config.depth,
                    "DocConfig.depth = {d} exceeds the workload's {} entity levels",
                    workload.config.depth
                );
                d
            }
        }
    }
}

/// Size report of one generated document; see
/// [`generate_document_with_report`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DocReport {
    /// Total node count (elements, attributes and text), the scale
    /// parameter of the document-engine benches.
    pub nodes: usize,
    /// Number of entity elements generated across all levels.
    pub entities: usize,
    /// Number of entity levels materialized.
    pub levels: usize,
}

/// Generates a random document conforming to the workload's hierarchy and
/// satisfying its key set.
pub fn generate_document(workload: &Workload, config: &DocConfig) -> Document {
    generate_document_with_report(workload, config).0
}

/// [`generate_document`] plus a [`DocReport`] stating exactly how large the
/// document came out — benches record the node count instead of trusting
/// the requested parameters.
pub fn generate_document_with_report(
    workload: &Workload,
    config: &DocConfig,
) -> (Document, DocReport) {
    let levels = config.levels(workload);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut doc = Document::new("r");
    let root = doc.root();
    // An extra wrapper level exercises the `//` step of the level-0 mapping.
    let wrapper = doc.add_element(root, "collection");
    let mut entities = 0usize;
    grow(
        workload,
        config,
        levels,
        &mut rng,
        &mut doc,
        wrapper,
        0,
        &mut entities,
    );
    let report = DocReport {
        nodes: doc.len(),
        entities,
        levels,
    };
    (doc, report)
}

#[allow(clippy::too_many_arguments)]
fn grow(
    workload: &Workload,
    config: &DocConfig,
    levels: usize,
    rng: &mut StdRng,
    doc: &mut Document,
    parent: NodeId,
    level: usize,
    entities: &mut usize,
) {
    if level >= levels {
        return;
    }
    let label = &workload.level_labels[level];
    for sibling in 0..config.branching.max(1) {
        let node = doc.add_element(parent, label.clone());
        *entities += 1;
        // Identifier: unique among siblings (key condition 2) and always
        // present (key condition 1).
        doc.add_attribute(node, format!("id{level}"), format!("{label}-{sibling}"));
        // Other attribute fields: alternative-key attributes must also be
        // unique among siblings and present; to keep generation simple every
        // attribute field is generated that way, with a random component so
        // different parents may or may not collide.
        for field in workload.attr_fields_per_level[level].iter().skip(1) {
            let collide: u8 = rng.gen_range(0..3);
            doc.add_attribute(
                node,
                format!("@{field}"),
                format!("{field}-{sibling}-{collide}"),
            );
        }
        // Element fields: at most one occurrence (uniqueness keys demand at
        // most one), possibly omitted to exercise nulls.
        for field in &workload.element_fields_per_level[level] {
            if rng.gen_bool(config.omission_probability) {
                continue;
            }
            let child = doc.add_element(node, format!("{field}_el"));
            let text: u16 = rng.gen_range(0..1000);
            doc.add_text(child, format!("{field}-text-{text}"));
        }
        grow(
            workload,
            config,
            levels,
            rng,
            doc,
            node,
            level + 1,
            entities,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate, WorkloadConfig};
    use xmlprop_xmlkeys::satisfies_all;

    #[test]
    fn generated_documents_satisfy_sigma() {
        for seed in 0..5 {
            let w = generate(&WorkloadConfig::new(14, 4, 12).with_seed(seed));
            let doc = generate_document(
                &w,
                &DocConfig {
                    seed,
                    ..DocConfig::default()
                },
            );
            assert!(
                satisfies_all(&doc, w.sigma.iter()),
                "seed {seed}: generated document violates its own key set"
            );
        }
    }

    #[test]
    fn depth_knob_truncates_levels_and_reports_sizes() {
        let w = generate(&WorkloadConfig::new(12, 4, 8));
        let (full, full_report) = generate_document_with_report(
            &w,
            &DocConfig {
                branching: 2,
                omission_probability: 0.0,
                ..DocConfig::default()
            },
        );
        let (shallow, shallow_report) = generate_document_with_report(
            &w,
            &DocConfig {
                branching: 2,
                omission_probability: 0.0,
                depth: Some(2),
                ..DocConfig::default()
            },
        );
        assert_eq!(full_report.nodes, full.len());
        assert_eq!(shallow_report.nodes, shallow.len());
        assert_eq!(full_report.levels, 4);
        assert_eq!(shallow_report.levels, 2);
        // b + b² entities for the truncated doc, b + … + b⁴ for the full one.
        assert_eq!(shallow_report.entities, 2 + 4);
        assert_eq!(full_report.entities, 2 + 4 + 8 + 16);
        assert!(full.len() > shallow.len());
        // Truncated documents still satisfy Σ (the keys constrain what
        // exists; absent levels violate nothing).
        assert!(satisfies_all(&shallow, w.sigma.iter()));
    }

    #[test]
    #[should_panic(expected = "exceeds the workload's")]
    fn depth_knob_refuses_to_exceed_the_workload() {
        let w = generate(&WorkloadConfig::new(12, 4, 8));
        generate_document(
            &w,
            &DocConfig {
                depth: Some(5),
                ..DocConfig::default()
            },
        );
    }

    #[test]
    fn node_counts_scale_into_the_bench_range() {
        // The grid the `docs` experiment uses must actually reach ~10⁴
        // nodes deterministically (larger sizes scale the same formula).
        let w = generate(&WorkloadConfig::new(15, 4, 10));
        let (_, report) = generate_document_with_report(
            &w,
            &DocConfig {
                branching: 6,
                omission_probability: 0.0,
                seed: 1,
                ..DocConfig::default()
            },
        );
        assert!(report.nodes >= 5_000, "got {} nodes", report.nodes);
        assert_eq!(report.entities, 6 + 36 + 216 + 1296);
    }

    #[test]
    fn document_size_scales_with_branching() {
        let w = generate(&WorkloadConfig::new(10, 3, 6));
        let small = generate_document(
            &w,
            &DocConfig {
                branching: 2,
                ..DocConfig::default()
            },
        );
        let large = generate_document(
            &w,
            &DocConfig {
                branching: 4,
                ..DocConfig::default()
            },
        );
        assert!(large.len() > small.len());
    }

    #[test]
    fn shredded_instance_has_expected_row_count() {
        // With no omissions and branching b over depth d, the Cartesian
        // semantics produces exactly b^d rows (one per deepest entity, since
        // every non-entity child is unique or missing).
        let w = generate(&WorkloadConfig::new(8, 3, 6));
        let doc = generate_document(
            &w,
            &DocConfig {
                branching: 2,
                omission_probability: 0.0,
                seed: 1,
                ..DocConfig::default()
            },
        );
        let rel = w.universal.shred(&doc);
        assert_eq!(rel.len(), 8); // 2^3
    }

    #[test]
    fn omissions_produce_nulls() {
        let w = generate(&WorkloadConfig::new(16, 3, 12).with_seed(3));
        let doc = generate_document(
            &w,
            &DocConfig {
                branching: 2,
                omission_probability: 0.9,
                seed: 3,
                ..DocConfig::default()
            },
        );
        let rel = w.universal.shred(&doc);
        let has_null = rel.rows().any(|r| r.has_null());
        // With 90% omission of element fields nulls are effectively certain
        // as long as the workload has any element field.
        let any_element_field = w
            .element_fields_per_level
            .iter()
            .any(|fields| !fields.is_empty());
        if any_element_field {
            assert!(has_null);
        }
    }

    #[test]
    fn propagated_fds_hold_on_generated_instances() {
        // End-to-end soundness: everything in the minimum cover holds, under
        // the paper's null semantics, on instances shredded from documents
        // that satisfy Σ.
        for seed in 0..4 {
            let w = generate(&WorkloadConfig::new(12, 3, 10).with_seed(seed));
            let cover = xmlprop_core::minimum_cover(&w.sigma, &w.universal);
            let doc = generate_document(
                &w,
                &DocConfig {
                    seed: seed + 100,
                    ..DocConfig::default()
                },
            );
            let rel = w.universal.shred(&doc);
            for fd in &cover {
                assert!(
                    rel.satisfies_fd_paper(fd),
                    "seed {seed}: cover FD {fd} violated on a generated instance"
                );
            }
        }
    }
}
