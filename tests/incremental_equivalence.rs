//! Incremental / from-scratch equivalence under document mutation.
//!
//! For random synthetic workloads and random edit scripts — subtree
//! inserts (elements, attributes, text), subtree removals and text
//! rewrites — the incrementally maintained state
//! ([`CorpusBundle::open_incremental`] + [`CorpusBundle::apply_delta`])
//! must stay **bit-for-bit identical** to re-running the whole pipeline
//! from scratch on the mutated document after *every* edit:
//!
//! * the violation list equals a fresh `KeyIndex::violations` pass —
//!   same violations, same order;
//! * the maintained database equals a fresh `TransformationPlan::shred_all`,
//!   both for the universal rule and for a block-shredded chain rule;
//! * the tuple deltas each edit reports are net and take the old bag of
//!   rows of each relation to the new one;
//! * the mutated document serializes to XML that reparses to the same
//!   bytes, and the reparsed document shreds to the same database (node
//!   ids differ after a reparse, values may not).
//!
//! Like the pipeline equivalence suite, CI runs this twice (default and
//! `XMLPROP_TEST_JOBS=4`); the property is single-threaded, so the second
//! pass simply re-exercises it in that configuration.

use proptest::prelude::*;
use std::collections::HashMap;
use xmlprop::pipeline::{CorpusBundle, PreparedState};
use xmlprop::reldb::Row;
use xmlprop::workload::{generate, generate_document, DocConfig, Workload, WorkloadConfig};
use xmlprop::xmltransform::{parse_single_rule, TableRule, Transformation};
use xmlprop::xmltree::{to_xml, Delta, Document, Fragment, NodeId, NodeKind};

/// The chain of entity identifiers `C(id0, id1, …)`: one row per deepest
/// entity.  Its root has the single child variable `v0`, so unlike the
/// universal rule it is shredded block by block, one block per `e0`.
fn chain_rule(w: &Workload) -> TableRule {
    let mut body = String::new();
    let mut fields = Vec::new();
    for (level, label) in w.level_labels.iter().enumerate() {
        let step = match level {
            0 => format!("xr//{label}"),
            _ => format!("v{}/{label}", level - 1),
        };
        let id = w.id_field(level);
        body.push_str(&format!(
            "v{level} := {step}; w{level} := v{level}/@{id}; {id} := value(w{level}); "
        ));
        fields.push(id);
    }
    parse_single_rule(&format!("rule C({}) {{ {body}}}", fields.join(", ")))
        .expect("chain rule is well-formed")
}

/// Derives one concrete edit from the selector triple over the current
/// document, or `None` when the document offers no site for that edit
/// kind (e.g. no removable node left).
fn derive_edit(doc: &Document, kind: u8, sel: u8, aux: u8) -> Option<Delta> {
    let pick = |nodes: &[NodeId], sel: u8| nodes[sel as usize % nodes.len()];
    // Length of the leading attribute run.  XML serialization prints
    // attributes in the start tag, so an attribute inserted after an
    // element/text child (or a child inserted before an attribute) would
    // not survive a serialize/parse round trip; generated edits keep the
    // attribute-prefix invariant that parsed documents always have.
    let attr_prefix = |parent: NodeId| {
        doc.children(parent)
            .take_while(|&c| matches!(doc.kind(c), NodeKind::Attribute))
            .count()
    };
    let all = doc.all_nodes();
    let elements: Vec<NodeId> = all
        .iter()
        .copied()
        .filter(|&n| matches!(doc.kind(n), NodeKind::Element))
        .collect();
    match kind % 5 {
        // Rewrite the text of an attribute or text node.
        0 => {
            let leaves: Vec<NodeId> = all
                .iter()
                .copied()
                .filter(|&n| !matches!(doc.kind(n), NodeKind::Element))
                .collect();
            if leaves.is_empty() {
                return None;
            }
            Some(Delta::SetText {
                node: pick(&leaves, sel),
                text: format!("t{aux}"),
            })
        }
        // Remove a non-root subtree.
        1 => {
            if all.len() <= 1 {
                return None;
            }
            Some(Delta::RemoveSubtree {
                node: pick(&all[1..], sel),
            })
        }
        // Insert an element fragment (with an attribute and text of its
        // own, so the grafted subtree is more than one node).
        2 => {
            let parent = pick(&elements, sel);
            let k = attr_prefix(parent);
            let position = k + aux as usize % (doc.children(parent).count() - k + 1);
            let fragment = Document::parse_str(&format!(
                "<e{}><l{} a=\"{aux}\">x</l{}></e{}>",
                aux % 3,
                aux % 2,
                aux % 2,
                aux % 3,
            ))
            .expect("generated fragment parses");
            Some(Delta::InsertSubtree {
                parent,
                position,
                fragment: Fragment::Element(fragment),
            })
        }
        // Insert an attribute (duplicate names allowed: that is exactly
        // the DuplicateAttribute violation class).
        3 => {
            let parent = pick(&elements, sel);
            Some(Delta::InsertSubtree {
                parent,
                position: aux as usize % (attr_prefix(parent) + 1),
                fragment: Fragment::Attribute {
                    name: format!("f{}", aux % 4),
                    value: format!("{}", aux % 3),
                },
            })
        }
        // Insert a bare text node.
        _ => {
            let parent = pick(&elements, sel);
            let k = attr_prefix(parent);
            Some(Delta::InsertSubtree {
                parent,
                position: k + aux as usize % (doc.children(parent).count() - k + 1),
                fragment: Fragment::Text(format!("s{aux}")),
            })
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    #[test]
    fn incremental_maintenance_is_bit_for_bit_from_scratch(
        fields in 8usize..12,
        depth in 2usize..4,
        keys in 6usize..9,
        seed in 0u64..1000,
        branching in 1usize..4,
        edits in prop::collection::vec((0u8..=255, 0u8..=255, 0u8..=255), 6..14),
    ) {
        let w = generate(&WorkloadConfig::new(fields, depth, keys).with_seed(seed));
        let doc = generate_document(&w, &DocConfig {
            branching,
            omission_probability: 0.25,
            seed: seed ^ 0xbeef,
            depth: None,
        });
        let transformation = Transformation::new(vec![w.universal.clone(), chain_rule(&w)]);
        let bundle = CorpusBundle::prepare(w.sigma.clone(), transformation);
        let mut state = bundle.open_incremental(doc);

        let mut applied = 0usize;
        for &(kind, sel, aux) in &edits {
            let Some(delta) = derive_edit(state.document(), kind, sel, aux) else {
                continue;
            };
            // Randomly-derived edits may be rejected (e.g. inserting under
            // an attribute); rejection must leave no trace, which the
            // from-scratch comparison below still checks.
            let before = state.database(&bundle);
            if let Ok(report) = bundle.apply_delta(&mut state, &delta) {
                applied += 1;
                prop_assert_eq!(report.nodes, state.document().len());
                prop_assert_eq!(report.violations, state.violation_count());
                // The reported tuple deltas are net and take each old bag
                // of rows to the new one.
                let after = state.database(&bundle);
                for relation in before.relations() {
                    let name = relation.schema().name();
                    let mut bag: HashMap<Row<'_>, i64> = HashMap::new();
                    for row in relation.rows() {
                        *bag.entry(row).or_insert(0) += 1;
                    }
                    if let Some(d) = report.relations.iter().find(|d| d.relation() == name) {
                        prop_assert!(
                            !d.inserted().rows().any(|t| d.deleted().rows().any(|u| u == t)),
                            "tuple delta for {} is not net", name
                        );
                        for t in d.deleted().rows() {
                            *bag.entry(t).or_insert(0) -= 1;
                        }
                        for t in d.inserted().rows() {
                            *bag.entry(t).or_insert(0) += 1;
                        }
                    }
                    for row in after.get(name).unwrap().rows() {
                        *bag.entry(row).or_insert(0) -= 1;
                    }
                    prop_assert!(
                        bag.values().all(|&n| n == 0),
                        "tuple delta for {} does not reconcile", name
                    );
                }
            }

            // From-scratch reference over the mutated document.
            let mut scratch = bundle.scratch();
            let index = scratch.index_document(state.document());
            let fresh_violations = bundle.keys().violations(state.document(), &index);
            let fresh_db = bundle.plan().shred_all(state.document(), &index);
            prop_assert_eq!(state.violations(), fresh_violations, "violations after edit");
            prop_assert_eq!(state.database(&bundle), fresh_db, "database after edit");
        }
        prop_assert!(applied > 0, "no edit of the script was applicable");

        // The mutated document round-trips through serialization, and the
        // reparsed document (fresh node ids) shreds identically.
        let xml = to_xml(state.document());
        let reparsed = Document::parse_str(&xml).expect("mutated document reparses");
        prop_assert_eq!(to_xml(&reparsed), xml, "serialize/parse round trip");
        let mut scratch = bundle.scratch();
        let index = scratch.index_document(&reparsed);
        prop_assert_eq!(
            state.database(&bundle),
            bundle.plan().shred_all(&reparsed, &index),
            "reparsed database"
        );
    }
}
