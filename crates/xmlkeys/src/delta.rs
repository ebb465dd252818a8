//! Incremental key validation under document deltas.
//!
//! [`IncrementalValidator`] keeps, per key of Σ, the violations found
//! under each context in a [`RootBindings`] cache, the one the incremental
//! shredder keeps its row blocks in.  After an edit the cache re-runs the
//! batch check of one context ([`KeyIndex::violations`] runs the same one)
//! only where the edit can have changed its result.
//!
//! The locality argument: all targets of a context `c`, and all the
//! attribute children their tuples are built from, live inside
//! `subtree(c)`; a delta changes subtree content only along its
//! [`AppliedDelta::dirty_chain`].  So a context off that chain keeps its
//! violations, and only contexts on the chain, or new since the last edit,
//! are checked again.  Context *sets* are re-evaluated from the patched
//! [`DocIndex`] after an insert or a removal (a cheap postings scan), which
//! is what makes contexts appear and disappear correctly under structural
//! edits; a text edit changes no context set and evaluates none.
//!
//! The result is bit-for-bit the list [`KeyIndex::violations`] would
//! produce from scratch on the mutated document — same violations, same
//! order — which the differential proptests pin.

use crate::index::{KeyIndex, ValidateScratch};
use crate::satisfy::Violation;
use xmlprop_xmlpath::{EvalScratch, RootBindings};
use xmlprop_xmltree::{AppliedDelta, DocIndex, Document};

/// Delta-maintained validation state for one document against one
/// [`KeyIndex`]; see the module docs.
#[derive(Debug)]
pub struct IncrementalValidator {
    /// Per key of Σ, in Σ order: the violations under each context, with
    /// contexts in document order (the assembly order of
    /// [`IncrementalValidator::violations`]).
    keys: Vec<RootBindings<Vec<Violation>>>,
    /// The number of violations over all keys.
    count: usize,
    /// [`Document::epoch`] the state is current for.
    epoch: u64,
    /// Scratch of the context-path evaluations.
    eval: EvalScratch,
    scratch: ValidateScratch,
}

impl IncrementalValidator {
    /// Builds the full validation state for `doc` (equivalent to one
    /// from-scratch [`KeyIndex::violations`] pass, stored in updatable
    /// form).  `index` must be current for `doc` and built against an
    /// extension of the key universe.
    pub fn new(keys: &KeyIndex, doc: &Document, index: &DocIndex) -> Self {
        let mut validator = IncrementalValidator {
            keys: (0..keys.len()).map(|_| RootBindings::default()).collect(),
            count: 0,
            epoch: doc.epoch(),
            eval: EvalScratch::default(),
            scratch: ValidateScratch::default(),
        };
        validator.refresh(keys, doc, index, None);
        validator
    }

    /// Adjusts the state for one applied delta.  Call order per edit:
    /// [`Document::apply`], then [`DocIndex::apply_delta`], then this —
    /// the index must already be patched, and the validator must have
    /// seen every earlier delta (both debug-asserted via epochs).
    pub fn apply(
        &mut self,
        keys: &KeyIndex,
        doc: &Document,
        index: &DocIndex,
        applied: &AppliedDelta,
    ) {
        debug_assert_eq!(
            self.epoch + 1,
            doc.epoch(),
            "the incremental validator must see every delta exactly once",
        );
        self.refresh(keys, doc, index, Some(applied));
        self.epoch = doc.epoch();
    }

    /// All current violations, in the exact order a from-scratch
    /// [`KeyIndex::violations`] pass over the mutated document produces
    /// (Σ order, contexts in document order).
    pub fn violations(&self) -> Vec<Violation> {
        self.keys
            .iter()
            .flat_map(RootBindings::results)
            .flatten()
            .cloned()
            .collect()
    }

    /// The number of current violations, without materializing them.
    pub fn violation_count(&self) -> usize {
        self.count
    }

    /// True if the document currently satisfies every key of Σ.
    pub fn satisfies(&self) -> bool {
        self.count == 0
    }

    /// Refreshes every key's cache, re-checking the contexts it reports
    /// dirty (all of them when `applied` is `None`).
    fn refresh(
        &mut self,
        keys: &KeyIndex,
        doc: &Document,
        index: &DocIndex,
        applied: Option<&AppliedDelta>,
    ) {
        let IncrementalValidator {
            count,
            eval,
            scratch,
            ..
        } = self;
        for (k, contexts) in self.keys.iter_mut().enumerate() {
            let path = keys.keys()[k].context();
            let vanished = contexts.refresh(path, doc, index, applied, eval, |pos, old| {
                let mut violations = Vec::new();
                keys.check_context(k, index, pos, scratch, Some(&mut violations));
                *count = *count - old.map_or(0, Vec::len) + violations.len();
                violations
            });
            *count -= vanished.iter().map(Vec::len).sum::<usize>();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::validation_proptests::{build_doc, key_strategy};
    use crate::{example_2_1_keys, KeySet};
    use proptest::prelude::*;
    use xmlprop_xmltree::{Delta, Fragment, NodeId, NodeKind};

    /// Applies a script of deltas, asserting after each one that the
    /// incremental violations equal a from-scratch pass bit-for-bit.
    fn run_script(sigma: &KeySet, mut doc: Document, script: Vec<Delta>) {
        let mut keys = KeyIndex::new(sigma);
        let mut universe = keys.universe().clone();
        let mut index = DocIndex::build(&doc, &mut universe);
        let mut validator = IncrementalValidator::new(&keys, &doc, &index);
        assert_eq!(validator.violations(), keys.violations(&doc, &index));
        for delta in &script {
            let applied = doc.apply(delta).unwrap();
            index.apply_delta(&doc, &applied, &mut universe);
            validator.apply(&keys, &doc, &index, &applied);
            let scratch = keys.index_document(&doc);
            let expected = keys.violations(&doc, &scratch);
            assert_eq!(validator.violations(), expected, "after {delta:?}");
            assert_eq!(validator.violation_count(), expected.len());
            assert_eq!(validator.satisfies(), expected.is_empty());
        }
    }

    #[test]
    fn incremental_tracks_scratch_on_fig1_edits() {
        let doc = xmlprop_xmltree::sample::fig1();
        let books: Vec<NodeId> = doc
            .all_nodes()
            .into_iter()
            .filter(|&n| doc.label(n) == "book")
            .collect();
        let isbn0 = doc.attribute_node(books[0], "isbn").unwrap();
        let isbn1 = doc.attribute_node(books[1], "isbn").unwrap();
        let chapter = doc.children_labelled(books[0], "chapter").next().unwrap();
        let script = vec![
            // Collide the two isbn values: one DuplicateKeyValue appears.
            Delta::SetText {
                node: isbn1,
                text: "123".into(),
            },
            // Resolve it again.
            Delta::SetText {
                node: isbn1,
                text: "999".into(),
            },
            // A second isbn on book 0: DuplicateAttribute.
            Delta::InsertSubtree {
                parent: books[0],
                position: 0,
                fragment: Fragment::Attribute {
                    name: "isbn".into(),
                    value: "123".into(),
                },
            },
            // Remove the original: back to one isbn.
            Delta::RemoveSubtree { node: isbn0 },
            // A whole new book without isbn: MissingAttribute, plus new
            // chapter contexts.
            Delta::InsertSubtree {
                parent: doc.root(),
                position: 2,
                fragment: Fragment::Element(
                    Document::parse_str(
                        "<book><title>New</title><chapter number=\"1\"><name>A</name></chapter></book>",
                    )
                    .unwrap(),
                ),
            },
            // Remove a chapter subtree: contexts vanish.
            Delta::RemoveSubtree { node: chapter },
        ];
        run_script(&example_2_1_keys(), doc, script);
    }

    #[test]
    fn incremental_handles_duplicate_tuples_through_reuse() {
        // Three siblings with equal tuples; edits flip which ones collide.
        let doc = Document::parse_str(r#"<r><b isbn="1"/><b isbn="2"/><b isbn="1"/></r>"#).unwrap();
        let sigma = KeySet::from_keys(vec![crate::XmlKey::parse("(ε, (//b, {@isbn}))").unwrap()]);
        let bs: Vec<NodeId> = doc
            .all_nodes()
            .into_iter()
            .filter(|&n| doc.label(n) == "b")
            .collect();
        let a0 = doc.attribute_node(bs[0], "isbn").unwrap();
        let a1 = doc.attribute_node(bs[1], "isbn").unwrap();
        let script = vec![
            // 1,2,1 → 2,2,1: the colliding pair shifts.
            Delta::SetText {
                node: a0,
                text: "2".into(),
            },
            // 2,2,1 → 2,1,1.
            Delta::SetText {
                node: a1,
                text: "1".into(),
            },
            // Remove the first: 1,1 still collide.
            Delta::RemoveSubtree { node: bs[0] },
            // Remove another: no collision left.
            Delta::RemoveSubtree { node: bs[1] },
        ];
        run_script(&sigma, doc, script);
    }

    /// Derives one edit from a selector triple over the current document:
    /// a text rewrite, a subtree removal, or an insert of an element
    /// fragment, attribute or text node, at a position [`Document::apply`]
    /// accepts.
    fn derive_edit(doc: &Document, kind: u8, sel: u8, aux: u8) -> Option<Delta> {
        let all = doc.all_nodes();
        let pick = |nodes: &[NodeId]| nodes.get(sel as usize % nodes.len().max(1)).copied();
        let elements: Vec<NodeId> = all
            .iter()
            .copied()
            .filter(|&n| matches!(doc.kind(n), NodeKind::Element))
            .collect();
        let parent = pick(&elements)?;
        let kinds: Vec<bool> = doc
            .children(parent)
            .map(|c| doc.kind(c).is_attribute())
            .collect();
        // Attributes go among the leading attributes, content after the
        // last attribute (mutation-built documents interleave the two).
        let attrs = kinds.iter().take_while(|&&a| a).count();
        let last_attr = kinds.iter().rposition(|&a| a).map_or(0, |i| i + 1);
        let content = last_attr + aux as usize % (kinds.len() - last_attr + 1);
        let value = ["0", "1", "2"][aux as usize % 3];
        match kind % 5 {
            0 => {
                let leaves: Vec<NodeId> = all
                    .iter()
                    .copied()
                    .filter(|&n| !matches!(doc.kind(n), NodeKind::Element))
                    .collect();
                Some(Delta::SetText {
                    node: pick(&leaves)?,
                    text: value.into(),
                })
            }
            1 => Some(Delta::RemoveSubtree {
                node: pick(&all[1..])?,
            }),
            2 => {
                let label = ["a", "b", "c"][aux as usize % 3];
                let xml = format!(r#"<{label} x="{value}"><a y="{value}">t0</a><b/></{label}>"#);
                Some(Delta::InsertSubtree {
                    parent,
                    position: content,
                    fragment: Fragment::Element(Document::parse_str(&xml).unwrap()),
                })
            }
            3 => Some(Delta::InsertSubtree {
                parent,
                position: aux as usize % (attrs + 1),
                fragment: Fragment::Attribute {
                    name: ["x", "y"][aux as usize % 2].into(),
                    value: value.into(),
                },
            }),
            _ => Some(Delta::InsertSubtree {
                parent,
                position: content,
                fragment: Fragment::Text(format!("t{}", aux % 2)),
            }),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// After every random edit, the incremental state equals a batch
        /// pass over a rebuilt index, on random documents and random keys.
        #[test]
        fn incremental_matches_batch_on_random_documents_and_keys(
            steps in prop::collection::vec((0u8..16, 0u8..4, 0u8..6), 0..40),
            keys in prop::collection::vec(key_strategy(), 1..5),
            edits in prop::collection::vec((0u8..=255, 0u8..=255, 0u8..=255), 1..12),
        ) {
            let mut doc = build_doc(&steps);
            let mut keys = KeyIndex::new(&KeySet::from_keys(keys));
            let mut universe = keys.universe().clone();
            let mut index = DocIndex::build(&doc, &mut universe);
            let mut validator = IncrementalValidator::new(&keys, &doc, &index);
            for &(kind, sel, aux) in &edits {
                let Some(delta) = derive_edit(&doc, kind, sel, aux) else {
                    continue;
                };
                let applied = doc.apply(&delta).unwrap();
                index.apply_delta(&doc, &applied, &mut universe);
                validator.apply(&keys, &doc, &index, &applied);
                let rebuilt = keys.index_document(&doc);
                let expected = keys.violations(&doc, &rebuilt);
                prop_assert_eq!(validator.violations(), expected.clone(), "after {:?}", delta);
                prop_assert_eq!(validator.violation_count(), expected.len());
                prop_assert_eq!(validator.satisfies(), keys.satisfies(&doc, &rebuilt));
            }
        }
    }
}
