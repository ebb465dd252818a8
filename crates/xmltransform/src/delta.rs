//! Incremental re-shredding under document deltas.
//!
//! [`IncrementalShredder`] keeps the shredded output of a
//! [`TransformationPlan`] in delta-maintainable form.  For a
//! **block-decomposable** plan (see `ShredPlan::anchor_var`: the root
//! variable has a single child variable, the *anchor*, and no field reads
//! `value(xr)`), the relation is the concatenation — in document order —
//! of independent row blocks, one per anchor binding.  Rows of a block
//! only depend on the subtree under the anchor, and a block is a
//! [`Relation`] of materialized value *strings*, not positions, so it stays
//! valid as long as the edit's [`AppliedDelta::dirty_chain`] misses its
//! anchor.  The blocks live in a [`RootBindings`] cache, the one the
//! incremental key validator keeps its per-context violations in.  Each
//! [`IncrementalShredder::apply`] refreshes it: the anchor binding set is
//! re-evaluated over the patched [`DocIndex`] after an insert or a removal
//! (a cheap path scan) and not at all after a text edit, only dirty or new
//! blocks are re-shredded, and vanished blocks come back in one linear
//! sweep.  The net row-level effect per relation is reported as
//! [`RelationDelta`] insert/delete sets: rows a re-shredded block shares
//! with its old version at either end are skipped, and the rest cancel
//! across the relation.
//!
//! Plans that are not block-decomposable (several root-child variables
//! form a root-level Cartesian product, or a field reads `value(xr)`)
//! fall back to a full re-shred over the patched index plus the same
//! multiset diff — still rebuild-free on the index side, and the
//! `value()` memo carries most serializations over: its value-keyed
//! entries never go stale, and its node-keyed ones are invalidated only
//! along the dirty chain.
//!
//! [`IncrementalShredder::database`] reassembles the full [`Database`]
//! bit-for-bit equal to [`TransformationPlan::shred_all`] on the mutated
//! document, which the differential proptests pin.

use crate::plan::{ShredPlan, ShredScratch, TransformationPlan};
use std::collections::HashMap;
use xmlprop_reldb::{Database, Relation, Row, Value};
use xmlprop_xmlpath::{CompiledExpr, EvalScratch, RootBindings};
use xmlprop_xmltree::{AppliedDelta, DocIndex, Document};

/// The row-level effect of one delta on one relation: the rows that left
/// the instance and the rows that entered it, each kept as a [`Relation`]
/// of the affected schema.  The two are net under bag semantics: a row
/// appearing `n` times more than before occurs `n` times in `inserted`,
/// and no row occurs in both.  Ordering within each is deterministic but
/// otherwise unspecified.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationDelta {
    inserted: Relation,
    deleted: Relation,
}

impl RelationDelta {
    /// The name of the affected relation.
    pub fn relation(&self) -> &str {
        self.inserted.schema().name()
    }

    /// The rows inserted into the relation by the delta.
    pub fn inserted(&self) -> &Relation {
        &self.inserted
    }

    /// The rows deleted from the relation by the delta.
    pub fn deleted(&self) -> &Relation {
        &self.deleted
    }

    /// True if the delta left the relation unchanged.
    pub fn is_empty(&self) -> bool {
        self.inserted.is_empty() && self.deleted.is_empty()
    }
}

/// Delta-maintained shredding state for one document against one
/// [`TransformationPlan`]; see the module docs.
#[derive(Debug)]
pub struct IncrementalShredder {
    /// Per rule of the transformation, in plan order.
    rules: Vec<RuleState>,
    /// [`Document::epoch`] the state is current for.
    epoch: u64,
    scratch: ShredScratch,
    /// Scratch of the anchor-path evaluations.
    eval: EvalScratch,
}

/// Updatable shredding state of one rule.
#[derive(Debug)]
enum RuleState {
    /// Block-decomposable plan: one row block per anchor binding, in
    /// document order (the relation is their blocks concatenated; no
    /// binding ⇒ the single all-null row).
    Blocks(RootBindings<Relation>),
    /// Fallback: the full current relation, re-shredded per delta.
    Full { rows: Relation },
}

impl IncrementalShredder {
    /// Builds the full shredding state for `doc` (equivalent to one
    /// [`TransformationPlan::shred_all`] pass, stored in updatable form).
    /// `index` must be current for `doc` and built against the plan's
    /// universe.
    pub fn new(plan: &TransformationPlan, doc: &Document, index: &DocIndex) -> Self {
        index.debug_assert_current(doc);
        let mut scratch = ShredScratch::new();
        let mut eval = EvalScratch::default();
        let rules = plan
            .plans()
            .iter()
            .map(|rule| {
                if rule.anchor_var().is_some() {
                    let mut blocks = RootBindings::default();
                    blocks.refresh(anchor_path(rule), doc, index, None, &mut eval, |pos, _| {
                        rule.shred_block(doc, index, &mut scratch, pos)
                    });
                    RuleState::Blocks(blocks)
                } else {
                    RuleState::Full {
                        rows: rule.shred_with(doc, index, &mut scratch),
                    }
                }
            })
            .collect();
        IncrementalShredder {
            rules,
            epoch: doc.epoch(),
            scratch,
            eval,
        }
    }

    /// Adjusts the state for one applied delta and reports the row-level
    /// effect (one [`RelationDelta`] per relation the delta touched).
    /// Call order per edit: [`Document::apply`], then
    /// [`DocIndex::apply_delta`], then this — the index must already be
    /// patched, and the shredder must have seen every earlier delta (both
    /// debug-asserted via epochs).
    pub fn apply(
        &mut self,
        plan: &TransformationPlan,
        doc: &Document,
        index: &DocIndex,
        applied: &AppliedDelta,
    ) -> Vec<RelationDelta> {
        index.debug_assert_current(doc);
        debug_assert_eq!(
            self.epoch + 1,
            doc.epoch(),
            "the incremental shredder must see every delta exactly once",
        );
        // The chain nodes' subtree serializations changed; everything else
        // in the value() memo stays valid.
        self.scratch.invalidate_values(applied.dirty_chain(doc));

        let mut out = Vec::new();
        let IncrementalShredder { scratch, eval, .. } = self;
        for (rule, state) in plan.plans().iter().zip(&mut self.rules) {
            let delta = match state {
                RuleState::Blocks(blocks) => {
                    // The rows that may have left and entered the relation.
                    let mut removed = Relation::new(rule.schema().clone());
                    let mut added = Relation::new(rule.schema().clone());
                    let was_empty = blocks.is_empty();
                    let path = anchor_path(rule);
                    let vanished =
                        blocks.refresh(path, doc, index, Some(applied), eval, |pos, old| {
                            let fresh = rule.shred_block(doc, index, scratch, pos);
                            match old {
                                Some(old) => diff_block(old, &fresh, &mut removed, &mut added),
                                None => extend(&mut added, fresh.rows()),
                            }
                            fresh
                        });
                    for block in &vanished {
                        extend(&mut removed, block.rows());
                    }
                    // An empty binding set stands for the single all-null
                    // row; account for it (dis)appearing.
                    if was_empty && !blocks.is_empty() {
                        insert_null_row(&mut removed);
                    } else if !was_empty && blocks.is_empty() {
                        insert_null_row(&mut added);
                    }
                    net_delta(&removed, &added)
                }
                RuleState::Full { rows } => {
                    let fresh = rule.shred_with(doc, index, scratch);
                    let delta = net_delta(rows, &fresh);
                    *rows = fresh;
                    delta
                }
            };
            if !delta.is_empty() {
                out.push(delta);
            }
        }
        self.epoch = doc.epoch();
        out
    }

    /// Reassembles the full database — bit-for-bit what
    /// [`TransformationPlan::shred_all`] produces on the mutated document.
    pub fn database(&self, plan: &TransformationPlan) -> Database {
        let mut db = Database::new();
        for (rule, state) in plan.plans().iter().zip(&self.rules) {
            db.insert(match state {
                RuleState::Blocks(blocks) => {
                    let mut relation = Relation::new(rule.schema().clone());
                    if blocks.is_empty() {
                        insert_null_row(&mut relation);
                    }
                    for block in blocks.results() {
                        extend(&mut relation, block.rows());
                    }
                    relation
                }
                RuleState::Full { rows } => rows.clone(),
            });
        }
        db
    }
}

/// The path from the root to the anchor of a block-decomposable rule.
fn anchor_path(rule: &ShredPlan) -> &CompiledExpr {
    &rule.paths()[1]
}

/// Appends `rows` to `relation`.
fn extend<'a>(relation: &mut Relation, rows: impl Iterator<Item = Row<'a>>) {
    for row in rows {
        relation.insert(row.values().cloned());
    }
}

/// Appends the rows of `old` to `removed` and those of `fresh` to `added`,
/// except the rows the two share at either end: enumeration order is
/// stable, so an edit inside a block leaves the rows before and after it
/// in place.
fn diff_block(old: &Relation, fresh: &Relation, removed: &mut Relation, added: &mut Relation) {
    let prefix = old
        .rows()
        .zip(fresh.rows())
        .take_while(|(o, f)| o == f)
        .count();
    let suffix = old
        .rows()
        .skip(prefix)
        .rev()
        .zip(fresh.rows().skip(prefix).rev())
        .take_while(|(o, f)| o == f)
        .count();
    extend(removed, old.rows().take(old.len() - suffix).skip(prefix));
    extend(added, fresh.rows().take(fresh.len() - suffix).skip(prefix));
}

/// Appends the all-null row a plan emits when its variables bind nothing.
fn insert_null_row(relation: &mut Relation) {
    let arity = relation.schema().arity();
    relation.insert(vec![Value::Null; arity]);
}

/// The net effect of replacing the bag of rows `old` by the bag `new`
/// (instances of one schema): rows in both cancel, so no row is both
/// inserted and deleted.  Each side lists its rows in value order,
/// repeated by their net multiplicity.
fn net_delta(old: &Relation, new: &Relation) -> RelationDelta {
    let mut counts: HashMap<Row<'_>, i64> = HashMap::new();
    for row in new.rows() {
        *counts.entry(row).or_insert(0) += 1;
    }
    for row in old.rows() {
        *counts.entry(row).or_insert(0) -= 1;
    }
    let mut changed: Vec<(Row<'_>, i64)> = counts.into_iter().filter(|&(_, n)| n != 0).collect();
    changed.sort_unstable_by(|a, b| a.0.values().cmp(b.0.values()));
    let mut delta = RelationDelta {
        inserted: Relation::new(new.schema().clone()),
        deleted: Relation::new(new.schema().clone()),
    };
    for (row, n) in changed {
        let side = if n > 0 {
            &mut delta.inserted
        } else {
            &mut delta.deleted
        };
        extend(side, std::iter::repeat_n(row, n.unsigned_abs() as usize));
    }
    delta
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::Transformation;
    use crate::sample;
    use xmlprop_xmlpath::LabelUniverse;
    use xmlprop_xmltree::sample::fig1;
    use xmlprop_xmltree::{Delta, Fragment, NodeId};

    /// Applies a script of deltas, asserting after each one that the
    /// incrementally maintained database equals a from-scratch shred
    /// bit-for-bit, and that the reported row deltas account exactly and
    /// net for the difference in each relation's bag of rows.
    fn run_script(t: &Transformation, mut doc: Document, script: Vec<Delta>) {
        let mut universe = LabelUniverse::new();
        let plan = TransformationPlan::new(t, &mut universe);
        let mut index = DocIndex::build(&doc, &mut universe);
        let mut shredder = IncrementalShredder::new(&plan, &doc, &index);
        assert_eq!(shredder.database(&plan), plan.shred_all(&doc, &index));
        for delta in &script {
            let before = shredder.database(&plan);
            let applied = doc.apply(delta).unwrap();
            index.apply_delta(&doc, &applied, &mut universe);
            let reported = shredder.apply(&plan, &doc, &index, &applied);
            let expected = plan.shred_all(&doc, &index);
            assert_eq!(shredder.database(&plan), expected, "after {delta:?}");
            let rebuilt = DocIndex::build(&doc, &mut universe);
            assert_eq!(plan.shred_all(&doc, &rebuilt), expected, "after {delta:?}");
            // The reported deltas must transform each old bag into the new.
            for rule in plan.plans() {
                let name = rule.schema().name();
                let mut bag: HashMap<Row<'_>, i64> = HashMap::new();
                for t in before.get(name).unwrap().rows() {
                    *bag.entry(t).or_insert(0) += 1;
                }
                if let Some(d) = reported.iter().find(|d| d.relation() == name) {
                    assert!(
                        !d.inserted()
                            .rows()
                            .any(|t| d.deleted().rows().any(|u| u == t)),
                        "tuple delta for {name} is not net after {delta:?}",
                    );
                    for t in d.deleted().rows() {
                        *bag.entry(t).or_insert(0) -= 1;
                    }
                    for t in d.inserted().rows() {
                        *bag.entry(t).or_insert(0) += 1;
                    }
                }
                for t in expected.get(name).unwrap().rows() {
                    *bag.entry(t).or_insert(0) -= 1;
                }
                assert!(
                    bag.values().all(|&n| n == 0),
                    "tuple delta for {name} does not reconcile after {delta:?}",
                );
            }
        }
    }

    #[test]
    fn incremental_tracks_scratch_on_fig1_edits() {
        let doc = fig1();
        let books: Vec<NodeId> = doc
            .all_nodes()
            .into_iter()
            .filter(|&n| doc.label(n) == "book")
            .collect();
        let isbn1 = doc.attribute_node(books[1], "isbn").unwrap();
        let chapter = doc.children_labelled(books[0], "chapter").next().unwrap();
        let script = vec![
            Delta::SetText {
                node: isbn1,
                text: "777".into(),
            },
            Delta::InsertSubtree {
                parent: doc.root(),
                position: 0,
                fragment: Fragment::Element(
                    Document::parse_str(
                        "<book isbn=\"42\"><title>New</title><author><name>N</name>\
                         <contact><phone>1</phone></contact></author>\
                         <chapter number=\"9\"><name>C9</name></chapter></book>",
                    )
                    .unwrap(),
                ),
            },
            Delta::RemoveSubtree { node: chapter },
            Delta::RemoveSubtree { node: books[1] },
        ];
        run_script(&sample::example_2_4_transformation(), doc, script);
    }

    #[test]
    fn identifier_edits_through_shared_fresh_and_restored_values() {
        // The value() memo is keyed by value id: an edited attribute reads
        // the id of its new text, one another node may already carry.
        let mut t = sample::example_2_4_transformation();
        t.add_rule(sample::example_3_1_universal());
        let doc = fig1();
        let books: Vec<NodeId> = doc.children_labelled(doc.root(), "book").collect();
        let isbn = doc.attribute_node(books[1], "isbn").unwrap();
        let shared = doc.attribute_node(books[0], "isbn").unwrap();
        let script = [
            doc.text_value(shared).unwrap(),
            "fresh",
            doc.text_value(isbn).unwrap(),
        ]
        .map(|text| Delta::SetText {
            node: isbn,
            text: text.into(),
        })
        .into();
        run_script(&t, doc, script);
    }

    #[test]
    fn universal_rule_falls_back_and_still_reconciles() {
        // The universal bookstore rule reads several root-level variables,
        // keeping it out of the block decomposition; the fallback must
        // still produce exact databases and reconciling deltas.
        let mut t = Transformation::new(Vec::new());
        t.add_rule(sample::example_3_1_universal());
        let doc = fig1();
        let books: Vec<NodeId> = doc
            .all_nodes()
            .into_iter()
            .filter(|&n| doc.label(n) == "book")
            .collect();
        let isbn0 = doc.attribute_node(books[0], "isbn").unwrap();
        let script = vec![
            Delta::SetText {
                node: isbn0,
                text: "000".into(),
            },
            Delta::RemoveSubtree { node: books[0] },
        ];
        run_script(&t, doc, script);
    }

    #[test]
    fn removing_and_inserting_anchors_among_thousands_reconciles() {
        // One block per `e` child of the root: removals at both ends and
        // in the middle change the anchor set, then an insert grows it.
        let t = Transformation::parse(
            "rule e(id, v) { x0 := xr//e; x1 := x0/@id; x2 := x0/v; \
             id := value(x1); v := value(x2); }",
        )
        .unwrap();
        let plan = TransformationPlan::new(&t, &mut LabelUniverse::new());
        assert!(
            plan.plans()[0].anchor_var().is_some(),
            "one block per anchor"
        );
        let body: String = (0..2_000)
            .map(|i| format!(r#"<e id="{i}"><v>{}</v></e>"#, i % 7))
            .collect();
        let doc = Document::parse_str(&format!("<db>{body}</db>")).unwrap();
        let anchors: Vec<NodeId> = doc.children(doc.root()).collect();
        let mut script: Vec<Delta> = [0, 1_000, 1_999]
            .map(|i| Delta::RemoveSubtree { node: anchors[i] })
            .into();
        script.push(Delta::InsertSubtree {
            parent: doc.root(),
            position: 500,
            fragment: Fragment::Element(
                Document::parse_str(r#"<e id="new"><v>3</v></e>"#).unwrap(),
            ),
        });
        run_script(&t, doc, script);
    }

    #[test]
    fn a_root_level_product_falls_back_and_reconciles() {
        // Two root-child variables: the rows are a product of books and
        // chapters, which no anchor splits into blocks.
        let t = Transformation::parse(
            "rule p(isbn, number) { xb := xr//book; xc := xr//chapter; \
             x1 := xb/@isbn; x2 := xc/@number; isbn := value(x1); number := value(x2); }",
        )
        .unwrap();
        let plan = TransformationPlan::new(&t, &mut LabelUniverse::new());
        assert!(plan.plans()[0].anchor_var().is_none(), "the full arm");
        let doc = fig1();
        let books: Vec<NodeId> = doc.children_labelled(doc.root(), "book").collect();
        let isbn = doc.attribute_node(books[0], "isbn").unwrap();
        let chapter = doc.children_labelled(books[1], "chapter").next().unwrap();
        let script = vec![
            Delta::SetText {
                node: isbn,
                text: "1".into(),
            },
            Delta::RemoveSubtree { node: chapter },
            Delta::InsertSubtree {
                parent: doc.root(),
                position: 0,
                fragment: Fragment::Element(
                    Document::parse_str(r#"<book isbn="7"><chapter number="3"/></book>"#).unwrap(),
                ),
            },
        ];
        run_script(&t, doc, script);
    }

    #[test]
    fn emptying_and_refilling_the_anchor_set_round_trips() {
        let doc = Document::parse_str(
            r#"<db><book isbn="1"><title>T</title><chapter number="1"><name>A</name></chapter></book></db>"#,
        )
        .unwrap();
        let book = doc.children(doc.root()).next().unwrap();
        let script = vec![
            // Remove the only book: every per-book relation collapses to
            // its all-null row.
            Delta::RemoveSubtree { node: book },
            // Insert a different one: the null row disappears again.
            Delta::InsertSubtree {
                parent: doc.root(),
                position: 0,
                fragment: Fragment::Element(
                    Document::parse_str(
                        "<book isbn=\"2\"><title>U</title><chapter number=\"3\"><name>B</name></chapter></book>",
                    )
                    .unwrap(),
                ),
            },
        ];
        run_script(&sample::example_2_4_transformation(), doc, script);
    }
}
