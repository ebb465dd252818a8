//! Prepared shredding: the compiled form of a table rule.
//!
//! A [`ShredPlan`] does the per-rule work of shredding once:
//!
//! * every variable is indexed by the dense [`VarId`] the rule's
//!   [`crate::TableTree`] gave it when the rule was built (parents before
//!   children), so a binding is a flat array of `u32` DFS positions
//!   instead of a string-keyed map;
//! * every edge path is compiled ([`xmlprop_xmlpath::CompiledExpr`]) against
//!   a shared [`LabelUniverse`] and evaluated over a prepared
//!   [`DocIndex`] with reusable scratch frontiers;
//! * the `value()` serialization of each bound node is **memoized**, keyed
//!   by the [`DocIndex::value_id_at`] id of the text it serializes to
//!   (attribute and text nodes, and elements whose only child is a text
//!   node) or else by node, so each distinct string of a document is one
//!   shared `Arc<str>` however many nodes and rows carry it;
//! * rows are **coded**: each relation gets each memoized value once, as a
//!   dictionary entry ([`Relation::push_value`]), and every row is a copy
//!   of `u32` codes ([`Relation::push_coded_row`]), with no allocation or
//!   reference count per cell.
//!
//! The implicit Cartesian product of Definition 2.2 is enumerated depth
//! first, as an odometer over the variables in [`VarId`] order with the
//! last variable turning fastest.  Each variable keeps the list of nodes
//! its edge path reaches from its parent's current node, and recomputes it
//! only when that parent's binding changes; an empty list binds the
//! variable (and so its descendants) to null.  Every complete binding is
//! materialized straight into a coded row, so no table of partial bindings is
//! ever built, and rows come out lexicographic by [`VarId`] — the order of
//! the paper's product and of the string oracle.
//!
//! [`TableRule::prepare`] builds a plan for one rule;
//! [`Transformation::prepare`] builds a [`TransformationPlan`] covering
//! every rule against one universe, whose
//! [`shred_all`](TransformationPlan::shred_all) shares the `value()` memo
//! across rules of the same document.

use crate::rule::{TableRule, Transformation};
use crate::shred::field_value;
use crate::tree::VarId;
use xmlprop_reldb::{Database, Relation, RelationSchema, Value};
use xmlprop_xmlpath::{CompiledAtom, CompiledExpr, EvalScratch, LabelId, LabelUniverse};
use xmlprop_xmltree::{DocIndex, Document, NodeId, NodeKind};

/// Sentinel for "variable bound to null" in a binding.
const NULL: u32 = u32::MAX;

/// The compiled form of one [`TableRule`]; see the module docs.
#[derive(Debug, Clone)]
pub struct ShredPlan {
    schema: RelationSchema,
    /// Parent [`VarId`] of each variable (`parents[0] == 0` for the root).
    parents: Vec<u32>,
    /// Compiled edge path of each variable (`ε` for the root).
    paths: Vec<CompiledExpr>,
    /// For single-label edge paths (the overwhelmingly common case —
    /// Definition 2.2 forbids `//` below the root variable): the label, so
    /// binding is a direct child scan without the general evaluator.
    single_label: Vec<Option<LabelId>>,
    /// For every schema attribute: the variable whose `value()` fills it.
    field_vars: Vec<u32>,
}

impl ShredPlan {
    /// Compiles a (validated) rule against `universe`.
    ///
    /// The same universe must be used for the [`DocIndex`] the plan later
    /// shreds over (ids are append-only, so plan and index can be prepared
    /// in either order).
    pub fn new(rule: &TableRule, universe: &mut LabelUniverse) -> Self {
        let tree = rule.table_tree();
        let parents = tree
            .vars()
            .map(|v| tree.parent(v).unwrap_or(VarId::ROOT).0)
            .collect();
        let paths: Vec<CompiledExpr> = tree
            .vars()
            .map(|v| CompiledExpr::compile(tree.edge(v), universe))
            .collect();
        let field_vars = rule
            .schema()
            .attributes()
            .iter()
            .map(|field| {
                rule.field_var(field)
                    .expect("validated rule covers every field")
                    .0
            })
            .collect();
        let single_label = paths
            .iter()
            .map(|p| match p.atoms() {
                [CompiledAtom::Label(l)] => Some(*l),
                _ => None,
            })
            .collect();
        ShredPlan {
            schema: rule.schema().clone(),
            parents,
            paths,
            single_label,
            field_vars,
        }
    }

    /// The relation schema this plan populates.
    pub fn schema(&self) -> &RelationSchema {
        &self.schema
    }

    /// Compiled edge paths, by [`VarId`].
    pub(crate) fn paths(&self) -> &[CompiledExpr] {
        &self.paths
    }

    /// Shreds a document into an instance of this plan's relation over the
    /// prepared index, following the paper's Section 2 semantics (one tuple
    /// per complete binding, nulls for missing branches).  Allocates fresh
    /// scratch; batch callers (many rules / many documents) should reuse a
    /// [`ShredScratch`] through [`ShredPlan::shred_with`].
    pub fn shred(&self, doc: &Document, index: &DocIndex) -> Relation {
        let mut scratch = ShredScratch::new();
        self.shred_with(doc, index, &mut scratch)
    }

    /// [`ShredPlan::shred`] with caller-provided scratch state.
    ///
    /// The scratch's `value()` memo belongs to one index: handed an index
    /// of another [`DocIndex::build_id`] it clears itself, so sharing one
    /// scratch across rules of a document (the point) and across
    /// documents is safe without [`ShredScratch::reset`].
    pub fn shred_with(
        &self,
        doc: &Document,
        index: &DocIndex,
        scratch: &mut ShredScratch,
    ) -> Relation {
        self.shred_bound(doc, index, scratch, &[index.position(doc.root())])
    }

    /// The one row emitter: shreds the complete bindings whose first
    /// variables are `bound` into a relation, each distinct memoized value
    /// entered once and every row a copy of codes.
    fn shred_bound(
        &self,
        doc: &Document,
        index: &DocIndex,
        scratch: &mut ShredScratch,
        bound: &[u32],
    ) -> Relation {
        index.debug_assert_current(doc);
        scratch.fit(doc, index);
        let ShredScratch {
            odometer,
            memo,
            codes,
            touched,
            ..
        } = scratch;
        let mut relation = Relation::new(self.schema.clone());
        let mut row = vec![Relation::NULL_CODE; self.field_vars.len()];
        self.enumerate(index, odometer, bound, |binding, changed| {
            // A field whose variable kept its binding keeps its code.
            for (cell, &v) in row.iter_mut().zip(&self.field_vars) {
                if (v as usize) < changed {
                    continue;
                }
                *cell = match binding[v as usize] {
                    NULL => Relation::NULL_CODE,
                    pos => {
                        let slot = Slot::of(index, pos);
                        let code = codes.get_mut(slot);
                        if *code == Relation::NULL_CODE {
                            let value = memoized(memo, doc, index, pos, slot).clone();
                            *code = relation.push_value(value);
                            touched.push(slot);
                        }
                        *code
                    }
                };
            }
            relation.push_coded_row(&row);
        });
        for slot in touched.drain(..) {
            *codes.get_mut(slot) = Relation::NULL_CODE;
        }
        relation
    }

    /// Calls `emit` with every complete binding whose first variables are
    /// `bound` (the root, and for [`ShredPlan::shred_block`] the anchor),
    /// in lexicographic [`VarId`] order; see the module docs.  With each
    /// binding comes the first variable whose binding may differ from the
    /// previous call's (0 on the first call): the variables before it are
    /// bound as they were.
    fn enumerate(
        &self,
        index: &DocIndex,
        odometer: &mut Odometer,
        bound: &[u32],
        mut emit: impl FnMut(&[u32], usize),
    ) {
        let vars = self.parents.len();
        odometer.reset(vars);
        let Odometer {
            eval,
            candidates,
            source,
            at,
            binding,
        } = odometer;
        binding[..bound.len()].copy_from_slice(bound);
        let from = bound.len();
        // The first variable whose binding must be (re)made, and the
        // first whose binding changed since the last emit.
        let (mut next, mut changed) = (from, 0);
        loop {
            for v in next..vars {
                let parent = binding[self.parents[v] as usize];
                if source[v] != parent {
                    let list = &mut candidates[v];
                    list.clear();
                    if parent != NULL {
                        match self.single_label[v] {
                            // Single-label edge: direct child scan,
                            // already in document order.
                            Some(label) => list.extend(
                                index
                                    .children_at(parent)
                                    .filter(|&c| index.label_at(c) == label),
                            ),
                            None => self.paths[v].evaluate_positions(index, parent, eval, list),
                        }
                    }
                    source[v] = parent;
                }
                at[v] = 0;
                binding[v] = candidates[v].first().copied().unwrap_or(NULL);
            }
            emit(binding, changed);
            // Turn the last variable that has another candidate; every
            // later one starts over.
            let Some(v) = (from..vars)
                .rev()
                .find(|&v| at[v] + 1 < candidates[v].len())
            else {
                return;
            };
            at[v] += 1;
            binding[v] = candidates[v][at[v]];
            (next, changed) = (v + 1, v);
        }
    }

    /// The anchor variable of a block-decomposable plan, if any.
    ///
    /// A plan is block-decomposable when the root variable has exactly one
    /// child variable (necessarily `VarId(1)`: variables are ordered
    /// parent-before-child) and no schema field reads `value(xr)`.  Every
    /// other variable then descends from that **anchor**, so the shredded
    /// relation is the concatenation, in document order, of independent
    /// per-anchor-binding row blocks — the unit of reuse of the
    /// incremental shredder.
    pub(crate) fn anchor_var(&self) -> Option<VarId> {
        let vars = self.parents.len();
        if vars < 2 || self.field_vars.contains(&0) {
            return None;
        }
        if (2..vars).any(|v| self.parents[v] == 0) {
            return None;
        }
        Some(VarId(1))
    }

    /// Shreds the row block of one anchor binding (see
    /// [`ShredPlan::anchor_var`]): the rows [`ShredPlan::shred_with`] would
    /// emit for this anchor node, in the same order.
    pub(crate) fn shred_block(
        &self,
        doc: &Document,
        index: &DocIndex,
        scratch: &mut ShredScratch,
        anchor_pos: u32,
    ) -> Relation {
        self.shred_bound(
            doc,
            index,
            scratch,
            &[index.position(doc.root()), anchor_pos],
        )
    }
}

/// Reusable scratch for [`ShredPlan::shred_with`]: the binding enumerator's
/// state, the `value()` memo and the per-relation code map.
#[derive(Debug, Default)]
pub struct ShredScratch {
    odometer: Odometer,
    /// The [`DocIndex::build_id`] the memo's value ids belong to.
    build: Option<u64>,
    /// Slot → memoized field value ([`Value::Null`] until serialized).
    /// Node slots are keyed by [`NodeId`], not position, so the memo
    /// survives deltas: positions shift under edits, node ids do not, and
    /// value ids are never recycled.
    memo: SlotTable<Value>,
    /// Slot → code of its value in the relation being shredded
    /// ([`Relation::NULL_CODE`] until the relation names it).
    codes: SlotTable<u32>,
    /// The slots `codes` assigned for the current relation, cleared after
    /// it.
    touched: Vec<Slot>,
}

impl ShredScratch {
    /// A fresh scratch.
    pub fn new() -> Self {
        ShredScratch::default()
    }

    /// Clears the `value()` memo; evaluation buffers are kept.  Switching
    /// to another index clears it anyway (see [`ShredPlan::shred_with`]).
    pub fn reset(&mut self) {
        self.memo.clear();
        self.build = None;
    }

    /// Makes the memo belong to `index` (clearing it if it belonged to
    /// another build) and sizes both tables to cover its value ids and
    /// `doc`'s arena (existing entries are kept).
    fn fit(&mut self, doc: &Document, index: &DocIndex) {
        if self.build != Some(index.build_id()) {
            self.reset();
            self.build = Some(index.build_id());
        }
        let (values, nodes) = (index.values().len(), doc.arena_len());
        self.memo.fit(values, nodes, Value::Null);
        self.codes.fit(values, nodes, Relation::NULL_CODE);
    }

    /// Drops the memoized `value()` of the given nodes — after a delta,
    /// exactly the dirty ancestor chain's serializations are stale (nodes
    /// off the chain kept their subtree content; fresh nodes have no
    /// entry; removed nodes are never queried again).  Value-keyed entries
    /// stay: an edited node reads another value id.
    pub(crate) fn invalidate_values(&mut self, nodes: impl IntoIterator<Item = NodeId>) {
        for node in nodes {
            if let Some(value) = self.memo.by_node.get_mut(node.index()) {
                *value = Value::Null;
            }
        }
    }
}

/// Where the `value()` memo keeps the serialization of a bound node.
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// A [`DocIndex::value_id_at`] id: of an attribute or text node, or of
    /// the only child of an element when that child is a text node.
    Value(u32),
    /// Any other element, by [`NodeId`] index.
    Node(usize),
}

impl Slot {
    /// The slot of the node at `pos`.  The subtree range alone tells a
    /// single-child element: its one descendant sits at `pos + 1`.
    #[inline]
    fn of(index: &DocIndex, pos: u32) -> Slot {
        let only_child = pos + 1;
        match index.value_id_at(pos) {
            Some(id) => Slot::Value(id),
            None if index.subtree_end(pos) == only_child + 1
                && index.kind_at(only_child) == NodeKind::Text =>
            {
                Slot::Value(
                    index
                        .value_id_at(only_child)
                        .expect("text nodes carry a value"),
                )
            }
            None => Slot::Node(index.node_at(pos).index()),
        }
    }
}

/// One entry per [`Slot`].
#[derive(Debug, Default)]
struct SlotTable<T> {
    by_value: Vec<T>,
    by_node: Vec<T>,
}

impl<T: Clone> SlotTable<T> {
    /// Grows the table to `values` value ids and `nodes` node slots,
    /// filling new entries with `empty`.
    fn fit(&mut self, values: usize, nodes: usize, empty: T) {
        if self.by_value.len() < values {
            self.by_value.resize(values, empty.clone());
        }
        if self.by_node.len() < nodes {
            self.by_node.resize(nodes, empty);
        }
    }

    fn clear(&mut self) {
        self.by_value.clear();
        self.by_node.clear();
    }

    #[inline]
    fn get_mut(&mut self, slot: Slot) -> &mut T {
        match slot {
            Slot::Value(id) => &mut self.by_value[id as usize],
            Slot::Node(node) => &mut self.by_node[node],
        }
    }
}

/// The memoized `value()` of the node at `pos`, whose slot is `slot`,
/// serialized on first use.
fn memoized<'m>(
    memo: &'m mut SlotTable<Value>,
    doc: &Document,
    index: &DocIndex,
    pos: u32,
    slot: Slot,
) -> &'m Value {
    let value = memo.get_mut(slot);
    if value.is_null() {
        *value = Value::from(field_value(doc, index.node_at(pos)).as_ref());
    }
    value
}

/// The state of [`ShredPlan::enumerate`], one slot per variable, kept
/// between calls so enumeration allocates nothing once it is warm.
#[derive(Debug, Default)]
struct Odometer {
    eval: EvalScratch,
    /// The nodes the variable's edge path reaches from its parent's node.
    candidates: Vec<Vec<u32>>,
    /// The parent position `candidates` was computed from.
    source: Vec<u32>,
    /// Which candidate is bound.
    at: Vec<usize>,
    /// The bound position, [`NULL`] when the candidate list is empty.
    binding: Vec<u32>,
}

impl Odometer {
    /// Sizes the state for `vars` variables with every candidate list
    /// empty and computed from a null parent — a consistent start, so a
    /// variable is only computed once its parent is bound.
    fn reset(&mut self, vars: usize) {
        if self.candidates.len() < vars {
            self.candidates.resize_with(vars, Vec::new);
        }
        for list in &mut self.candidates[..vars] {
            list.clear();
        }
        self.source.clear();
        self.source.resize(vars, NULL);
        self.at.clear();
        self.at.resize(vars, 0);
        self.binding.clear();
        self.binding.resize(vars, NULL);
    }
}

/// The compiled form of a whole [`Transformation`]: one [`ShredPlan`] per
/// rule, compiled against one shared universe.
#[derive(Debug, Clone)]
pub struct TransformationPlan {
    plans: Vec<ShredPlan>,
}

impl TransformationPlan {
    /// Compiles every rule of the transformation against `universe`.
    pub fn new(transformation: &Transformation, universe: &mut LabelUniverse) -> Self {
        TransformationPlan {
            plans: transformation
                .rules()
                .iter()
                .map(|rule| ShredPlan::new(rule, universe))
                .collect(),
        }
    }

    /// The per-rule plans, in transformation order.
    pub fn plans(&self) -> &[ShredPlan] {
        &self.plans
    }

    /// The plan for one relation, by name.
    pub fn plan(&self, relation: &str) -> Option<&ShredPlan> {
        self.plans.iter().find(|p| p.schema().name() == relation)
    }

    /// Shreds a document into a database with one instance per rule,
    /// sharing one scratch (and thus one `value()` memo) across all rules.
    pub fn shred_all(&self, doc: &Document, index: &DocIndex) -> Database {
        index.debug_assert_current(doc);
        let mut scratch = ShredScratch::new();
        let mut db = Database::new();
        for plan in &self.plans {
            db.insert(plan.shred_with(doc, index, &mut scratch));
        }
        db
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample;
    use crate::shred::oracle::shred_rule;
    use xmlprop_xmltree::sample::fig1;
    use xmlprop_xmltree::ElementBuilder;

    /// Prepares (universe, index, plan set) for a transformation over a doc.
    fn prepared(
        t: &Transformation,
        doc: &Document,
    ) -> (LabelUniverse, DocIndex, TransformationPlan) {
        let mut universe = LabelUniverse::new();
        let plan = TransformationPlan::new(t, &mut universe);
        let index = DocIndex::build(doc, &mut universe);
        (universe, index, plan)
    }

    #[test]
    fn prepared_shredding_matches_the_oracle_on_the_samples() {
        let doc = fig1();
        for t in [
            sample::example_2_4_transformation(),
            xmlprop_bookstore_universal(),
        ] {
            let (_u, index, plan) = prepared(&t, &doc);
            for (rule, rule_plan) in t.rules().iter().zip(plan.plans()) {
                assert_eq!(
                    rule_plan.shred(&doc, &index),
                    shred_rule(rule, &doc),
                    "rule {}",
                    rule.schema().name()
                );
            }
            let db = plan.shred_all(&doc, &index);
            assert_eq!(db.len(), t.len());
            for rule in t.rules() {
                assert_eq!(db.get(rule.schema().name()), Some(&shred_rule(rule, &doc)));
            }
            assert_eq!(t.shred(&doc), db);
        }
    }

    fn xmlprop_bookstore_universal() -> Transformation {
        let mut t = Transformation::new(Vec::new());
        t.add_rule(sample::example_3_1_universal());
        t
    }

    #[test]
    fn plan_shape_accessors() {
        let t = sample::example_2_4_transformation();
        let mut universe = LabelUniverse::new();
        let rule = t.rule("section").unwrap();
        let plan = rule.prepare(&mut universe);
        assert_eq!(plan.schema().name(), "section");
        let field0 = &plan.schema().attributes()[0];
        assert_eq!(Some(VarId(plan.field_vars[0])), rule.field_var(field0));
        let whole = t.prepare(&mut universe);
        assert_eq!(whole.plans().len(), t.len());
        assert!(whole.plan("section").is_some());
        assert!(whole.plan("nope").is_none());
    }

    #[test]
    fn cartesian_expansion_matches_the_oracle() {
        // 2 authors × 3 chapters forces row replication mid-table.
        let doc = ElementBuilder::new("r")
            .child(
                ElementBuilder::new("book")
                    .attr("isbn", "1")
                    .child(ElementBuilder::new("author").text_child("name", "A"))
                    .child(ElementBuilder::new("author").text_child("name", "B"))
                    .children(
                        (1..=3)
                            .map(|i| ElementBuilder::new("chapter").attr("number", i.to_string())),
                    ),
            )
            .build();
        let t = Transformation::parse(
            "rule pairs(isbn, author, chapter) {
                xb := xr//book;
                xi := xb/@isbn;
                xa := xb/author;
                xn := xa/name;
                xc := xb/chapter;
                xm := xc/@number;
                isbn := value(xi);
                author := value(xn);
                chapter := value(xm);
            }",
        )
        .unwrap();
        let rule = t.rule("pairs").unwrap();
        let (_u, index, plan) = prepared(&t, &doc);
        let prepared_rel = plan.plan("pairs").unwrap().shred(&doc, &index);
        assert_eq!(prepared_rel.len(), 6);
        assert_eq!(prepared_rel, shred_rule(rule, &doc));
    }

    #[test]
    fn nulls_and_empty_documents_match_the_oracle() {
        let t = sample::example_2_4_transformation();
        let empty = Document::new("r");
        let (_u, index, plan) = prepared(&t, &empty);
        for (rule, rule_plan) in t.rules().iter().zip(plan.plans()) {
            assert_eq!(rule_plan.shred(&empty, &index), shred_rule(rule, &empty));
        }
    }

    #[test]
    fn scratch_reuse_across_rules_is_safe() {
        let t = sample::example_2_4_transformation();
        let doc = fig1();
        let (_u, index, plan) = prepared(&t, &doc);
        let mut scratch = ShredScratch::new();
        for (rule, rule_plan) in t.rules().iter().zip(plan.plans()) {
            assert_eq!(
                rule_plan.shred_with(&doc, &index, &mut scratch),
                shred_rule(rule, &doc)
            );
        }
        // Switching documents needs no reset: the other index's build id
        // clears the memo, whose value ids name other strings there.
        let other = ElementBuilder::new("r")
            .child(ElementBuilder::new("book").attr("isbn", "9"))
            .build();
        let mut universe2 = LabelUniverse::new();
        let plan2 = TransformationPlan::new(&t, &mut universe2);
        let index2 = DocIndex::build(&other, &mut universe2);
        for (rule, rule_plan) in t.rules().iter().zip(plan2.plans()) {
            assert_eq!(
                rule_plan.shred_with(&other, &index2, &mut scratch),
                shred_rule(rule, &other)
            );
        }
    }

    #[test]
    fn scratch_reuse_across_an_edit_and_an_index_rebuild_is_safe() {
        // Whole chapter elements are memoized by node.
        let mut t = sample::example_2_4_transformation();
        t.add_rule(
            crate::parse_single_rule(
                "rule chap(c) { xb := xr//book; xc := xb/chapter; c := value(xc); }",
            )
            .unwrap(),
        );
        let mut doc = fig1();
        let (mut universe, index, plan) = prepared(&t, &doc);
        let mut scratch = ShredScratch::new();
        for rule_plan in plan.plans() {
            rule_plan.shred_with(&doc, &index, &mut scratch);
        }
        // Renumber the first chapter: the rebuilt index gives the new text
        // the value id the old one had, and the chapter's serialization
        // changes under the same node id.
        let book = doc.children_labelled(doc.root(), "book").next().unwrap();
        let chapter = doc.children_labelled(book, "chapter").next().unwrap();
        let number = doc.attribute_node(chapter, "number").unwrap();
        doc.apply(&xmlprop_xmltree::Delta::SetText {
            node: number,
            text: "99".into(),
        })
        .unwrap();
        let rebuilt = DocIndex::build(&doc, &mut universe);
        for (rule, rule_plan) in t.rules().iter().zip(plan.plans()) {
            assert_eq!(
                rule_plan.shred_with(&doc, &rebuilt, &mut scratch),
                shred_rule(rule, &doc)
            );
        }
    }
}

#[cfg(test)]
mod shred_proptests {
    use super::*;
    use crate::shred::oracle::shred_rule;
    use proptest::prelude::*;

    /// Builds a document from a mutation script: each step appends an
    /// element (`a`/`b`/`c`), an attribute (`@x`/`@y`) or a text node under
    /// an earlier element.  Labels repeat, so a variable often reaches
    /// several nodes (a Cartesian product) or none (nulls), and NodeId order
    /// diverges from document order on most scripts.
    fn build_doc(steps: &[(u8, u8, u8)]) -> Document {
        let mut doc = Document::new("r");
        let mut elements = vec![doc.root()];
        for &(parent, kind, which) in steps {
            let parent = elements[parent as usize % elements.len()];
            let which = which as usize;
            match kind % 4 {
                0 | 1 => elements.push(doc.add_element(parent, ["a", "b", "c"][which % 3])),
                2 => {
                    doc.add_attribute(parent, ["x", "y"][which % 2], ["0", "1", "2"][which % 3]);
                }
                _ => {
                    doc.add_text(parent, ["t0", "t1"][which % 2]);
                }
            }
        }
        doc
    }

    /// A random rule: a `//`-initial variable under the root, then up to
    /// four more variables, each one or two steps (elements, then maybe an
    /// attribute) from a random earlier element variable, so that some
    /// edges go through the general path evaluator.  Every leaf variable
    /// carries a field.  Some inner element variables get a leaf twin on
    /// the same edge, whose field reads the `value()` of an element with
    /// children.  The mappings are declared in a random order, so a child
    /// often comes before its parent.
    fn rule_strategy() -> impl Strategy<Value = TableRule> {
        let label = prop_oneof![Just("a"), Just("b"), Just("c"), Just("@x"), Just("@y")];
        let second = prop_oneof![
            Just(None),
            Just(None),
            Just(Some("a")),
            Just(Some("b")),
            Just(Some("@x"))
        ];
        (
            prop_oneof![Just("a"), Just("b"), Just("c")],
            prop::collection::vec((0usize..8, label, second, any_bool()), 0..5),
            prop::collection::vec(0u8..64, 9..10),
        )
            .prop_map(|(top, steps, shuffle)| {
                // Variable `v{i+1}` is `vars[i]`: its edge (parent and
                // path), whether it is an attribute, has a child, and wants
                // a twin.
                struct Var {
                    edge: Option<(usize, String)>,
                    attribute: bool,
                    inner: bool,
                    twin: bool,
                }
                let mut vars = vec![Var {
                    edge: None,
                    attribute: false,
                    inner: false,
                    twin: false,
                }];
                for (pick, label, second, twin) in steps {
                    // Attributes have no children, so only elements parent.
                    let elements: Vec<usize> =
                        (0..vars.len()).filter(|&i| !vars[i].attribute).collect();
                    let parent = elements[pick % elements.len()];
                    vars[parent].inner = true;
                    let path = match second {
                        Some(second) if !label.starts_with('@') => format!("{label}/{second}"),
                        _ => label.to_string(),
                    };
                    vars.push(Var {
                        attribute: path.contains('@'),
                        edge: Some((parent, path)),
                        inner: false,
                        twin,
                    });
                }
                let twins: Vec<(usize, String)> = vars
                    .iter()
                    .filter(|v| v.inner && v.twin)
                    .filter_map(|v| v.edge.clone())
                    .collect();
                let mut leaves: Vec<usize> = (0..vars.len()).filter(|&i| !vars[i].inner).collect();
                let mut lines = vec![format!("v1 := xr//{top};")];
                for (i, var) in vars.iter().enumerate().skip(1) {
                    let (parent, path) = var.edge.as_ref().expect("non-root edge");
                    lines.push(format!("v{} := v{}/{path};", i + 1, parent + 1));
                }
                for (parent, path) in twins {
                    leaves.push(lines.len());
                    lines.push(format!("v{} := v{}/{path};", lines.len() + 1, parent + 1));
                }
                // At most eight mappings (the root's child, four steps,
                // three twins); a stable sort by nine random keys shuffles
                // them.
                let mut order: Vec<(u8, String)> = shuffle.into_iter().zip(lines).collect();
                order.sort_by_key(|(key, _)| *key);
                let mut lines: Vec<String> = order.into_iter().map(|(_, line)| line).collect();
                let fields: Vec<String> = (0..leaves.len()).map(|f| format!("f{f}")).collect();
                for (field, leaf) in fields.iter().zip(&leaves) {
                    lines.push(format!("{field} := value(v{});", leaf + 1));
                }
                let text = format!("rule R({}) {{ {} }}", fields.join(", "), lines.join(" "));
                crate::parse_single_rule(&text).expect("generated rule is well formed")
            })
    }

    fn any_bool() -> impl Strategy<Value = bool> {
        prop_oneof![Just(false), Just(true)]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

        /// The prepared plan, the one-shot facade and the string oracle
        /// produce the same relation, rows in the same order, on random
        /// documents with missing paths and repeated matches.
        #[test]
        fn prepared_shredding_matches_oracle_on_random_documents(
            steps in prop::collection::vec((0u8..16, 0u8..4, 0u8..6), 0..40),
            rule in rule_strategy(),
        ) {
            let doc = build_doc(&steps);
            let mut universe = LabelUniverse::new();
            let plan = rule.prepare(&mut universe);
            let index = DocIndex::build(&doc, &mut universe);
            let oracle = shred_rule(&rule, &doc);
            prop_assert_eq!(plan.shred(&doc, &index), oracle.clone());
            prop_assert_eq!(rule.shred(&doc), oracle);
        }

        /// Every generated rule is block-decomposable, and its blocks, one
        /// per anchor binding in document order (or the all-null row when
        /// there is none), concatenate to the whole relation, row for row.
        #[test]
        fn anchor_blocks_concatenate_to_the_relation(
            steps in prop::collection::vec((0u8..16, 0u8..4, 0u8..6), 0..40),
            rule in rule_strategy(),
        ) {
            let doc = build_doc(&steps);
            let mut universe = LabelUniverse::new();
            let plan = rule.prepare(&mut universe);
            let index = DocIndex::build(&doc, &mut universe);
            prop_assert_eq!(plan.anchor_var(), Some(VarId(1)));
            let mut scratch = ShredScratch::new();
            let whole = plan.shred_with(&doc, &index, &mut scratch);
            let mut anchors = Vec::new();
            plan.paths()[1].evaluate_positions(
                &index,
                index.position(doc.root()),
                &mut EvalScratch::default(),
                &mut anchors,
            );
            let mut blocks = Relation::new(plan.schema().clone());
            for &anchor in &anchors {
                for row in plan.shred_block(&doc, &index, &mut scratch, anchor).rows() {
                    blocks.insert(row.values().cloned());
                }
            }
            if anchors.is_empty() {
                blocks.insert(vec![Value::Null; plan.schema().arity()]);
            }
            prop_assert_eq!(whole, blocks);
        }
    }
}
