//! Prepared shredding: the compiled form of a table rule.
//!
//! A [`ShredPlan`] does the per-rule work of shredding once:
//!
//! * every variable gets a dense [`VarId`] (parent-before-child order), so
//!   a binding is a flat array of `u32` DFS positions instead of a
//!   string-keyed map;
//! * every edge path is compiled ([`xmlprop_xmlpath::CompiledExpr`]) against
//!   a shared [`LabelUniverse`] and evaluated over a prepared
//!   [`DocIndex`] with reusable scratch frontiers;
//! * the `value()` serialization of each bound node is **memoized** per
//!   node, so a node reached by many rows (the upper levels of the product)
//!   is serialized once.
//!
//! The implicit Cartesian product of Definition 2.2 is enumerated depth
//! first, as an odometer over the variables in [`VarId`] order with the
//! last variable turning fastest.  Each variable keeps the list of nodes
//! its edge path reaches from its parent's current node, and recomputes it
//! only when that parent's binding changes; an empty list binds the
//! variable (and so its descendants) to null.  Every complete binding is
//! materialized straight into a tuple, so no table of partial bindings is
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
use std::collections::HashMap;
use xmlprop_reldb::{Database, Relation, RelationSchema, Tuple, Value};
use xmlprop_xmlpath::{
    CompiledAtom, CompiledExpr, EvalScratch, LabelId, LabelUniverse, PathCompiler,
};
use xmlprop_xmltree::{DocIndex, Document, NodeId};

/// A dense identifier for a variable of one [`ShredPlan`] (the root
/// variable `xr` is `VarId(0)`; parents precede children).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(u32);

impl VarId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Sentinel for "variable bound to null" in a binding.
const NULL: u32 = u32::MAX;

/// The compiled form of one [`TableRule`]; see the module docs.
#[derive(Debug, Clone)]
pub struct ShredPlan {
    schema: RelationSchema,
    /// Variable names, by [`VarId`] (diagnostics only).
    names: Vec<String>,
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
        let order = tree.variables();
        let id_of: HashMap<&str, u32> = order
            .iter()
            .enumerate()
            .map(|(i, v)| (v.as_str(), i as u32))
            .collect();
        let mut parents = Vec::with_capacity(order.len());
        let mut paths = Vec::with_capacity(order.len());
        for var in order {
            match tree.parent(var) {
                Some(p) => {
                    parents.push(id_of[p]);
                    paths.push(universe.compile(tree.edge_path(var).expect("non-root edge")));
                }
                None => {
                    parents.push(0);
                    paths.push(CompiledExpr::epsilon());
                }
            }
        }
        let field_vars = rule
            .schema()
            .attributes()
            .iter()
            .map(|field| {
                id_of[rule
                    .field_var(field)
                    .expect("validated rule covers every field")]
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
            names: order.to_vec(),
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

    /// The number of variables, root included.
    pub fn var_count(&self) -> usize {
        self.parents.len()
    }

    /// The name of a variable.
    pub fn var_name(&self, var: VarId) -> &str {
        &self.names[var.index()]
    }

    /// The [`VarId`] populating a schema attribute, by attribute position.
    pub fn field_var(&self, field: usize) -> VarId {
        VarId(self.field_vars[field])
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
    /// The scratch's `value()` memo is keyed by node, so it is only valid
    /// for one document at a time; [`ShredScratch::new`]
    /// or [`ShredScratch::reset`] it when switching documents (sharing it
    /// across *rules* over the same document is the point).
    pub fn shred_with(
        &self,
        doc: &Document,
        index: &DocIndex,
        scratch: &mut ShredScratch,
    ) -> Relation {
        index.debug_assert_current(doc);
        scratch.ensure_values(doc.arena_len());
        let ShredScratch { odometer, values } = scratch;
        let mut relation = Relation::new(self.schema.clone());
        self.enumerate(index, odometer, &[index.position(doc.root())], |row| {
            relation.insert(self.materialize_row(doc, index, values, row))
        });
        relation
    }

    /// Calls `emit` with every complete binding whose first variables are
    /// `bound` (the root, and for [`ShredPlan::shred_block`] the anchor),
    /// in lexicographic [`VarId`] order; see the module docs.
    fn enumerate(
        &self,
        index: &DocIndex,
        odometer: &mut Odometer,
        bound: &[u32],
        mut emit: impl FnMut(&[u32]),
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
        // The first variable whose binding must be (re)made.
        let mut next = from;
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
            emit(binding);
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
            next = v + 1;
        }
    }

    /// Materializes one binding into a tuple through the node-keyed
    /// `value()` memo (caller must have sized it via
    /// [`ShredScratch::ensure_values`]).
    fn materialize_row(
        &self,
        doc: &Document,
        index: &DocIndex,
        values: &mut [Option<Value>],
        binding: &[u32],
    ) -> Tuple {
        Tuple::new(
            self.field_vars
                .iter()
                .map(|&v| match binding[v as usize] {
                    NULL => Value::Null,
                    pos => {
                        let node = index.node_at(pos);
                        values[node.index()]
                            .get_or_insert_with(|| Value::from(field_value(doc, node).as_ref()))
                            .clone()
                    }
                })
                .collect(),
        )
    }

    /// The anchor variable of a block-decomposable plan, if any.
    ///
    /// A plan is block-decomposable when the root variable has exactly one
    /// child variable (necessarily `VarId(1)`: variables are ordered
    /// parent-before-child) and no schema field reads `value(xr)`.  Every
    /// other variable then descends from that **anchor**, so the shredded
    /// relation is the concatenation, in document order, of independent
    /// per-anchor-binding tuple blocks — the unit of reuse of the
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

    /// Shreds the tuple block of one anchor binding (see
    /// [`ShredPlan::anchor_var`]): the rows [`ShredPlan::shred_with`] would
    /// emit for this anchor node, in the same order.
    pub(crate) fn shred_block(
        &self,
        doc: &Document,
        index: &DocIndex,
        scratch: &mut ShredScratch,
        anchor_pos: u32,
    ) -> Vec<Tuple> {
        scratch.ensure_values(doc.arena_len());
        let ShredScratch { odometer, values } = scratch;
        let mut block = Vec::new();
        self.enumerate(
            index,
            odometer,
            &[index.position(doc.root()), anchor_pos],
            |row| block.push(self.materialize_row(doc, index, values, row)),
        );
        block
    }

    /// The all-null tuple a plan emits when its variables bind nothing —
    /// the relation content of a block-decomposable plan with zero anchor
    /// bindings.
    pub(crate) fn null_tuple(&self) -> Tuple {
        Tuple::new(vec![Value::Null; self.field_vars.len()])
    }
}

/// Reusable scratch for [`ShredPlan::shred_with`]: the binding enumerator's
/// state and the per-node `value()` memo.
#[derive(Debug, Default)]
pub struct ShredScratch {
    odometer: Odometer,
    /// [`NodeId`] index → memoized field value of that node (dense, sized
    /// to the document arena on first use).  Node-keyed rather than
    /// position-keyed so the memo survives deltas: positions shift under
    /// edits, node ids do not.
    values: Vec<Option<Value>>,
}

impl ShredScratch {
    /// A fresh scratch.
    pub fn new() -> Self {
        ShredScratch::default()
    }

    /// Clears the `value()` memo (required when switching to a different
    /// document); evaluation buffers are kept.
    pub fn reset(&mut self) {
        self.values.clear();
    }

    /// Grows the `value()` memo to cover a document arena of `arena_len`
    /// nodes (existing entries are kept).
    fn ensure_values(&mut self, arena_len: usize) {
        if self.values.len() < arena_len {
            self.values.resize(arena_len, None);
        }
    }

    /// Drops the memoized `value()` of the given nodes — after a delta,
    /// exactly the dirty ancestor chain's serializations are stale (nodes
    /// off the chain kept their subtree content; fresh nodes have no
    /// entry; removed nodes are never queried again).
    pub fn invalidate_values(&mut self, nodes: &[NodeId]) {
        for &node in nodes {
            if let Some(slot) = self.values.get_mut(node.index()) {
                *slot = None;
            }
        }
    }
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
        assert_eq!(plan.var_count(), rule.mappings().len() + 1);
        assert_eq!(plan.var_name(VarId(0)), "xr");
        let field0 = plan.field_var(0);
        assert!(field0.index() > 0);
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
        // Switching documents requires a memo reset.
        let other = ElementBuilder::new("r")
            .child(ElementBuilder::new("book").attr("isbn", "9"))
            .build();
        scratch.reset();
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
    /// children.
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
        )
            .prop_map(|(top, steps)| {
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
            let mut blocks = Vec::new();
            for &anchor in &anchors {
                blocks.extend(plan.shred_block(&doc, &index, &mut scratch, anchor));
            }
            if anchors.is_empty() {
                blocks.push(plan.null_tuple());
            }
            prop_assert_eq!(whole.rows(), &blocks[..]);
        }
    }
}
