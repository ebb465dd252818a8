//! Evaluation of path expressions over XML documents: `n[[P]]`.
//!
//! [`CompiledExpr::evaluate`] / [`CompiledExpr::evaluate_positions`] run
//! over a prepared [`DocIndex`] with reusable scratch frontiers
//! ([`EvalScratch`]): labels compare as `LabelId`s, a `//` step is a merge
//! of contiguous DFS subtree ranges (duplicate-free and in document order by
//! construction), and a `//label` step pair is answered from the label's
//! posting list without materializing the intermediate descendant set.
//!
//! Semantics (Section 2 of the paper): `ε` reaches `{n}`; a label `l`
//! reaches the children of `n` labelled `l` (attribute nodes included when
//! `l` is `@name`); `P/P'` composes; `//` reaches all descendants-or-self.
//! The string walk in this module's tests is the independent oracle the
//! compiled engine is checked against.

use crate::compile::{CompiledAtom, CompiledExpr};
use xmlprop_xmltree::{DocIndex, NodeId};

/// Reusable scratch state for [`CompiledExpr::evaluate_positions`]: the two
/// frontier vectors and the visited epoch-stamps that deduplicate them.
/// One scratch serves any number of
/// evaluations over documents of any size (the stamp table grows on
/// demand); hold one per loop instead of allocating per call.
#[derive(Debug, Clone, Default)]
pub struct EvalScratch {
    current: Vec<u32>,
    next: Vec<u32>,
    /// Per-position epoch stamp; a position is on the frontier being built
    /// iff its stamp equals the current epoch, so "visited" resets are O(1).
    stamps: Vec<u32>,
    epoch: u32,
}

impl EvalScratch {
    /// A fresh scratch.
    pub fn new() -> Self {
        EvalScratch::default()
    }

    /// Starts a new dedup epoch, clearing the stamp table only on wrap.
    fn bump_epoch(&mut self) -> u32 {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamps.fill(0);
            self.epoch = 1;
        }
        self.epoch
    }
}

impl CompiledExpr {
    /// Evaluates `from[[self]]` over a prepared index, in document order and
    /// without duplicates.  The expression must have been compiled against the universe the index
    /// was built with (or an extension of it).
    ///
    /// Allocates its own [`EvalScratch`]; loops should hold one and call
    /// [`CompiledExpr::evaluate_positions`].
    pub fn evaluate(&self, index: &DocIndex, from: NodeId) -> Vec<NodeId> {
        let mut scratch = EvalScratch::new();
        let mut out = Vec::new();
        self.evaluate_positions(index, index.position(from), &mut scratch, &mut out);
        out.into_iter().map(|p| index.node_at(p)).collect()
    }

    /// The zero-allocation core of compiled evaluation: fills `out` with
    /// the DFS positions of `from[[self]]`, ascending (= document order,
    /// duplicate-free).  `from` is a DFS position ([`DocIndex::position`]).
    ///
    /// Per atom this does:
    ///
    /// * label step — scan the frontier's children comparing `LabelId`s,
    ///   with epoch-stamp dedup;
    /// * `//` step — sort the frontier and merge its contiguous subtree
    ///   ranges (nested ranges collapse into their outermost cover);
    /// * `//` immediately followed by a label — answer from the label's
    ///   posting list restricted to the merged ranges (excluding each
    ///   range's own root, whose parent lies outside the descendant set),
    ///   never materializing the intermediate descendants.
    pub fn evaluate_positions(
        &self,
        index: &DocIndex,
        from: u32,
        scratch: &mut EvalScratch,
        out: &mut Vec<u32>,
    ) {
        out.clear();
        if scratch.stamps.len() < index.len() {
            scratch.stamps.resize(index.len(), 0);
        }
        scratch.current.clear();
        scratch.current.push(from);
        let atoms = self.atoms();
        let mut i = 0;
        while i < atoms.len() {
            if scratch.current.is_empty() {
                break;
            }
            scratch.next.clear();
            match atoms[i] {
                CompiledAtom::Label(label) => {
                    // The stamp check is defensive: frontiers are
                    // duplicate-free sets of distinct positions (so distinct
                    // parents contribute disjoint child sets), but the
                    // epoch-bitmap keeps the step safe under any future
                    // frontier producer.
                    let epoch = scratch.bump_epoch();
                    for &p in &scratch.current {
                        for c in index.children_at(p) {
                            if index.label_at(c) == label && scratch.stamps[c as usize] != epoch {
                                scratch.stamps[c as usize] = epoch;
                                scratch.next.push(c);
                            }
                        }
                    }
                }
                CompiledAtom::AnyPath => {
                    scratch.current.sort_unstable();
                    let fused = match atoms.get(i + 1) {
                        Some(CompiledAtom::Label(l)) => Some(*l),
                        _ => None,
                    };
                    let mut cover = 0u32;
                    if let Some(label) = fused {
                        let posts = index.postings(label);
                        for &p in &scratch.current {
                            if p < cover {
                                continue; // nested inside an emitted range
                            }
                            let end = index.subtree_end(p);
                            let lo = posts.partition_point(|&x| x <= p);
                            for &x in &posts[lo..] {
                                if x >= end {
                                    break;
                                }
                                scratch.next.push(x);
                            }
                            cover = end;
                        }
                        i += 1; // the label atom was consumed by the fusion
                    } else {
                        for &p in &scratch.current {
                            if p < cover {
                                continue;
                            }
                            let end = index.subtree_end(p);
                            scratch.next.extend(p..end);
                            cover = end;
                        }
                    }
                }
            }
            std::mem::swap(&mut scratch.current, &mut scratch.next);
            i += 1;
        }
        out.extend_from_slice(&scratch.current);
        out.sort_unstable();
    }
}

#[cfg(test)]
pub(crate) mod oracle {
    //! The string walk `n[[P]]`: labels compared as strings, frontiers
    //! deduplicated through `BTreeSet`s, the result ranked by DFS position.
    //! It shares no code with the compiled engine.

    use crate::expr::{Atom, PathExpr};
    use std::collections::BTreeSet;
    use xmlprop_xmltree::{Document, NodeId};

    /// `from[[expr]]`, in document order and without duplicates.
    pub(crate) fn evaluate(doc: &Document, from: NodeId, expr: &PathExpr) -> Vec<NodeId> {
        let mut current: BTreeSet<NodeId> = BTreeSet::from([from]);
        for atom in expr.atoms() {
            current = match atom {
                Atom::Label(label) => current
                    .iter()
                    .flat_map(|&n| doc.children_labelled(n, label))
                    .collect(),
                Atom::AnyPath => current
                    .iter()
                    .flat_map(|&n| doc.descendants_or_self(n))
                    .collect(),
            };
        }
        // `all_nodes` is the DFS pre-order, whatever the NodeId order.
        doc.all_nodes()
            .into_iter()
            .filter(|n| current.contains(n))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::evaluate;
    use super::*;
    use crate::compile::PathCompiler;
    use crate::expr::{Atom, PathExpr};
    use proptest::prelude::*;
    use std::collections::BTreeSet;
    use xmlprop_xmltree::sample::fig1;
    use xmlprop_xmltree::{Document, LabelUniverse};

    fn p(s: &str) -> PathExpr {
        s.parse().unwrap()
    }

    /// `from[[expr]]` through the compiled engine over a fresh index.
    fn eval(doc: &Document, from: NodeId, expr: &str) -> Vec<NodeId> {
        let mut u = LabelUniverse::new();
        let compiled = u.compile(&p(expr));
        let index = DocIndex::build(doc, &mut u);
        compiled.evaluate(&index, from)
    }

    #[test]
    fn example_2_2_cardinalities() {
        // Example 2.2 of the paper: [[//book]] has 2 nodes, one book's
        // [[chapter]] has 2 nodes, [[//@number]] has 5 nodes.
        let doc = fig1();
        assert_eq!(eval(&doc, doc.root(), "//book").len(), 2);
        let first_book = eval(&doc, doc.root(), "book")[0];
        assert_eq!(eval(&doc, first_book, "chapter").len(), 2);
        assert_eq!(eval(&doc, doc.root(), "//@number").len(), 5);
    }

    #[test]
    fn epsilon_reaches_self() {
        let doc = fig1();
        let book = eval(&doc, doc.root(), "//book")[0];
        assert_eq!(eval(&doc, book, "ε"), vec![book]);
    }

    #[test]
    fn attribute_steps() {
        let doc = fig1();
        let isbns = eval(&doc, doc.root(), "//book/@isbn");
        let values: Vec<_> = isbns.iter().map(|&n| doc.text_value(n).unwrap()).collect();
        assert_eq!(values, vec!["123", "234"]);
    }

    #[test]
    fn child_vs_descendant() {
        let doc = fig1();
        let count = |expr| eval(&doc, doc.root(), expr).len();
        // section is never a child of book, only a descendant.
        assert_eq!(count("//book/section"), 0);
        assert_eq!(count("//book//section"), 2);
        assert_eq!(count("//section"), 2);
        // name appears under chapters, sections and authors.
        assert_eq!(count("//name"), 6);
        assert_eq!(count("//chapter/name"), 3);
    }

    #[test]
    fn results_have_no_duplicates() {
        // Two `//` atoms in a row (unnormalized) must not duplicate nodes.
        let doc = fig1();
        let expr = PathExpr::from_atoms(vec![
            Atom::AnyPath,
            Atom::AnyPath,
            Atom::Label("name".to_string()),
        ]);
        let mut u = LabelUniverse::new();
        let compiled = u.compile(&expr);
        let index = DocIndex::build(&doc, &mut u);
        let nodes = compiled.evaluate(&index, doc.root());
        let set: BTreeSet<_> = nodes.iter().copied().collect();
        assert_eq!(set.len(), nodes.len());
        assert_eq!(nodes, evaluate(&doc, doc.root(), &expr));
    }

    #[test]
    fn empty_result_for_missing_labels() {
        let doc = fig1();
        assert!(eval(&doc, doc.root(), "//magazine").is_empty());
        assert!(eval(&doc, doc.root(), "book/title/@lang").is_empty());
    }

    #[test]
    fn oracle_agrees_with_membership() {
        // Every node the oracle reaches from the root has a root path in the
        // expression's language, and vice versa.
        let doc = fig1();
        for expr in [
            "//book",
            "//chapter",
            "//book/chapter/@number",
            "//name",
            "book//name",
        ] {
            let expr = p(expr);
            let reached: BTreeSet<NodeId> = evaluate(&doc, doc.root(), &expr).into_iter().collect();
            for n in doc.all_nodes() {
                let rho = crate::Path::from_labels(doc.path_from_root(n));
                assert_eq!(
                    reached.contains(&n),
                    expr.matches(&rho),
                    "node {n} path {rho} vs expr {expr}"
                );
            }
        }
    }

    /// Builds a document where NodeId order and document order diverge.
    fn shuffled_doc() -> Document {
        let mut doc = Document::new("r");
        let a1 = doc.add_element(doc.root(), "a");
        let a2 = doc.add_element(doc.root(), "a");
        // Appended after a2, but sits under a1 — earlier in document order.
        let b1 = doc.add_element(a1, "b");
        doc.add_element(a2, "b");
        doc.add_element(b1, "c");
        doc.add_attribute(a1, "x", "late"); // attribute created last of all
        doc
    }

    #[test]
    fn results_are_in_document_order_not_node_id_order() {
        let doc = shuffled_doc();
        assert!(!doc.all_nodes().is_sorted());
        let mut u = LabelUniverse::new();
        let index = DocIndex::build(&doc, &mut u);
        for expr in ["//b", "//", "a/b", "//@x", "a//c", "//c"] {
            let nodes = eval(&doc, doc.root(), expr);
            let ranks: Vec<u32> = nodes.iter().map(|&n| index.position(n)).collect();
            assert!(
                ranks.windows(2).all(|w| w[0] < w[1]),
                "{expr}: {nodes:?} not in document order (ranks {ranks:?})"
            );
        }
    }

    /// Asserts the compiled engine equals the oracle for `expr` from every
    /// node of `doc`, through both entry points.
    fn assert_engine_matches_oracle(doc: &Document, expr: &PathExpr) {
        let mut u = LabelUniverse::new();
        let index = DocIndex::build(doc, &mut u);
        let compiled = u.compile(expr);
        assert_eq!(
            compiled.evaluate(&index, doc.root()),
            evaluate(doc, doc.root(), expr),
            "{expr}"
        );
        let mut scratch = EvalScratch::new();
        let mut out = Vec::new();
        for from in doc.all_nodes() {
            compiled.evaluate_positions(&index, index.position(from), &mut scratch, &mut out);
            let nodes: Vec<NodeId> = out.iter().map(|&pos| index.node_at(pos)).collect();
            assert_eq!(nodes, evaluate(doc, from, expr), "{expr} from {from}");
        }
    }

    #[test]
    fn compiled_evaluation_agrees_with_the_oracle() {
        for doc in [fig1(), shuffled_doc()] {
            for expr in [
                "ε",
                "//",
                "//book",
                "book",
                "//book/chapter",
                "//book//section",
                "//name",
                "//chapter/name",
                "//@number",
                "//book/@isbn",
                "book/title/@lang",
                "//magazine",
                "a/b",
                "//b",
                "//b/c",
                "a//c",
                "//@x",
                "a//",
                "//a//",
                "//a//b",
            ] {
                assert_engine_matches_oracle(&doc, &p(expr));
            }
        }
    }

    #[test]
    fn trailing_wildcard_materializes_descendants() {
        let doc = fig1();
        let nodes = eval(&doc, doc.root(), "//book//");
        assert_eq!(nodes, evaluate(&doc, doc.root(), &p("//book//")));
        assert!(nodes.len() > 2);
    }

    #[test]
    fn unknown_labels_evaluate_to_nothing() {
        let doc = fig1();
        let mut u = LabelUniverse::new();
        let index = DocIndex::build(&doc, &mut u);
        // Compiled after the index was built: the posting table has no slot.
        let compiled = u.compile(&p("//nothere/below"));
        assert!(compiled.evaluate(&index, doc.root()).is_empty());
    }

    /// Builds a document from a mutation script: each step appends an
    /// element, attribute or text node under an earlier element, so NodeId
    /// order and document order diverge on most scripts.
    fn build_doc(steps: &[(u8, u8, u8)]) -> Document {
        let mut doc = Document::new("r");
        let mut elements = vec![doc.root()];
        for &(parent, kind, which) in steps {
            let parent = elements[parent as usize % elements.len()];
            match kind % 4 {
                0 | 1 => {
                    elements.push(doc.add_element(parent, ["a", "b", "c"][which as usize % 3]))
                }
                2 => {
                    doc.add_attribute(parent, ["x", "y"][which as usize % 2], "v");
                }
                _ => {
                    doc.add_text(parent, "t");
                }
            }
        }
        doc
    }

    fn expr_strategy() -> impl Strategy<Value = PathExpr> {
        prop::collection::vec(
            prop_oneof![
                Just(Atom::Label("a".to_string())),
                Just(Atom::Label("b".to_string())),
                Just(Atom::Label("c".to_string())),
                Just(Atom::Label("@x".to_string())),
                Just(Atom::AnyPath),
            ],
            0..5,
        )
        .prop_map(PathExpr::from_atoms)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

        /// The compiled engine equals the string oracle, in order, from every
        /// start node of random documents built out of NodeId order.
        #[test]
        fn compiled_evaluation_matches_oracle_on_random_documents(
            steps in prop::collection::vec((0u8..16, 0u8..4, 0u8..6), 0..40),
            exprs in prop::collection::vec(expr_strategy(), 1..4),
        ) {
            let doc = build_doc(&steps);
            for expr in &exprs {
                assert_engine_matches_oracle(&doc, expr);
            }
        }
    }
}
