//! The root-binding cache of incremental maintenance.
//!
//! Both incremental engines keep one result per binding of a path
//! evaluated from the document root, where the result depends only on the
//! subtree under the binding: the key validator keeps one context's
//! violations (Definition 2.1), the shredder one anchor's row block
//! (Definition 2.2).  [`RootBindings`] is that cache.  An edit changes
//! subtree content only along its [`AppliedDelta::dirty_chain`], so after
//! a refresh a binding keeps its result unless it lies on that chain or is
//! new.
//!
//! A node's root path never changes under an edit, so a binding set can
//! change only under an insert or a removal.  A refresh after a
//! [`AppliedDelta::SetText`] evaluates no path: it looks the chain nodes
//! up among the cached bindings, whose positions the text edit kept.

use crate::compile::CompiledExpr;
use crate::eval::EvalScratch;
use xmlprop_xmltree::{AppliedDelta, DocIndex, Document, NodeId};

/// One result per binding of a compiled path from the document root, kept
/// current under deltas by [`RootBindings::refresh`]; see the module docs.
#[derive(Debug, Clone)]
pub struct RootBindings<T> {
    /// The bindings, in document order.
    nodes: Vec<NodeId>,
    /// The result of each binding of `nodes`.
    results: Vec<T>,
    /// Binding-position buffer, reused across refreshes.
    positions: Vec<u32>,
}

impl<T> Default for RootBindings<T> {
    fn default() -> Self {
        RootBindings {
            nodes: Vec::new(),
            results: Vec::new(),
            positions: Vec::new(),
        }
    }
}

impl<T> RootBindings<T> {
    /// The results, one per binding, in document order.
    pub fn results(&self) -> &[T] {
        &self.results
    }

    /// True if the path has no binding.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Brings the cache up to date with `doc` and `index` after the edit
    /// `applied`, or builds it afresh with `applied = None`.
    ///
    /// `compute(pos, old)` yields the result of the binding at DFS
    /// position `pos`, given its previous result, if any.  It runs for
    /// every binding when `applied` is `None`, and otherwise only for the
    /// bindings that are new or on the edit's dirty chain.  Returns the
    /// results of the bindings that vanished, in their former document
    /// order.  Past the path evaluation this costs one comparison of the
    /// old and new binding lists and one splice of the run in which they
    /// differ, so it is linear in the bindings.
    ///
    /// `index` must be current for `doc`, and the cache must have seen
    /// every earlier delta.  `path` is the one the cache was built with;
    /// `eval` may be any scratch.
    pub fn refresh(
        &mut self,
        path: &CompiledExpr,
        doc: &Document,
        index: &DocIndex,
        applied: Option<&AppliedDelta>,
        eval: &mut EvalScratch,
        mut compute: impl FnMut(u32, Option<&T>) -> T,
    ) -> Vec<T> {
        index.debug_assert_current(doc);
        if let Some(applied @ AppliedDelta::SetText { .. }) = applied {
            for node in applied.dirty_chain(doc) {
                let pos = index.position(node);
                if let Ok(i) = self
                    .nodes
                    .binary_search_by_key(&pos, |&n| index.position(n))
                {
                    self.results[i] = compute(pos, Some(&self.results[i]));
                }
            }
            return Vec::new();
        }
        let mut positions = std::mem::take(&mut self.positions);
        path.evaluate_positions(index, index.position(doc.root()), eval, &mut positions);
        // A binding is on the dirty chain iff its subtree holds the dirty
        // node.
        let dirty = applied.map(|a| index.position(a.dirty_node()));
        let stale = |pos: u32| dirty.is_none_or(|d| pos <= d && d < index.subtree_end(pos));
        // The lists before and after differ in one run: the old run's
        // bindings vanished, the new run's are new.  A node's root path
        // never changes, and an edit moves no surviving node past another,
        // so the run is what an inserted or removed subtree held.
        let old_len = self.nodes.len();
        let same = |(&node, &pos): &(&NodeId, &u32)| index.node_at(pos) == node;
        let prefix = self.nodes.iter().zip(&positions).take_while(same).count();
        let suffix = self.nodes[prefix..]
            .iter()
            .rev()
            .zip(positions[prefix..].iter().rev())
            .take_while(same)
            .count();
        let run = prefix..positions.len() - suffix;
        let fresh = &positions[run.clone()];
        let old_run = prefix..old_len - suffix;
        self.nodes
            .splice(old_run.clone(), fresh.iter().map(|&p| index.node_at(p)));
        let vanished = self
            .results
            .splice(old_run, fresh.iter().map(|&p| compute(p, None)))
            .collect();
        for (i, (&pos, result)) in positions.iter().zip(&mut self.results).enumerate() {
            if !run.contains(&i) && stale(pos) {
                *result = compute(pos, Some(result));
            }
        }
        self.positions = positions;
        vanished
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LabelUniverse;
    use xmlprop_xmltree::{Delta, Fragment};

    /// A document, its index and a cache of `//a` whose results are the
    /// value ids under each binding, with the number of `compute` calls.
    struct Fixture {
        doc: Document,
        universe: LabelUniverse,
        index: DocIndex,
        path: CompiledExpr,
        eval: EvalScratch,
        cache: RootBindings<Vec<u32>>,
        calls: usize,
    }

    /// The value ids in the subtree at `pos`, in document order.
    fn values_under(index: &DocIndex, pos: u32) -> Vec<u32> {
        (pos..index.subtree_end(pos))
            .filter_map(|p| index.value_id_at(p))
            .collect()
    }

    impl Fixture {
        fn new(xml: &str) -> Fixture {
            let doc = Document::parse_str(xml).unwrap();
            let mut universe = LabelUniverse::new();
            let path = CompiledExpr::compile(&"//a".parse().unwrap(), &mut universe);
            let index = DocIndex::build(&doc, &mut universe);
            let mut fixture = Fixture {
                doc,
                universe,
                index,
                path,
                eval: EvalScratch::new(),
                cache: RootBindings::default(),
                calls: 0,
            };
            assert!(fixture.refresh(None).is_empty());
            assert_eq!(fixture.calls, fixture.cache.results().len());
            fixture.calls = 0;
            fixture
        }

        fn refresh(&mut self, applied: Option<&AppliedDelta>) -> Vec<Vec<u32>> {
            let Fixture {
                doc,
                index,
                path,
                eval,
                cache,
                calls,
                ..
            } = self;
            cache.refresh(path, doc, index, applied, eval, |pos, _| {
                *calls += 1;
                values_under(index, pos)
            })
        }

        /// Applies `delta`, refreshes, checks the cache against a fresh
        /// evaluation and returns the vanished results and the number of
        /// `compute` calls.
        fn edit(&mut self, delta: Delta) -> (Vec<Vec<u32>>, usize) {
            let applied = self.doc.apply(&delta).unwrap();
            self.index
                .apply_delta(&self.doc, &applied, &mut self.universe);
            self.calls = 0;
            let vanished = self.refresh(Some(&applied));
            let fresh: Vec<Vec<u32>> = self
                .path
                .evaluate(&self.index, self.doc.root())
                .into_iter()
                .map(|n| values_under(&self.index, self.index.position(n)))
                .collect();
            assert_eq!(self.cache.results(), fresh, "after {delta:?}");
            (vanished, self.calls)
        }

        fn a(&self, i: usize) -> NodeId {
            let all = self.path.evaluate(&self.index, self.doc.root());
            all[i]
        }
    }

    #[test]
    fn a_binding_vanishes() {
        let mut f = Fixture::new(r#"<r><a x="0"/><a x="1"/><a x="2"/></r>"#);
        let gone = f.cache.results()[1].clone();
        let (vanished, calls) = f.edit(Delta::RemoveSubtree { node: f.a(1) });
        assert_eq!(vanished, [gone]);
        assert_eq!(calls, 0);
        assert_eq!(f.cache.results().len(), 2);
    }

    #[test]
    fn a_binding_appears() {
        let mut f = Fixture::new(r#"<r><a x="0"/><a x="1"/></r>"#);
        let fragment = Document::parse_str(r#"<a x="9"/>"#).unwrap();
        let (vanished, calls) = f.edit(Delta::InsertSubtree {
            parent: f.doc.root(),
            position: 1,
            fragment: Fragment::Element(fragment),
        });
        assert!(vanished.is_empty());
        assert_eq!(calls, 1, "only the new binding is computed");
        assert_eq!(f.cache.results().len(), 3);
    }

    #[test]
    fn a_chain_binding_is_recomputed_and_an_off_chain_one_kept() {
        let mut f = Fixture::new(r#"<r><a x="0"><b/></a><a x="1"/></r>"#);
        let b = f.doc.children_labelled(f.a(0), "b").next().unwrap();
        let kept = f.cache.results()[1].clone();
        let (vanished, calls) = f.edit(Delta::InsertSubtree {
            parent: b,
            position: 0,
            fragment: Fragment::Text("t".into()),
        });
        assert!(vanished.is_empty());
        assert_eq!(calls, 1, "only the first binding holds the dirty node");
        assert_eq!(f.cache.results()[1], kept);
    }

    #[test]
    fn a_text_edit_recomputes_only_chain_bindings() {
        // Nested bindings: the edit under the inner `a` dirties both.
        let mut f = Fixture::new(r#"<r><a><a x="0"/></a><a x="1"/><c x="2"/></r>"#);
        let inner = f.doc.attribute_node(f.a(1), "x").unwrap();
        let (vanished, calls) = f.edit(Delta::SetText {
            node: inner,
            text: "5".into(),
        });
        assert!(vanished.is_empty());
        assert_eq!(calls, 2);
        // An edit under no binding computes nothing.
        let c = f.doc.children_labelled(f.doc.root(), "c").next().unwrap();
        let off = f.doc.attribute_node(c, "x").unwrap();
        let (_, calls) = f.edit(Delta::SetText {
            node: off,
            text: "6".into(),
        });
        assert_eq!(calls, 0);
    }
}
