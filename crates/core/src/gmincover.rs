//! `GminimumCover` — checking key propagation through the minimum cover
//! (Section 6).
//!
//! The paper's second experiment compares Algorithm `propagation` against an
//! alternative that (1) computes the minimum cover of all propagated FDs
//! once, then (2) answers individual `Σ ⊨_σ (X → A)` questions by relational
//! FD implication against that cover, plus the same non-null analysis that
//! `propagation` performs with its `Ycheck` set.

use crate::PropagationEngine;
use std::collections::BTreeSet;
use xmlprop_reldb::{AttrUniverse, Fd, FdIndex};
use xmlprop_xmlkeys::KeySet;
use xmlprop_xmltransform::TableRule;

/// A prepared `GminimumCover` checker for one universal relation.
///
/// The cover is computed through a prepared [`PropagationEngine`] and
/// interned once at construction; every [`GMinimumCover::check`] then
/// answers the relational-implication half of the question with one
/// linear-time counter-based closure over the prepared [`FdIndex`], and the
/// non-null half against the engine's precompiled assured-attribute edges —
/// no string-set fixpoints, no per-probe path construction.
#[derive(Debug, Clone)]
pub struct GMinimumCover {
    engine: PropagationEngine,
    cover: Vec<Fd>,
    universe: AttrUniverse,
    index: FdIndex,
    /// By `VarId`: whether the variable's edge is an attribute assured by Σ
    /// at the parent position (the probe-independent non-null condition).
    edge_assured: Vec<bool>,
}

impl GMinimumCover {
    /// Computes the minimum cover for `rule` under `sigma` and returns a
    /// checker that can answer propagation questions against it.
    pub fn new(sigma: KeySet, rule: TableRule) -> Self {
        GMinimumCover::from_engine(PropagationEngine::from_owned(sigma, rule))
    }

    /// Builds the checker from an already-prepared engine, reusing its key
    /// index and compiled tree for both the cover computation and the
    /// per-check non-null analysis.
    pub fn from_engine(engine: PropagationEngine) -> Self {
        let cover = engine.minimum_cover();
        let mut universe = AttrUniverse::from_fds(&cover);
        let interned: Vec<_> = cover.iter().map(|fd| universe.intern_fd(fd)).collect();
        let index = FdIndex::new(universe.len(), &interned);
        let edge_assured = engine.edge_attr_assured_map();
        GMinimumCover {
            engine,
            cover,
            universe,
            index,
            edge_assured,
        }
    }

    /// The minimum cover backing this checker.
    pub fn cover(&self) -> &[Fd] {
        &self.cover
    }

    /// The universal-relation rule this checker was built for.
    pub fn rule(&self) -> &TableRule {
        self.engine.rule()
    }

    /// Checks whether `fd` is propagated, using relational implication
    /// against the cover plus the non-null condition: every left-hand-side
    /// field must be guaranteed non-null whenever the right-hand side is
    /// non-null (i.e. be an assured attribute of an ancestor of the
    /// right-hand side's variable).
    pub fn check(&self, fd: &Fd) -> bool {
        fd.rhs().iter().all(|a| self.check_single(fd.lhs(), a))
    }

    fn check_single(&self, x_fields: &BTreeSet<String>, a_field: &str) -> bool {
        // Relational implication against the interned cover (trivial FDs
        // short-circuit).  Left-hand-side fields outside the cover's
        // attribute universe can contribute nothing to the closure and are
        // dropped; a right-hand side outside it can only be derived
        // trivially.
        if !x_fields.contains(a_field) {
            let lhs = self.universe.lookup_set(x_fields);
            match self.universe.lookup(a_field) {
                Some(a) if self.index.closure(&lhs).contains(a) => {}
                _ => return false,
            }
        }
        // Non-null analysis, mirroring the Ycheck bookkeeping of Fig. 5:
        // each field of X must hang off an ancestor of A's variable through
        // an attribute edge whose existence is assured by Σ.  Both the
        // attribute-edge shape and its assurance are precomputed on the
        // engine; only the ancestor test depends on the probe.
        let rule = self.engine.rule();
        let tree = rule.table_tree();
        let Some(a_var) = rule.field_var(a_field) else {
            return false;
        };
        for field in x_fields {
            if field == a_field {
                continue;
            }
            let Some(var) = rule.field_var(field) else {
                return false;
            };
            let Some(parent) = tree.parent(var) else {
                return false;
            };
            if !tree.is_ancestor_or_self(parent, a_var) {
                return false;
            }
            if !self.edge_assured[var.index()] {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propagation;
    use xmlprop_xmlkeys::example_2_1_keys;
    use xmlprop_xmltransform::sample::example_3_1_universal;

    fn fd(s: &str) -> Fd {
        Fd::parse(s).unwrap()
    }

    fn checker() -> GMinimumCover {
        GMinimumCover::new(example_2_1_keys(), example_3_1_universal())
    }

    #[test]
    fn accepts_the_example_3_1_fds() {
        let g = checker();
        assert!(g.check(&fd("bookIsbn -> bookTitle")));
        assert!(g.check(&fd("bookIsbn -> authContact")));
        assert!(g.check(&fd("bookIsbn, chapNum -> chapName")));
        assert!(g.check(&fd("bookIsbn, chapNum, secNum -> secName")));
        assert_eq!(g.cover().len(), 4);
        assert_eq!(g.rule().schema().arity(), 8);
    }

    #[test]
    fn rejects_non_propagated_fds() {
        let g = checker();
        assert!(!g.check(&fd("bookIsbn -> bookAuthor")));
        assert!(!g.check(&fd("bookTitle -> bookIsbn")));
        assert!(!g.check(&fd("chapNum -> chapName")));
        assert!(!g.check(&fd("bookIsbn, chapNum -> secName")));
    }

    #[test]
    fn prepared_checkers_stay_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GMinimumCover>();
        assert_send_sync::<PropagationEngine>();
    }

    #[test]
    fn from_engine_shares_the_prepared_state() {
        let sigma = example_2_1_keys();
        let u = example_3_1_universal();
        let engine = PropagationEngine::prepare(&sigma, &u);
        let g = GMinimumCover::from_engine(engine);
        assert_eq!(g.cover().len(), 4);
        assert!(g.check(&fd("bookIsbn -> bookTitle")));
    }

    #[test]
    fn agrees_with_propagation_on_single_attribute_probes() {
        // Same question, two algorithms: the paper's experiment relies on
        // both giving the same answer.
        let sigma = example_2_1_keys();
        let u = example_3_1_universal();
        let g = GMinimumCover::new(sigma.clone(), u.clone());
        let attrs: Vec<String> = u.schema().attributes().to_vec();
        for a in &attrs {
            for x in &attrs {
                let probe = Fd::to_attr([x.clone()], a.clone());
                assert_eq!(
                    g.check(&probe),
                    propagation(&sigma, &u, &probe),
                    "disagreement on {probe}"
                );
            }
            for x in &attrs {
                for y in &attrs {
                    if x == y {
                        continue;
                    }
                    let probe = Fd::to_attr([x.clone(), y.clone()], a.clone());
                    assert_eq!(
                        g.check(&probe),
                        propagation(&sigma, &u, &probe),
                        "disagreement on {probe}"
                    );
                }
            }
        }
    }

    #[test]
    fn null_condition_is_enforced() {
        // bookTitle is an element (not an assured attribute), so adding it to
        // a left-hand side breaks condition (1) even though the relational
        // implication succeeds by augmentation.
        let g = checker();
        assert!(!g.check(&fd("bookIsbn, bookTitle -> chapName")));
        assert!(g.check(&fd("bookIsbn, chapNum -> chapName")));
        // A trivial FD with an unassured extra attribute is rejected too.
        assert!(!g.check(&fd("bookTitle, chapName -> chapName")));
        assert!(g.check(&fd("chapName -> chapName")));
    }
}
