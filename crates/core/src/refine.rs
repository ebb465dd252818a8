//! End-to-end schema refinement (Examples 1.2 and 3.1).
//!
//! The paper's motivating workflow: start from a universal relation defined
//! by a table rule over the XML data, compute the minimum cover of the FDs
//! propagated from the XML keys, and use it to decompose the universal
//! relation into BCNF (or synthesize 3NF) — producing a consumer relational
//! schema that provably respects the semantics of the XML source.

use crate::PropagationEngine;
use xmlprop_reldb::{
    bcnf_decompose, candidate_keys, synthesize_3nf, AttrUniverse, Decomposition, Fd, FdIndex,
};
use xmlprop_xmlkeys::KeySet;
use xmlprop_xmltransform::TableRule;

/// The result of refining a universal relation design.
///
/// Alongside the printable artifacts, the design keeps the propagated cover
/// interned (an [`AttrUniverse`] plus a prepared [`FdIndex`]) so that
/// [`RefinedDesign::implies`] can validate additional FDs against the cover
/// with a single linear-time closure, without re-running propagation.
#[derive(Debug, Clone)]
pub struct RefinedDesign {
    /// The minimum cover of the propagated FDs.
    pub cover: Vec<Fd>,
    /// Candidate keys of the universal relation under the cover.
    pub universal_keys: Vec<std::collections::BTreeSet<String>>,
    /// A lossless BCNF decomposition guided by the cover.
    pub bcnf: Decomposition,
    /// A dependency-preserving 3NF synthesis guided by the cover.
    pub third_normal_form: Decomposition,
    /// The cover's attribute universe.
    universe: AttrUniverse,
    /// The cover, prepared for linear-time closure queries.
    index: FdIndex,
}

impl RefinedDesign {
    /// Renders the BCNF design as SQL DDL.
    pub fn bcnf_sql(&self) -> String {
        self.bcnf.to_sql()
    }

    /// Renders the 3NF design as SQL DDL.
    pub fn third_normal_form_sql(&self) -> String {
        self.third_normal_form.to_sql()
    }

    /// True if `fd` follows from the propagated cover under Armstrong's
    /// axioms (purely relational implication — for the paper's null-aware
    /// propagation question use [`crate::GMinimumCover::check`] or
    /// [`crate::propagation`]).
    pub fn implies(&self, fd: &Fd) -> bool {
        let lhs = self.universe.lookup_set(fd.lhs());
        let closure = self.index.closure(&lhs);
        fd.rhs().iter().all(|a| {
            fd.lhs().contains(a)
                || self
                    .universe
                    .lookup(a)
                    .is_some_and(|id| closure.contains(id))
        })
    }
}

/// Refines the design of the universal relation defined by `rule`, given the
/// XML keys `sigma`: computes the propagated minimum cover and both
/// normal-form decompositions.
pub fn refine(sigma: &KeySet, rule: &TableRule) -> RefinedDesign {
    let cover = PropagationEngine::prepare(sigma, rule).minimum_cover();
    let attrs = rule.schema().attribute_set();
    let universal_keys = candidate_keys(&attrs, &cover);
    let bcnf = bcnf_decompose(rule.schema().name(), &attrs, &cover);
    let third_normal_form = synthesize_3nf(rule.schema().name(), &attrs, &cover);
    let mut universe = AttrUniverse::from_fds(&cover);
    let interned: Vec<_> = cover.iter().map(|fd| universe.intern_fd(fd)).collect();
    let index = FdIndex::new(universe.len(), &interned);
    RefinedDesign {
        cover,
        universal_keys,
        bcnf,
        third_normal_form,
        universe,
        index,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use xmlprop_reldb::attrs;
    use xmlprop_xmlkeys::example_2_1_keys;
    use xmlprop_xmltransform::sample::example_3_1_universal;

    #[test]
    fn example_3_1_bcnf_decomposition() {
        // The paper decomposes U into book, author, chapter and section
        // fragments.  Fragment naming differs (we use U_1…U_n), but the
        // attribute sets must match the printed decomposition, up to the
        // placement of the key-only attributes.
        let sigma = example_2_1_keys();
        let u = example_3_1_universal();
        let design = refine(&sigma, &u);
        assert_eq!(design.cover.len(), 4);
        let sets = design.bcnf.attribute_sets();
        // book(bookIsbn, bookTitle, authContact)
        assert!(
            sets.contains(&attrs(["bookIsbn", "bookTitle", "authContact"]))
                || (sets.contains(&attrs(["bookIsbn", "bookTitle"]))
                    && sets.contains(&attrs(["bookIsbn", "authContact"]))),
            "missing book fragment in {sets:?}"
        );
        // chapter(bookIsbn, chapNum, chapName)
        assert!(
            sets.contains(&attrs(["bookIsbn", "chapNum", "chapName"])),
            "{sets:?}"
        );
        // section(bookIsbn, chapNum, secNum, secName)
        assert!(
            sets.contains(&attrs(["bookIsbn", "chapNum", "secNum", "secName"])),
            "{sets:?}"
        );
        // author appears somewhere, keyed together with the other key
        // attributes it depends on.
        let union: BTreeSet<String> = sets.iter().flatten().cloned().collect();
        assert_eq!(union, u.schema().attribute_set());
        // Every fragment is in BCNF w.r.t. the cover, and the decomposition
        // is lossless (verified by the chase).
        for r in &design.bcnf.relations {
            assert!(xmlprop_reldb::is_bcnf(
                &r.schema.attribute_set(),
                &design.cover
            ));
        }
        assert!(xmlprop_reldb::decomposition_is_lossless(
            &u.schema().attribute_set(),
            &design.bcnf,
            &design.cover
        ));
        assert!(xmlprop_reldb::decomposition_is_lossless(
            &u.schema().attribute_set(),
            &design.third_normal_form,
            &design.cover
        ));
    }

    #[test]
    fn universal_key_contains_all_hierarchy_identifiers() {
        let sigma = example_2_1_keys();
        let u = example_3_1_universal();
        let design = refine(&sigma, &u);
        // bookAuthor, chapNum, secNum and bookIsbn can never be dropped from
        // a key of U (nothing determines them), so every candidate key
        // contains them.
        for key in &design.universal_keys {
            for required in ["bookIsbn", "bookAuthor", "chapNum", "secNum"] {
                assert!(key.contains(required), "key {key:?} lacks {required}");
            }
        }
    }

    #[test]
    fn third_normal_form_is_produced() {
        let sigma = example_2_1_keys();
        let u = example_3_1_universal();
        let design = refine(&sigma, &u);
        assert!(!design.third_normal_form.relations.is_empty());
        for r in &design.third_normal_form.relations {
            assert!(
                xmlprop_reldb::is_3nf(&r.schema.attribute_set(), &design.cover),
                "fragment {} is not in 3NF",
                r.schema
            );
        }
        let sql = design.third_normal_form_sql();
        assert!(sql.contains("CREATE TABLE"));
        assert!(design.bcnf_sql().contains("PRIMARY KEY"));
    }

    #[test]
    fn design_answers_implication_against_the_cover() {
        let sigma = example_2_1_keys();
        let u = example_3_1_universal();
        let design = refine(&sigma, &u);
        // Agreement with the string-based facade on a grid of probes.
        let attrs: Vec<String> = u.schema().attributes().to_vec();
        for a in &attrs {
            for x in &attrs {
                let probe = Fd::to_attr([x.clone()], a.clone());
                assert_eq!(
                    design.implies(&probe),
                    xmlprop_reldb::implies(&design.cover, &probe),
                    "disagreement on {probe}"
                );
            }
        }
        // Unknown attributes are only derivable reflexively.
        assert!(design.implies(&Fd::parse("nosuch -> nosuch").unwrap()));
        assert!(!design.implies(&Fd::parse("bookIsbn -> nosuch").unwrap()));
        assert!(design.implies(&Fd::parse("bookIsbn, chapNum -> chapName").unwrap()));
    }
}
