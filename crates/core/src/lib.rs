//! The core algorithms of *"Propagating XML Constraints to Relations"*
//! (Davidson, Fan, Hara, Qin — ICDE 2003).
//!
//! Given a set `Σ` of XML keys and a transformation `σ` (table rules) from
//! XML to relations, this crate answers the two questions the paper poses:
//!
//! 1. **Key propagation** — is a given functional dependency `X → A` on a
//!    relation of the target schema guaranteed to hold on `σ(T)` for *every*
//!    document `T ⊨ Σ`?  ([`propagation`], Algorithm of Fig. 5, polynomial
//!    time.)
//! 2. **Minimum cover** — what is a minimum cover of *all* the FDs
//!    propagated onto a universal relation?  ([`minimum_cover`], the
//!    polynomial Section 5 algorithm; [`naive_minimum_cover`], the
//!    exponential baseline it is compared against in Fig. 7(a).)
//!
//! On top of those it provides:
//!
//! * [`PropagationEngine`] — the prepared form of a `(Σ, rule)` pair: one
//!   key index plus the rule's table tree (built once with the rule)
//!   compiled by `VarId`, answering `propagation`,
//!   `minimum_cover` and the batch [`propagate_all`] from shared state.
//!   The free functions above are one-shot facades over it;
//! * [`GMinimumCover`] — the `GminimumCover` variant of Section 6 that
//!   answers single-FD questions through the minimum cover;
//! * [`refine`] — the end-to-end design-refinement pipeline of Examples 1.2
//!   and 3.1 (cover → BCNF / 3NF schema);
//! * [`check_declared_keys`] — checking a *predefined* relational schema
//!   against the XML keys (the Example 1.1 scenario);
//! * [`limits`] — a documentation module for the undecidability results
//!   (Theorems 3.1 and 3.2) that motivate the restrictions of the framework.
//!
//! # Quick start
//!
//! ```
//! use xmlprop_core::{minimum_cover, propagation};
//! use xmlprop_reldb::Fd;
//! use xmlprop_xmlkeys::example_2_1_keys;
//! use xmlprop_xmltransform::sample::{example_2_4_transformation, example_3_1_universal};
//!
//! let sigma = example_2_1_keys();
//! let t = example_2_4_transformation();
//!
//! // Example 4.2: isbn -> contact is propagated onto the book relation...
//! let fd = Fd::parse("isbn -> contact").unwrap();
//! assert!(propagation(&sigma, t.rule("book").unwrap(), &fd));
//!
//! // ...while (inChapt, number) -> name on section is not.
//! let fd = Fd::parse("inChapt, number -> name").unwrap();
//! assert!(!propagation(&sigma, t.rule("section").unwrap(), &fd));
//!
//! // Example 3.1: the minimum cover over the universal relation.
//! let cover = minimum_cover(&sigma, &example_3_1_universal());
//! assert_eq!(cover.len(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod consistency;
mod engine;
mod gmincover;
pub mod limits;
mod mincover;
mod naive;
mod propagation;
mod refine;

pub use consistency::{check_declared_keys, ConsistencyReport, KeyCheck};
pub use engine::PropagationEngine;
pub use gmincover::GMinimumCover;
pub use mincover::{minimum_cover, minimum_cover_with_stats, CoverStats};
pub use naive::naive_minimum_cover;
pub use propagation::{propagate_all, propagation, propagation_explained, PropagationOutcome};
pub use refine::{refine, RefinedDesign};

#[cfg(test)]
pub(crate) mod test_rules {
    use xmlprop_xmltransform::sample::example_3_1_universal;
    use xmlprop_xmltransform::{FieldRule, TableRule, VarId, VarMapping};

    /// The Example 3.1 universal rule declared two other ways: with its
    /// mappings reversed, so every child comes before its parent and the
    /// `VarId` numbering differs from the original; and with every
    /// variable renamed so that name order runs against `VarId` order.
    pub(crate) fn reordered_universal_rules() -> Vec<TableRule> {
        let u = example_3_1_universal();
        let mut reversed = u.mappings().to_vec();
        reversed.reverse();

        let tree = u.table_tree();
        let n = tree.vars().len();
        let rename = |name: &str| match tree.var(name) {
            Some(v) if v != VarId::ROOT => format!("w{:02}", n - v.index()),
            _ => name.to_string(),
        };
        let mappings = u
            .mappings()
            .iter()
            .map(|m| VarMapping {
                var: rename(&m.var),
                parent: rename(&m.parent),
                path: m.path.clone(),
            })
            .collect();
        let fields = u
            .field_rules()
            .iter()
            .map(|fr| FieldRule {
                field: fr.field.clone(),
                var: rename(&fr.var),
            })
            .collect();

        vec![
            TableRule::new(u.schema().clone(), reversed, u.field_rules().to_vec()).unwrap(),
            TableRule::new(u.schema().clone(), mappings, fields).unwrap(),
        ]
    }

    #[test]
    fn the_reordered_rules_number_their_variables_differently() {
        let u = example_3_1_universal();
        let names = |rule: &TableRule| -> Vec<String> {
            let tree = rule.table_tree();
            tree.vars().map(|v| tree.name(v).to_string()).collect()
        };
        let [reversed, renamed] = <[TableRule; 2]>::try_from(reordered_universal_rules()).unwrap();
        assert_ne!(names(&reversed), names(&u));
        assert_eq!(names(&reversed)[..2], ["xr", "xb"]);
        let renamed = names(&renamed);
        assert!(renamed[1..].windows(2).all(|w| w[0] > w[1]), "{renamed:?}");
    }
}
