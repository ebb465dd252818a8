//! Algorithm `propagation` (Fig. 5): checking XML key propagation.
//!
//! The free functions here are one-shot facades: each call prepares a
//! [`PropagationEngine`] for the `(Σ, rule)` pair and runs the prepared
//! walk.  Callers probing many FDs against the same pair should build the
//! engine once ([`crate::PropagationEngine`]) or use the batch
//! [`propagate_all`]; the pre-engine implementation is retained below as a
//! `#[cfg(test)]` oracle pinned by agreement tests.

use crate::PropagationEngine;
use std::collections::BTreeSet;
use xmlprop_reldb::Fd;
use xmlprop_xmlkeys::KeySet;
use xmlprop_xmltransform::TableRule;

/// The detailed result of a propagation check for a single FD `X → A`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PropagationOutcome {
    /// The field `A` the outcome refers to (right-hand side attribute).
    pub field: String,
    /// True if the FD `X → A` is propagated from the keys.
    pub propagated: bool,
    /// The lowest ancestor variable of `A`'s variable that the algorithm
    /// proved to be transitively keyed by fields of `X` and under which the
    /// `A` variable is unique — `None` when no such ancestor was found.
    pub keyed_ancestor: Option<String>,
    /// Fields of `X` that could not be shown to be non-null whenever `A` is
    /// non-null (the `Ycheck` residue of Fig. 5).  Must be empty for the FD
    /// to be propagated.
    pub unresolved_fields: BTreeSet<String>,
}

impl PropagationOutcome {
    pub(crate) fn rejected(field: &str, x_fields: &[&str]) -> Self {
        PropagationOutcome {
            field: field.to_string(),
            propagated: false,
            keyed_ancestor: None,
            unresolved_fields: x_fields.iter().map(|f| f.to_string()).collect(),
        }
    }
}

/// Checks whether the FD `fd` over the relation defined by `rule` is
/// propagated from the XML keys `sigma`: `Σ ⊨_σ fd` in the paper's notation.
///
/// A multi-attribute right-hand side `X → {A1, …, Ak}` is checked as the `k`
/// FDs `X → Ai` (equivalent under both the classical and the paper's
/// null-aware FD semantics).
///
/// Fields that do not belong to the rule's schema make the FD
/// non-propagated (rather than panicking), so callers can probe freely.
///
/// # Reconstruction note
///
/// The scanned pseudocode of Fig. 5 is partly illegible; following the
/// prose and both traces of Example 4.2 the implementation (a) walks the
/// *proper* ancestors of `A`'s variable top-down, (b) only tests uniqueness
/// of the variable under an ancestor once that ancestor has been shown to
/// be keyed (context has moved to it), and (c) initializes the `Ycheck` set
/// to `X \ {A}` so that a trivial FD does not demand an existence guarantee
/// for its own right-hand side.
pub fn propagation(sigma: &KeySet, rule: &TableRule, fd: &Fd) -> bool {
    PropagationEngine::prepare(sigma, rule).propagation(fd)
}

/// Like [`propagation`] but returns one [`PropagationOutcome`] per
/// right-hand-side attribute, for diagnostics and examples.
pub fn propagation_explained(sigma: &KeySet, rule: &TableRule, fd: &Fd) -> Vec<PropagationOutcome> {
    PropagationEngine::prepare(sigma, rule).propagation_explained(fd)
}

/// Batch propagation: prepares the `(Σ, rule)` pair once and answers every
/// FD of `fds` against the shared state — one verdict per FD, in order.
pub fn propagate_all(sigma: &KeySet, rule: &TableRule, fds: &[Fd]) -> Vec<bool> {
    PropagationEngine::prepare(sigma, rule).propagate_all(fds)
}

/// The pre-engine implementation (per-probe path construction, string-based
/// implication), kept verbatim as the reference oracle that pins the
/// prepared engine.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;
    use xmlprop_xmlkeys::{attributes_assured, implies, node_unique_under, XmlKey};
    use xmlprop_xmltransform::{TableTree, VarId};

    /// `propagation` as originally written.
    pub fn propagation(sigma: &KeySet, rule: &TableRule, fd: &Fd) -> bool {
        let x_fields: Vec<&str> = fd.lhs().iter().map(String::as_str).collect();
        fd.rhs()
            .iter()
            .all(|a| propagation_single(sigma, rule, &x_fields, a).propagated)
    }

    /// `propagation_explained` as originally written.
    pub fn propagation_explained(
        sigma: &KeySet,
        rule: &TableRule,
        fd: &Fd,
    ) -> Vec<PropagationOutcome> {
        let x_fields: Vec<&str> = fd.lhs().iter().map(String::as_str).collect();
        fd.rhs()
            .iter()
            .map(|a| propagation_single(sigma, rule, &x_fields, a))
            .collect()
    }

    fn propagation_single(
        sigma: &KeySet,
        rule: &TableRule,
        x_fields: &[&str],
        a_field: &str,
    ) -> PropagationOutcome {
        let tree = rule.table_tree();

        let Some(x_var) = rule.field_var(a_field) else {
            return PropagationOutcome::rejected(a_field, x_fields);
        };
        if x_fields.iter().any(|f| rule.field_var(f).is_none()) {
            return PropagationOutcome::rejected(a_field, x_fields);
        }

        let mut ancestors: Vec<VarId> = tree.ancestors(x_var).collect();
        ancestors.reverse();

        let mut ycheck_pending: Vec<bool> = x_fields.iter().map(|f| *f != a_field).collect();
        let mut ycheck_len = ycheck_pending.iter().filter(|p| **p).count();

        let mut key_found = x_fields.contains(&a_field);
        let mut keyed_ancestor = if key_found {
            Some(tree.name(x_var).to_string())
        } else {
            None
        };

        let mut context = VarId::ROOT;
        let path_from_root = |var| tree.path_between(VarId::ROOT, var).expect("a variable");

        for &target in &ancestors[..ancestors.len().saturating_sub(1)] {
            let beta = attributes_of_target_in_x(rule, tree, target, x_fields);
            let beta_attrs: Vec<&str> = beta.iter().map(|(attr, _)| attr.as_str()).collect();

            if !key_found {
                let context_position = path_from_root(context);
                let relative = tree
                    .path_between(context, target)
                    .expect("target is a descendant of every previous context");
                let probe = XmlKey::new(context_position, relative, beta_attrs.iter().copied());
                if implies(sigma, &probe) {
                    context = target;
                    let target_position = path_from_root(target);
                    let to_x = tree
                        .path_between(target, x_var)
                        .expect("x is a descendant of its ancestor");
                    if node_unique_under(sigma, &target_position, &to_x) {
                        key_found = true;
                        keyed_ancestor = Some(tree.name(target).to_string());
                    }
                }
            }

            if !beta.is_empty() {
                let target_position = path_from_root(target);
                if attributes_assured(sigma, &target_position, beta_attrs.iter().copied()) {
                    for (_, field) in &beta {
                        if let Ok(i) = x_fields.binary_search(field) {
                            if ycheck_pending[i] {
                                ycheck_pending[i] = false;
                                ycheck_len -= 1;
                            }
                        }
                    }
                }
            }
        }

        PropagationOutcome {
            field: a_field.to_string(),
            propagated: key_found && ycheck_len == 0,
            keyed_ancestor,
            unresolved_fields: x_fields
                .iter()
                .zip(&ycheck_pending)
                .filter(|(_, pending)| **pending)
                .map(|(f, _)| f.to_string())
                .collect(),
        }
    }

    fn attributes_of_target_in_x<'a>(
        rule: &TableRule,
        tree: &TableTree,
        target: VarId,
        x_fields: &[&'a str],
    ) -> Vec<(String, &'a str)> {
        let mut out = Vec::new();
        for &field in x_fields {
            let Some(var) = rule.field_var(field) else {
                continue;
            };
            if tree.parent(var) != Some(target) {
                continue;
            }
            if let [xmlprop_xmlpath::Atom::Label(label)] = tree.edge(var).atoms() {
                if label.starts_with('@') {
                    out.push((label.clone(), field));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlprop_xmlkeys::{example_2_1_keys, XmlKey};
    use xmlprop_xmltransform::sample::{
        example_1_1_initial_chapter, example_1_1_refined_chapter, example_2_4_transformation,
        example_3_1_universal,
    };
    use xmlprop_xmltransform::Transformation;

    fn fd(s: &str) -> Fd {
        Fd::parse(s).unwrap()
    }

    #[test]
    fn example_4_2_positive_case() {
        // isbn -> contact over Rule(book) is propagated.
        let sigma = example_2_1_keys();
        let t = example_2_4_transformation();
        let rule = t.rule("book").unwrap();
        assert!(propagation(&sigma, rule, &fd("isbn -> contact")));
        let outcome = &propagation_explained(&sigma, rule, &fd("isbn -> contact"))[0];
        assert!(outcome.propagated);
        assert_eq!(outcome.keyed_ancestor.as_deref(), Some("xa"));
        assert!(outcome.unresolved_fields.is_empty());
    }

    #[test]
    fn example_4_2_negative_case() {
        // (inChapt, number) -> name over Rule(section) is NOT propagated:
        // section numbers are only unique within a chapter, and the chapter
        // is only identified relative to a book, whose isbn is not a field.
        let sigma = example_2_1_keys();
        let t = example_2_4_transformation();
        let rule = t.rule("section").unwrap();
        let fd = fd("inChapt, number -> name");
        assert!(!propagation(&sigma, rule, &fd));
        let outcome = &propagation_explained(&sigma, rule, &fd)[0];
        assert!(!outcome.propagated);
        assert!(outcome.keyed_ancestor.is_none());
        // Both LHS fields are assured to exist; the failure is the missing key.
        assert!(outcome.unresolved_fields.is_empty());
    }

    #[test]
    fn headline_fd_of_example_1_1() {
        // (isbn, chapterNum) -> chapterName on the refined Chapter design is
        // guaranteed; (bookTitle, chapterNum) -> chapterName on the initial
        // design is not.
        let sigma = example_2_1_keys();
        let refined = example_1_1_refined_chapter();
        assert!(propagation(
            &sigma,
            &refined,
            &fd("isbn, chapterNum -> chapterName")
        ));
        let initial = example_1_1_initial_chapter();
        assert!(!propagation(
            &sigma,
            &initial,
            &fd("bookTitle, chapterNum -> chapterName")
        ));
    }

    #[test]
    fn chapter_rule_key_is_propagated() {
        let sigma = example_2_1_keys();
        let t = example_2_4_transformation();
        let rule = t.rule("chapter").unwrap();
        assert!(propagation(&sigma, rule, &fd("inBook, number -> name")));
        // Dropping inBook breaks it: chapter numbers repeat across books.
        assert!(!propagation(&sigma, rule, &fd("number -> name")));
        // And inBook alone does not determine the chapter name.
        assert!(!propagation(&sigma, rule, &fd("inBook -> name")));
    }

    #[test]
    fn book_rule_fds() {
        let sigma = example_2_1_keys();
        let t = example_2_4_transformation();
        let rule = t.rule("book").unwrap();
        assert!(propagation(&sigma, rule, &fd("isbn -> title")));
        assert!(propagation(&sigma, rule, &fd("isbn -> contact")));
        // A book may have several authors: isbn -> author must NOT propagate.
        assert!(!propagation(&sigma, rule, &fd("isbn -> author")));
        // title is not a key for books (two books share "XML" in Fig. 1).
        assert!(!propagation(&sigma, rule, &fd("title -> isbn")));
        assert!(!propagation(&sigma, rule, &fd("title -> contact")));
    }

    #[test]
    fn multi_attribute_rhs_decomposes() {
        let sigma = example_2_1_keys();
        let t = example_2_4_transformation();
        let rule = t.rule("book").unwrap();
        assert!(propagation(&sigma, rule, &fd("isbn -> title, contact")));
        assert!(!propagation(&sigma, rule, &fd("isbn -> title, author")));
    }

    #[test]
    fn trivial_fds() {
        let sigma = example_2_1_keys();
        let t = example_2_4_transformation();
        let rule = t.rule("book").unwrap();
        // A -> A always propagates.
        assert!(propagation(&sigma, rule, &fd("author -> author")));
        // (isbn, author) -> author: trivial key-wise, but condition (1) of
        // the null semantics requires isbn to be non-null whenever author is;
        // isbn is assured on //book by K1, so this holds.
        assert!(propagation(&sigma, rule, &fd("isbn, author -> author")));
        // (title, author) -> author: title is an element field, not an
        // assured attribute, so the existence condition fails.
        assert!(!propagation(&sigma, rule, &fd("title, author -> author")));
    }

    #[test]
    fn unknown_fields_are_rejected_not_panicking() {
        let sigma = example_2_1_keys();
        let t = example_2_4_transformation();
        let rule = t.rule("book").unwrap();
        assert!(!propagation(&sigma, rule, &fd("isbn -> nosuchfield")));
        assert!(!propagation(&sigma, rule, &fd("nosuchfield -> title")));
    }

    #[test]
    fn universal_relation_fds_of_example_3_1() {
        let sigma = example_2_1_keys();
        let u = example_3_1_universal();
        for good in [
            "bookIsbn -> bookTitle",
            "bookIsbn -> authContact",
            "bookIsbn, chapNum -> chapName",
            "bookIsbn, chapNum, secNum -> secName",
        ] {
            assert!(
                propagation(&sigma, &u, &fd(good)),
                "{good} should be propagated"
            );
        }
        for bad in [
            "bookIsbn -> bookAuthor",
            "bookIsbn -> chapName",
            "chapNum -> chapName",
            "bookIsbn, secNum -> secName",
            "bookTitle -> bookIsbn",
            "bookIsbn, chapNum -> secName",
        ] {
            assert!(
                !propagation(&sigma, &u, &fd(bad)),
                "{bad} should NOT be propagated"
            );
        }
    }

    #[test]
    fn empty_sigma_propagates_only_trivial_like_fds() {
        let sigma = KeySet::new();
        let t = example_2_4_transformation();
        let rule = t.rule("book").unwrap();
        assert!(!propagation(&sigma, rule, &fd("isbn -> title")));
        assert!(propagation(&sigma, rule, &fd("author -> author")));
        // Even trivial-with-extra-attribute FDs fail: nothing assures isbn.
        assert!(!propagation(&sigma, rule, &fd("isbn, author -> author")));
    }

    #[test]
    fn constant_fields_under_a_unique_root_path() {
        // A field bound to a node unique in the whole document is determined
        // by the empty set of attributes.
        let sigma: KeySet = [
            XmlKey::parse("(ε, (library, {}))").unwrap(),
            XmlKey::parse("(library, (name, {}))").unwrap(),
        ]
        .into_iter()
        .collect();
        let t = Transformation::parse(
            "rule meta(libname) {
                l := xr/library;
                n := l/name;
                libname := value(n);
            }",
        )
        .unwrap();
        let rule = t.rule("meta").unwrap();
        assert!(propagation(&sigma, rule, &fd(" -> libname")));
    }

    #[test]
    fn batch_facade_matches_single_calls() {
        let sigma = example_2_1_keys();
        let u = example_3_1_universal();
        let probes = vec![
            fd("bookIsbn -> bookTitle"),
            fd("bookIsbn -> bookAuthor"),
            fd("bookIsbn, chapNum -> chapName"),
        ];
        assert_eq!(
            propagate_all(&sigma, &u, &probes),
            probes
                .iter()
                .map(|f| propagation(&sigma, &u, f))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn engine_matches_oracle_on_probe_grids() {
        // The prepared engine and the pre-engine oracle must return
        // identical outcomes (verdict, keyed ancestor and Ycheck residue)
        // over an exhaustive grid of 1- and 2-field left-hand sides on
        // every sample rule, and on the universal rule declared in other
        // orders and under other names.
        let sigma = example_2_1_keys();
        let t = example_2_4_transformation();
        let mut rules: Vec<TableRule> = t.rules().to_vec();
        rules.push(example_3_1_universal());
        rules.push(example_1_1_refined_chapter());
        rules.extend(crate::test_rules::reordered_universal_rules());
        for rule in &rules {
            let engine = PropagationEngine::prepare(&sigma, rule);
            let attrs: Vec<String> = rule.schema().attributes().to_vec();
            for a in &attrs {
                for x in &attrs {
                    let probe = Fd::to_attr([x.clone()], a.clone());
                    assert_eq!(
                        engine.propagation_explained(&probe),
                        oracle::propagation_explained(&sigma, rule, &probe),
                        "disagreement on {probe} over {}",
                        rule.schema().name()
                    );
                    for y in &attrs {
                        if x >= y {
                            continue;
                        }
                        let probe = Fd::to_attr([x.clone(), y.clone()], a.clone());
                        assert_eq!(
                            engine.propagation(&probe),
                            oracle::propagation(&sigma, rule, &probe),
                            "disagreement on {probe} over {}",
                            rule.schema().name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn soundness_against_shredded_instances() {
        // Whatever propagation accepts must hold, under the paper's null
        // semantics, on the shredded instance of a document satisfying Σ.
        let sigma = example_2_1_keys();
        let t = example_2_4_transformation();
        let doc = xmlprop_xmltree::sample::fig1();
        let fields = ["isbn", "title", "author", "contact"];
        let rule = t.rule("book").unwrap();
        let rel = rule.shred(&doc);
        for a in fields {
            // All single-attribute LHS choices.
            for x in fields {
                let fd = Fd::to_attr([x], a);
                if propagation(&sigma, rule, &fd) {
                    assert!(
                        rel.satisfies_fd_paper(&fd),
                        "propagation accepted {fd} but the Fig. 1 instance violates it"
                    );
                }
            }
        }
    }
}
