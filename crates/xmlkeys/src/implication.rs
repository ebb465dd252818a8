//! Key implication `Σ ⊨ φ` and the attribute-existence analysis `exist()`.
//!
//! See the crate-level documentation for the rule system and its relation to
//! the paper's (unpublished) `implication` algorithm.  The procedure
//! examines each key of `Σ` independently, which matches the `O(|Σ|·|φ|)`
//! shape stated in Section 4 (with an extra polynomial factor for path
//! containment).
//!
//! The functions here are thin facades over the prepared [`KeyIndex`]: they
//! build the index for `Σ`, compile the probe, and query.  Callers that ask
//! many questions against the same key set (the propagation algorithms, the
//! benchmarks) should build one [`KeyIndex`] — or an
//! `xmlprop_core::PropagationEngine` — and query it directly; the original
//! string-walking implementations are retained below as `#[cfg(test)]`
//! oracles pinned by property tests.

use crate::{KeyIndex, KeySet, XmlKey};
use xmlprop_xmlpath::PathExpr;

/// True if every node reachable at position `position` (a path from the
/// document root) is guaranteed, by some key of `Σ`, to carry exactly one
/// `@attr` attribute.
///
/// This is the `exist()` sub-procedure of Algorithm `propagation` (Fig. 5),
/// generalized to a single attribute: a key `(Q, (Q', S))` with `@attr ∈ S`
/// forces, by condition (1) of Definition 2.1, every node of `[[Q/Q']]` to
/// have a unique `@attr`; if `position ⊑ Q/Q'` the guarantee transfers.
///
/// `attr` may be given with or without the leading `@` (keys store their
/// attributes `@`-prefixed — see [`XmlKey::key_attrs`]).
pub fn attribute_assured(sigma: &KeySet, position: &PathExpr, attr: &str) -> bool {
    let mut index = KeyIndex::new(sigma);
    let Some(attr) = index.attr_id(attr) else {
        return false; // no key of Σ mentions the attribute
    };
    let position = index.compile(position);
    index.attribute_assured(&position, attr)
}

/// The paper's `exist(P, β)` (Fig. 5): true iff for every attribute in
/// `attrs` and every node `n ∈ [[P]]`, `n/@attr` exists (uniquely).
pub fn attributes_assured<'a>(
    sigma: &KeySet,
    position: &PathExpr,
    attrs: impl IntoIterator<Item = &'a str>,
) -> bool {
    let mut index = KeyIndex::new(sigma);
    let position = index.compile(position);
    attrs.into_iter().all(|a| match index.attr_id(a) {
        Some(id) => index.attribute_assured(&position, id),
        None => false,
    })
}

/// Key implication `Σ ⊨ φ`.
///
/// Sound rule system (see crate docs):
///
/// 1. **epsilon** — `(Q, (ε, S))` holds when every attribute of `S` is
///    assured at position `Q` (in particular always when `S = ∅`: a subtree
///    has a unique root);
/// 2. **single-key derivation** — `(Q, (Q', S))` follows from a key
///    `(Qk, (A/B, Sk)) ∈ Σ` with `Sk ⊆ S`, `Q ⊑ Qk/A`, `Q' ⊑ B`
///    (target-to-context plus context/target containment), provided every
///    extra attribute of `S \ Sk` is assured at position `Q/Q'`.
pub fn implies(sigma: &KeySet, phi: &XmlKey) -> bool {
    let mut index = KeyIndex::new(sigma);
    let phi = index.prepare(phi);
    index.implies(&phi)
}

/// Convenience used by the propagation algorithms: true if, relative to
/// every node reached by `context_position` (a path from the root), there is
/// at most one node reached by `target_path` — i.e.
/// `Σ ⊨ (context_position, (target_path, {}))`.
pub fn node_unique_under(
    sigma: &KeySet,
    context_position: &PathExpr,
    target_path: &PathExpr,
) -> bool {
    let mut index = KeyIndex::new(sigma);
    let context = index.compile(context_position);
    let target = index.compile(target_path);
    let absolute = context.concat(&target);
    index.node_unique_under(&context, &target, &absolute)
}

/// The pre-index implementations, kept verbatim as reference oracles for
/// the property tests that pin the prepared [`KeyIndex`] to them.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;

    /// `attribute_assured` as originally written: rescan `Σ`, allocating the
    /// `@`-prefixed probe name.
    pub fn attribute_assured(sigma: &KeySet, position: &PathExpr, attr: &str) -> bool {
        let attr = if attr.starts_with('@') {
            attr.to_string()
        } else {
            format!("@{attr}")
        };
        sigma.iter().any(|k| {
            k.key_attrs().iter().any(|a| a == &attr) && position.contained_in(&k.absolute_target())
        })
    }

    /// `implies` as originally written: per-call target splits and string
    /// containment.
    pub fn implies(sigma: &KeySet, phi: &XmlKey) -> bool {
        if phi.target().is_epsilon() {
            return phi
                .key_attrs()
                .iter()
                .all(|a| attribute_assured(sigma, phi.context(), a));
        }

        let phi_position = phi.absolute_target();

        if let [xmlprop_xmlpath::Atom::Label(label)] = phi.target().atoms() {
            if label.starts_with('@')
                && attribute_assured(sigma, phi.context(), label)
                && phi
                    .key_attrs()
                    .iter()
                    .all(|a| attribute_assured(sigma, &phi_position, a))
            {
                return true;
            }
        }
        for k in sigma.iter() {
            if !k.key_attrs().iter().all(|a| phi.key_attrs().contains(a)) {
                continue;
            }
            let extras_ok = phi
                .key_attrs()
                .iter()
                .filter(|a| !k.key_attrs().contains(a))
                .all(|a| attribute_assured(sigma, &phi_position, a));
            if !extras_ok {
                continue;
            }
            for (a, b) in k.target().splits() {
                let derived_context = k.context().concat(&a);
                if phi.context().contained_in(&derived_context) && phi.target().contained_in(&b) {
                    return true;
                }
            }
        }
        false
    }

    /// `node_unique_under` as originally written.
    pub fn node_unique_under(
        sigma: &KeySet,
        context_position: &PathExpr,
        target_path: &PathExpr,
    ) -> bool {
        implies(
            sigma,
            &XmlKey::new(
                context_position.clone(),
                target_path.clone(),
                Vec::<String>::new(),
            ),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::example_2_1_keys;
    use crate::satisfy::satisfies;
    use xmlprop_xmltree::sample::fig1;

    fn p(s: &str) -> PathExpr {
        s.parse().unwrap()
    }

    fn key(s: &str) -> XmlKey {
        XmlKey::parse(s).unwrap()
    }

    #[test]
    fn epsilon_rule() {
        let sigma = example_2_1_keys();
        assert!(implies(&sigma, &key("(ε, (ε, {}))")));
        assert!(implies(&sigma, &key("(//anything/at/all, (ε, {}))")));
        // With attributes the context position must be covered by a key that
        // asserts the attribute: //book has @isbn by K1, but the root has no
        // assured @isbn.
        assert!(implies(&sigma, &key("(//book, (ε, {@isbn}))")));
        assert!(!implies(&sigma, &key("(ε, (ε, {@isbn}))")));
    }

    #[test]
    fn keys_imply_themselves() {
        let sigma = example_2_1_keys();
        for k in sigma.iter() {
            assert!(implies(&sigma, k), "{k} should imply itself");
        }
    }

    #[test]
    fn target_to_context_example_4_2() {
        let sigma = example_2_1_keys();
        // From K7 = (//book, (author/contact, {})) derive
        // (//book/author, (contact, {})).
        assert!(implies(&sigma, &key("(//book/author, (contact, {}))")));
        // From K1 = (ε, (//book, {@isbn})) derive (//, (book, {@isbn}))? No:
        // //book splits as (//)(book), giving context ε/(//) = // — check it.
        assert!(implies(&sigma, &key("(//, (book, {@isbn}))")));
    }

    #[test]
    fn context_containment() {
        let sigma = example_2_1_keys();
        // K2 holds within any book context; a more specific context is fine.
        assert!(implies(&sigma, &key("(//book, (chapter, {@number}))")));
        // Uniqueness checks used by Algorithm propagation (empty key sets).
        assert!(implies(&sigma, &key("(//book, (title, {}))")));
        assert!(implies(&sigma, &key("(//book, (author/contact, {}))")));
        // Each chapter has at most one name (K4), even if we start from the
        // more specific //book/chapter context written differently.
        assert!(implies(&sigma, &key("(//book/chapter, (name, {}))")));
    }

    #[test]
    fn negative_cases_from_example_4_2() {
        let sigma = example_2_1_keys();
        // A chapter is NOT globally identified by its number.
        assert!(!implies(&sigma, &key("(ε, (//book/chapter, {@number}))")));
        // A section is NOT globally identified by its number either.
        assert!(!implies(
            &sigma,
            &key("(ε, (//book/chapter/section, {@number}))")
        ));
        // A book does not have a unique chapter name at the book level.
        assert!(!implies(&sigma, &key("(//book, (chapter/name, {}))")));
        // Books are not keyed by title.
        assert!(!implies(&sigma, &key("(ε, (//book, {@title}))")));
    }

    #[test]
    fn superkey_requires_assured_extras() {
        let sigma = example_2_1_keys();
        // (ε, (//book, {@isbn, @number})) is NOT implied: although @isbn is a
        // key, nothing assures that every book has a @number attribute, so
        // condition (1) of the larger key can fail.
        assert!(!implies(&sigma, &key("(ε, (//book, {@isbn, @number}))")));
        // Within a book, chapters keyed by number stay keyed if we add an
        // attribute that *is* assured on chapters... @number is the only
        // assured chapter attribute, so extend Σ with an extra key to check
        // the positive case.
        let mut sigma2 = sigma.clone();
        sigma2.add(key("(//book/chapter, (ε, {@pages}))"));
        assert!(implies(
            &sigma2,
            &key("(//book, (chapter, {@number, @pages}))")
        ));
        assert!(!implies(
            &sigma,
            &key("(//book, (chapter, {@number, @pages}))")
        ));
    }

    #[test]
    fn exist_checks_from_the_paper() {
        let sigma = example_2_1_keys();
        // Example 4.2: every //book node must have an @isbn (from K1).
        assert!(attribute_assured(&sigma, &p("//book"), "@isbn"));
        assert!(attributes_assured(&sigma, &p("//book"), ["isbn"]));
        // Chapter numbers are assured on //book/chapter (from K2).
        assert!(attribute_assured(&sigma, &p("//book/chapter"), "@number"));
        // Section numbers on //book/chapter/section (from K6).
        assert!(attribute_assured(
            &sigma,
            &p("//book/chapter/section"),
            "@number"
        ));
        // Nothing assures @isbn on arbitrary nodes or @number on books.
        assert!(!attribute_assured(&sigma, &p("//"), "@isbn"));
        assert!(!attribute_assured(&sigma, &p("//book"), "@number"));
    }

    #[test]
    fn node_unique_under_helper() {
        let sigma = example_2_1_keys();
        assert!(node_unique_under(&sigma, &p("//book"), &p("title")));
        assert!(node_unique_under(
            &sigma,
            &p("//book"),
            &p("author/contact")
        ));
        assert!(!node_unique_under(&sigma, &p("//book"), &p("chapter")));
        assert!(!node_unique_under(&sigma, &p("ε"), &p("//book")));
        assert!(node_unique_under(&sigma, &p("//book/chapter"), &p("name")));
    }

    #[test]
    fn attribute_uniqueness_rule() {
        let sigma = example_2_1_keys();
        // K1 forces every //book node to carry exactly one @isbn, so a book
        // has at most one @isbn child node.
        assert!(implies(&sigma, &key("(//book, (@isbn, {}))")));
        assert!(implies(&sigma, &key("(//book/chapter, (@number, {}))")));
        // No key talks about @lang, and @number is not asserted on books.
        assert!(!implies(&sigma, &key("(//book, (@lang, {}))")));
        assert!(!implies(&sigma, &key("(//book, (@number, {}))")));
        // Longer targets ending in an attribute are not uniqueness claims:
        // a document may contain many book/@isbn nodes.
        assert!(!implies(&sigma, &key("(ε, (//book/@isbn, {}))")));
    }

    #[test]
    fn empty_sigma_only_yields_epsilon_consequences() {
        let sigma = KeySet::new();
        assert!(implies(&sigma, &key("(a/b, (ε, {}))")));
        assert!(!implies(&sigma, &key("(a, (b, {}))")));
        assert!(!implies(&sigma, &key("(ε, (//x, {@id}))")));
    }

    #[test]
    fn soundness_spot_check_on_fig1() {
        // Every key our procedure derives from Σ (over a small probe
        // universe) must actually hold on the Fig. 1 document, which
        // satisfies Σ.
        let sigma = example_2_1_keys();
        let doc = fig1();
        let contexts = [
            "ε",
            "//book",
            "//book/chapter",
            "//book/chapter/section",
            "//",
        ];
        let targets = [
            "ε",
            "title",
            "name",
            "chapter",
            "section",
            "author/contact",
            "//book",
        ];
        let attr_sets: [&[&str]; 4] = [&[], &["@isbn"], &["@number"], &["@isbn", "@number"]];
        for c in contexts {
            for t in targets {
                for attrs in attr_sets {
                    let phi = XmlKey::new(p(c), p(t), attrs.iter().copied());
                    if implies(&sigma, &phi) {
                        assert!(
                            satisfies(&doc, &phi),
                            "implication claims {phi} but Fig. 1 violates it"
                        );
                    }
                }
            }
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use xmlprop_xmlpath::Atom;

        /// Random path expressions over a small label alphabet.
        fn expr_strategy() -> impl Strategy<Value = PathExpr> {
            prop::collection::vec(
                prop_oneof![
                    Just(Atom::Label("a".to_string())),
                    Just(Atom::Label("b".to_string())),
                    Just(Atom::Label("c".to_string())),
                    Just(Atom::AnyPath),
                ],
                0..4,
            )
            .prop_map(PathExpr::from_atoms)
        }

        /// Random attribute sets over `{@u, @v, @w}`.
        fn attrs_strategy() -> impl Strategy<Value = Vec<String>> {
            prop::collection::btree_set(
                prop_oneof![
                    Just("@u".to_string()),
                    Just("@v".to_string()),
                    Just("@w".to_string())
                ],
                0..3,
            )
            .prop_map(|s| s.into_iter().collect())
        }

        /// Random XML keys built from the strategies above.
        fn key_strategy() -> impl Strategy<Value = XmlKey> {
            (expr_strategy(), expr_strategy(), attrs_strategy())
                .prop_map(|(c, t, a)| XmlKey::new(c, t, a))
        }

        proptest! {
            /// The prepared index agrees with the string-walking oracle on
            /// random key sets and probe keys — including probes whose
            /// labels and attributes never occur in Σ.
            #[test]
            fn implies_matches_oracle(
                keys in prop::collection::vec(key_strategy(), 0..6),
                phi in key_strategy(),
            ) {
                let sigma = KeySet::from_keys(keys);
                prop_assert_eq!(
                    implies(&sigma, &phi),
                    oracle::implies(&sigma, &phi),
                    "disagreement on {}", phi
                );
            }

            /// Prepared `exist()` agrees with the oracle, with and without
            /// the `@` prefix on the probe attribute.
            #[test]
            fn attribute_assured_matches_oracle(
                keys in prop::collection::vec(key_strategy(), 0..6),
                position in expr_strategy(),
                attr in prop_oneof![
                    Just("@u"), Just("@v"), Just("@w"), Just("u"), Just("v"), Just("@zz")
                ],
            ) {
                let sigma = KeySet::from_keys(keys);
                prop_assert_eq!(
                    attribute_assured(&sigma, &position, attr),
                    oracle::attribute_assured(&sigma, &position, attr),
                    "disagreement on {} at {}", attr, position
                );
            }

            /// Prepared uniqueness agrees with the oracle.
            #[test]
            fn node_unique_under_matches_oracle(
                keys in prop::collection::vec(key_strategy(), 0..6),
                context in expr_strategy(),
                target in expr_strategy(),
            ) {
                let sigma = KeySet::from_keys(keys);
                prop_assert_eq!(
                    node_unique_under(&sigma, &context, &target),
                    oracle::node_unique_under(&sigma, &context, &target),
                    "disagreement on ({}, ({}, {{}}))", context, target
                );
            }
        }
    }
}
