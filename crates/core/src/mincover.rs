//! Algorithm `minimumCover`: the polynomial-time minimum cover of all FDs
//! propagated onto a universal relation (Section 5).
//!
//! Pages 551–552 of the conference scan (the pseudocode figure) are missing,
//! so this module reconstructs the algorithm from the surrounding prose,
//! which fixes its structure precisely enough:
//!
//! * the table tree of the universal relation is traversed **top-down**;
//! * at each variable `v` the algorithm maintains **transitive keys**: sets
//!   of universal-relation fields that identify `v`'s node from the root,
//!   assembled from keys of `Σ` (one key per level, attributes that are
//!   mapped to fields) and from "unique under" steps (an ancestor's key also
//!   identifies `v` when `Σ` implies there is at most one `v` node per
//!   ancestor node);
//! * new FDs `K(v) → A` are emitted only when `v` is keyed and the field `A`
//!   is defined by a node that is **unique under** `v`;
//! * when a node has several transitive keys, only one (the *canonical* key)
//!   is propagated downward, and pairwise **equivalence FDs** between the
//!   canonical key and each alternative are emitted so that no propagated FD
//!   is lost from the cover (this is the paper's trick for staying
//!   polynomial);
//! * finally `minimize` removes redundant FDs and extraneous attributes.
//!
//! The algorithm itself lives on [`PropagationEngine`]
//! ([`PropagationEngine::minimum_cover_with_stats`]), where every
//! implication probe runs against the prepared key index and compiled tree
//! paths; the functions here are one-shot facades.  The defining
//! correctness property — the result is a non-redundant cover equivalent
//! (under Armstrong's axioms) to the output of the exponential
//! [`crate::naive_minimum_cover`] — is asserted by integration and property
//! tests across the workspace, and the pre-engine implementation is
//! retained below as a `#[cfg(test)]` oracle.

use crate::PropagationEngine;
use xmlprop_reldb::Fd;
use xmlprop_xmlkeys::KeySet;
use xmlprop_xmltransform::TableRule;

/// Statistics about a minimum-cover computation, reported by
/// [`minimum_cover_with_stats`]; the `synthetic_workloads` example prints
/// them beside the cover.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoverStats {
    /// Number of candidate FDs generated before minimization.
    pub generated_fds: usize,
    /// Number of FDs in the final minimum cover.
    pub cover_size: usize,
    /// Number of table-tree variables that received a transitive key.
    pub keyed_variables: usize,
    /// Number of calls made to the key-implication procedure.
    pub implication_calls: usize,
}

/// Computes a minimum cover of all the FDs propagated from `sigma` onto the
/// universal relation defined by `rule`.
pub fn minimum_cover(sigma: &KeySet, rule: &TableRule) -> Vec<Fd> {
    PropagationEngine::prepare(sigma, rule).minimum_cover()
}

/// Like [`minimum_cover`] but also reports [`CoverStats`].
pub fn minimum_cover_with_stats(sigma: &KeySet, rule: &TableRule) -> (Vec<Fd>, CoverStats) {
    PropagationEngine::prepare(sigma, rule).minimum_cover_with_stats()
}

/// The pre-engine implementation (per-probe `XmlKey` construction and
/// string-based implication), kept verbatim as the reference oracle for the
/// agreement tests.
#[cfg(test)]
pub(crate) mod oracle {
    use super::CoverStats;
    use std::collections::BTreeMap;
    use xmlprop_reldb::intern::minimize_interned;
    use xmlprop_reldb::{AttrSet, AttrUniverse, Fd, IFd};
    use xmlprop_xmlkeys::{implies, node_unique_under, KeySet, XmlKey};
    use xmlprop_xmltransform::{TableRule, TableTree, VarId};

    /// `minimum_cover_with_stats` as originally written.
    pub fn minimum_cover_with_stats(sigma: &KeySet, rule: &TableRule) -> (Vec<Fd>, CoverStats) {
        let tree = rule.table_tree();
        let mut stats = CoverStats::default();

        let universe = AttrUniverse::from_names(
            rule.schema()
                .attributes()
                .iter()
                .map(String::as_str)
                .chain(rule.field_rules().iter().map(|fr| fr.field.as_str())),
        );

        let mut canonical: BTreeMap<String, AttrSet> = BTreeMap::new();
        canonical.insert(tree.name(VarId::ROOT).to_string(), AttrSet::new());

        let mut fds: Vec<IFd> = Vec::new();

        let field_of_var: BTreeMap<&str, &str> = rule
            .field_rules()
            .iter()
            .map(|fr| (fr.var.as_str(), fr.field.as_str()))
            .collect();

        for var in tree.vars().skip(1) {
            let mut candidates: Vec<AttrSet> = Vec::new();
            let mut ancestors: Vec<VarId> = tree.ancestors(var).collect();
            ancestors.reverse();
            for &u in &ancestors[..ancestors.len() - 1] {
                let Some(k_u) = canonical.get(tree.name(u)).cloned() else {
                    continue;
                };
                let u_position = tree.path_between(VarId::ROOT, u).expect("u is a variable");
                let relative = tree.path_between(u, var).expect("u is an ancestor of var");

                stats.implication_calls += 1;
                if node_unique_under(sigma, &u_position, &relative) {
                    candidates.push(k_u.clone());
                }

                let attr_fields = attribute_fields_of(rule, tree, var);
                if attr_fields.is_empty() {
                    continue;
                }
                for key in sigma.iter() {
                    if key.key_attrs().is_empty() {
                        continue; // covered by the unique-under step
                    }
                    let Some(fields) = fields_for_attrs(&universe, &attr_fields, key.key_attrs())
                    else {
                        continue;
                    };
                    stats.implication_calls += 1;
                    let probe = XmlKey::new(
                        u_position.clone(),
                        relative.clone(),
                        key.key_attrs().iter().cloned(),
                    );
                    if implies(sigma, &probe) {
                        let mut k_v = k_u.clone();
                        k_v.union_with(&fields);
                        candidates.push(k_v);
                    }
                }
            }

            if candidates.is_empty() {
                continue;
            }
            candidates.sort_by_cached_key(|k| universe.names_key(k));
            candidates.dedup();
            let chosen = candidates[0].clone();

            for alt in &candidates[1..] {
                for field in alt.difference(&chosen).iter() {
                    fds.push(IFd::new(chosen.clone(), std::iter::once(field).collect()));
                }
                for field in chosen.difference(alt).iter() {
                    fds.push(IFd::new(alt.clone(), std::iter::once(field).collect()));
                }
            }

            canonical.insert(tree.name(var).to_string(), chosen);
        }

        stats.keyed_variables = canonical.len();

        for (var, key_fields) in &canonical {
            let var = tree.var(var).expect("keyed variables are variables");
            let v_position = tree
                .path_between(VarId::ROOT, var)
                .expect("var is a variable");
            for (w, field) in &field_of_var {
                let w = tree.var(w).expect("field rules name variables");
                if !tree.is_ancestor_or_self(var, w) {
                    continue;
                }
                let field_id = universe
                    .lookup(field)
                    .expect("every rule field is interned");
                if key_fields.contains(field_id) {
                    continue; // trivial
                }
                let to_w = tree.path_between(var, w).expect("w is in v's subtree");
                stats.implication_calls += 1;
                if node_unique_under(sigma, &v_position, &to_w) {
                    let fd = IFd::new(key_fields.clone(), std::iter::once(field_id).collect());
                    if !fds.contains(&fd) {
                        fds.push(fd);
                    }
                }
            }
        }

        stats.generated_fds = fds.len();
        let cover: Vec<Fd> = minimize_interned(universe.len(), &fds)
            .iter()
            .map(|fd| universe.extern_fd(fd))
            .collect();
        stats.cover_size = cover.len();
        (cover, stats)
    }

    fn attribute_fields_of(
        rule: &TableRule,
        tree: &TableTree,
        var: VarId,
    ) -> BTreeMap<String, String> {
        let mut out = BTreeMap::new();
        for fr in rule.field_rules() {
            let w = tree.var(&fr.var).expect("field rules name variables");
            if tree.parent(w) != Some(var) {
                continue;
            }
            if let [xmlprop_xmlpath::Atom::Label(label)] = tree.edge(w).atoms() {
                if label.starts_with('@') {
                    out.insert(label.clone(), fr.field.clone());
                }
            }
        }
        out
    }

    fn fields_for_attrs(
        universe: &AttrUniverse,
        attr_fields: &BTreeMap<String, String>,
        attrs: &[String],
    ) -> Option<AttrSet> {
        attrs
            .iter()
            .map(|a| attr_fields.get(a).and_then(|field| universe.lookup(field)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive_minimum_cover;
    use xmlprop_reldb::{covers_equivalent, is_nonredundant};
    use xmlprop_xmlkeys::{example_2_1_keys, XmlKey};
    use xmlprop_xmltransform::sample::{
        example_1_1_refined_chapter, example_2_4_transformation, example_3_1_universal,
    };
    use xmlprop_xmltransform::Transformation;

    fn fd(s: &str) -> Fd {
        Fd::parse(s).unwrap()
    }

    #[test]
    fn example_3_1_minimum_cover() {
        // The paper's Example 3.1 prints exactly this minimum cover.
        let sigma = example_2_1_keys();
        let u = example_3_1_universal();
        let cover = minimum_cover(&sigma, &u);
        let expected = vec![
            fd("bookIsbn -> bookTitle"),
            fd("bookIsbn -> authContact"),
            fd("bookIsbn, chapNum -> chapName"),
            fd("bookIsbn, chapNum, secNum -> secName"),
        ];
        assert!(covers_equivalent(&cover, &expected), "got {cover:?}");
        assert_eq!(cover.len(), 4, "got {cover:?}");
        assert!(is_nonredundant(&cover));
    }

    #[test]
    fn example_1_2_minimum_cover() {
        // Example 1.2: over Chapter(isbn, bookTitle, author, chapterNum,
        // chapterName) the cover is isbn -> bookTitle and
        // (isbn, chapterNum) -> chapterName.
        let sigma = example_2_1_keys();
        let rule = xmlprop_xmltransform::parse_single_rule(
            "rule Chapter(isbn, bookTitle, author, chapterNum, chapterName) {
                b := xr//book;
                i := b/@isbn;
                t := b/title;
                a := b/author;
                an := a/name;
                c := b/chapter;
                n := c/@number;
                m := c/name;
                isbn := value(i);
                bookTitle := value(t);
                author := value(an);
                chapterNum := value(n);
                chapterName := value(m);
            }",
        )
        .unwrap();
        let cover = minimum_cover(&sigma, &rule);
        let expected = vec![
            fd("isbn -> bookTitle"),
            fd("isbn, chapterNum -> chapterName"),
        ];
        assert!(covers_equivalent(&cover, &expected), "got {cover:?}");
        // isbn -> author must NOT be derivable (books have several authors).
        assert!(!xmlprop_reldb::implies(&cover, &fd("isbn -> author")));
    }

    #[test]
    fn agrees_with_naive_on_the_paper_rules() {
        let sigma = example_2_1_keys();
        let t = example_2_4_transformation();
        for relation in ["book", "chapter", "section"] {
            let rule = t.rule(relation).unwrap();
            let fast = minimum_cover(&sigma, rule);
            let slow = naive_minimum_cover(&sigma, rule);
            assert!(
                covers_equivalent(&fast, &slow),
                "cover mismatch on {relation}: fast={fast:?} slow={slow:?}"
            );
        }
        let refined = example_1_1_refined_chapter();
        assert!(covers_equivalent(
            &minimum_cover(&sigma, &refined),
            &naive_minimum_cover(&sigma, &refined)
        ));
    }

    #[test]
    fn engine_matches_oracle_bit_for_bit() {
        // The engine and the pre-engine oracle must agree on the exact
        // cover (same FDs, same order) and on every statistic, for every
        // sample rule, for the universal rule declared in other orders and
        // under other names, and for a Σ with alternative keys.
        let mut sigma = example_2_1_keys();
        let t = example_2_4_transformation();
        let mut rules: Vec<TableRule> = t.rules().to_vec();
        rules.push(example_3_1_universal());
        rules.push(example_1_1_refined_chapter());
        rules.extend(crate::test_rules::reordered_universal_rules());
        sigma.add(XmlKey::parse("K8: (ε, (//book, {@isbn13}))").unwrap());
        for rule in &rules {
            assert_eq!(
                minimum_cover_with_stats(&sigma, rule),
                oracle::minimum_cover_with_stats(&sigma, rule),
                "engine/oracle mismatch on {}",
                rule.schema().name()
            );
        }
    }

    #[test]
    fn empty_key_set_gives_empty_cover() {
        let sigma = KeySet::new();
        let u = example_3_1_universal();
        assert!(minimum_cover(&sigma, &u).is_empty());
    }

    #[test]
    fn field_rules_outside_the_schema_do_not_panic() {
        // `TableRule::validate` requires every schema attribute to be
        // populated but not the converse, so a rule may map a field the
        // schema never declares; the cover computation must intern it
        // rather than panic on the lookup.
        use xmlprop_xmlpath::PathExpr;
        use xmlprop_xmltransform::{FieldRule, VarMapping};
        let rule = xmlprop_xmltransform::TableRule::new(
            xmlprop_reldb::RelationSchema::new("r", ["isbn"]),
            vec![
                VarMapping {
                    var: "b".into(),
                    parent: "xr".into(),
                    path: PathExpr::epsilon().descendant("book"),
                },
                VarMapping {
                    var: "i".into(),
                    parent: "b".into(),
                    path: PathExpr::label("@isbn"),
                },
                VarMapping {
                    var: "t".into(),
                    parent: "b".into(),
                    path: PathExpr::label("title"),
                },
            ],
            vec![
                FieldRule {
                    field: "isbn".into(),
                    var: "i".into(),
                },
                FieldRule {
                    field: "ghost".into(),
                    var: "t".into(),
                },
            ],
        )
        .unwrap();
        let sigma = example_2_1_keys();
        let cover = minimum_cover(&sigma, &rule);
        // K3 makes //book/title unique, so the undeclared field is even
        // derivable from the book key — the point is that nothing panics.
        assert!(cover
            .iter()
            .all(|fd| fd.attributes().iter().all(|a| a == "isbn" || a == "ghost")));
    }

    #[test]
    fn stats_are_populated() {
        let sigma = example_2_1_keys();
        let u = example_3_1_universal();
        let (cover, stats) = minimum_cover_with_stats(&sigma, &u);
        assert_eq!(stats.cover_size, cover.len());
        assert!(stats.generated_fds >= cover.len());
        assert!(stats.keyed_variables >= 4); // xr, xb, yc, zs at least
        assert!(stats.implication_calls > 0);
    }

    #[test]
    fn alternative_keys_produce_equivalence_fds() {
        // Books carry two alternative keys (@isbn and @isbn13); the cover
        // must make the two identifiers interderivable and title reachable
        // from either.
        let mut sigma = example_2_1_keys();
        sigma.add(XmlKey::parse("K8: (ε, (//book, {@isbn13}))").unwrap());
        let rule = xmlprop_xmltransform::parse_single_rule(
            "rule U(isbn, isbn13, title) {
                b := xr//book;
                i := b/@isbn;
                j := b/@isbn13;
                t := b/title;
                isbn := value(i);
                isbn13 := value(j);
                title := value(t);
            }",
        )
        .unwrap();
        let cover = minimum_cover(&sigma, &rule);
        assert!(xmlprop_reldb::implies(&cover, &fd("isbn -> isbn13")));
        assert!(xmlprop_reldb::implies(&cover, &fd("isbn13 -> isbn")));
        assert!(xmlprop_reldb::implies(&cover, &fd("isbn13 -> title")));
        assert!(xmlprop_reldb::implies(&cover, &fd("isbn -> title")));
        // And it agrees with the exponential baseline.
        let slow = naive_minimum_cover(&sigma, &rule);
        assert!(
            covers_equivalent(&cover, &slow),
            "fast={cover:?} slow={slow:?}"
        );
    }

    #[test]
    fn composite_relative_keys() {
        // A two-attribute relative key: sections identified by (@number,
        // @part) within a chapter.
        let sigma: KeySet = [
            XmlKey::parse("(ε, (//book, {@isbn}))").unwrap(),
            XmlKey::parse("(//book, (chapter, {@number}))").unwrap(),
            XmlKey::parse("(//book/chapter, (section, {@number, @part}))").unwrap(),
            XmlKey::parse("(//book/chapter/section, (name, {}))").unwrap(),
        ]
        .into_iter()
        .collect();
        let rule = xmlprop_xmltransform::parse_single_rule(
            "rule U(isbn, chapNum, secNum, secPart, secName) {
                b := xr//book;
                i := b/@isbn;
                c := b/chapter;
                n := c/@number;
                s := c/section;
                sn := s/@number;
                sp := s/@part;
                sm := s/name;
                isbn := value(i);
                chapNum := value(n);
                secNum := value(sn);
                secPart := value(sp);
                secName := value(sm);
            }",
        )
        .unwrap();
        let cover = minimum_cover(&sigma, &rule);
        assert!(xmlprop_reldb::implies(
            &cover,
            &fd("isbn, chapNum, secNum, secPart -> secName")
        ));
        // The smaller LHS without secPart must not be derivable.
        assert!(!xmlprop_reldb::implies(
            &cover,
            &fd("isbn, chapNum, secNum -> secName")
        ));
        let slow = naive_minimum_cover(&sigma, &rule);
        assert!(
            covers_equivalent(&cover, &slow),
            "fast={cover:?} slow={slow:?}"
        );
    }

    #[test]
    fn shared_prefix_transformation_without_wildcards() {
        // A rule whose paths are all simple (no //) exercises the containment
        // logic differently.
        let sigma: KeySet = [
            XmlKey::parse("(ε, (db/customer, {@id}))").unwrap(),
            XmlKey::parse("(db/customer, (order, {@oid}))").unwrap(),
            XmlKey::parse("(db/customer/order, (total, {}))").unwrap(),
        ]
        .into_iter()
        .collect();
        let t = Transformation::parse(
            "rule orders(cust, ord, total) {
                c := xr/db/customer;
                ci := c/@id;
                o := c/order;
                oi := o/@oid;
                ot := o/total;
                cust := value(ci);
                ord := value(oi);
                total := value(ot);
            }",
        )
        .unwrap();
        let rule = t.rule("orders").unwrap();
        let cover = minimum_cover(&sigma, rule);
        let expected = vec![fd("cust, ord -> total")];
        assert!(covers_equivalent(&cover, &expected), "got {cover:?}");
        assert!(covers_equivalent(
            &cover,
            &naive_minimum_cover(&sigma, rule)
        ));
    }
}
