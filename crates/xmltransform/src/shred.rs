//! Shredding: evaluating a table rule over a document (Section 2, semantics).
//!
//! [`TableRule::shred`](crate::TableRule::shred) and
//! [`Transformation::shred`](crate::Transformation::shred) prepare a
//! [`crate::ShredPlan`] and a `DocIndex` per call and run the plan;
//! anything that shreds repeatedly, or shreds large documents, should
//! prepare once.  This module holds [`field_value`], which the plan uses
//! to fill a field, and, in tests, the string walk the plan is checked
//! against.

use std::borrow::Cow;
use xmlprop_xmltree::{Document, NodeId};

/// The string stored in a relational field for a bound node.
///
/// Attributes, text nodes and text-only elements contribute their text (this
/// is what every printed instance in the paper shows, e.g. `Fundamentals`
/// for a `name` element in Example 2.5); elements with attribute or element
/// children contribute the full pre-order `value()` serialization, as in the
/// paper's `value(11)` illustration.
pub(crate) fn field_value(doc: &Document, node: NodeId) -> Cow<'_, str> {
    use xmlprop_xmltree::NodeKind;
    match doc.kind(node) {
        NodeKind::Attribute | NodeKind::Text => Cow::Borrowed(
            doc.text_value(node)
                .expect("attribute and text nodes carry text"),
        ),
        NodeKind::Element => {
            if !doc.children(node).all(|c| doc.kind(c).is_text()) {
                return Cow::Owned(doc.value(node));
            }
            // A text-only element: a single text child is borrowed as is.
            let mut texts = doc.children(node);
            match (texts.next(), texts.next()) {
                (None, _) => Cow::Borrowed(""),
                (Some(only), None) => field_value(doc, only),
                _ => Cow::Owned(doc.string_value(node)),
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod oracle {
    //! The string walk of the shredding semantics: variables bound through
    //! cloned `BTreeMap` bindings, `n[[P]]` computed by membership of label
    //! paths.  Apart from [`field_value`], which defines a field's string,
    //! it shares no code with `CompiledExpr`, `DocIndex` or `ShredPlan`.

    use super::field_value;
    use crate::rule::TableRule;
    use crate::tree::{TableTree, VarId};
    use std::collections::BTreeMap;
    use xmlprop_reldb::{Relation, Value};
    use xmlprop_xmlpath::{Path, PathExpr};
    use xmlprop_xmltree::{Document, NodeId};

    /// A partial assignment of variables to document nodes.  `None` models
    /// the paper's null case: the variable's path reached no node (and every
    /// descendant variable is then null as well).
    type Binding = BTreeMap<String, Option<NodeId>>;

    /// `from[[expr]]` in document order: the descendants-or-self of `from`
    /// whose label path from `from` is in the language of `expr`.
    fn reach(doc: &Document, from: NodeId, expr: &PathExpr) -> Vec<NodeId> {
        let depth = doc.path_from_root(from).len();
        doc.descendants_or_self(from)
            .into_iter()
            .filter(|&n| {
                let below = doc.path_from_root(n).split_off(depth);
                expr.matches(&Path::from_labels(below))
            })
            .collect()
    }

    /// Evaluates a table rule over a document (Section 2, Example 2.5):
    ///
    /// * the root variable is bound to the document root;
    /// * a variable `x := y/P` ranges over `y[[P]]`; if that set is empty
    ///   the variable (and its descendants) are bound to null;
    /// * when several nodes are reached, an implicit Cartesian product
    ///   covers them all;
    /// * the field `f := value(x)` of each output tuple holds the `value()`
    ///   serialization of `x`'s node, or SQL null when `x` is unbound.
    pub(crate) fn shred_rule(rule: &TableRule, doc: &Document) -> Relation {
        let tree = rule.table_tree();
        let root = Binding::from([(tree.name(VarId::ROOT).to_string(), Some(doc.root()))]);
        let mut bindings: Vec<Binding> = vec![root];
        // Variables in parent-before-child order, skipping the root.
        for v in tree.vars().skip(1) {
            let var = tree.name(v);
            let parent = tree.name(tree.parent(v).expect("non-root variable has a parent"));
            let path = tree.edge(v);
            let mut next: Vec<Binding> = Vec::with_capacity(bindings.len());
            for binding in &bindings {
                let nodes = match binding.get(parent).copied().flatten() {
                    Some(parent_node) => reach(doc, parent_node, path),
                    None => Vec::new(),
                };
                let choices: Vec<Option<NodeId>> = if nodes.is_empty() {
                    vec![None]
                } else {
                    nodes.into_iter().map(Some).collect()
                };
                for choice in choices {
                    let mut b = binding.clone();
                    b.insert(var.to_string(), choice);
                    next.push(b);
                }
            }
            bindings = next;
        }

        let mut relation = Relation::new(rule.schema().clone());
        for binding in bindings {
            let values: Vec<Value> = rule
                .schema()
                .attributes()
                .iter()
                .map(|field| {
                    let var = rule
                        .field_var(field)
                        .expect("validated rule covers every field");
                    match binding.get(tree.name(var)).copied().flatten() {
                        Some(node) => Value::text(field_value(doc, node)),
                        None => Value::Null,
                    }
                })
                .collect();
            relation.insert(values);
        }
        relation
    }

    /// Counts how many tuples shredding produces, without materializing
    /// them.
    pub(crate) fn count_bindings(tree: &TableTree, doc: &Document) -> usize {
        fn rec(tree: &TableTree, doc: &Document, var: VarId, node: Option<NodeId>) -> usize {
            let mut total = 1usize;
            for child in tree.vars().filter(|&c| tree.parent(c) == Some(var)) {
                let path = tree.edge(child);
                let nodes = match node {
                    Some(n) => reach(doc, n, path),
                    None => Vec::new(),
                };
                let child_count: usize = if nodes.is_empty() {
                    rec(tree, doc, child, None)
                } else {
                    nodes
                        .into_iter()
                        .map(|n| rec(tree, doc, child, Some(n)))
                        .sum()
                };
                total *= child_count.max(1);
            }
            total
        }
        rec(tree, doc, VarId::ROOT, Some(doc.root()))
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::{count_bindings, shred_rule};
    use crate::{sample, TableRule};
    use xmlprop_reldb::{Fd, Relation, Value};
    use xmlprop_xmltree::sample::fig1;
    use xmlprop_xmltree::{Document, ElementBuilder};

    /// Shreds through the facade, asserting the oracle agrees row for row.
    fn shred(rule: &TableRule, doc: &Document) -> Relation {
        let relation = rule.shred(doc);
        assert_eq!(relation, shred_rule(rule, doc), "{}", rule.schema());
        relation
    }

    #[test]
    fn example_2_5_section_instance() {
        // The interpretation of Rule(section) over the Fig. 1 tree yields the
        // two fully populated tuples printed in Example 2.5; chapters with no
        // sections additionally produce null-padded tuples (the paper's
        // "value(x) is defined to be null" amendment to the semantics).
        let t = sample::example_2_4_transformation();
        let doc = fig1();
        let rel = shred(t.rule("section").unwrap(), &doc);
        assert_eq!(rel.schema().attributes(), &["inChapt", "number", "name"]);
        let complete: Vec<Vec<String>> = rel
            .rows()
            .filter(|r| !r.has_null())
            .map(|r| r.values().map(|v| v.to_string()).collect())
            .collect();
        assert_eq!(
            complete,
            vec![
                vec!["1".to_string(), "1".to_string(), "Fundamentals".to_string()],
                vec!["1".to_string(), "2".to_string(), "Attributes".to_string()],
            ]
        );
        // Book 123's two chapters have no sections: two null-padded rows.
        let padded = rel.rows().filter(|r| r.has_null()).count();
        assert_eq!(padded, 2);
        assert_eq!(rel.len(), 4);
    }

    #[test]
    fn chapter_instance_matches_fig_2b_shape() {
        let t = sample::example_2_4_transformation();
        let doc = fig1();
        let rel = shred(t.rule("chapter").unwrap(), &doc);
        assert_eq!(rel.len(), 3);
        let fd = Fd::parse("inBook, number -> name").unwrap();
        assert!(rel.satisfies_fd_paper(&fd));
        // bookTitle-based key would fail, but that needs the title — checked
        // at the integration level with a dedicated transformation.
    }

    #[test]
    fn book_instance_has_two_rows() {
        let t = sample::example_2_4_transformation();
        let doc = fig1();
        let rel = shred(t.rule("book").unwrap(), &doc);
        // Book 123 has one author; book 234 has none (nulls) — still one row
        // each because empty author branches produce nulls, not row loss.
        assert_eq!(rel.len(), 2);
        let by_isbn: Vec<(String, bool)> = rel
            .rows()
            .map(|r| {
                (
                    rel.value(&r, "isbn").to_string(),
                    rel.value(&r, "contact").is_null(),
                )
            })
            .collect();
        assert!(by_isbn.contains(&("123".to_string(), false)));
        assert!(by_isbn.contains(&("234".to_string(), true)));
    }

    #[test]
    fn whole_transformation_shreds_to_a_database() {
        let t = sample::example_2_4_transformation();
        let doc = fig1();
        let db = t.shred(&doc);
        assert_eq!(db.len(), 3);
        assert_eq!(db.get("book").unwrap().len(), 2);
        assert_eq!(db.get("chapter").unwrap().len(), 3);
        // Two real sections plus two null-padded rows for sectionless chapters.
        assert_eq!(db.get("section").unwrap().len(), 4);
        assert_eq!(
            db.get("section")
                .unwrap()
                .rows()
                .filter(|r| !r.has_null())
                .count(),
            2
        );
    }

    #[test]
    fn cartesian_product_semantics() {
        // A document where a book has 2 authors and 3 chapters: a rule with
        // fields from both branches produces 2 × 3 = 6 tuples.
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
        let t = crate::Transformation::parse(
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
        let rel = shred(t.rule("pairs").unwrap(), &doc);
        assert_eq!(rel.len(), 6);
        let tree = t.rule("pairs").unwrap().table_tree();
        assert_eq!(count_bindings(tree, &doc), 6);
    }

    #[test]
    fn missing_branches_become_null_not_lost_rows() {
        // The universal relation of Example 3.1 over Fig. 1: book 234 has no
        // author and no sections under chapter... but chapter 1 of book 234
        // has sections; chapters of book 123 have none, so secNum/secName are
        // null there while chapNum/chapName are populated.
        let u = sample::example_3_1_universal();
        let doc = fig1();
        let rel = shred(&u, &doc);
        // Expected bindings: book 123 (1 author) × chapters {1, 10} × no
        // sections → 2 rows; book 234 (no author) × chapter 1 × sections
        // {1, 2} → 2 rows.
        assert_eq!(rel.len(), 4);
        let null_sections = rel
            .rows()
            .filter(|r| rel.value(r, "secNum").is_null())
            .count();
        assert_eq!(null_sections, 2);
        let null_authors = rel
            .rows()
            .filter(|r| rel.value(r, "bookAuthor").is_null())
            .count();
        assert_eq!(null_authors, 2);
    }

    #[test]
    fn empty_document_yields_single_all_null_row() {
        let t = sample::example_2_4_transformation();
        let doc = Document::new("r");
        let rel = shred(t.rule("book").unwrap(), &doc);
        assert_eq!(rel.len(), 1);
        assert!(rel.row(0).values().all(Value::is_null));
    }

    #[test]
    fn values_use_preorder_serialization_for_elements() {
        // A field bound to an element variable stores the pre-order value()
        // string, as in Example 2.5's value(11) illustration.
        let doc = fig1();
        let t = crate::Transformation::parse(
            "rule chap(c) {
                xb := xr//book;
                xc := xb/chapter;
                c := value(xc);
            }",
        )
        .unwrap();
        let rel = shred(t.rule("chap").unwrap(), &doc);
        let first = rel.value(&rel.row(0), "c").to_string();
        assert_eq!(first, "(@number:1, name:(S:Introduction))");
    }
}
