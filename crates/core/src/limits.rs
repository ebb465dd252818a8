//! The undecidability results of Section 3 (Theorems 3.1 and 3.2).
//!
//! These theorems are *negative* results; no algorithm can exist for the
//! problems they describe, so this module documents them and provides the
//! small constructions the reductions rest on, which the examples and tests
//! use to illustrate why the framework restricts itself to:
//!
//! * keys only (no foreign keys), and
//! * the projection / Cartesian-product transformation language of
//!   Definition 2.2 (no selection or set difference).
//!
//! # Theorem 3.1 — rich transformation languages
//!
//! > The key propagation problem from XML to relational data is undecidable
//! > when the transformation language can express all relational algebra
//! > operators.
//!
//! The reduction is from equivalence of relational algebra queries: given
//! queries `Q1`, `Q2`, build a transformation whose output relation is empty
//! iff `Q1 ≡ Q2`; a suitable FD then holds iff the queries are equivalent.
//! Since our language deliberately omits selection and difference, this
//! result does not apply to it — that is the point.
//!
//! # Theorem 3.2 — keys *and foreign keys*
//!
//! > The propagation problem for XML keys and foreign keys is undecidable
//! > for any transformation language that can express the identity mapping.
//!
//! The reduction is from implication of relational keys and foreign keys
//! (undecidable, Fan & Libkin JACM 2002) using the **identity mapping**: a
//! relational database is represented as XML in the obvious way and mapped
//! back to the same relations by table rules whose paths have length one.
//! [`identity_rule`] builds exactly that mapping so that examples can show
//! the encoding; the paper concludes that constraint propagation must be
//! restricted to keys, which is what the rest of this crate implements.

use xmlprop_reldb::RelationSchema;
use xmlprop_xmltransform::{parse_single_rule, TableRule};

/// Builds the identity table rule used in the Theorem 3.2 reduction: a
/// relation `R(a1, …, an)` is encoded in XML as
/// `<db><R><a1>…</a1>…<an>…</an></R>…</db>` and mapped back to itself with
/// paths of length one.
pub fn identity_rule(schema: &RelationSchema) -> TableRule {
    let mut text = String::new();
    text.push_str(&format!(
        "rule {}({}) {{\n",
        schema.name(),
        schema.attributes().join(", ")
    ));
    text.push_str(&format!("    row := xr//{};\n", schema.name()));
    for (i, attr) in schema.attributes().iter().enumerate() {
        text.push_str(&format!("    v{i} := row/{attr};\n"));
    }
    for (i, attr) in schema.attributes().iter().enumerate() {
        text.push_str(&format!("    {attr} := value(v{i});\n"));
    }
    text.push('}');
    parse_single_rule(&text).expect("the identity rule is well-formed by construction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlprop_reldb::{Relation, RelationSchema, Value};

    /// The XML encoding of a relational tuple set used by the identity
    /// mapping.
    fn encode_relation_as_xml(relation: &Relation) -> xmlprop_xmltree::Document {
        let mut doc = xmlprop_xmltree::Document::new("db");
        let root = doc.root();
        for row in relation.rows() {
            let row_node = doc.add_element(root, relation.schema().name());
            for (attr, value) in relation.schema().attributes().iter().zip(row.values()) {
                if let Some(text) = value.as_text() {
                    let cell = doc.add_element(row_node, attr.clone());
                    doc.add_text(cell, text);
                }
            }
        }
        doc
    }

    #[test]
    fn identity_rule_roundtrips_a_relation() {
        let schema = RelationSchema::new("emp", ["id", "name", "dept"]);
        let mut relation = Relation::new(schema.clone());
        relation.insert(["1", "ada", "eng"].map(Value::from));
        relation.insert(["2", "bob", "ops"].map(Value::from));

        let doc = encode_relation_as_xml(&relation);
        let rule = identity_rule(&schema);
        let back = rule.shred(&doc);
        assert_eq!(back.schema().attributes(), schema.attributes());
        assert_eq!(back.len(), 2);
        let names: Vec<String> = back
            .rows()
            .map(|r| back.value(&r, "name").to_string())
            .collect();
        assert_eq!(names, vec!["ada", "bob"]);
    }

    #[test]
    fn nulls_are_skipped_in_the_encoding_and_restored_by_shredding() {
        let schema = RelationSchema::new("t", ["a", "b"]);
        let mut relation = Relation::new(schema.clone());
        relation.insert(vec![Value::text("x"), Value::Null]);
        let doc = encode_relation_as_xml(&relation);
        let back = identity_rule(&schema).shred(&doc);
        assert_eq!(back.len(), 1);
        assert!(back.value(&back.row(0), "b").is_null());
        assert_eq!(back.value(&back.row(0), "a").to_string(), "x");
    }

    #[test]
    fn identity_rule_paths_have_length_one_below_the_row() {
        let schema = RelationSchema::new("r", ["a", "b", "c"]);
        let rule = identity_rule(&schema);
        let tree = rule.table_tree();
        for var in tree
            .vars()
            .filter(|&v| tree.name(v) != "xr" && tree.name(v) != "row")
        {
            assert_eq!(tree.edge(var).len(), 1);
            assert_eq!(tree.parent(var).map(|p| tree.name(p)), Some("row"));
        }
    }
}
