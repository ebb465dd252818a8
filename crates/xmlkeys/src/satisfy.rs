//! Key satisfaction (Definition 2.1) and violation reporting.
//!
//! The one-shot functions here prepare a [`crate::KeyIndex`] and a
//! `DocIndex` per call and run the prepared validator
//! ([`crate::KeyIndex::violations`] / [`crate::KeyIndex::satisfies`]);
//! anything validating repeatedly or at scale should prepare once.  The
//! string walk in this module's tests is the independent oracle the
//! prepared validator is property-tested against.

use crate::{KeySet, XmlKey};
use xmlprop_xmltree::{Document, NodeId};

/// A reason why a document fails to satisfy a key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A target node lacks one of the key attributes (condition 1).
    MissingAttribute {
        /// The context node under which the target was found.
        context: NodeId,
        /// The offending target node.
        target: NodeId,
        /// The missing attribute name (with `@`).
        attribute: String,
    },
    /// A target node carries more than one copy of a key attribute
    /// (condition 1 requires uniqueness of the attribute itself).
    DuplicateAttribute {
        /// The context node under which the target was found.
        context: NodeId,
        /// The offending target node.
        target: NodeId,
        /// The duplicated attribute name (with `@`).
        attribute: String,
    },
    /// Two distinct target nodes under the same context agree on all key
    /// attribute values (condition 2).
    DuplicateKeyValue {
        /// The context node under which the clash happens.
        context: NodeId,
        /// The first clashing target node.
        first: NodeId,
        /// The second clashing target node.
        second: NodeId,
        /// The shared key values, in key-attribute order.
        values: Vec<String>,
    },
}

impl Violation {
    /// Condition (1) for one key attribute of one target, from the number
    /// of attribute children carrying it: exactly one is no violation, none
    /// is [`Violation::MissingAttribute`], more is
    /// [`Violation::DuplicateAttribute`].
    // Inlined into `KeyIndex::check_target`'s per-attribute loop; the
    // batch check ran ~4% slower with a call there.
    #[inline]
    pub(crate) fn from_attribute_count(
        count: u32,
        context: NodeId,
        target: NodeId,
        attribute: &str,
    ) -> Option<Violation> {
        match count {
            1 => None,
            0 => Some(Violation::MissingAttribute {
                context,
                target,
                attribute: attribute.to_string(),
            }),
            _ => Some(Violation::DuplicateAttribute {
                context,
                target,
                attribute: attribute.to_string(),
            }),
        }
    }

    /// The target node the violation is reported at: the offending
    /// target, or the second of two clashing targets.
    pub(crate) fn target(&self) -> NodeId {
        match *self {
            Violation::MissingAttribute { target, .. }
            | Violation::DuplicateAttribute { target, .. } => target,
            Violation::DuplicateKeyValue { second, .. } => second,
        }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::MissingAttribute {
                context,
                target,
                attribute,
            } => write!(
                f,
                "target node {target} (context {context}) is missing key attribute {attribute}"
            ),
            Violation::DuplicateAttribute {
                context,
                target,
                attribute,
            } => write!(
                f,
                "target node {target} (context {context}) has more than one {attribute} attribute"
            ),
            Violation::DuplicateKeyValue {
                context,
                first,
                second,
                values,
            } => write!(
                f,
                "target nodes {first} and {second} under context {context} share key value ({})",
                values.join(", ")
            ),
        }
    }
}

/// Computes all violations of `key` in `doc` (empty iff the document
/// satisfies the key).
pub fn violations(doc: &Document, key: &XmlKey) -> Vec<Violation> {
    let mut index = KeySet::from_keys(vec![key.clone()]).prepare();
    let doc_index = index.index_document(doc);
    index.violations(doc, &doc_index)
}

/// True if `doc ⊨ key` (Definition 2.1).
pub fn satisfies(doc: &Document, key: &XmlKey) -> bool {
    satisfies_all(doc, [key])
}

/// True if the document satisfies every key of the set.
pub fn satisfies_all<'a>(doc: &Document, keys: impl IntoIterator<Item = &'a XmlKey>) -> bool {
    let mut index = KeySet::from_keys(keys.into_iter().cloned().collect()).prepare();
    let doc_index = index.index_document(doc);
    index.satisfies(doc, &doc_index)
}

#[cfg(test)]
pub(crate) mod oracle {
    //! The string walk of Definition 2.1: `n[[P]]` by membership of label
    //! paths, key tuples grouped per context in a `BTreeMap<Vec<String>, _>`.
    //! It shares no code with `CompiledExpr`, `DocIndex` or `KeyIndex`.

    use super::Violation;
    use crate::XmlKey;
    use std::collections::BTreeMap;
    use xmlprop_xmlpath::{Path, PathExpr};
    use xmlprop_xmltree::{Document, NodeId};

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

    /// All violations of `key` in `doc`, in the order the prepared
    /// validator reports them.
    pub(crate) fn violations(doc: &Document, key: &XmlKey) -> Vec<Violation> {
        let mut out = Vec::new();
        for context in reach(doc, doc.root(), key.context()) {
            // Map from key-value tuple to the first target node carrying it.
            let mut seen: BTreeMap<Vec<String>, NodeId> = BTreeMap::new();
            for target in reach(doc, context, key.target()) {
                let mut values = Vec::with_capacity(key.key_attrs().len());
                let mut complete = true;
                for attr in key.key_attrs() {
                    let nodes: Vec<NodeId> = doc
                        .children(target)
                        .filter(|&c| doc.kind(c).is_attribute() && doc.label(c) == attr)
                        .collect();
                    match nodes.len() {
                        0 => {
                            out.push(Violation::MissingAttribute {
                                context,
                                target,
                                attribute: attr.clone(),
                            });
                            complete = false;
                        }
                        1 => values.push(doc.text_value(nodes[0]).unwrap_or("").to_string()),
                        _ => {
                            out.push(Violation::DuplicateAttribute {
                                context,
                                target,
                                attribute: attr.clone(),
                            });
                            complete = false;
                        }
                    }
                }
                if !complete {
                    continue;
                }
                match seen.get(&values) {
                    Some(&first) => out.push(Violation::DuplicateKeyValue {
                        context,
                        first,
                        second: target,
                        values,
                    }),
                    None => {
                        seen.insert(values, target);
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::example_2_1_keys;
    use xmlprop_xmltree::sample::{fig1, fig1_duplicate_isbn};
    use xmlprop_xmltree::ElementBuilder;

    #[test]
    fn fig1_satisfies_all_sample_keys() {
        // Example 2.3: the tree of Fig. 1 satisfies K1–K7.
        let doc = fig1();
        for key in example_2_1_keys().iter() {
            assert!(
                satisfies(&doc, key),
                "{key} should hold on Fig. 1, violations: {:?}",
                violations(&doc, key)
            );
        }
        assert!(satisfies_all(&doc, example_2_1_keys().iter()));
    }

    #[test]
    fn duplicate_isbn_violates_k1_only() {
        let doc = fig1_duplicate_isbn();
        let keys = example_2_1_keys();
        let k1 = keys.get("K1").unwrap();
        let v = violations(&doc, k1);
        assert_eq!(v.len(), 1);
        assert!(
            matches!(v[0], Violation::DuplicateKeyValue { ref values, .. } if values == &vec!["123".to_string()])
        );
        // The other keys still hold.
        for key in keys.iter().filter(|k| k.name() != Some("K1")) {
            assert!(satisfies(&doc, key), "{key} unexpectedly violated");
        }
    }

    #[test]
    fn missing_attribute_is_a_violation() {
        // A book with no @isbn violates K1's condition (1).
        let doc = ElementBuilder::new("r")
            .child(ElementBuilder::new("book").text_child("title", "No isbn"))
            .build();
        let keys = example_2_1_keys();
        let v = violations(&doc, keys.get("K1").unwrap());
        assert_eq!(v.len(), 1);
        assert!(
            matches!(v[0], Violation::MissingAttribute { ref attribute, .. } if attribute == "@isbn")
        );
    }

    #[test]
    fn duplicate_attribute_is_a_violation() {
        // The paper's model allows a node to carry two @isbn children; the
        // key then fails condition (1).
        let mut doc = ElementBuilder::new("r")
            .child(ElementBuilder::new("book"))
            .build();
        let book = doc.element_children(doc.root()).next().unwrap();
        doc.add_attribute(book, "isbn", "1");
        doc.add_attribute(book, "isbn", "2");
        let keys = example_2_1_keys();
        let v = violations(&doc, keys.get("K1").unwrap());
        assert_eq!(v.len(), 1);
        assert!(matches!(v[0], Violation::DuplicateAttribute { .. }));
    }

    #[test]
    fn relative_key_scopes_violations_to_the_context() {
        // Two chapters numbered 1 in *different* books is fine (K2 holds),
        // but two chapters numbered 1 in the *same* book is a violation.
        let ok = ElementBuilder::new("r")
            .child(
                ElementBuilder::new("book")
                    .attr("isbn", "1")
                    .child(ElementBuilder::new("chapter").attr("number", "1")),
            )
            .child(
                ElementBuilder::new("book")
                    .attr("isbn", "2")
                    .child(ElementBuilder::new("chapter").attr("number", "1")),
            )
            .build();
        let keys = example_2_1_keys();
        assert!(satisfies(&ok, keys.get("K2").unwrap()));

        let bad = ElementBuilder::new("r")
            .child(
                ElementBuilder::new("book")
                    .attr("isbn", "1")
                    .child(ElementBuilder::new("chapter").attr("number", "1"))
                    .child(ElementBuilder::new("chapter").attr("number", "1")),
            )
            .build();
        assert!(!satisfies(&bad, keys.get("K2").unwrap()));
    }

    #[test]
    fn empty_key_set_means_at_most_one_target() {
        // K3 = (//book, (title, {})): a book with two titles violates it.
        let bad = ElementBuilder::new("r")
            .child(
                ElementBuilder::new("book")
                    .attr("isbn", "1")
                    .text_child("title", "A")
                    .text_child("title", "B"),
            )
            .build();
        let keys = example_2_1_keys();
        assert!(!satisfies(&bad, keys.get("K3").unwrap()));
        // But two authors are fine because no key restricts author count.
        let doc = fig1();
        assert!(satisfies_all(&doc, keys.iter()));
    }

    #[test]
    fn violation_messages_are_readable() {
        let doc = fig1_duplicate_isbn();
        let keys = example_2_1_keys();
        let v = violations(&doc, keys.get("K1").unwrap());
        let msg = v[0].to_string();
        assert!(msg.contains("share key value (123)"), "{msg}");
    }

    #[test]
    fn context_that_matches_nothing_is_vacuously_satisfied() {
        let doc = fig1();
        let key = XmlKey::parse("(//magazine, (issue, {@number}))").unwrap();
        assert!(satisfies(&doc, &key));
    }
}
