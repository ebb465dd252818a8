//! Parse / serialize round trips over random documents whose values mix
//! the five escaped characters, character references, multi-byte UTF-8,
//! CDATA sections and whitespace-only runs.
//!
//! Each case is a random element tree written out as raw XML next to the
//! `Document` the parser must build from it (constructed through the
//! mutation API in parse-event order, so even the epochs agree).  The
//! tests check that the parser builds exactly that document, that
//! `parse(to_xml(doc))` reproduces it, and that the streaming front end
//! borrows a value from the input exactly when it had nothing to decode.

mod support;

use proptest::prelude::*;
use std::borrow::Cow;
use support::{spec, Case};
use xmlprop_xmltree::{scan, to_xml, Document, NodeId, StreamEvent};

/// Whitespace-only text does not survive serialization (it is dropped on
/// the way back in), so the round trip is checked on documents without it.
fn has_blank_text(doc: &Document) -> bool {
    doc.all_nodes()
        .into_iter()
        .any(|n| doc.kind(n).is_text() && doc.text_value(n).is_some_and(|t| t.trim().is_empty()))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

    /// The parser builds exactly the expected document: every node's kind,
    /// label, text, parent and child order, and the epoch.
    #[test]
    fn parse_builds_the_expected_document(spec in spec()) {
        let case = Case::new(&spec);
        let parsed = Document::parse_str(&case.xml).unwrap();
        prop_assert_eq!(&parsed, &case.doc, "{}", case.xml);
    }

    /// `parse(to_xml(doc))` reproduces the document node for node.
    #[test]
    fn serialize_then_parse_reproduces_the_document(spec in spec()) {
        let case = Case::new(&spec);
        prop_assume!(!has_blank_text(&case.doc));
        let xml = to_xml(&case.doc);
        let reparsed = Document::parse_str(&xml).unwrap();
        prop_assert_eq!(&reparsed, &case.doc, "{}", xml);
        for n in case.doc.all_nodes() {
            prop_assert_eq!(reparsed.kind(n), case.doc.kind(n));
            prop_assert_eq!(reparsed.label(n), case.doc.label(n));
            prop_assert_eq!(reparsed.text_value(n), case.doc.text_value(n));
            prop_assert_eq!(reparsed.parent(n), case.doc.parent(n));
        }
        prop_assert_eq!(to_xml(&reparsed), xml);
    }

    /// A stream value is borrowed from the input exactly when its raw text
    /// had no `&` to decode; CDATA content is always borrowed.
    #[test]
    fn stream_values_borrow_unless_decoded(spec in spec()) {
        let case = Case::new(&spec);
        let mut values = Vec::new();
        scan(&case.xml, |event| match event {
            StreamEvent::Attribute { value, .. } | StreamEvent::Text { value } => values.push(value),
            _ => {}
        })
        .unwrap();
        prop_assert_eq!(values.len(), case.values.len(), "{}", case.xml);
        for (value, (raw, text, cdata)) in values.iter().zip(&case.values) {
            prop_assert_eq!(value.as_ref(), text.as_str());
            let borrowed = matches!(value, Cow::Borrowed(_));
            prop_assert_eq!(borrowed, *cdata || !raw.contains('&'), "{:?}", raw);
        }
    }
}

#[test]
fn a_fixed_case_exercises_every_construct() {
    let xml = "<r id=\"&quot;&#x1F389;\"><a>x &amp; é<![CDATA[<&>]]></a>\n <b/></r>";
    let doc = Document::parse_str(xml).unwrap();
    let mut want = Document::new("r");
    let root = want.root();
    want.add_attribute(root, "id", "\"🎉");
    let a = want.add_element(root, "a");
    want.add_text(a, "x & é");
    want.add_text(a, "<&>");
    want.add_element(root, "b");
    assert_eq!(doc, want);
}
