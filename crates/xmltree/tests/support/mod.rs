//! Random documents for the parser tests: a random element tree whose
//! values mix the five escaped characters, character references,
//! multi-byte UTF-8, CDATA sections and whitespace-only runs, written out
//! as raw XML next to the `Document` the parser must build from it.
//!
//! Shared by `roundtrip.rs` and by the tokenizer's oracle tests inside the
//! crate (`src/stream/oracle.rs`), which include this file by path; each
//! includer brings `Document` and `NodeId` into scope.

use super::{Document, NodeId};
use proptest::prelude::*;

/// `(raw XML, decoded text)` pieces that may appear in character data.
const TEXT_PIECES: &[(&str, &str)] = &[
    ("a", "a"),
    ("Zq 7", "Zq 7"),
    ("é", "é"),
    ("日本", "日本"),
    ("🎉", "🎉"),
    ("'", "'"),
    ("\"", "\""),
    (">", ">"),
    ("&amp;", "&"),
    ("&lt;", "<"),
    ("&gt;", ">"),
    ("&quot;", "\""),
    ("&apos;", "'"),
    ("&#233;", "é"),
    ("&#xE9;", "é"),
    ("&#x1F389;", "🎉"),
    ("&#38;", "&"),
    (" ", " "),
    ("\n\t ", "\n\t "),
];

/// Pieces for double-quoted attribute values: no raw `"` or `<`.
const ATTR_PIECES: &[(&str, &str)] = &[
    ("a", "a"),
    ("é", "é"),
    ("日本", "日本"),
    ("🎉", "🎉"),
    ("'", "'"),
    (">", ">"),
    ("&amp;", "&"),
    ("&lt;", "<"),
    ("&quot;", "\""),
    ("&apos;", "'"),
    ("&#x1F389;", "🎉"),
    ("&#60;", "<"),
    (" ", " "),
    ("\t\n", "\t\n"),
];

/// CDATA content is taken verbatim, references and markup included.
const CDATA_PIECES: &[&str] = &["<&>", "a&amp;b", "é", "]]", "x<y/>", " \n"];

const LABELS: &[&str] = &["a", "b", "c-d", "e.f", "ns:g"];
const ATTR_NAMES: &[&str] = &["x", "y", "id", "ns:z"];
const WHITESPACE: &[&str] = &[" ", "\n  ", "\t\r\n"];

/// One character-data item of an element's content.
#[derive(Debug, Clone)]
enum TextItem {
    /// A run of escaped pieces (indices into [`TEXT_PIECES`]).
    Chars(Vec<usize>),
    /// A CDATA section (indices into [`CDATA_PIECES`]; possibly empty).
    Cdata(Vec<usize>),
    /// A whitespace-only run, which both parsers drop.
    Blank(usize),
}

/// Element `i + 1` of a [`Spec`] (the root `r` is element 0).
#[derive(Debug, Clone)]
struct ElementSpec {
    /// Selects the parent among the elements before this one.
    parent: usize,
    /// Index into [`LABELS`].
    label: usize,
    /// `(name, value pieces)`: indices into [`ATTR_NAMES`] and
    /// [`ATTR_PIECES`].
    attrs: Vec<(usize, Vec<usize>)>,
    /// The text item just before this element in its parent.
    before: Option<TextItem>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    elements: Vec<ElementSpec>,
    /// Text after the root's last child element.
    tail: Option<TextItem>,
}

fn text_item() -> impl Strategy<Value = Option<TextItem>> {
    (
        0u8..5,
        prop::collection::vec(0..TEXT_PIECES.len(), 1..5),
        prop::collection::vec(0..CDATA_PIECES.len(), 0..3),
    )
        .prop_map(|(kind, chars, cdata)| match kind {
            0 => None,
            1 | 2 => Some(TextItem::Chars(chars)),
            3 => Some(TextItem::Cdata(cdata)),
            _ => Some(TextItem::Blank(chars[0] % WHITESPACE.len())),
        })
}

pub fn spec() -> impl Strategy<Value = Spec> {
    let attrs = prop::collection::vec(
        (
            0..ATTR_NAMES.len(),
            prop::collection::vec(0..ATTR_PIECES.len(), 0..4),
        ),
        0..3,
    );
    (
        prop::collection::vec(
            (0usize..64, 0..LABELS.len(), attrs, text_item()).prop_map(
                |(parent, label, attrs, before)| ElementSpec {
                    parent,
                    label,
                    attrs,
                    before,
                },
            ),
            0..14,
        ),
        text_item(),
    )
        .prop_map(|(elements, tail)| Spec { elements, tail })
}

/// The raw XML of a spec, the document the parser must build from it, and
/// every value the stream must report, in order, as `(raw, decoded,
/// from CDATA)`.
pub struct Case {
    pub xml: String,
    pub doc: Document,
    pub values: Vec<(String, String, bool)>,
}

impl Case {
    pub fn new(spec: &Spec) -> Case {
        // children[e]: the child elements of element e, in order.
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); spec.elements.len() + 1];
        for (i, element) in spec.elements.iter().enumerate() {
            children[element.parent % (i + 1)].push(i + 1);
        }
        let mut case = Case {
            xml: String::new(),
            doc: Document::new("r"),
            values: Vec::new(),
        };
        let root = case.doc.root();
        case.xml.push_str("<r");
        case.element_body(spec, &children, 0, root);
        case
    }

    /// Writes the attributes and content of element `e` (its `<label` is
    /// already written) and builds them under `node`.
    fn element_body(&mut self, spec: &Spec, children: &[Vec<usize>], e: usize, node: NodeId) {
        if e > 0 {
            let mut seen = Vec::new();
            for (name, pieces) in &spec.elements[e - 1].attrs {
                if seen.contains(name) {
                    continue; // well-formed XML: one attribute per name
                }
                seen.push(*name);
                let raw: String = pieces.iter().map(|&p| ATTR_PIECES[p].0).collect();
                let text: String = pieces.iter().map(|&p| ATTR_PIECES[p].1).collect();
                self.xml
                    .push_str(&format!(" {}=\"{raw}\"", ATTR_NAMES[*name]));
                self.doc.add_attribute(node, ATTR_NAMES[*name], &text);
                self.values.push((raw, text, false));
            }
        }
        let tail = if e == 0 { spec.tail.as_ref() } else { None };
        if children[e].is_empty() && tail.is_none() {
            self.xml.push_str("/>");
            return;
        }
        self.xml.push('>');
        for &child in &children[e] {
            let element = &spec.elements[child - 1];
            if let Some(item) = &element.before {
                self.text(item, node);
            }
            let label = LABELS[element.label];
            self.xml.push('<');
            self.xml.push_str(label);
            let id = self.doc.add_element(node, label);
            self.element_body(spec, children, child, id);
        }
        if let Some(item) = tail {
            self.text(item, node);
        }
        let label = if e == 0 {
            "r"
        } else {
            LABELS[spec.elements[e - 1].label]
        };
        self.xml.push_str(&format!("</{label}>"));
    }

    fn text(&mut self, item: &TextItem, parent: NodeId) {
        match item {
            TextItem::Chars(pieces) => {
                let raw: String = pieces.iter().map(|&p| TEXT_PIECES[p].0).collect();
                let text: String = pieces.iter().map(|&p| TEXT_PIECES[p].1).collect();
                self.xml.push_str(&raw);
                // Whitespace-only runs are formatting, not data.
                if !text.trim().is_empty() {
                    self.doc.add_text(parent, &text);
                    self.values.push((raw, text, false));
                }
            }
            TextItem::Cdata(pieces) => {
                let text: String = pieces.iter().map(|&p| CDATA_PIECES[p]).collect();
                self.xml.push_str(&format!("<![CDATA[{text}]]>"));
                if !text.is_empty() {
                    self.doc.add_text(parent, &text);
                    self.values.push((text.clone(), text, true));
                }
            }
            TextItem::Blank(which) => self.xml.push_str(WHITESPACE[*which]),
        }
    }
}
