//! A small, non-validating XML parser.
//!
//! Supports the subset of XML needed to load realistic data-exchange
//! documents: elements, attributes, character data, CDATA sections,
//! comments, processing instructions, the XML declaration, the five
//! predefined entities and numeric character references.  DOCTYPE
//! declarations are recognised and skipped (the paper explicitly treats key
//! constraints as orthogonal to DTDs, so no DTD content model is needed).
//!
//! The tokenizer lives in [`crate::stream`]: this module is a thin driver
//! that folds the event stream into a [`Document`], so the DOM and
//! streaming paths accept the same inputs and report identical
//! [`ParseError`]s.

use crate::error::ParseError;
use crate::stream::{StreamEvent, StreamParser};
use crate::{Document, NodeId, NodeKind};

/// The longest input [`parse`] accepts: a [`Document`] addresses its text
/// buffer with `u32` offsets, and decoded text is never longer than its
/// source, so input up to this size always fits.
const MAX_INPUT: usize = u32::MAX as usize;

/// Parses an XML document from text.
///
/// Input longer than 4 GiB is rejected with a [`ParseError`] at the first
/// byte past the limit, since a [`Document`] could not address its text.
pub fn parse(input: &str) -> Result<Document, ParseError> {
    check_size(input.len(), input)?;
    let mut parser = StreamParser::new(input);
    let mut doc: Option<Document> = None;
    let mut open: Vec<NodeId> = Vec::new();
    while let Some(event) = parser.next_event()? {
        match event {
            StreamEvent::StartElement { name } => {
                let id = match doc.as_mut() {
                    None => {
                        doc = Some(Document::new(name));
                        doc.as_ref().expect("just created").root()
                    }
                    Some(d) => {
                        let parent = *open.last().expect("nested element has an open parent");
                        d.append(parent, NodeKind::Element, name, "")
                    }
                };
                open.push(id);
            }
            StreamEvent::Attribute { name, value } => {
                let owner = *open.last().expect("attribute follows an open element");
                doc.as_mut().expect("document exists").append(
                    owner,
                    NodeKind::Attribute,
                    name,
                    &value,
                );
            }
            StreamEvent::Text { value } => {
                let parent = *open.last().expect("text occurs inside an open element");
                doc.as_mut()
                    .expect("document exists")
                    .append(parent, NodeKind::Text, "S", &value);
            }
            StreamEvent::EndElement => {
                open.pop().expect("end event closes an open element");
            }
        }
    }
    Ok(doc.expect("a completed stream contains a root element"))
}

/// Rejects an input of `len` bytes beyond [`MAX_INPUT`].
fn check_size(len: usize, input: &str) -> Result<(), ParseError> {
    if len > MAX_INPUT {
        return Err(ParseError::new(
            MAX_INPUT,
            input,
            format!("document exceeds the maximum size of {MAX_INPUT} bytes"),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_document() {
        let doc = parse(r#"<db><book isbn="123"><title>XML</title></book></db>"#).unwrap();
        let root = doc.root();
        assert_eq!(doc.label(root), "db");
        let book = doc.element_children(root).next().unwrap();
        assert_eq!(doc.attribute(book, "isbn"), Some("123"));
        let title = doc.children_labelled(book, "title").next().unwrap();
        assert_eq!(doc.string_value(title), "XML");
    }

    #[test]
    fn parses_self_closing_and_single_quotes() {
        let doc = parse(r#"<r><item id='7'/><item id="8"/></r>"#).unwrap();
        let items: Vec<_> = doc.children_labelled(doc.root(), "item").collect();
        assert_eq!(items.len(), 2);
        assert_eq!(doc.attribute(items[0], "id"), Some("7"));
        assert_eq!(doc.attribute(items[1], "id"), Some("8"));
    }

    #[test]
    fn skips_prolog_comments_and_doctype() {
        let doc = parse(
            "<?xml version=\"1.0\"?>\n<!DOCTYPE db [<!ELEMENT db (book*)>]>\n<!-- a comment -->\n<db><book/></db>\n<!-- trailing -->",
        )
        .unwrap();
        assert_eq!(doc.label(doc.root()), "db");
        assert_eq!(doc.element_children(doc.root()).count(), 1);
    }

    #[test]
    fn decodes_entities_and_char_refs() {
        let doc = parse(r#"<r a="&lt;x&gt;">A &amp; B &#65;&#x42;</r>"#).unwrap();
        assert_eq!(doc.attribute(doc.root(), "a"), Some("<x>"));
        assert_eq!(doc.string_value(doc.root()), "A & B AB");
    }

    #[test]
    fn parses_cdata() {
        let doc = parse("<r><![CDATA[<not> & parsed]]></r>").unwrap();
        assert_eq!(doc.string_value(doc.root()), "<not> & parsed");
    }

    #[test]
    fn whitespace_only_text_is_dropped() {
        let doc = parse("<r>\n  <a/>\n  <b/>\n</r>").unwrap();
        let kinds: Vec<NodeKind> = doc.children(doc.root()).map(|c| doc.kind(c)).collect();
        assert_eq!(kinds, vec![NodeKind::Element, NodeKind::Element]);
    }

    #[test]
    fn mixed_content_is_preserved() {
        let doc = parse("<p>hello <b>world</b> again</p>").unwrap();
        assert_eq!(doc.children(doc.root()).count(), 3);
        assert_eq!(doc.string_value(doc.root()), "hello world again");
    }

    #[test]
    fn oversized_input_is_a_parse_error_not_a_panic() {
        // A 4 GiB input is too big for a test; the size check takes the
        // length separately so the boundary can be probed on a tiny one.
        let input = "<r/>";
        assert!(check_size(MAX_INPUT, input).is_ok());
        let err = check_size(MAX_INPUT + 1, input).unwrap_err();
        assert_eq!(err.offset, MAX_INPUT);
        assert!(err.message.contains("maximum size"), "{}", err.message);
    }

    #[test]
    fn rejects_mismatched_tags() {
        let err = parse("<a><b></a></b>").unwrap_err();
        assert!(
            err.message.contains("mismatched end tag"),
            "{}",
            err.message
        );
    }

    #[test]
    fn rejects_garbage_after_root() {
        assert!(parse("<a/><b/>").is_err());
    }

    #[test]
    fn rejects_unterminated_constructs() {
        assert!(parse("<a").is_err());
        assert!(parse("<a attr=>").is_err());
        assert!(parse("<!-- never closed").is_err());
        assert!(parse("<a>&unknown;</a>").is_err());
    }

    #[test]
    fn rejects_empty_and_prolog_only_input() {
        for input in ["", "   \n\t ", "<?xml version=\"1.0\"?>", "<!-- only -->"] {
            let err = parse(input).unwrap_err();
            assert!(
                err.message.contains("expected root element"),
                "{input:?}: {}",
                err.message
            );
        }
    }

    #[test]
    fn rejects_unterminated_cdata_pi_and_doctype() {
        assert!(parse("<r><![CDATA[never closed</r>").is_err());
        assert!(parse("<?xml never closed").is_err());
        assert!(parse("<!DOCTYPE db [<!ELEMENT db (x)>").is_err());
        assert!(parse("<r><?pi never closed</r>").is_err());
    }

    #[test]
    fn rejects_malformed_attributes() {
        // Unquoted, missing `=`, unterminated value, bad entity in value.
        assert!(parse("<r a=1/>").is_err());
        assert!(parse("<r a \"1\"/>").is_err());
        assert!(parse("<r a=\"1/>").is_err());
        assert!(parse("<r a=\"&nope;\"/>").is_err());
        assert!(parse("<r a=\"&lt\"/>").is_err(), "entity missing semicolon");
    }

    #[test]
    fn rejects_bad_character_references() {
        assert!(parse("<r>&#xZZ;</r>").is_err());
        assert!(parse("<r>&#abc;</r>").is_err());
        // 0xD800 is a surrogate, not a valid code point.
        assert!(parse("<r>&#xD800;</r>").is_err());
        assert!(parse("<r>&#4294967296;</r>").is_err());
    }

    #[test]
    fn rejects_missing_or_broken_names() {
        assert!(parse("< r/>").is_err(), "space before the name");
        assert!(parse("<r></>").is_err(), "empty closing name");
        assert!(parse("<>x</>").is_err(), "empty opening name");
    }

    #[test]
    fn rejects_truncated_documents() {
        for input in ["<a><b></b>", "<a", "<a x", "<a></a", "<a></"] {
            assert!(parse(input).is_err(), "{input:?} should fail");
        }
    }

    #[test]
    fn rejects_pathological_nesting() {
        use crate::stream::MAX_DEPTH;
        let deep = "<a>".repeat(1_000_000);
        let err = parse(&deep).unwrap_err();
        assert!(
            err.message
                .contains(&format!("maximum depth of {MAX_DEPTH}")),
            "{}",
            err.message
        );
        assert_eq!(err.offset, MAX_DEPTH * 3);
    }

    #[test]
    fn error_positions_are_reported() {
        let err = parse("<db>\n  <book><title></book>\n</db>").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.column > 1);
    }

    #[test]
    fn roundtrip_through_display() {
        let original =
            parse(r#"<db><book isbn="1&amp;2"><title>X &lt; Y</title></book></db>"#).unwrap();
        let text = original.to_string();
        let reparsed = parse(&text).unwrap();
        assert_eq!(
            original.value(original.root()),
            reparsed.value(reparsed.root())
        );
    }
}
