//! Event-driven streaming XML front end.
//!
//! [`StreamParser`] is a pull parser over the same tokenizer and error table
//! as the DOM [`parse`](crate::parse) function — in fact the DOM parser *is*
//! a driver over this event stream, so both paths reject exactly the same
//! inputs with exactly the same [`ParseError`]s.  Each call to
//! [`StreamParser::next_event`] advances the input to the next structural
//! event:
//!
//! * [`StreamEvent::StartElement`] — an open tag `<name ...`;
//! * [`StreamEvent::Attribute`] — one `name="value"` pair inside the most
//!   recently opened tag (attributes are delivered *before* any content of
//!   their element);
//! * [`StreamEvent::Text`] — decoded character data or CDATA (whitespace-only
//!   runs between tags are dropped, like the DOM parser);
//! * [`StreamEvent::EndElement`] — `</name>` or `/>` closing the innermost
//!   open element.
//!
//! Names and values borrow from the input: a text or attribute value is a
//! [`Cow::Borrowed`] slice unless it contained an entity or character
//! reference (a `&`) that had to be decoded, and CDATA content is always
//! borrowed.  A consumer that only compares or hashes values, like the
//! streaming key checker, allocates nothing per event, and the DOM parser copies each value once, into the document's
//! text buffer.
//!
//! The parser's retained state is the stack of open element name spans —
//! memory is bounded by tree depth, never by node count.

use crate::error::ParseError;
use std::borrow::Cow;

/// The maximum element nesting depth either parser accepts.
///
/// Every layer above the tokenizer keeps per-depth state — the parser's
/// open-name stack, the DOM builder's open-node stack, the streaming key
/// checker's matcher states — and downstream consumers recurse over
/// subtrees.
/// A pathologically nested document (`<a><a><a>…`) would otherwise trade
/// a few megabytes of input for an unbounded stack; past this depth the
/// document is rejected with a byte-offset [`ParseError`] instead.  Real
/// data-exchange documents nest a few dozen levels deep; 1024 is two
/// orders of magnitude of headroom.
pub const MAX_DEPTH: usize = 1024;

/// One structural event of the XML stream.
///
/// Element and attribute names borrow from the parsed input.  Text and
/// attribute values are [`Cow`]s: borrowed from the input unless entity
/// or character references had to be decoded (the raw text contains `&`),
/// so a consumer that only reads a value never pays for a copy.  CDATA
/// content is always borrowed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamEvent<'a> {
    /// An element open tag.  Attributes follow as separate events.
    StartElement {
        /// The element's tag name.
        name: &'a str,
    },
    /// One attribute of the most recently opened element.
    Attribute {
        /// The attribute name as written (without the `@` prefix).
        name: &'a str,
        /// The decoded attribute value.
        value: Cow<'a, str>,
    },
    /// Decoded character data (or CDATA) inside the innermost open element.
    Text {
        /// The decoded text.
        value: Cow<'a, str>,
    },
    /// The innermost open element closed (`</name>` or `/>`).
    EndElement,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Before the root element: prolog, whitespace, comments, DOCTYPE.
    Prolog,
    /// Inside an open tag, before `>` or `/>`: attributes pending.
    InTag,
    /// Inside element content.
    Content,
    /// After the root element closed: trailing misc only.
    Epilog,
    /// The stream is exhausted.
    Done,
}

/// A pull parser producing [`StreamEvent`]s from XML text.
///
/// Accepts exactly the inputs the DOM [`parse`](crate::parse) accepts and
/// reports the same errors at the same positions (the DOM parser is built on
/// this type).  Retained state is `O(depth)`: the spans of the open element
/// names.
///
/// # Example
///
/// ```
/// use xmlprop_xmltree::{StreamEvent, StreamParser};
///
/// let mut parser = StreamParser::new(r#"<db><book isbn="123"/></db>"#);
/// let mut starts = 0;
/// while let Some(event) = parser.next_event().unwrap() {
///     if matches!(event, StreamEvent::StartElement { .. }) {
///         starts += 1;
///     }
/// }
/// assert_eq!(starts, 2);
/// ```
pub struct StreamParser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    state: State,
    /// Byte spans of the names of the currently open elements.
    open: Vec<(usize, usize)>,
}

impl<'a> StreamParser<'a> {
    /// Creates a parser over `input`.
    pub fn new(input: &'a str) -> Self {
        StreamParser {
            input,
            bytes: input.as_bytes(),
            pos: 0,
            state: State::Prolog,
            open: Vec::new(),
        }
    }

    /// Number of currently open elements.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Current byte offset into the input.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Returns the next event, `Ok(None)` once the document (plus trailing
    /// misc) is fully consumed.
    pub fn next_event(&mut self) -> Result<Option<StreamEvent<'a>>, ParseError> {
        loop {
            match self.state {
                State::Prolog => {
                    self.skip_prolog()?;
                    self.skip_whitespace();
                    if self.peek() != Some(b'<') {
                        return Err(self.err("expected root element"));
                    }
                    return self.open_tag().map(Some);
                }
                State::InTag => {
                    self.skip_whitespace();
                    match self.peek() {
                        Some(b'/') => {
                            self.expect("/>")?;
                            return self.close_innermost().map(Some);
                        }
                        Some(b'>') => {
                            self.bump(1);
                            self.state = State::Content;
                        }
                        Some(_) => {
                            let (start, end) = self.parse_name()?;
                            self.skip_whitespace();
                            self.expect("=")?;
                            self.skip_whitespace();
                            let value = self.parse_attr_value()?;
                            return Ok(Some(StreamEvent::Attribute {
                                name: &self.input[start..end],
                                value,
                            }));
                        }
                        None => return Err(self.err("unexpected end of input inside element tag")),
                    }
                }
                State::Content => {
                    if self.starts_with("</") {
                        self.expect("</")?;
                        let (start, end) = self.parse_name()?;
                        let close = &self.input[start..end];
                        let &(open_start, open_end) =
                            self.open.last().expect("content implies an open element");
                        let open = &self.input[open_start..open_end];
                        if close != open {
                            return Err(self.err(format!(
                                "mismatched end tag: expected `</{open}>`, found `</{close}>`"
                            )));
                        }
                        self.skip_whitespace();
                        self.expect(">")?;
                        return self.close_innermost().map(Some);
                    } else if self.starts_with("<!--") {
                        self.skip_comment()?;
                    } else if self.starts_with("<![CDATA[") {
                        let text = self.parse_cdata()?;
                        if !text.is_empty() {
                            return Ok(Some(StreamEvent::Text { value: text }));
                        }
                    } else if self.starts_with("<?") {
                        self.skip_pi()?;
                    } else if self.peek() == Some(b'<') {
                        return self.open_tag().map(Some);
                    } else if self.peek().is_some() {
                        let text = self.parse_char_data()?;
                        // Whitespace-only runs between tags are formatting,
                        // not data; anything else is kept verbatim so mixed
                        // content survives.
                        if !text.trim().is_empty() {
                            return Ok(Some(StreamEvent::Text { value: text }));
                        }
                    } else {
                        return Err(self.err("unexpected end of input inside element content"));
                    }
                }
                State::Epilog => {
                    // Trailing misc (comments / whitespace / PIs).
                    self.skip_whitespace();
                    if self.pos >= self.bytes.len() {
                        self.state = State::Done;
                        return Ok(None);
                    }
                    if self.starts_with("<!--") {
                        self.skip_comment()?;
                    } else if self.starts_with("<?") {
                        self.skip_pi()?;
                    } else {
                        return Err(self.err("unexpected content after root element"));
                    }
                }
                State::Done => return Ok(None),
            }
        }
    }

    fn open_tag(&mut self) -> Result<StreamEvent<'a>, ParseError> {
        if self.open.len() >= MAX_DEPTH {
            // Reported at the `<` of the offending open tag, before any
            // state changes — the guard fires for both parsing paths.
            return Err(self.err(format!(
                "element nesting exceeds the maximum depth of {MAX_DEPTH}"
            )));
        }
        self.expect("<")?;
        let (start, end) = self.parse_name()?;
        self.open.push((start, end));
        self.state = State::InTag;
        Ok(StreamEvent::StartElement {
            name: &self.input[start..end],
        })
    }

    fn close_innermost(&mut self) -> Result<StreamEvent<'a>, ParseError> {
        self.open.pop().expect("close implies an open element");
        self.state = if self.open.is_empty() {
            State::Epilog
        } else {
            State::Content
        };
        Ok(StreamEvent::EndElement)
    }

    // ---- tokenizer ------------------------------------------------------
    //
    // This is the single tokenizer of the crate: the DOM parser in
    // `parse.rs` drives the event stream above, so every error message and
    // position below is shared verbatim by both paths.

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError::new(self.pos, self.input, message)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input[self.pos..].starts_with(s)
    }

    fn bump(&mut self, n: usize) {
        self.pos += n;
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, s: &str) -> Result<(), ParseError> {
        if self.starts_with(s) {
            self.bump(s.len());
            Ok(())
        } else {
            Err(self.err(format!("expected `{s}`")))
        }
    }

    fn skip_prolog(&mut self) -> Result<(), ParseError> {
        loop {
            self.skip_whitespace();
            if self.starts_with("<?") {
                self.skip_pi()?;
            } else if self.starts_with("<!--") {
                self.skip_comment()?;
            } else if self.starts_with("<!DOCTYPE") {
                self.skip_doctype()?;
            } else {
                return Ok(());
            }
        }
    }

    fn skip_pi(&mut self) -> Result<(), ParseError> {
        self.expect("<?")?;
        match self.input[self.pos..].find("?>") {
            Some(end) => {
                self.bump(end + 2);
                Ok(())
            }
            None => Err(self.err("unterminated processing instruction")),
        }
    }

    fn skip_comment(&mut self) -> Result<(), ParseError> {
        self.expect("<!--")?;
        match self.input[self.pos..].find("-->") {
            Some(end) => {
                self.bump(end + 3);
                Ok(())
            }
            None => Err(self.err("unterminated comment")),
        }
    }

    /// Skips a DOCTYPE declaration, including an internal subset if present.
    fn skip_doctype(&mut self) -> Result<(), ParseError> {
        self.expect("<!DOCTYPE")?;
        let mut depth = 1usize;
        while depth > 0 {
            match self.peek() {
                Some(b'<') => {
                    depth += 1;
                    self.bump(1);
                }
                Some(b'>') => {
                    depth -= 1;
                    self.bump(1);
                }
                Some(_) => self.bump(1),
                None => return Err(self.err("unterminated DOCTYPE declaration")),
            }
        }
        Ok(())
    }

    /// Parses a name, returning its byte span in the input.
    fn parse_name(&mut self) -> Result<(usize, usize), ParseError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            let c = b as char;
            if c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.' | ':') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.err("expected a name"));
        }
        Ok((start, self.pos))
    }

    fn parse_attr_value(&mut self) -> Result<Cow<'a, str>, ParseError> {
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return Err(self.err("expected quoted attribute value")),
        };
        self.bump(1);
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b == quote {
                let raw = &self.input[start..self.pos];
                self.bump(1);
                return decode_entities(raw).map_err(|m| ParseError::new(start, self.input, m));
            }
            self.pos += 1;
        }
        Err(self.err("unterminated attribute value"))
    }

    fn parse_char_data(&mut self) -> Result<Cow<'a, str>, ParseError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b == b'<' {
                break;
            }
            self.pos += 1;
        }
        decode_entities(&self.input[start..self.pos])
            .map_err(|m| ParseError::new(start, self.input, m))
    }

    fn parse_cdata(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.expect("<![CDATA[")?;
        match self.input[self.pos..].find("]]>") {
            Some(end) => {
                let text = Cow::Borrowed(&self.input[self.pos..self.pos + end]);
                self.bump(end + 3);
                Ok(text)
            }
            None => Err(self.err("unterminated CDATA section")),
        }
    }
}

/// Decodes the predefined entities and numeric character references;
/// borrows `raw` when it contains none.
fn decode_entities(raw: &str) -> Result<Cow<'_, str>, String> {
    if !raw.contains('&') {
        return Ok(Cow::Borrowed(raw));
    }
    let mut out = String::with_capacity(raw.len());
    let mut rest = raw;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        rest = &rest[amp..];
        let semi = rest
            .find(';')
            .ok_or_else(|| "unterminated entity reference".to_string())?;
        let entity = &rest[1..semi];
        match entity {
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "amp" => out.push('&'),
            "apos" => out.push('\''),
            "quot" => out.push('"'),
            _ if entity.starts_with("#x") || entity.starts_with("#X") => {
                let code = u32::from_str_radix(&entity[2..], 16)
                    .map_err(|_| format!("invalid character reference `&{entity};`"))?;
                out.push(
                    char::from_u32(code)
                        .ok_or_else(|| format!("invalid code point in `&{entity};`"))?,
                );
            }
            _ if entity.starts_with('#') => {
                let code = entity[1..]
                    .parse::<u32>()
                    .map_err(|_| format!("invalid character reference `&{entity};`"))?;
                out.push(
                    char::from_u32(code)
                        .ok_or_else(|| format!("invalid code point in `&{entity};`"))?,
                );
            }
            _ => return Err(format!("unknown entity `&{entity};`")),
        }
        rest = &rest[semi + 1..];
    }
    out.push_str(rest);
    Ok(Cow::Owned(out))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(input: &str) -> Result<Vec<String>, ParseError> {
        let mut parser = StreamParser::new(input);
        let mut out = Vec::new();
        while let Some(event) = parser.next_event()? {
            out.push(match event {
                StreamEvent::StartElement { name } => format!("<{name}>"),
                StreamEvent::Attribute { name, value } => format!("@{name}={value}"),
                StreamEvent::Text { value } => format!("text:{value}"),
                StreamEvent::EndElement => "</>".to_string(),
            });
        }
        Ok(out)
    }

    #[test]
    fn emits_events_in_document_order() {
        let got = events(r#"<db><book isbn="123"><title>XML</title></book></db>"#).unwrap();
        assert_eq!(
            got,
            vec![
                "<db>",
                "<book>",
                "@isbn=123",
                "<title>",
                "text:XML",
                "</>",
                "</>",
                "</>",
            ]
        );
    }

    #[test]
    fn self_closing_elements_emit_end_events() {
        let got = events(r#"<r><item id='7'/><item/></r>"#).unwrap();
        assert_eq!(
            got,
            vec!["<r>", "<item>", "@id=7", "</>", "<item>", "</>", "</>"]
        );
    }

    #[test]
    fn prolog_comments_and_whitespace_produce_no_events() {
        let got = events(
            "<?xml version=\"1.0\"?>\n<!DOCTYPE r []>\n<!-- c -->\n<r>\n  <a/>\n</r>\n<!-- t -->",
        )
        .unwrap();
        assert_eq!(got, vec!["<r>", "<a>", "</>", "</>"]);
    }

    #[test]
    fn decodes_entities_in_text_and_attributes() {
        let got = events(r#"<r a="&lt;x&gt;">A &amp; B</r>"#).unwrap();
        assert_eq!(got, vec!["<r>", "@a=<x>", "text:A & B", "</>"]);
    }

    #[test]
    fn depth_tracks_open_elements() {
        let mut parser = StreamParser::new("<a><b><c/></b></a>");
        let mut peak = 0;
        while let Some(_event) = parser.next_event().unwrap() {
            peak = peak.max(parser.depth());
        }
        assert_eq!(peak, 3);
        assert_eq!(parser.depth(), 0);
    }

    #[test]
    fn errors_match_the_dom_parser() {
        for input in [
            "<a><b></a></b>",
            "<a/><b/>",
            "<a",
            "<a attr=>",
            "<!-- never closed",
            "<a>&unknown;</a>",
            "",
            "<r><![CDATA[never closed</r>",
            "<r a=\"1/>",
            "< r/>",
            "<a></a",
        ] {
            let dom = crate::parse(input).unwrap_err();
            let stream = events(input).unwrap_err();
            assert_eq!(dom, stream, "{input:?}");
        }
    }

    #[test]
    fn rejects_pathological_nesting_at_max_depth() {
        // ~1M open tags: without the guard this input would grow the
        // per-depth stacks (and downstream recursion) without bound.
        let deep = "<a>".repeat(1_000_000);
        let mut parser = StreamParser::new(&deep);
        let err = loop {
            match parser.next_event() {
                Ok(Some(_)) => {}
                Ok(None) => panic!("a 1M-deep document must not parse"),
                Err(e) => break e,
            }
        };
        assert!(
            err.message
                .contains(&format!("maximum depth of {MAX_DEPTH}")),
            "{}",
            err.message
        );
        // The error points at the `<` of the first over-deep open tag.
        assert_eq!(err.offset, MAX_DEPTH * 3);

        // Exactly MAX_DEPTH levels are still fine.
        let ok = format!("{}{}", "<a>".repeat(MAX_DEPTH), "</a>".repeat(MAX_DEPTH));
        let mut parser = StreamParser::new(&ok);
        let mut peak = 0;
        while let Some(_event) = parser.next_event().unwrap() {
            peak = peak.max(parser.depth());
        }
        assert_eq!(peak, MAX_DEPTH);
    }

    #[test]
    fn next_event_after_done_returns_none() {
        let mut parser = StreamParser::new("<r/>");
        while parser.next_event().unwrap().is_some() {}
        assert!(parser.next_event().unwrap().is_none());
    }
}
