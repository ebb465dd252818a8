//! The pull tokenizer the push-driven [`scan`](super::scan) replaced,
//! kept as its test oracle.
//!
//! [`StreamParser::next_event`] is re-entered once per event and steps a
//! five-state machine, and references are decoded by a decoder of its own:
//! it shares nothing with the scan but the event type and [`MAX_DEPTH`].
//! The tests below check that the scan emits exactly the oracle's events,
//! `Cow` variants included, and fails with exactly its [`ParseError`] on
//! random documents, truncated and mangled.

use super::{StreamEvent, MAX_DEPTH};
use crate::error::ParseError;
use crate::{Document, NodeId};
use proptest::prelude::*;
use std::borrow::Cow;

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

/// A pull parser producing [`StreamEvent`]s from XML text.  Retained
/// state is `O(depth)`: the spans of the open element names.
pub(super) struct StreamParser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    state: State,
    /// Byte spans of the names of the currently open elements.
    open: Vec<(usize, usize)>,
}

impl<'a> StreamParser<'a> {
    /// Creates a parser over `input`.
    pub(super) fn new(input: &'a str) -> Self {
        StreamParser {
            input,
            bytes: input.as_bytes(),
            pos: 0,
            state: State::Prolog,
            open: Vec::new(),
        }
    }

    /// Returns the next event, `Ok(None)` once the document (plus trailing
    /// misc) is fully consumed.
    pub(super) fn next_event(&mut self) -> Result<Option<StreamEvent<'a>>, ParseError> {
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

// ---- tests ----------------------------------------------------------

#[allow(dead_code)] // the round-trip tests read what these do not
#[path = "../../tests/support/mod.rs"]
mod cases;

/// A value event with whether its value is borrowed, so that two runs
/// compare `Cow` variants too.
type Tagged<'a> = (StreamEvent<'a>, bool);

fn tag(event: StreamEvent<'_>) -> Tagged<'_> {
    let borrowed = match &event {
        StreamEvent::Attribute { value, .. } | StreamEvent::Text { value } => {
            matches!(value, Cow::Borrowed(_))
        }
        _ => true,
    };
    (event, borrowed)
}

/// The scan's events up to its end or its error.
fn scanned(input: &str) -> (Vec<Tagged<'_>>, Option<ParseError>) {
    let mut events = Vec::new();
    let error = crate::scan(input, |event| events.push(tag(event))).err();
    (events, error)
}

/// The oracle's events up to its end or its error.
fn pulled(input: &str) -> (Vec<Tagged<'_>>, Option<ParseError>) {
    let mut parser = StreamParser::new(input);
    let mut events = Vec::new();
    loop {
        match parser.next_event() {
            Ok(Some(event)) => events.push(tag(event)),
            Ok(None) => return (events, None),
            Err(e) => return (events, Some(e)),
        }
    }
}

/// Text spliced into documents: every byte the tokenizer branches on,
/// letters, multi-byte characters and the openers and closers of its
/// constructs.
#[rustfmt::skip]
const SPLICES: &[&str] = &[
    "<", ">", "/", "=", "\"", "'", "&", ";", "!", "?", "[", "]", "-", "a", "Z", "é", "日",
    "\u{a0}", " ", "\n", "</", "/>", "<!--", "-->", "<?", "?>", "<![CDATA[", "]]>",
    "<!DOCTYPE", "&amp;", "&#", "&#x", "&#X", "&#32;", "&#xD800;", "&#+65;", "&no;", "x=\"",
    "<b>",
];

/// Byte `permille / 1000` of the way through `text`, moved back to a
/// character boundary.
fn boundary(text: &str, permille: usize) -> usize {
    let mut at = text.len() * permille / 1000;
    while !text.is_char_boundary(at) {
        at -= 1;
    }
    at
}

#[test]
fn fixed_inputs_match_the_oracle() {
    for input in [
        "",
        "  ",
        "<r/>",
        "<?xml version=\"1.0\"?><!DOCTYPE r [<!ELEMENT r ANY>]><!-- c --><r a='1' b = \"2\"/><?pi?> ",
        "<r>\u{a0}<a/>\u{a0}x\u{3000}</r>",
        "<r>\u{b}<a/>&#32;<b/>&#160;</r>",
        "<r><![CDATA[ ]]><![CDATA[]]></r>",
        "<r><!DOCTYPE r></r>",
        "<r><!x/></r>",
        "<r></r ><r/>",
        "<r x=\"1\"y='2'/>",
        "<r x=\"&#x+41;\" y=\"&#;\"/>",
        "<r x=\"&#X41;&#65;&#1114112;\"/>",
        "<r>&#X1F389;&#x;&lt</r>",
        "<a><b></a></b>",
        "<r>&#xD800;</r>",
        "<r><a/ ></r>",
    ] {
        assert_eq!(scanned(input), pulled(input), "{input:?}");
    }
}

#[test]
fn the_depth_guard_fires_where_the_oracle_fires() {
    let deep = "<a>".repeat(MAX_DEPTH + 1);
    let (events, error) = scanned(&deep);
    assert_eq!((events.len(), error.clone()), {
        let (events, error) = pulled(&deep);
        (events.len(), error)
    });
    assert_eq!(error.expect("too deep").offset, MAX_DEPTH * 3);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// On random documents, truncated and with text spliced in, the
    /// scan emits the oracle's events, `Cow` variants included, and
    /// stops with the oracle's error; a panic fails the test too.
    #[test]
    fn scan_matches_the_oracle_on_mangled_documents(
        spec in cases::spec(),
        splices in prop::collection::vec((0usize..=1000, 0..SPLICES.len()), 0..4),
        cut in prop_oneof![Just(1000usize), 0usize..=1000],
    ) {
        let mut xml = cases::Case::new(&spec).xml;
        for (permille, splice) in splices {
            xml.insert_str(boundary(&xml, permille), SPLICES[splice]);
        }
        xml.truncate(boundary(&xml, cut));
        prop_assert_eq!(scanned(&xml), pulled(&xml), "{:?}", xml);
    }
}
