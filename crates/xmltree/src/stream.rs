//! Event-driven streaming XML front end: the crate's one tokenizer.
//!
//! [`scan`] walks the text once and pushes each [`StreamEvent`] into a
//! caller's closure, which the compiler inlines into the scan's loops: an
//! open tag, then its attributes (before any content of the element),
//! decoded text and CDATA (whitespace-only runs between tags dropped), and
//! the end of an element (`</name>` or `/>`).  Its two consumers, the DOM
//! builder ([`parse`](crate::parse)) and the streaming key checker of
//! `xmlprop-xmlkeys`, therefore accept the same inputs and report the same
//! [`ParseError`]s.
//!
//! The byte after a `<` selects the construct, a 256-entry table
//! classifies bytes, and the pass that finds the end of a value also notes
//! whether it holds a `&` to decode and whether it is blank.  The scan
//! retains the open element names only: memory bounded by tree depth.

use crate::error::ParseError;
use std::borrow::Cow;

#[cfg(test)]
mod oracle;

/// The maximum element nesting depth the scan accepts.
///
/// Every consumer keeps per-depth state, and some recurse over subtrees: a
/// pathologically nested document (`<a><a><a>…`) would otherwise trade a
/// few megabytes of input for an unbounded stack.  Real data-exchange
/// documents nest a few dozen levels deep; 1024 is two orders of magnitude
/// of headroom.
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

/// Scans `input` as one XML document, passing every [`StreamEvent`] to
/// `emit` in document order.
///
/// The first violation of the crate's subset of XML (one root element,
/// matching end tags, quoted values, known entities, at most [`MAX_DEPTH`]
/// levels) stops the scan with its [`ParseError`].
///
/// # Example
///
/// ```
/// use xmlprop_xmltree::{scan, StreamEvent};
///
/// let mut starts = 0;
/// scan(r#"<db><book isbn="123"/></db>"#, |event| {
///     if matches!(event, StreamEvent::StartElement { .. }) {
///         starts += 1;
///     }
/// })
/// .unwrap();
/// assert_eq!(starts, 2);
/// ```
pub fn scan<'a>(input: &'a str, mut emit: impl FnMut(StreamEvent<'a>)) -> Result<(), ParseError> {
    let mut scanner = Scanner { input, pos: 0 };
    scanner.prolog()?;
    // The names of the open elements, innermost last.
    let mut open: Vec<&'a str> = Vec::new();
    loop {
        // `pos` is at the `<` of an open tag.
        if open.len() >= MAX_DEPTH {
            return Err(scanner.err(format!(
                "element nesting exceeds the maximum depth of {MAX_DEPTH}"
            )));
        }
        scanner.pos += 1;
        let name = scanner.name()?;
        emit(StreamEvent::StartElement { name });
        if scanner.attributes(&mut emit)? {
            emit(StreamEvent::EndElement);
        } else {
            open.push(name);
        }
        if !scanner.content(&mut open, &mut emit)? {
            return scanner.epilog();
        }
    }
}

// The classes of [`CLASS`]: the bytes of names (ASCII letters, digits and
// `_-.:`); ASCII bytes other than whitespace (a text run holding one is not
// blank unless a `&` decoded it away); bytes of multi-byte characters,
// which may be Unicode whitespace; and `&`, which starts a reference.
const NAME: u8 = 1;
const SOLID: u8 = 2;
const WIDE: u8 = 4;
const AMP: u8 = 8;

/// The classes of every byte value.  The blank ASCII bytes — the ones
/// [`char::is_whitespace`] accepts — have none, and neither has `<`, which
/// ends every text run.
const CLASS: [u8; 256] = {
    let mut table = [0u8; 256];
    let mut b = 0;
    while b < 256 {
        table[b] = match b as u8 {
            0x80.. => WIDE,
            b'\t' | b'\n' | 0x0B | 0x0C | b'\r' | b' ' | b'<' => 0,
            b'&' => AMP | SOLID,
            c if c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b':') => {
                NAME | SOLID
            }
            _ => SOLID,
        };
        b += 1;
    }
    table
};

/// The scan's cursor.  Between steps `pos` sits on a character boundary:
/// a step ends after an ASCII byte, at an ASCII delimiter, or at the end.
struct Scanner<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> Scanner<'a> {
    #[cold]
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError::new(self.pos, self.input, message)
    }

    #[inline(always)]
    fn rest(&self) -> &'a [u8] {
        &self.input.as_bytes()[self.pos..]
    }

    #[inline(always)]
    fn skip_whitespace(&mut self) {
        while let Some(b' ' | b'\t' | b'\r' | b'\n') = self.rest().first() {
            self.pos += 1;
        }
    }

    #[inline(always)]
    fn expect(&mut self, token: &str) -> Result<(), ParseError> {
        if self.rest().starts_with(token.as_bytes()) {
            self.pos += token.len();
            Ok(())
        } else {
            Err(self.err(format!("expected `{token}`")))
        }
    }

    /// Steps over an opener of `skip` bytes, then up to and past `close`;
    /// returns the text in between, or `message` at the byte after the
    /// opener when `close` never comes.
    fn skip_past(
        &mut self,
        skip: usize,
        close: &str,
        message: &str,
    ) -> Result<&'a str, ParseError> {
        self.pos += skip;
        let body = &self.input[self.pos..];
        let end = body.find(close).ok_or_else(|| self.err(message))?;
        self.pos += end + close.len();
        Ok(&body[..end])
    }

    /// Skips the comment or processing instruction starting at `pos`, if
    /// one does; returns whether it did.
    fn misc(&mut self) -> Result<bool, ParseError> {
        let rest = self.rest();
        if rest.starts_with(b"<!--") {
            self.skip_past(4, "-->", "unterminated comment")?;
        } else if rest.starts_with(b"<?") {
            self.skip_past(2, "?>", "unterminated processing instruction")?;
        } else {
            return Ok(false);
        }
        Ok(true)
    }

    /// Skips the XML declaration, comments, processing instructions and
    /// DOCTYPE declarations before the root, leaving `pos` at its `<`.
    fn prolog(&mut self) -> Result<(), ParseError> {
        loop {
            self.skip_whitespace();
            if self.misc()? {
                continue;
            }
            let rest = self.rest();
            if rest.starts_with(b"<!DOCTYPE") {
                self.doctype()?;
            } else if rest.first() == Some(&b'<') {
                return Ok(());
            } else {
                return Err(self.err("expected root element"));
            }
        }
    }

    /// Skips a DOCTYPE declaration, including an internal subset if present.
    fn doctype(&mut self) -> Result<(), ParseError> {
        self.pos += "<!DOCTYPE".len();
        let mut depth = 1usize;
        while depth > 0 {
            match self.rest().first() {
                Some(b'<') => depth += 1,
                Some(b'>') => depth -= 1,
                Some(_) => {}
                None => return Err(self.err("unterminated DOCTYPE declaration")),
            }
            self.pos += 1;
        }
        Ok(())
    }

    /// Only whitespace, comments and processing instructions may follow
    /// the root element.
    fn epilog(&mut self) -> Result<(), ParseError> {
        loop {
            self.skip_whitespace();
            if self.rest().is_empty() {
                return Ok(());
            }
            if !self.misc()? {
                return Err(self.err("unexpected content after root element"));
            }
        }
    }

    #[inline(always)]
    fn name(&mut self) -> Result<&'a str, ParseError> {
        let start = self.pos;
        let rest = self.rest();
        let len = rest
            .iter()
            .position(|&b| CLASS[b as usize] & NAME == 0)
            .unwrap_or(rest.len());
        if len == 0 {
            return Err(self.err("expected a name"));
        }
        self.pos += len;
        Ok(&self.input[start..self.pos])
    }

    /// Decodes the raw text at `start..pos` when `amp` says it holds a
    /// reference; borrows it otherwise.
    #[inline(always)]
    fn value(&self, start: usize, amp: bool) -> Result<Cow<'a, str>, ParseError> {
        let raw = &self.input[start..self.pos];
        if !amp {
            return Ok(Cow::Borrowed(raw));
        }
        decode_entities(raw).map_err(|m| ParseError::new(start, self.input, m))
    }

    /// Emits the attributes of the tag just opened.  Returns true when the
    /// tag closed itself (`/>`), false at its `>`.
    #[inline(always)]
    fn attributes(&mut self, emit: &mut impl FnMut(StreamEvent<'a>)) -> Result<bool, ParseError> {
        loop {
            self.skip_whitespace();
            match self.rest().first() {
                Some(b'>') => {
                    self.pos += 1;
                    return Ok(false);
                }
                Some(b'/') => {
                    self.expect("/>")?;
                    return Ok(true);
                }
                Some(_) => {}
                None => return Err(self.err("unexpected end of input inside element tag")),
            }
            let name = self.name()?;
            self.skip_whitespace();
            self.expect("=")?;
            self.skip_whitespace();
            let quote = match self.rest().first() {
                Some(&q @ (b'"' | b'\'')) => q,
                _ => return Err(self.err("expected quoted attribute value")),
            };
            self.pos += 1;
            let start = self.pos;
            let mut amp = false;
            let Some(len) = self.rest().iter().position(|&b| {
                amp |= b == b'&';
                b == quote
            }) else {
                self.pos = self.input.len();
                return Err(self.err("unterminated attribute value"));
            };
            self.pos += len;
            let value = self.value(start, amp)?;
            self.pos += 1;
            emit(StreamEvent::Attribute { name, value });
        }
    }

    /// Emits element content up to the `<` of the next open tag (true) or
    /// through the end tag of the root (false).
    #[inline(always)]
    fn content(
        &mut self,
        open: &mut Vec<&'a str>,
        emit: &mut impl FnMut(StreamEvent<'a>),
    ) -> Result<bool, ParseError> {
        while let Some(&innermost) = open.last() {
            let rest = self.rest();
            match rest {
                [] => return Err(self.err("unexpected end of input inside element content")),
                [b'<', b'/', ..] => {
                    self.pos += 2;
                    let close = self.name()?;
                    if close != innermost {
                        return Err(self.err(format!(
                            "mismatched end tag: expected `</{innermost}>`, found `</{close}>`"
                        )));
                    }
                    self.skip_whitespace();
                    self.expect(">")?;
                    open.pop();
                    emit(StreamEvent::EndElement);
                }
                [b'<', b'!' | b'?', ..] => {
                    if rest.starts_with(b"<![CDATA[") {
                        let text = self.skip_past(9, "]]>", "unterminated CDATA section")?;
                        if !text.is_empty() {
                            emit(StreamEvent::Text {
                                value: Cow::Borrowed(text),
                            });
                        }
                    } else if !self.misc()? {
                        // `<!` starting nothing known: an open tag whose
                        // name is missing.
                        return Ok(true);
                    }
                }
                [b'<', ..] => return Ok(true),
                _ => {
                    let start = self.pos;
                    let mut seen = 0;
                    let len = rest
                        .iter()
                        .position(|&b| {
                            seen |= CLASS[b as usize];
                            b == b'<'
                        })
                        .unwrap_or(rest.len());
                    self.pos += len;
                    let value = self.value(start, seen & AMP != 0)?;
                    // A run whose decoded text trims to empty is formatting,
                    // not data.  An ASCII byte that is not whitespace settles
                    // it unless a reference was decoded; only multi-byte or
                    // decoded runs need the Unicode `trim`.
                    let keep = match seen & (SOLID | WIDE | AMP) {
                        0 => false,
                        s if s & (SOLID | AMP) == SOLID => true,
                        _ => !value.trim().is_empty(),
                    };
                    if keep {
                        emit(StreamEvent::Text { value });
                    }
                }
            }
        }
        Ok(false)
    }
}

/// Decodes the predefined entities and numeric character references in
/// `raw`, which holds at least one `&`.
fn decode_entities(raw: &str) -> Result<Cow<'_, str>, String> {
    let mut out = String::with_capacity(raw.len());
    let mut rest = raw;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        rest = &rest[amp..];
        let semi = rest
            .find(';')
            .ok_or_else(|| "unterminated entity reference".to_string())?;
        let entity = &rest[1..semi];
        let reference = |digits: &str, radix| {
            let code = u32::from_str_radix(digits, radix)
                .map_err(|_| format!("invalid character reference `&{entity};`"))?;
            char::from_u32(code).ok_or_else(|| format!("invalid code point in `&{entity};`"))
        };
        out.push(match entity {
            "lt" => '<',
            "gt" => '>',
            "amp" => '&',
            "apos" => '\'',
            "quot" => '"',
            _ => match entity.strip_prefix('#') {
                Some(hex) if hex.starts_with(['x', 'X']) => reference(&hex[1..], 16)?,
                Some(decimal) => reference(decimal, 10)?,
                None => return Err(format!("unknown entity `&{entity};`")),
            },
        });
        rest = &rest[semi + 1..];
    }
    out.push_str(rest);
    Ok(Cow::Owned(out))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(input: &str) -> Result<Vec<String>, ParseError> {
        let mut out = Vec::new();
        scan(input, |event| {
            out.push(match event {
                StreamEvent::StartElement { name } => format!("<{name}>"),
                StreamEvent::Attribute { name, value } => format!("@{name}={value}"),
                StreamEvent::Text { value } => format!("text:{value}"),
                StreamEvent::EndElement => "</>".to_string(),
            })
        })?;
        Ok(out)
    }

    /// The deepest nesting the events of `input` reach.
    fn peak_depth(input: &str) -> Result<usize, ParseError> {
        let (mut depth, mut peak) = (0, 0);
        scan(input, |event| match event {
            StreamEvent::StartElement { .. } => {
                depth += 1;
                peak = peak.max(depth);
            }
            StreamEvent::EndElement => depth -= 1,
            _ => {}
        })?;
        assert_eq!(depth, 0, "every element closes");
        Ok(peak)
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
    fn runs_are_dropped_when_their_decoded_text_trims_to_empty() {
        // NBSP, vertical tab, ideographic space and decoded spaces are all
        // whitespace to `trim`; CDATA is kept unless empty.
        let got = events(
            "<r>\u{a0}<a/>\u{b}<a/>\u{3000} <a/>&#32;&#160;<a/> x<a/>é<a/><![CDATA[ ]]></r>",
        )
        .unwrap();
        let texts: Vec<_> = got.iter().filter(|e| e.starts_with("text:")).collect();
        assert_eq!(texts, ["text: x", "text:é", "text: "]);
    }

    #[test]
    fn blank_bytes_are_the_ascii_whitespace_of_char_is_whitespace() {
        for b in 0..0x80u8 {
            assert_eq!(
                CLASS[b as usize] == 0,
                (b as char).is_whitespace() || b == b'<',
                "byte {b:#04x}"
            );
        }
    }

    #[test]
    fn depth_tracks_open_elements() {
        assert_eq!(peak_depth("<a><b><c/></b></a>").unwrap(), 3);
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
        let err = peak_depth(&deep).unwrap_err();
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
        assert_eq!(peak_depth(&ok).unwrap(), MAX_DEPTH);
    }
}
