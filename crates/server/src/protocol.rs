//! The versioned plain-text line protocol — `xmlprop/1`.
//!
//! The protocol is deliberately *goldenable*: every byte a server writes is
//! deterministic given the request stream and the published bundle, so CI
//! can diff whole session transcripts against checked-in expectations.
//!
//! ## Grammar
//!
//! On connect the server greets with one line:
//!
//! ```text
//! xmlprop/1 ready bundle=<epoch> keys=<count> rules=<count>
//! ```
//!
//! Requests are one header line each; document and schema bodies are
//! **length-framed** (byte counts in the header, raw bytes following the
//! newline) so XML never needs escaping:
//!
//! ```text
//! ping
//! status
//! validate <len>\n<len bytes of XML>
//! shred <len>\n<len bytes of XML>
//! shred <len> <relation>\n<len bytes of XML>
//! propagate <relation> <fd text…>
//! cover
//! cover <relation>
//! query <len> <query text…>\n<len bytes of XML>
//! reload <keys-len> <rules-len>\n<keys bytes><rules bytes>
//! quit
//! ```
//!
//! Test builds (and builds with the `faultline` feature) additionally
//! accept a `boom` verb whose handler panics — the end-to-end probe for
//! the server's panic-isolation path.  Release servers reject it as an
//! unknown verb.
//!
//! Responses are a header line, a payload, and a terminating `.` line:
//!
//! ```text
//! ok <verb> bundle=<epoch> [k=v …]\n<payload lines…>\n.\n
//! err <wire-code> <message>\n.\n
//! ```
//!
//! Every `ok` header carries the `bundle=<epoch>` tag of the snapshot that
//! served it, which is what the swap-under-load tests key on.  Error wire
//! codes come from [`ErrorKind::wire_code`](xmlprop_pipeline::ErrorKind::wire_code),
//! the one table of error kinds the CLI also reports from, so a scripted
//! session and a one-shot invocation classify failures identically.  The
//! verbs are listed once, in [`VERBS`].  Payload lines never consist of a lone `.` (no
//! renderer emits one), so the terminator is unambiguous.

use std::io::{BufRead, Write};
use xmlprop_pipeline::Error;

/// The protocol version spoken by this crate (the `1` of `xmlprop/1`).
pub const PROTOCOL_VERSION: u32 = 1;

/// Upper bound on any length-framed body, before allocation.
pub const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe; the response carries the current bundle epoch.
    Ping,
    /// Bundle status: epoch, key count, rule count, jobs width.
    Status,
    /// Validate an XML document against the published key set.
    Validate {
        /// The document text.
        document: String,
    },
    /// Shred an XML document through the published transformation.
    Shred {
        /// The document text.
        document: String,
        /// Restrict output to one relation (`None` = all rules).
        relation: Option<String>,
    },
    /// Decide FD propagation for one relation.
    Propagate {
        /// The relation whose rule is queried.
        relation: String,
        /// The FD in `X -> A` syntax.
        fd: String,
    },
    /// The propagated minimum cover of one relation (or all of them).
    Cover {
        /// The relation to cover (`None` = every rule).
        relation: Option<String>,
    },
    /// Run a query over the shredded image of an XML document.  The query
    /// text is the rest of the header line (the language is
    /// whitespace-insensitive, so token-joining on read is lossless); the
    /// document is length-framed like `validate`'s.
    Query {
        /// The document text.
        document: String,
        /// The query text (`select … from … [join …] [where …]`).
        query: String,
    },
    /// Admin: rebuild the bundle from new keys/rules text and publish it.
    Reload {
        /// The keys file text (same syntax as the CLI's `<keys.txt>`).
        keys: String,
        /// The rules file text (same syntax as the CLI's `<rules.txt>`).
        rules: String,
    },
    /// Close the session (the server responds, then hangs up).
    Quit,
    /// Test-only: panic inside the request handler.  Exists so the
    /// panic-isolation path (`err internal`, `panics=` counter, connection
    /// keeps serving) can be driven end-to-end over the wire; compiled only
    /// in test builds and under the `faultline` feature.
    #[cfg(any(test, feature = "faultline"))]
    Boom,
}

/// The protocol's verbs in protocol order: the one table that names them
/// for `ok <verb>` headers, the per-verb counters and the `status`
/// report.  The test-only `boom` verb is not listed.
pub const VERBS: [&str; 9] = [
    "ping",
    "status",
    "validate",
    "shred",
    "propagate",
    "cover",
    "query",
    "reload",
    "quit",
];

impl Request {
    /// This request's position in [`VERBS`]; `boom` takes the slot just
    /// past the table.
    pub(crate) fn verb_index(&self) -> usize {
        match self {
            Request::Ping => 0,
            Request::Status => 1,
            Request::Validate { .. } => 2,
            Request::Shred { .. } => 3,
            Request::Propagate { .. } => 4,
            Request::Cover { .. } => 5,
            Request::Query { .. } => 6,
            Request::Reload { .. } => 7,
            Request::Quit => 8,
            #[cfg(any(test, feature = "faultline"))]
            Request::Boom => VERBS.len(),
        }
    }

    /// The verb echoed in `ok <verb>` response headers.
    pub fn verb(&self) -> &'static str {
        #[cfg(any(test, feature = "faultline"))]
        if matches!(self, Request::Boom) {
            return "boom";
        }
        VERBS[self.verb_index()]
    }

    /// Whether this request only reads published state.  Read-only verbs
    /// are safe to retry on a fresh connection after a transport failure;
    /// `reload` (publishes) and `quit` (terminates) are not — the client's
    /// retry loop keys on this.
    pub fn is_read_only(&self) -> bool {
        match self {
            Request::Reload { .. } | Request::Quit => false,
            #[cfg(any(test, feature = "faultline"))]
            Request::Boom => false,
            _ => true,
        }
    }

    /// Encodes the request onto `w` in wire form (header line + framed
    /// bodies).
    pub fn write_to(&self, w: &mut impl Write) -> std::io::Result<()> {
        let verb = self.verb();
        match self {
            Request::Validate { document } => {
                writeln!(w, "{verb} {}", document.len())?;
                w.write_all(document.as_bytes())
            }
            Request::Shred { document, relation } => {
                match relation {
                    Some(rel) => writeln!(w, "{verb} {} {rel}", document.len())?,
                    None => writeln!(w, "{verb} {}", document.len())?,
                }
                w.write_all(document.as_bytes())
            }
            Request::Propagate { relation, fd } => writeln!(w, "{verb} {relation} {fd}"),
            Request::Cover {
                relation: Some(rel),
            } => writeln!(w, "{verb} {rel}"),
            Request::Query { document, query } => {
                writeln!(w, "{verb} {} {query}", document.len())?;
                w.write_all(document.as_bytes())
            }
            Request::Reload { keys, rules } => {
                writeln!(w, "{verb} {} {}", keys.len(), rules.len())?;
                w.write_all(keys.as_bytes())?;
                w.write_all(rules.as_bytes())
            }
            _ => writeln!(w, "{verb}"),
        }
    }

    /// Reads the next request from `r`.  Returns `Ok(None)` on a clean EOF
    /// before any header byte; blank lines between requests are skipped.
    /// A header line truncated by EOF is a torn connection, never a
    /// parseable request — `cover U` cut to `cover ` must not silently
    /// become the all-relations query.
    pub fn read_from(r: &mut impl BufRead) -> Result<Option<Request>, Error> {
        let line = loop {
            let Some(trimmed) = read_terminated_line(r, "reading request header")? else {
                return Ok(None);
            };
            if !trimmed.is_empty() {
                break trimmed;
            }
        };
        let mut parts = line.split_whitespace();
        let verb = parts.next().expect("non-empty line has a first token");
        match verb {
            "ping" => Ok(Some(Request::Ping)),
            "status" => Ok(Some(Request::Status)),
            "quit" => Ok(Some(Request::Quit)),
            #[cfg(any(test, feature = "faultline"))]
            "boom" => Ok(Some(Request::Boom)),
            "validate" => {
                let len = parse_len(parts.next(), "validate")?;
                let document = read_body(r, len, "validate document")?;
                Ok(Some(Request::Validate { document }))
            }
            "shred" => {
                let len = parse_len(parts.next(), "shred")?;
                let relation = parts.next().map(str::to_string);
                let document = read_body(r, len, "shred document")?;
                Ok(Some(Request::Shred { document, relation }))
            }
            "propagate" => {
                let relation = parts
                    .next()
                    .ok_or_else(|| Error::protocol("propagate expects `<relation> <fd>`"))?
                    .to_string();
                let fd: Vec<&str> = parts.collect();
                if fd.is_empty() {
                    return Err(Error::protocol(
                        "propagate expects an FD after the relation",
                    ));
                }
                Ok(Some(Request::Propagate {
                    relation,
                    fd: fd.join(" "),
                }))
            }
            "cover" => Ok(Some(Request::Cover {
                relation: parts.next().map(str::to_string),
            })),
            "query" => {
                let len = parse_len(parts.next(), "query")?;
                let query: Vec<&str> = parts.collect();
                if query.is_empty() {
                    return Err(Error::protocol(
                        "query expects the query text after the body length",
                    ));
                }
                let document = read_body(r, len, "query document")?;
                Ok(Some(Request::Query {
                    document,
                    query: query.join(" "),
                }))
            }
            "reload" => {
                let keys_len = parse_len(parts.next(), "reload")?;
                let rules_len = parse_len(parts.next(), "reload")?;
                let keys = read_body(r, keys_len, "reload keys")?;
                let rules = read_body(r, rules_len, "reload rules")?;
                Ok(Some(Request::Reload { keys, rules }))
            }
            other => Err(Error::protocol(format!("unknown request verb `{other}`"))),
        }
    }
}

/// Parses a decimal body length out of a request header token.
fn parse_len(token: Option<&str>, verb: &str) -> Result<usize, Error> {
    let token =
        token.ok_or_else(|| Error::protocol(format!("{verb} expects a body byte length")))?;
    let len: usize = token
        .parse()
        .map_err(|_| Error::protocol(format!("{verb}: invalid body length `{token}`")))?;
    if len > MAX_BODY_BYTES {
        return Err(Error::protocol(format!(
            "{verb}: body of {len} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
        )));
    }
    Ok(len)
}

/// Reads an exact-length UTF-8 body following a request header.
fn read_body(r: &mut impl BufRead, len: usize, what: &str) -> Result<String, Error> {
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf).map_err(|e| {
        if is_timeout(&e) {
            Error::timeout(format!("reading {what} body ({len} bytes): {e}"))
        } else {
            Error::protocol(format!("reading {what} body ({len} bytes): {e}"))
        }
    })?;
    String::from_utf8(buf).map_err(|_| Error::protocol(format!("{what} body is not valid UTF-8")))
}

/// Reads one protocol line, requiring its terminating newline.  `None` is
/// a clean EOF before any byte; a line truncated mid-way by EOF is a torn
/// transport — surfaced as `io` so retry layers treat it like any other
/// connection death, and so a line prefix can never be mistaken for a
/// complete (but different) message.
fn read_terminated_line(r: &mut impl BufRead, context: &str) -> Result<Option<String>, Error> {
    let mut line = String::new();
    let n = r
        .read_line(&mut line)
        .map_err(|e| classify_io(context, &e))?;
    if n == 0 {
        return Ok(None);
    }
    if !line.ends_with('\n') {
        return Err(Error::io(format!("{context}: connection closed mid-line")));
    }
    Ok(Some(line.trim_end_matches(['\r', '\n']).to_string()))
}

/// Whether an I/O error is a read/write timeout (the platform reports
/// socket timeouts as either kind).
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
    )
}

/// Classifies a transport-level I/O failure: timeouts become
/// [`ErrorKind::Timeout`](xmlprop_pipeline::ErrorKind::Timeout) (the peer
/// was too slow), everything else stays [`ErrorKind::Io`](xmlprop_pipeline::ErrorKind::Io).
fn classify_io(context: &str, e: &std::io::Error) -> Error {
    if is_timeout(e) {
        Error::timeout(format!("{context}: {e}"))
    } else {
        Error::io(format!("{context}: {e}"))
    }
}

/// A server response: one header line plus a (possibly empty) payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The full header line (`ok …` or `err …`), without the newline.
    pub header: String,
    /// The payload text; empty or newline-terminated.
    pub payload: String,
}

impl Response {
    /// An `ok` response for `verb` served by bundle epoch `epoch`.
    /// `extra` holds additional `k=v` header tags, `payload` the body.
    pub fn ok(verb: &str, epoch: u64, extra: &str, payload: String) -> Self {
        let header = if extra.is_empty() {
            format!("ok {verb} bundle={epoch}")
        } else {
            format!("ok {verb} bundle={epoch} {extra}")
        };
        Response { header, payload }
    }

    /// The wire form of an error, via the shared [`ErrorKind::wire_code`](xmlprop_pipeline::ErrorKind::wire_code)
    /// table.  Multi-line messages are flattened — headers are one line.
    pub fn error(error: &Error) -> Self {
        let message = error.to_string().replace('\n', " | ");
        Response {
            header: format!("err {} {message}", error.wire_code()),
            payload: String::new(),
        }
    }

    /// Whether this is an `err` response.
    pub fn is_err(&self) -> bool {
        self.header.starts_with("err ")
    }

    /// The wire code of an `err` response, if any.
    pub fn wire_code(&self) -> Option<&str> {
        self.header.strip_prefix("err ")?.split_whitespace().next()
    }

    /// The `bundle=<epoch>` tag of an `ok` header, if present.
    pub fn epoch(&self) -> Option<u64> {
        self.header
            .split_whitespace()
            .find_map(|tag| tag.strip_prefix("bundle="))
            .and_then(|v| v.parse().ok())
    }

    /// Encodes the response onto `w`: header, payload, `.` terminator.
    pub fn write_to(&self, w: &mut impl Write) -> std::io::Result<()> {
        writeln!(w, "{}", self.header)?;
        if !self.payload.is_empty() {
            w.write_all(self.payload.as_bytes())?;
            if !self.payload.ends_with('\n') {
                writeln!(w)?;
            }
        }
        writeln!(w, ".")
    }

    /// Reads one response from `r` (the client side).  Returns `Ok(None)`
    /// on a clean EOF before the header.
    ///
    /// The payload is read into one buffer, line by line up to the `.`
    /// line, each line's trailing `\r`s dropped.  A payload that is not
    /// UTF-8 fails as reading it a line at a time would: a split at `\n`
    /// leaves every line valid exactly when the whole is, so the error of
    /// the first bad line is the one reported.
    pub fn read_from(r: &mut impl BufRead) -> Result<Option<Response>, Error> {
        let Some(header) = read_terminated_line(r, "reading response header")? else {
            return Ok(None);
        };
        if !(header.starts_with("ok ") || header.starts_with("err ")) {
            return Err(Error::protocol(format!(
                "malformed response header `{header}`"
            )));
        }
        let mut payload = Vec::new();
        let read = read_payload(r, &mut payload);
        let payload = String::from_utf8(payload).map_err(|_| {
            let invalid = std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "stream did not contain valid UTF-8",
            );
            classify_io(PAYLOAD, &invalid)
        })?;
        read?;
        Ok(Some(Response { header, payload }))
    }
}

/// The context of payload read errors.
const PAYLOAD: &str = "reading response payload";

/// Appends the payload lines of a response to `payload`, each ending in
/// `\n` alone, and consumes the terminating `.` line.  A line cut short by
/// a failed read is dropped again, as the line reader drops it.
fn read_payload(r: &mut impl BufRead, payload: &mut Vec<u8>) -> Result<(), Error> {
    loop {
        let start = payload.len();
        let n = match r.read_until(b'\n', payload) {
            Ok(n) => n,
            Err(e) => {
                payload.truncate(start);
                return Err(classify_io(PAYLOAD, &e));
            }
        };
        if n == 0 {
            // A transport death, not a malformed message: `io`, so
            // clients may retry read-only requests on it.
            return Err(Error::io("connection closed mid-response"));
        }
        if payload.last() != Some(&b'\n') {
            return Err(Error::io(format!("{PAYLOAD}: connection closed mid-line")));
        }
        let line = &payload[start..];
        let kept = line
            .iter()
            .rposition(|&b| b != b'\r' && b != b'\n')
            .map_or(0, |last| last + 1);
        if line[..kept] == *b"." {
            payload.truncate(start);
            return Ok(());
        }
        payload.truncate(start + kept);
        payload.push(b'\n');
    }
}

/// The greeting line a server writes on connect.
pub fn greeting(epoch: u64, keys: usize, rules: usize) -> String {
    format!("xmlprop/{PROTOCOL_VERSION} ready bundle={epoch} keys={keys} rules={rules}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;
    use xmlprop_pipeline::ErrorKind;

    fn round_trip(req: Request) {
        let mut wire = Vec::new();
        req.write_to(&mut wire).unwrap();
        let mut reader = BufReader::new(wire.as_slice());
        let back = Request::read_from(&mut reader).unwrap().unwrap();
        assert_eq!(back, req);
        assert!(Request::read_from(&mut reader).unwrap().is_none());
    }

    #[test]
    fn requests_round_trip_through_the_wire_form() {
        round_trip(Request::Ping);
        round_trip(Request::Status);
        round_trip(Request::Quit);
        round_trip(Request::Validate {
            document: "<r><a/>\nmulti line</r>".into(),
        });
        round_trip(Request::Shred {
            document: "<r/>".into(),
            relation: None,
        });
        round_trip(Request::Shred {
            document: "<r/>".into(),
            relation: Some("book".into()),
        });
        round_trip(Request::Propagate {
            relation: "chapter".into(),
            fd: "inBook, number -> name".into(),
        });
        round_trip(Request::Cover { relation: None });
        round_trip(Request::Cover {
            relation: Some("book".into()),
        });
        round_trip(Request::Query {
            document: "<r><book isbn='1'/></r>".into(),
            query: "select title, name from book join chapter on isbn = inBook".into(),
        });
        round_trip(Request::Reload {
            keys: "K1: (ε, (//book, {@isbn}))\n".into(),
            rules: "rule book(isbn) { xb := xr//book; xi := xb/@isbn; isbn := value(xi); }\n"
                .into(),
        });
        round_trip(Request::Boom);
    }

    #[test]
    fn read_only_verbs_exclude_reload_quit_and_boom() {
        assert!(Request::Ping.is_read_only());
        assert!(Request::Status.is_read_only());
        assert!(Request::Validate {
            document: String::new()
        }
        .is_read_only());
        assert!(Request::Cover { relation: None }.is_read_only());
        assert!(Request::Query {
            document: String::new(),
            query: "select from r".into()
        }
        .is_read_only());
        assert!(!Request::Quit.is_read_only());
        assert!(!Request::Reload {
            keys: String::new(),
            rules: String::new()
        }
        .is_read_only());
        assert!(!Request::Boom.is_read_only());
    }

    #[test]
    fn responses_round_trip_and_tag_epochs() {
        let resp = Response::ok(
            "validate",
            3,
            "verdict=ok violations=0",
            "[ok]   K1\n".into(),
        );
        assert_eq!(resp.epoch(), Some(3));
        assert!(!resp.is_err());
        let mut wire = Vec::new();
        resp.write_to(&mut wire).unwrap();
        let mut reader = BufReader::new(wire.as_slice());
        let back = Response::read_from(&mut reader).unwrap().unwrap();
        assert_eq!(back, resp);

        let err = Response::error(&Error::protocol("bad frame"));
        assert!(err.is_err());
        assert_eq!(err.wire_code(), Some(ErrorKind::Protocol.wire_code()));
        let mut wire = Vec::new();
        err.write_to(&mut wire).unwrap();
        let back = Response::read_from(&mut BufReader::new(wire.as_slice()))
            .unwrap()
            .unwrap();
        assert_eq!(back, err);
    }

    #[test]
    fn oversized_bodies_are_rejected_before_allocation() {
        let header = format!("validate {}\n", MAX_BODY_BYTES + 1);
        let err = Request::read_from(&mut BufReader::new(header.as_bytes())).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Protocol);
    }

    #[test]
    fn unknown_verbs_are_protocol_errors() {
        let err = Request::read_from(&mut BufReader::new(&b"frobnicate\n"[..])).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Protocol);
        assert!(err.to_string().contains("frobnicate"));
    }

    #[test]
    fn blank_lines_between_requests_are_skipped() {
        let mut reader = BufReader::new(&b"\n\nping\n"[..]);
        assert_eq!(
            Request::read_from(&mut reader).unwrap(),
            Some(Request::Ping)
        );
    }

    #[test]
    fn torn_request_lines_are_io_errors_not_prefix_requests() {
        // `cover U` torn to `cover ` must not become the all-relations
        // query — a header line without its newline is a dead transport.
        let err = Request::read_from(&mut BufReader::new(&b"cover "[..])).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Io);
        assert!(err.to_string().contains("mid-line"), "{err}");
    }

    #[test]
    fn torn_response_lines_are_io_errors() {
        let torn_header = &b"ok cover bundle=1 fds="[..];
        let err = Response::read_from(&mut BufReader::new(torn_header)).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Io);

        let torn_payload = &b"ok cover bundle=1 fds=4\nbookIsbn -> book"[..];
        let err = Response::read_from(&mut BufReader::new(torn_payload)).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Io);

        let missing_terminator = &b"ok ping bundle=1\n"[..];
        let err = Response::read_from(&mut BufReader::new(missing_terminator)).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Io);
    }

    /// The line-at-a-time response reader the one-buffer
    /// [`Response::read_from`] replaced, kept as its oracle.
    fn read_response_oracle(r: &mut impl BufRead) -> Result<Option<Response>, Error> {
        let Some(header) = read_terminated_line(r, "reading response header")? else {
            return Ok(None);
        };
        if !(header.starts_with("ok ") || header.starts_with("err ")) {
            return Err(Error::protocol(format!(
                "malformed response header `{header}`"
            )));
        }
        let mut payload = String::new();
        loop {
            let Some(line) = read_terminated_line(r, "reading response payload")? else {
                return Err(Error::io("connection closed mid-response"));
            };
            if line == "." {
                break;
            }
            payload.push_str(&line);
            payload.push('\n');
        }
        Ok(Some(Response { header, payload }))
    }

    /// Yields `bytes`, then fails every read with `kind`.
    struct Failing<'a> {
        bytes: &'a [u8],
        kind: std::io::ErrorKind,
    }

    impl std::io::Read for Failing<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.bytes.is_empty() {
                return Err(self.kind.into());
            }
            let n = buf.len().min(self.bytes.len()).min(7);
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    /// Payload lines: empty, dot-led, multi-byte, carriage returns, a lone
    /// `.` (which ends the payload early) and bytes that are not UTF-8.
    const LINES: &[&[u8]] = &[
        b"",
        b"..",
        b".x",
        b"x.",
        b"a  b",
        "é日🎉".as_bytes(),
        b"\r",
        b"x\r\r",
        b".",
        b".\r",
        b"\xff",
        b"\xc3",
    ];
    const ENDINGS: &[&[u8]] = &[b"\n", b"\r\n"];

    fn wire(lines: &[(usize, usize)], terminate: bool) -> Vec<u8> {
        let mut wire = b"ok shred bundle=1 tuples=3\n".to_vec();
        for &(line, ending) in lines {
            wire.extend_from_slice(LINES[line]);
            wire.extend_from_slice(ENDINGS[ending]);
        }
        if terminate {
            wire.extend_from_slice(b".\n");
        }
        wire
    }

    proptest::proptest! {
        /// The one-buffer reader decodes every response the line reader
        /// decodes, and fails with its exact error on every prefix of the
        /// wire form and on a read error at every offset.
        #[test]
        fn response_framing_matches_the_line_reader(
            lines in proptest::collection::vec((0..LINES.len(), 0..ENDINGS.len()), 0..8),
            terminate in 0..4u8,
            plain in 0..2u8,
        ) {
            let lines: Vec<_> = if plain == 0 {
                lines.into_iter().filter(|&(l, _)| LINES[l].is_ascii() && LINES[l] != b".").collect()
            } else {
                lines
            };
            let wire = wire(&lines, terminate > 0);
            for cut in 0..=wire.len() {
                let prefix = &wire[..cut];
                proptest::prop_assert_eq!(
                    Response::read_from(&mut BufReader::new(prefix)),
                    read_response_oracle(&mut BufReader::new(prefix)),
                    "{:?}", String::from_utf8_lossy(prefix)
                );
                let kind = if cut % 2 == 0 {
                    std::io::ErrorKind::TimedOut
                } else {
                    std::io::ErrorKind::ConnectionReset
                };
                let failing = || BufReader::with_capacity(5, Failing { bytes: prefix, kind });
                proptest::prop_assert_eq!(
                    Response::read_from(&mut failing()),
                    read_response_oracle(&mut failing())
                );
            }
        }
    }

    #[test]
    fn a_full_response_decodes_to_its_payload_lines() {
        let wire = wire(&[(2, 1), (0, 0), (1, 0), (5, 1), (7, 0)], true);
        let response = Response::read_from(&mut BufReader::new(&wire[..]))
            .unwrap()
            .unwrap();
        assert_eq!(response.payload, ".x\n\n..\né日🎉\nx\n");
        assert_eq!(
            Some(response),
            read_response_oracle(&mut BufReader::new(&wire[..])).unwrap()
        );
    }
}
