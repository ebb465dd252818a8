//! The workspace error type: one table of kinds, and an error that is a
//! kind plus its message.
//!
//! Before this module every layer grew its own `Result<_, String>` surface
//! (the CLI assembled ad-hoc strings, [`crate::Jobs::new`] returned a bare
//! `String`, the parsers each had private error structs that callers
//! flattened with `to_string()`).  [`Error`] replaces those surfaces with a
//! single struct whose *kind* carries the classification every consumer
//! needs:
//!
//! * the CLI exits with [`Error::exit_code`] — 2 for every kind and every
//!   subcommand, including `serve`;
//! * the server's wire protocol maps an error to its `err <code> …`
//!   response line through [`ErrorKind::wire_code`] — so a scripted client
//!   session and a CLI invocation report the same failure the same way.
//!
//! [`ErrorKind`] is the only list of kinds; each kind names its wire code
//! once, in [`ErrorKind::wire_code`].  The message is formatted when the
//! error is built (the kind-named constructors fix each phrasing), so
//! [`Error::from_wire`] restores any error a server sent, text and kind
//! alike.

use std::fmt;

/// The classification of an [`Error`] — the key into the exit-code and
/// wire-code tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorKind {
    /// A malformed command line or request (wrong arity, unknown option).
    Usage,
    /// An I/O failure (unreadable file, socket error).
    Io,
    /// A parse failure in any of the input languages (documents, key
    /// files, rule files, FDs).
    Parse,
    /// An invalid worker-thread count.
    Jobs,
    /// A relation name that no rule of the transformation populates.
    UnknownRelation,
    /// A malformed or oversized wire request (server protocol framing).
    Protocol,
    /// A read/write timeout or an expired per-request deadline: the peer
    /// was too slow, not wrong.
    Timeout,
    /// The server shed the request because its live connections stayed
    /// at the jobs width past the bounded admission wait.
    Overloaded,
    /// An internal failure (an isolated handler panic); the service keeps
    /// running, the request does not.
    Internal,
}

impl ErrorKind {
    /// Every kind, in wire-code order (exercised by the table tests).
    pub const ALL: [ErrorKind; 9] = [
        ErrorKind::Usage,
        ErrorKind::Io,
        ErrorKind::Parse,
        ErrorKind::Jobs,
        ErrorKind::UnknownRelation,
        ErrorKind::Protocol,
        ErrorKind::Timeout,
        ErrorKind::Overloaded,
        ErrorKind::Internal,
    ];

    /// The stable `err <code> …` token the server protocol reports this
    /// kind as.
    pub fn wire_code(self) -> &'static str {
        match self {
            ErrorKind::Usage => "usage",
            ErrorKind::Io => "io",
            ErrorKind::Parse => "parse",
            ErrorKind::Jobs => "jobs",
            ErrorKind::UnknownRelation => "relation",
            ErrorKind::Protocol => "protocol",
            ErrorKind::Timeout => "timeout",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::Internal => "internal",
        }
    }
}

/// The workspace error; see the module docs.  Constructed through
/// [`Error::new`] or the kind-named helpers ([`Error::usage`],
/// [`Error::io`], …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    kind: ErrorKind,
    message: String,
}

impl Error {
    /// An error of `kind` that displays as `message`.
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> Self {
        Error {
            kind,
            message: message.into(),
        }
    }

    /// A [`ErrorKind::Usage`] error.
    pub fn usage(message: impl Into<String>) -> Self {
        Error::new(ErrorKind::Usage, message)
    }

    /// A [`ErrorKind::Io`] error.
    pub fn io(message: impl Into<String>) -> Self {
        Error::new(ErrorKind::Io, message)
    }

    /// A [`ErrorKind::Io`] error for an unreadable file, in the phrasing
    /// every subcommand uses.
    pub fn read(path: &str, cause: impl fmt::Display) -> Self {
        Error::io(format!("cannot read `{path}`: {cause}"))
    }

    /// A [`ErrorKind::Parse`] error; `origin` names the input (a path, a
    /// `path:line`, or a protocol body name).
    pub fn parse(origin: &str, cause: impl fmt::Display) -> Self {
        Error::new(ErrorKind::Parse, format!("{origin}: {cause}"))
    }

    /// A [`ErrorKind::Jobs`] error.
    pub fn jobs(message: impl Into<String>) -> Self {
        Error::new(ErrorKind::Jobs, message)
    }

    /// A [`ErrorKind::UnknownRelation`] error naming the relations the
    /// transformation does populate, in rule order.
    pub fn unknown_relation(relation: impl Into<String>, known: Vec<String>) -> Self {
        let relation = relation.into();
        let known = known.join(", ");
        Error::new(
            ErrorKind::UnknownRelation,
            format!("no rule for relation `{relation}` (known: {known})"),
        )
    }

    /// A [`ErrorKind::Protocol`] error.
    pub fn protocol(message: impl Into<String>) -> Self {
        Error::new(ErrorKind::Protocol, message)
    }

    /// A [`ErrorKind::Timeout`] error.
    pub fn timeout(message: impl Into<String>) -> Self {
        Error::new(ErrorKind::Timeout, message)
    }

    /// A [`ErrorKind::Overloaded`] error.
    pub fn overloaded(message: impl Into<String>) -> Self {
        Error::new(ErrorKind::Overloaded, message)
    }

    /// A [`ErrorKind::Internal`] error.
    pub fn internal(message: impl Into<String>) -> Self {
        Error::new(ErrorKind::Internal, message)
    }

    /// Reconstructs an error from its wire form (`err <code> <message>`),
    /// the inverse of the server's response encoding.  Unknown codes fall
    /// back to [`ErrorKind::Protocol`] so a client never drops a message.
    pub fn from_wire(code: &str, message: impl Into<String>) -> Self {
        let kind = ErrorKind::ALL
            .into_iter()
            .find(|kind| kind.wire_code() == code)
            .unwrap_or(ErrorKind::Protocol);
        Error::new(kind, message)
    }

    /// The error's classification.
    pub fn kind(&self) -> ErrorKind {
        self.kind
    }

    /// Shorthand for `self.kind().wire_code()`.
    pub fn wire_code(&self) -> &'static str {
        self.kind.wire_code()
    }

    /// The process exit code of every error.  Exit code 1 is not an
    /// error: it reports a domain verdict (violations found, FD not
    /// propagated, files skipped).
    pub fn exit_code(&self) -> u8 {
        2
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_has_distinct_wire_codes_and_a_stable_exit_code() {
        let codes: Vec<&str> = ErrorKind::ALL.iter().map(|k| k.wire_code()).collect();
        let mut deduped = codes.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), codes.len(), "wire codes must be unique");
        for kind in ErrorKind::ALL {
            let e = Error::new(kind, "m");
            assert_eq!(e.exit_code(), 2, "all errors exit 2; verdicts exit 1");
        }
    }

    #[test]
    fn constructors_classify_and_display() {
        let e = Error::read("missing.xml", "No such file");
        assert_eq!(e.kind(), ErrorKind::Io);
        assert_eq!(e.to_string(), "cannot read `missing.xml`: No such file");
        assert_eq!(e.wire_code(), "io");
        assert_eq!(e.exit_code(), 2);

        let e = Error::parse("keys.txt:3", "expected `(`");
        assert_eq!(e.kind(), ErrorKind::Parse);
        assert_eq!(e.to_string(), "keys.txt:3: expected `(`");

        let e = Error::unknown_relation("nope", vec!["book".into(), "chapter".into()]);
        assert_eq!(e.kind(), ErrorKind::UnknownRelation);
        assert_eq!(
            e.to_string(),
            "no rule for relation `nope` (known: book, chapter)"
        );
        assert_eq!(e.wire_code(), "relation");

        let e = Error::protocol("body exceeds the request size limit");
        assert_eq!(e.wire_code(), "protocol");

        let e = Error::timeout("request deadline exceeded");
        assert_eq!(e.kind(), ErrorKind::Timeout);
        assert_eq!(e.wire_code(), "timeout");

        let e = Error::overloaded("server at capacity");
        assert_eq!(e.wire_code(), "overloaded");

        let e = Error::internal("request handler panicked");
        assert_eq!(e.wire_code(), "internal");

        // The trait objects the std ecosystem expects are implemented.
        let boxed: Box<dyn std::error::Error> = Box::new(Error::usage("u"));
        assert_eq!(boxed.to_string(), "u");
    }

    #[test]
    fn wire_form_round_trips_through_from_wire() {
        for kind in ErrorKind::ALL {
            let original = match kind {
                ErrorKind::Usage => Error::usage("bad flag"),
                ErrorKind::Io => Error::read("missing.xml", "No such file"),
                ErrorKind::Parse => Error::parse("keys.txt:3", "expected `(`"),
                ErrorKind::Jobs => Error::jobs("--jobs must be at least 1"),
                ErrorKind::UnknownRelation => Error::unknown_relation("nope", vec!["book".into()]),
                ErrorKind::Protocol => Error::protocol("unknown request verb `x`"),
                ErrorKind::Timeout => Error::timeout("request deadline exceeded"),
                ErrorKind::Overloaded => Error::overloaded("server at capacity"),
                ErrorKind::Internal => Error::internal("request handler panicked"),
            };
            assert_eq!(original.kind(), kind);
            let back = Error::from_wire(original.wire_code(), original.to_string());
            assert_eq!(back.kind(), kind);
            assert_eq!(back.to_string(), original.to_string());
            assert_eq!(back, original);
        }
        let unknown = Error::from_wire("nonsense", "kept");
        assert_eq!(unknown.kind(), ErrorKind::Protocol);
        assert_eq!(unknown.to_string(), "kept");
    }
}
