//! `faultline` — deterministic fault injection for the service stack.
//!
//! Robustness claims ("one slow client cannot pin a thread", "a torn
//! connection mid-reload leaves the bundle consistent") are only worth
//! anything if they are *tested*, and the failures they guard against are
//! exactly the ones integration tests never produce by accident.  This
//! module provides **named fault points** with **seeded schedules**: code
//! on the request path asks [`Faults::check`] at a point (`"conn.read"`,
//! `"conn.write"`, `"accept.conn"`, `"reload.prepare"`, `"handle.cover"`,
//! …) and receives either `None` (proceed) or a [`FaultAction`] to suffer
//! — an injected I/O error, a partial/short write, a delay, a torn
//! connection, or a handler panic.
//!
//! ## Determinism
//!
//! A schedule is compiled from a text spec plus a seed
//! ([`Faults::parse`]); whether the *n*-th check of a point fires is a pure
//! function of `(seed, point, n)`, so a chaos run is reproducible given
//! its seed and the per-point check ordering.  Clones of a [`Faults`]
//! handle share one schedule (the per-point counters travel in the shared
//! `Arc`), so every connection of a server draws from the same sequence.
//!
//! ## One branch when disabled
//!
//! Every build compiles this one implementation.  A disabled handle
//! ([`Faults::disabled`], the production default) carries no schedule,
//! so each check returns at its first branch: it hashes, formats and
//! compares nothing, and a [`FaultStream`] around it forwards each call
//! to the inner stream after that branch.  There is no global registry —
//! faults are instance-scoped handles threaded through
//! [`crate::SwapCell`]-style constructors, so concurrent tests cannot
//! interfere with each other.
//!
//! ## Spec grammar
//!
//! Comma-separated `point=<percent>%<action>` clauses:
//!
//! ```text
//! conn.read=10%delay:2,conn.write=5%short:16,accept.conn=3%disconnect,reload.prepare=50%error,handle.cover=1%panic
//! ```
//!
//! Actions: `error` (injected I/O error), `disconnect` (torn connection:
//! EOF on read, reset on write), `delay:<ms>` (sleep, then proceed),
//! `short:<bytes>` (truncate a write to at most that many bytes) and
//! `panic` (unwind the request handler).  `panic` pairs only with a
//! handler point `handle.<verb>` (one per protocol verb, checked inside
//! the server's `catch_unwind`), and a handler point pairs only with
//! `panic`; [`Faults::parse`] refuses any other pairing, so no schedule
//! can unwind a thread outside that containment.

use crate::error::Error;
use std::io::{Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The prefix of the handler points, `handle.<verb>`.
const HANDLER_PREFIX: &str = "handle.";

/// What a firing fault point inflicts on its caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Fail with an injected I/O error.
    Error,
    /// Tear the connection: reads see EOF, writes see a reset.
    Disconnect,
    /// Sleep for the given duration, then proceed normally.
    Delay(Duration),
    /// Truncate a write to at most this many bytes (a short write).
    ShortWrite(usize),
    /// Panic in the request handler (handler points only).
    Panic,
}

/// A handle on a fault schedule (or on nothing: [`Faults::disabled`]).
/// Cloning is cheap and clones share the schedule's counters.
#[derive(Debug, Clone, Default)]
pub struct Faults {
    plan: Option<Arc<Plan>>,
}

#[derive(Debug)]
struct Plan {
    seed: u64,
    points: Vec<Point>,
}

#[derive(Debug)]
struct Point {
    name: String,
    percent: u32,
    action: FaultAction,
    /// How many times this clause has been consulted, across all
    /// clones; the firing decision hashes this index with the seed.
    count: AtomicU64,
}

impl Faults {
    /// A handle that never fires (the production default).
    pub fn disabled() -> Self {
        Faults { plan: None }
    }

    /// Whether this handle carries a schedule at all.
    pub fn is_active(&self) -> bool {
        self.plan.is_some()
    }

    /// Compiles a schedule from `spec` (see the module docs for the
    /// grammar) under `seed`.  An empty spec is a usage error — use
    /// [`Faults::disabled`] for "no faults".
    pub fn parse(spec: &str, seed: u64) -> Result<Faults, Error> {
        let mut points = Vec::new();
        for clause in spec.split(',') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let (name, rest) = clause.split_once('=').ok_or_else(|| {
                Error::usage(format!(
                    "fault clause `{clause}` is not `point=<percent>%<action>`"
                ))
            })?;
            let (percent, action) = rest.split_once('%').ok_or_else(|| {
                Error::usage(format!(
                    "fault clause `{clause}` is missing the `<percent>%` rate"
                ))
            })?;
            let percent: u32 = percent.parse().map_err(|_| {
                Error::usage(format!("fault clause `{clause}`: bad percent `{percent}`"))
            })?;
            if percent > 100 {
                return Err(Error::usage(format!(
                    "fault clause `{clause}`: percent must be 0..=100"
                )));
            }
            let action = parse_action(action)
                .ok_or_else(|| Error::usage(format!("fault clause `{clause}`: unknown action `{action}` (error | disconnect | delay:<ms> | short:<bytes> | panic)")))?;
            let name = name.trim();
            if name.starts_with(HANDLER_PREFIX) != (action == FaultAction::Panic) {
                return Err(Error::usage(format!(
                    "fault clause `{clause}`: `panic` pairs only with a `{HANDLER_PREFIX}<verb>` point, and such a point only with `panic`"
                )));
            }
            points.push(Point {
                name: name.to_string(),
                percent,
                action,
                count: AtomicU64::new(0),
            });
        }
        if points.is_empty() {
            return Err(Error::usage("fault spec contains no clauses"));
        }
        Ok(Faults {
            plan: Some(Arc::new(Plan { seed, points })),
        })
    }

    /// The point names of the schedule's clauses, in spec order (none
    /// when disabled).  The server refuses names it never checks.
    pub fn points(&self) -> impl Iterator<Item = &str> {
        self.plan
            .iter()
            .flat_map(|plan| plan.points.iter().map(|p| p.name.as_str()))
    }

    /// Consults the schedule at a named point.  `None` means proceed;
    /// `Some(action)` means the caller must suffer the action.  The
    /// decision for the *n*-th consultation of a clause is a pure
    /// function of `(seed, point, n)`.
    #[inline]
    pub fn check(&self, point: &str) -> Option<FaultAction> {
        self.check_where(|name| name == point)
    }

    /// Panics if the schedule fires at the handler point `handle.<verb>`.
    /// The server calls this inside the `catch_unwind` around each
    /// request handler, which contains the unwind to `err internal`.
    #[inline]
    pub fn fire_handler(&self, verb: &str) {
        if self
            .check_where(|name| name.strip_prefix(HANDLER_PREFIX) == Some(verb))
            .is_some()
        {
            panic!("faultline: injected panic at `{HANDLER_PREFIX}{verb}`");
        }
    }

    /// [`Faults::check`] over every clause whose point `matches`.
    fn check_where(&self, matches: impl Fn(&str) -> bool) -> Option<FaultAction> {
        let plan = self.plan.as_ref()?;
        for p in &plan.points {
            if matches(&p.name) {
                let n = p.count.fetch_add(1, Ordering::Relaxed);
                if roll(plan.seed, &p.name, n) < u64::from(p.percent) {
                    return Some(p.action);
                }
            }
        }
        None
    }

    /// [`Faults::check`] specialised for plain I/O call sites: sleeps
    /// through delays and converts `Error`/`Disconnect` into
    /// `io::Error`s tagged as injected.  `ShortWrite` is ignored (it
    /// only makes sense inside a `write` implementation), and `Panic`
    /// never fires here (it pairs only with handler points).
    pub fn fire_io(&self, point: &str) -> std::io::Result<()> {
        match self.check(point) {
            None | Some(FaultAction::ShortWrite(_) | FaultAction::Panic) => Ok(()),
            Some(FaultAction::Delay(d)) => {
                std::thread::sleep(d);
                Ok(())
            }
            Some(FaultAction::Error) => Err(injected_error(point)),
            Some(FaultAction::Disconnect) => Err(injected_disconnect(point)),
        }
    }
}

fn parse_action(action: &str) -> Option<FaultAction> {
    match action {
        "error" => Some(FaultAction::Error),
        "disconnect" => Some(FaultAction::Disconnect),
        "panic" => Some(FaultAction::Panic),
        _ => {
            if let Some(ms) = action.strip_prefix("delay:") {
                ms.parse()
                    .ok()
                    .map(|ms| FaultAction::Delay(Duration::from_millis(ms)))
            } else if let Some(n) = action.strip_prefix("short:") {
                n.parse()
                    .ok()
                    .filter(|&n: &usize| n > 0)
                    .map(FaultAction::ShortWrite)
            } else {
                None
            }
        }
    }
}

/// An injected I/O error, recognisable by its message prefix.
fn injected_error(point: &str) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::ConnectionReset,
        format!("faultline: injected I/O error at `{point}`"),
    )
}

fn injected_disconnect(point: &str) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::ConnectionAborted,
        format!("faultline: injected disconnect at `{point}`"),
    )
}

/// The deterministic die: a value in `0..100` for the `n`-th check of
/// `point` under `seed` (splitmix64 over an FNV-1a point hash).
fn roll(seed: u64, point: &str, n: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in point.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    let mut z = seed ^ h ^ n.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) % 100
}

/// A `Read`/`Write` wrapper that consults two fault points around the
/// inner stream's calls.  With a disabled handle it is a transparent
/// passthrough.
#[derive(Debug)]
pub struct FaultStream<S> {
    inner: S,
    faults: Faults,
    read_point: &'static str,
    write_point: &'static str,
}

impl<S> FaultStream<S> {
    /// Wraps `inner`, consulting `read_point` before each read and
    /// `write_point` before each write.
    pub fn new(
        inner: S,
        faults: Faults,
        read_point: &'static str,
        write_point: &'static str,
    ) -> Self {
        FaultStream {
            inner,
            faults,
            read_point,
            write_point,
        }
    }

    /// The wrapped stream.
    #[cfg(test)]
    pub fn get_ref(&self) -> &S {
        &self.inner
    }

    /// The wrapped stream, mutably.
    pub fn get_mut(&mut self) -> &mut S {
        &mut self.inner
    }
}

impl<S: Read> Read for FaultStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self.faults.check(self.read_point) {
            None | Some(FaultAction::ShortWrite(_) | FaultAction::Panic) => {}
            Some(FaultAction::Delay(d)) => std::thread::sleep(d),
            Some(FaultAction::Error) => return Err(injected_error(self.read_point)),
            // A torn connection reads as EOF — exactly what a peer
            // vanishing mid-stream looks like.
            Some(FaultAction::Disconnect) => return Ok(0),
        }
        self.inner.read(buf)
    }
}

impl<S: Write> Write for FaultStream<S> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self.faults.check(self.write_point) {
            None | Some(FaultAction::Panic) => {}
            Some(FaultAction::Delay(d)) => std::thread::sleep(d),
            Some(FaultAction::Error) => return Err(injected_error(self.write_point)),
            Some(FaultAction::Disconnect) => return Err(injected_disconnect(self.write_point)),
            Some(FaultAction::ShortWrite(n)) if !buf.is_empty() => {
                // A short write: hand fewer bytes to the inner stream
                // and report that truncated count.  Correct callers
                // (`write_all`) retry the remainder.
                let n = n.min(buf.len());
                return self.inner.write(&buf[..n]);
            }
            Some(FaultAction::ShortWrite(_)) => {}
        }
        self.inner.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    #[test]
    fn disabled_handles_never_fire() {
        let faults = Faults::disabled();
        assert!(!faults.is_active());
        for _ in 0..1000 {
            assert_eq!(faults.check("conn.read"), None);
        }
        assert!(faults.fire_io("conn.read").is_ok());
        for verb in ["ping", "cover", "reload"] {
            faults.fire_handler(verb);
        }
    }

    #[test]
    fn panic_pairs_only_with_handler_points() {
        // `panic` outside `handle.<verb>` could unwind a thread outside the
        // handler's `catch_unwind`, so the parser refuses it.
        for bad in [
            "conn.read=10%panic",
            "accept.conn=100%panic",
            "reload.prepare=1%panic",
            "handles.cover=1%panic",
        ] {
            let err = Faults::parse(bad, 0).unwrap_err();
            assert_eq!(err.kind(), crate::ErrorKind::Usage, "{bad:?}");
            assert!(err.to_string().contains("pairs only"), "{err}");
        }
        // ...and a handler point takes no action but `panic`.
        for bad in [
            "handle.cover=10%error",
            "handle.ping=10%disconnect",
            "handle.validate=10%delay:1",
            "handle.shred=10%short:4",
        ] {
            let err = Faults::parse(bad, 0).unwrap_err();
            assert_eq!(err.kind(), crate::ErrorKind::Usage, "{bad:?}");
        }
        let ok = Faults::parse("handle.cover=100%panic, conn.read=0%error", 0).unwrap();
        assert_eq!(ok.check("handle.cover"), Some(FaultAction::Panic));
    }

    #[test]
    fn handler_points_panic_only_for_their_verb() {
        let faults = Faults::parse("handle.cover=100%panic", 0).unwrap();
        faults.fire_handler("ping");
        faults.fire_handler("covers");
        let unwound = std::panic::catch_unwind(|| faults.fire_handler("cover")).unwrap_err();
        let message = unwound.downcast_ref::<String>().unwrap();
        assert!(message.contains("`handle.cover`"), "{message}");
        // Handler points are invisible to the I/O sites.
        assert!(faults.fire_io("handle.cover").is_ok());
    }

    #[test]
    fn schedules_are_deterministic_in_the_seed() {
        let draw = |seed: u64| -> Vec<bool> {
            let faults = Faults::parse("conn.read=25%error", seed).unwrap();
            (0..200)
                .map(|_| faults.check("conn.read").is_some())
                .collect()
        };
        assert_eq!(draw(7), draw(7), "same seed, same schedule");
        assert_ne!(draw(7), draw(8), "different seeds diverge");
        let hits = draw(7).iter().filter(|&&b| b).count();
        // 25% of 200 draws: loose sanity band, not a statistical test.
        assert!((20..=80).contains(&hits), "got {hits} hits");
    }

    #[test]
    fn clones_share_one_counter_sequence() {
        let a = Faults::parse("p=50%error", 1).unwrap();
        let b = a.clone();
        let mut merged = Vec::new();
        for i in 0..100 {
            let handle = if i % 2 == 0 { &a } else { &b };
            merged.push(handle.check("p").is_some());
        }
        let solo = Faults::parse("p=50%error", 1).unwrap();
        let alone: Vec<bool> = (0..100).map(|_| solo.check("p").is_some()).collect();
        assert_eq!(merged, alone, "clones must draw from one sequence");
    }

    #[test]
    fn unknown_points_and_zero_rates_never_fire() {
        let faults = Faults::parse("conn.read=0%error", 3).unwrap();
        for _ in 0..100 {
            assert_eq!(faults.check("conn.read"), None);
            assert_eq!(faults.check("conn.write"), None);
        }
        let always = Faults::parse("p=100%disconnect", 3).unwrap();
        assert_eq!(always.check("p"), Some(FaultAction::Disconnect));
    }

    #[test]
    fn spec_parse_errors_are_usage_errors() {
        for bad in [
            "",
            "conn.read",
            "conn.read=error",
            "conn.read=150%error",
            "conn.read=x%error",
            "conn.read=10%frobnicate",
            "conn.read=10%delay:xx",
            "conn.read=10%short:0",
        ] {
            let err = Faults::parse(bad, 0).unwrap_err();
            assert_eq!(err.kind(), crate::ErrorKind::Usage, "{bad:?}");
        }
        // Delay and short parse their arguments.
        let ok = Faults::parse("a=10%delay:5, b=10%short:16", 0).unwrap();
        assert!(ok.is_active());
    }

    #[test]
    fn fault_stream_injects_reads_writes_and_short_writes() {
        // 100% rates make the stream behaviour exact, not statistical.
        let errors = Faults::parse("r=100%error", 0).unwrap();
        let mut s = FaultStream::new(std::io::Cursor::new(b"abc".to_vec()), errors, "r", "w");
        let mut buf = [0u8; 3];
        let err = s.read(&mut buf).unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");

        let torn = Faults::parse("r=100%disconnect", 0).unwrap();
        let mut s = FaultStream::new(std::io::Cursor::new(b"abc".to_vec()), torn, "r", "w");
        assert_eq!(s.read(&mut buf).unwrap(), 0, "torn connection reads EOF");

        let short = Faults::parse("w=100%short:2", 0).unwrap();
        let mut s = FaultStream::new(Vec::new(), short, "r", "w");
        assert_eq!(s.write(b"abcdef").unwrap(), 2, "short write truncates");
        // write_all hides shorts by retrying — the wrapped sink still
        // receives every byte, just in pieces.
        s.write_all(b"ghij").unwrap();
        assert_eq!(&s.get_ref()[..2], b"ab");
        assert_eq!(&s.get_ref()[2..], b"ghij");

        let clean = Faults::disabled();
        let mut s = FaultStream::new(Vec::new(), clean, "r", "w");
        s.write_all(b"xyz").unwrap();
        s.flush().unwrap();
        assert_eq!(s.get_ref().as_slice(), b"xyz");
    }
}
