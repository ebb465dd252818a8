//! The resident server: a shared [`ServerState`] behind a [`SwapCell`],
//! plus the `std::net` accept loop that serves it.
//!
//! ## Reader/writer discipline
//!
//! Request handlers never block on a reload.  Each request clones the
//! published `Arc<Published<CorpusBundle>>` snapshot once at request start
//! ([`SwapCell::read`] — a read-lock held only for an `Arc` clone) and
//! works against that snapshot for the whole request; `reload` prepares
//! the replacement bundle entirely off-lock and publishes it with a single
//! pointer store.  Epoch and bundle travel in one allocation, so a
//! response's `bundle=<epoch>` tag always names exactly the bundle that
//! produced its payload — there is no torn state to observe.
//!
//! ## Scratch discipline
//!
//! A connection's [`RequestScratch`] is derived from a specific bundle's
//! label universe, so each connection caches `(epoch, scratch)` and
//! re-derives the scratch when the published epoch has moved
//! ([`ScratchCache::for_snapshot`]).  Stale scratches are never used
//! against a newer bundle.
//!
//! ## Failure discipline
//!
//! Every way a request can go wrong is contained to that request or, at
//! worst, that connection — never the process (see the README's
//! "Robustness & fault injection" section for the full guarantee table):
//!
//! * **slow or stalled peers** — reads carry a per-read idle timeout and
//!   every request runs under a deadline armed when its first byte
//!   arrives ([`ServiceConfig`]); expiry answers `err timeout` and closes
//!   the connection instead of pinning its thread;
//! * **handler panics** — [`ServerState::respond`] wraps the handler in
//!   [`std::panic::catch_unwind`]; a panic becomes `err internal`, bumps
//!   the `panics` health counter, discards the (possibly poisoned)
//!   scratch, and the connection keeps serving;
//! * **overload** — one table of live connections, capped at the jobs
//!   width, both admits and drains: the accept loop admits a connection
//!   only if a slot frees within [`ServiceConfig::shed_wait`]; otherwise
//!   the client is shed with one `err overloaded` line rather than
//!   queueing without bound;
//! * **shutdown** — [`Server::shutdown`] stops accepting, read-shutdowns
//!   every connection in that table (idle sessions see EOF; in-flight
//!   requests complete and flush), then waits for the table to empty
//!   under [`ServiceConfig::drain_timeout`] before force-closing
//!   stragglers.
//!
//! ## Framing discipline
//!
//! Every `xmlprop/1` message — greeting, response, shed line — is encoded
//! into one buffer and leaves in a single `write_all`, on a socket with
//! `TCP_NODELAY` set at accept (the [`crate::Client`] does the same for
//! requests).  A message split over several writes lets Nagle's algorithm
//! hold its tail until the peer ACKs the head, and a peer that delays its
//! ACK (40 ms on Linux) stalls the round trip by that much.  There is no
//! knob for this: no configuration field, flag or environment variable.
//!
//! All of it is exercised deterministically through
//! [`xmlprop_pipeline::faultline`]: [`Server::bind_with`] accepts a
//! [`Faults`] schedule whose `accept.conn` / `conn.read` / `conn.write` /
//! `reload.prepare` points inject torn connections, I/O errors, short
//! writes and delays on the exact paths above.

use crate::protocol::{self, Request, Response, VERBS};
use crate::render;
use std::collections::HashMap;
use std::io::{BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use xmlprop_pipeline::{
    parse_keys_text, parse_rules_text, CorpusBundle, Error, ErrorKind, FaultStream, Faults, Jobs,
    PreparedState, Published, RequestScratch, SwapCell,
};
use xmlprop_xmltree::Document;

/// The service's timeout and degradation policy.  The defaults suit an
/// interactive deployment; tests shrink them to drive the slow-path
/// behaviours in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Longest a single socket read may block: between requests this is
    /// the idle cutoff, inside a request it bounds each stall.
    pub read_timeout: Duration,
    /// Longest a single socket write may block before the connection is
    /// abandoned.
    pub write_timeout: Duration,
    /// Wall-clock budget for one request, armed when its first byte
    /// arrives; a slow-loris peer trickling bytes gets `err timeout` at
    /// expiry no matter how diligently it trickles.
    pub request_deadline: Duration,
    /// How long an incoming connection may wait for a free slot before
    /// being shed with `err overloaded`.
    pub shed_wait: Duration,
    /// How long [`Server::shutdown`] waits for in-flight connections to
    /// drain before force-closing them.
    pub drain_timeout: Duration,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
            request_deadline: Duration::from_secs(60),
            shed_wait: Duration::from_secs(1),
            drain_timeout: Duration::from_secs(10),
        }
    }
}

/// Per-verb request counters, bumped once at request entry (so a `status`
/// request counts itself).  Relaxed atomics: the counts are monitoring
/// data, not synchronization — a `status` response may miss bumps racing
/// with it, never a bump from its own connection.
#[derive(Debug, Default)]
pub struct VerbCounters {
    /// One count per [`VERBS`] entry, indexed by [`Request::verb_index`],
    /// then the test-only `boom` verb's private slot, which never skews
    /// the `served=` total or the per-verb report the golden transcripts
    /// pin.
    counts: [AtomicU64; VERBS.len() + 1],
}

impl VerbCounters {
    fn bump(&self, request: &Request) {
        self.counts[request.verb_index()].fetch_add(1, Ordering::Relaxed);
    }

    /// The count served so far for `request`'s verb.
    pub fn get(&self, request: &Request) -> u64 {
        self.counts[request.verb_index()].load(Ordering::Relaxed)
    }

    /// Total requests served across all verbs (`boom` excluded: the
    /// report below must be identical with and without the feature).
    pub fn total(&self) -> u64 {
        self.counts[..VERBS.len()]
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// One-line per-verb report, in the protocol's verb order.
    pub fn report(&self) -> String {
        let counts = VERBS
            .iter()
            .zip(&self.counts)
            .map(|(verb, c)| format!("{verb}={}", c.load(Ordering::Relaxed)));
        counts.collect::<Vec<_>>().join(" ")
    }
}

/// Degradation counters: how often each containment path fired.  Reported
/// on the second `status` payload line and by the same discipline as
/// [`VerbCounters`] (relaxed, monitoring-only).
#[derive(Debug, Default)]
pub struct HealthCounters {
    panics: AtomicU64,
    timeouts: AtomicU64,
    sheds: AtomicU64,
}

impl HealthCounters {
    /// Requests whose handler panicked and was contained to `err internal`.
    pub fn panics(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }

    /// Connections closed for blowing a read timeout or request deadline.
    pub fn timeouts(&self) -> u64 {
        self.timeouts.load(Ordering::Relaxed)
    }

    /// Connections shed with `err overloaded` at admission.
    pub fn sheds(&self) -> u64 {
        self.sheds.load(Ordering::Relaxed)
    }

    pub(crate) fn bump_panic(&self) {
        self.panics.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn bump_timeout(&self) {
        self.timeouts.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn bump_shed(&self) {
        self.sheds.fetch_add(1, Ordering::Relaxed);
    }

    /// One-line report, mirrored on the `status` payload.
    pub fn report(&self) -> String {
        format!(
            "panics={} timeouts={} sheds={}",
            self.panics(),
            self.timeouts(),
            self.sheds()
        )
    }
}

/// Decrements the in-flight gauge on scope exit — including unwinds, so a
/// panicking handler cannot leak a phantom in-flight request.
struct InflightGuard<'a>(&'a AtomicU64);

impl<'a> InflightGuard<'a> {
    fn new(gauge: &'a AtomicU64) -> Self {
        gauge.fetch_add(1, Ordering::Relaxed);
        InflightGuard(gauge)
    }
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The shared, hot-swappable state every connection serves from.
#[derive(Debug)]
pub struct ServerState {
    cell: SwapCell<CorpusBundle>,
    jobs: Jobs,
    counters: VerbCounters,
    health: HealthCounters,
    inflight: AtomicU64,
    start: Instant,
    faults: Faults,
}

impl ServerState {
    /// Wraps an initial bundle (published as epoch 1) and the jobs width,
    /// with no fault schedule.
    pub fn new(bundle: CorpusBundle, jobs: Jobs) -> Self {
        ServerState::with_faults(bundle, jobs, Faults::disabled())
    }

    /// Like [`ServerState::new`], with a fault-injection schedule for the
    /// request paths (`reload.prepare` fires in [`ServerState::respond`];
    /// the connection points fire in the transport wrappers).
    fn with_faults(bundle: CorpusBundle, jobs: Jobs, faults: Faults) -> Self {
        ServerState {
            cell: SwapCell::new(bundle),
            jobs,
            counters: VerbCounters::default(),
            health: HealthCounters::default(),
            inflight: AtomicU64::new(0),
            start: Instant::now(),
            faults,
        }
    }

    /// The per-verb request counters.
    pub fn counters(&self) -> &VerbCounters {
        &self.counters
    }

    /// The degradation counters (panics / timeouts / sheds).
    pub fn health(&self) -> &HealthCounters {
        &self.health
    }

    /// The fault schedule this state was built with.
    pub fn faults(&self) -> &Faults {
        &self.faults
    }

    /// Requests currently being served (the `status` in-flight gauge).
    pub fn inflight(&self) -> u64 {
        self.inflight.load(Ordering::Relaxed)
    }

    /// The publication cell (for tests and admin tooling).
    pub fn cell(&self) -> &SwapCell<CorpusBundle> {
        &self.cell
    }

    /// The currently published epoch (lock-free).
    pub fn epoch(&self) -> u64 {
        self.cell.epoch()
    }

    /// The greeting line for a new connection, naming the snapshot it
    /// would currently be served from.
    pub fn greeting(&self) -> String {
        let snapshot = self.cell.read();
        protocol::greeting(
            snapshot.epoch(),
            snapshot.sigma().len(),
            snapshot.transformation().rules().len(),
        )
    }

    /// Serves one request against the current snapshot.  Errors become
    /// `err <wire-code> …` responses via the shared error table, and a
    /// panicking handler is contained to `err internal`: either way the
    /// connection stays usable.
    pub fn respond(&self, request: &Request, cache: &mut ScratchCache) -> Response {
        let _inflight = InflightGuard::new(&self.inflight);
        self.counters.bump(request);
        // `&mut ScratchCache` is not unwind-safe by default, but the panic
        // arm below discards the cache wholesale, so no torn scratch state
        // can ever be observed after an unwind.
        match catch_unwind(AssertUnwindSafe(|| self.try_respond(request, cache))) {
            Ok(Ok(response)) => response,
            Ok(Err(error)) => Response::error(&error),
            Err(_panic) => {
                self.health.bump_panic();
                *cache = ScratchCache::new();
                Response::error(&Error::internal(format!(
                    "request handler panicked serving `{}`",
                    request.verb()
                )))
            }
        }
    }

    fn try_respond(&self, request: &Request, cache: &mut ScratchCache) -> Result<Response, Error> {
        // One snapshot per request: every byte of the response comes from
        // this bundle, whatever `reload`s land meanwhile.
        let snapshot = self.cell.read();
        let epoch = snapshot.epoch();
        match request {
            Request::Ping => Ok(Response::ok("ping", epoch, "", String::new())),
            Request::Status => Ok(Response::ok(
                "status",
                epoch,
                &format!(
                    "keys={} rules={} jobs={} uptime={}s inflight={} served={}",
                    snapshot.sigma().len(),
                    snapshot.transformation().rules().len(),
                    self.jobs.get(),
                    self.start.elapsed().as_secs(),
                    self.inflight(),
                    self.counters.total()
                ),
                format!("{}\n{}\n", self.counters.report(), self.health.report()),
            )),
            Request::Quit => Ok(Response::ok("quit", epoch, "", String::new())),
            Request::Validate { document } => {
                let doc = parse_document(document)?;
                let scratch = cache.for_snapshot(&snapshot);
                let (ok, text) = render::validate_report(&snapshot, &doc, scratch);
                let verdict = if ok { "ok" } else { "fail" };
                Ok(Response::ok(
                    "validate",
                    epoch,
                    &format!("verdict={verdict}"),
                    text,
                ))
            }
            Request::Shred { document, relation } => {
                let doc = parse_document(document)?;
                let scratch = cache.for_snapshot(&snapshot);
                let (tuples, text) =
                    render::shred_report(&snapshot, &doc, scratch, relation.as_deref())?;
                Ok(Response::ok(
                    "shred",
                    epoch,
                    &format!("tuples={tuples}"),
                    text,
                ))
            }
            Request::Propagate { relation, fd } => {
                let fd = render::parse_fd(fd)?;
                let engine = render::require_rule(&snapshot, relation)?;
                let (all, text) = render::propagate_report(&engine.propagation_explained(&fd));
                let verdict = if all { "guaranteed" } else { "not-guaranteed" };
                Ok(Response::ok(
                    "propagate",
                    epoch,
                    &format!("verdict={verdict}"),
                    text,
                ))
            }
            Request::Cover { relation } => {
                let (fds, text) = render::cover_report(&snapshot, relation.as_deref())?;
                Ok(Response::ok("cover", epoch, &format!("fds={fds}"), text))
            }
            Request::Query { document, query } => {
                let doc = parse_document(document)?;
                let scratch = cache.for_snapshot(&snapshot);
                let (rows, text) = render::query_report(&snapshot, &doc, scratch, query)?;
                Ok(Response::ok("query", epoch, &format!("rows={rows}"), text))
            }
            Request::Reload { keys, rules } => {
                // A fault here models the preparation dying mid-way (OOM,
                // torn read of the new schema); the publish below never
                // ran, so readers keep the old epoch — torn reloads are
                // unobservable by construction.
                self.faults
                    .fire_io("reload.prepare")
                    .map_err(|e| Error::io(format!("reload preparation failed: {e}")))?;
                // Parse and prepare entirely off-lock; publish is a single
                // pointer store.  Concurrent readers keep their snapshots.
                let sigma = parse_keys_text(keys, "reload keys")?;
                let transformation = parse_rules_text(rules, "reload rules")?;
                let keys_len = sigma.len();
                let rules_len = transformation.rules().len();
                let bundle = CorpusBundle::prepare(sigma, transformation);
                let published = self.cell.publish(bundle);
                Ok(Response::ok(
                    "reload",
                    published,
                    &format!("keys={keys_len} rules={rules_len}"),
                    String::new(),
                ))
            }
            #[cfg(any(test, feature = "faultline"))]
            Request::Boom => panic!("deliberate `boom` panic (test verb)"),
        }
    }
}

fn parse_document(text: &str) -> Result<Document, Error> {
    Document::parse_str(text).map_err(|e| Error::parse("request document", e))
}

/// One connection's `(epoch, scratch)` cache; see the module docs.
#[derive(Debug, Default)]
pub struct ScratchCache {
    epoch: u64,
    scratch: Option<RequestScratch>,
}

impl ScratchCache {
    /// An empty cache (no scratch derived yet).
    pub fn new() -> Self {
        ScratchCache::default()
    }

    /// The scratch for `snapshot`'s bundle, re-derived iff the epoch moved
    /// since the last request on this connection.
    pub fn for_snapshot(&mut self, snapshot: &Published<CorpusBundle>) -> &mut RequestScratch {
        if self.scratch.is_none() || self.epoch != snapshot.epoch() {
            self.scratch = Some(snapshot.value().scratch());
            self.epoch = snapshot.epoch();
        }
        self.scratch.as_mut().expect("scratch derived above")
    }
}

/// The live connections, one entry each: admission caps them at the jobs
/// width, and shutdown reaches into their blocked reads (via
/// [`TcpStream::shutdown`]) and waits for them to drain.
#[derive(Debug)]
struct Connections {
    max: usize,
    live: Mutex<Live>,
    changed: Condvar,
}

/// The table behind [`Connections`]' lock.  A connection whose stream
/// could not be cloned still has an entry, so it is counted, but shutdown
/// cannot reach it.
#[derive(Debug, Default)]
struct Live {
    next: u64,
    streams: HashMap<u64, Option<TcpStream>>,
}

impl Connections {
    fn new(max: usize) -> Self {
        Connections {
            max,
            live: Mutex::new(Live::default()),
            changed: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Live> {
        self.live.lock().expect("connections lock")
    }

    /// Admits `stream` if a slot frees up within `wait`, returning its
    /// entry's id; `None` means saturated.
    fn admit(&self, stream: &TcpStream, wait: Duration) -> Option<u64> {
        let (mut live, _) = self
            .changed
            .wait_timeout_while(self.lock(), wait, |live| live.streams.len() >= self.max)
            .expect("connections lock");
        if live.streams.len() >= self.max {
            return None;
        }
        let id = live.next;
        live.next += 1;
        live.streams.insert(id, stream.try_clone().ok());
        Some(id)
    }

    fn release(&self, id: u64) {
        self.lock().streams.remove(&id);
        // notify_all: both the accept loop (waiting for one slot) and a
        // draining shutdown (waiting for zero) may be parked here.
        self.changed.notify_all();
    }

    /// Waits up to `timeout` for every connection to be released; `false`
    /// means connections were still live at expiry.
    fn wait_idle(&self, timeout: Duration) -> bool {
        let (live, _) = self
            .changed
            .wait_timeout_while(self.lock(), timeout, |live| !live.streams.is_empty())
            .expect("connections lock");
        live.streams.is_empty()
    }

    /// Shuts down `how` every live connection shutdown can reach, and
    /// returns how many that was.
    fn shutdown_all(&self, how: Shutdown) -> usize {
        let mut reached = 0;
        for stream in self.lock().streams.values().flatten() {
            let _ = stream.shutdown(how);
            reached += 1;
        }
        reached
    }
}

/// How a [`Server::shutdown`] drain went.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Every in-flight connection completed within the drain timeout.
    pub drained: bool,
    /// Connections force-closed at timeout (`0` when `drained`).
    pub forced: usize,
}

/// A bound, running server: accept loop on its own thread, one thread per
/// live connection (capped at the jobs width).
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    state: Arc<ServerState>,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    connections: Arc<Connections>,
    config: ServiceConfig,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral test port) and
    /// starts serving `bundle` over at most `jobs` concurrent connections,
    /// under the default [`ServiceConfig`] and no fault schedule.
    pub fn bind(addr: &str, bundle: CorpusBundle, jobs: Jobs) -> Result<Server, Error> {
        Server::bind_with(
            addr,
            bundle,
            jobs,
            ServiceConfig::default(),
            Faults::disabled(),
        )
    }

    /// [`Server::bind`] with an explicit timeout policy and fault
    /// schedule.  The schedule's `accept.conn` point tears connections at
    /// admission, `conn.read` / `conn.write` fire inside the per-connection
    /// transport, and `reload.prepare` fires in the reload handler.
    pub fn bind_with(
        addr: &str,
        bundle: CorpusBundle,
        jobs: Jobs,
        config: ServiceConfig,
        faults: Faults,
    ) -> Result<Server, Error> {
        let listener =
            TcpListener::bind(addr).map_err(|e| Error::io(format!("cannot bind `{addr}`: {e}")))?;
        let local = listener
            .local_addr()
            .map_err(|e| Error::io(format!("cannot resolve bound address: {e}")))?;
        let state = Arc::new(ServerState::with_faults(bundle, jobs, faults));
        let stop = Arc::new(AtomicBool::new(false));
        let connections = Arc::new(Connections::new(jobs.get()));
        let accept = {
            let state = Arc::clone(&state);
            let stop = Arc::clone(&stop);
            let connections = Arc::clone(&connections);
            std::thread::Builder::new()
                .name("xmlprop-accept".into())
                .spawn(move || accept_loop(listener, &state, &stop, &connections, config))
                .map_err(|e| Error::io(format!("cannot spawn accept thread: {e}")))?
        };
        Ok(Server {
            addr: local,
            state,
            stop,
            accept: Some(accept),
            connections,
            config,
        })
    }

    /// The address the server is actually listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state (for tests driving `respond` or `publish`
    /// directly).
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// The currently published bundle epoch.
    pub fn epoch(&self) -> u64 {
        self.state.epoch()
    }

    /// Graceful shutdown: stops accepting, nudges every live connection
    /// (read-shutdown: idle sessions see EOF, in-flight requests complete
    /// and flush their response), waits up to
    /// [`ServiceConfig::drain_timeout`] for the live connections to
    /// drain, then force-closes whatever remains.
    pub fn shutdown(mut self) -> DrainReport {
        self.stop_accepting();
        self.connections.shutdown_all(Shutdown::Read);
        let drained = self.connections.wait_idle(self.config.drain_timeout);
        let forced = if drained {
            0
        } else {
            self.connections.shutdown_all(Shutdown::Both)
        };
        DrainReport { drained, forced }
    }

    /// Blocks the calling thread for the server's lifetime (the CLI's
    /// foreground mode).  Returns only if the accept thread exits.
    pub fn join(mut self) {
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }

    fn stop_accepting(&mut self) {
        let Some(handle) = self.accept.take() else {
            return;
        };
        self.stop.store(true, Ordering::Release);
        // Poke the listener so the blocking accept observes the flag.
        let _ = TcpStream::connect(self.addr);
        let _ = handle.join();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Non-blocking teardown (shutdown() consumed by value is the
        // graceful path): stop accepting and nudge live connections, but
        // do not wait for the drain.
        self.stop_accepting();
        self.connections.shutdown_all(Shutdown::Read);
    }
}

fn accept_loop(
    listener: TcpListener,
    state: &Arc<ServerState>,
    stop: &AtomicBool,
    connections: &Arc<Connections>,
    config: ServiceConfig,
) {
    for stream in listener.incoming() {
        if stop.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // Best-effort: a socket that refuses it still serves, only slower.
        let _ = stream.set_nodelay(true);
        // `accept.conn` models a connection torn before service (peer
        // reset between accept and greeting).
        if state.faults().fire_io("accept.conn").is_err() {
            continue;
        }
        let Some(id) = connections.admit(&stream, config.shed_wait) else {
            state.health().bump_shed();
            shed(stream, connections.max);
            continue;
        };
        let state = Arc::clone(state);
        let live = Arc::clone(connections);
        let spawned = std::thread::Builder::new()
            .name("xmlprop-conn".into())
            .spawn(move || {
                let _ = handle_connection(stream, &state, config);
                live.release(id);
            });
        if spawned.is_err() {
            connections.release(id);
        }
    }
}

/// Sheds a connection the table could not admit: one `err overloaded` line
/// in greeting position (clients classify it through the shared wire-code
/// table), sent in one write under a short write timeout so a dead peer
/// cannot stall the accept thread.
fn shed(mut stream: TcpStream, max: usize) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let line = format!("err overloaded server at capacity ({max} connections); retry later\n");
    let _ = stream.write_all(line.as_bytes());
}

/// The read half of a connection with the timeout policy applied: each
/// read blocks at most [`ServiceConfig::read_timeout`], and the first byte
/// of a request arms a deadline that caps the whole request — a peer
/// trickling one byte per poll cannot stay under it.
#[derive(Debug)]
struct DeadlineStream {
    stream: TcpStream,
    read_timeout: Duration,
    request_deadline: Duration,
    deadline: Option<Instant>,
}

impl DeadlineStream {
    fn new(stream: TcpStream, config: &ServiceConfig) -> Self {
        DeadlineStream {
            stream,
            read_timeout: config.read_timeout,
            request_deadline: config.request_deadline,
            deadline: None,
        }
    }

    /// Disarms the request deadline; the session loop calls this between
    /// requests so idle time is governed by `read_timeout` alone.
    fn clear_deadline(&mut self) {
        self.deadline = None;
    }
}

impl Read for DeadlineStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let timeout = match self.deadline {
            None => self.read_timeout,
            Some(deadline) => {
                let remaining = deadline.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        format!("request deadline of {:?} exceeded", self.request_deadline),
                    ));
                }
                remaining.min(self.read_timeout)
            }
        };
        self.stream.set_read_timeout(Some(timeout))?;
        match self.stream.read(buf) {
            Ok(n) => {
                if n > 0 && self.deadline.is_none() {
                    // First byte of a request: the deadline clock starts.
                    self.deadline = Some(Instant::now() + self.request_deadline);
                }
                Ok(n)
            }
            // The platform reports a socket timeout as either kind;
            // normalise so the protocol layer classifies it once.
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    if self.deadline.is_some() {
                        "read timed out mid-request"
                    } else {
                        "idle connection timed out"
                    },
                ))
            }
            Err(e) => Err(e),
        }
    }
}

/// Serves one connection: greeting, then a request/response loop until
/// `quit`, EOF, or a framing error (framing errors get an `err` response
/// and close the connection; request-level errors keep it open).  The
/// transport is the hardened stack: deadline-governed reads, write
/// timeouts, and the connection-level fault points.  Every message is
/// encoded into the connection's one `out` buffer and sent with a single
/// `write_all` (see the module docs' framing discipline).
fn handle_connection(
    stream: TcpStream,
    state: &ServerState,
    config: ServiceConfig,
) -> std::io::Result<()> {
    stream.set_write_timeout(Some(config.write_timeout))?;
    let read_half = stream.try_clone()?;
    let mut reader = BufReader::new(FaultStream::new(
        DeadlineStream::new(read_half, &config),
        state.faults().clone(),
        "conn.read",
        "conn.write",
    ));
    let mut writer = FaultStream::new(stream, state.faults().clone(), "conn.read", "conn.write");
    let mut out = state.greeting().into_bytes();
    out.push(b'\n');
    writer.write_all(&out)?;
    let mut cache = ScratchCache::new();
    loop {
        reader.get_mut().get_mut().clear_deadline();
        match Request::read_from(&mut reader) {
            Ok(None) => return Ok(()),
            Ok(Some(request)) => {
                let quit = request == Request::Quit;
                let response = state.respond(&request, &mut cache);
                out.clear();
                response.write_to(&mut out)?;
                writer.write_all(&out)?;
                if quit {
                    return Ok(());
                }
            }
            Err(error) => {
                if error.kind() == ErrorKind::Timeout {
                    state.health().bump_timeout();
                }
                // Framing is broken or the peer blew a deadline; answer
                // once (best-effort) and hang up.
                out.clear();
                Response::error(&error).write_to(&mut out)?;
                let _ = writer.write_all(&out);
                return Ok(());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlprop_pipeline::{parse_keys_text, parse_rules_text};

    const KEYS: &str = "K1: (ε, (//book, {@isbn}))\n";
    const RULES: &str = "rule book(isbn) { xb := xr//book; xi := xb/@isbn; isbn := value(xi); }\n";

    fn bundle() -> CorpusBundle {
        CorpusBundle::prepare(
            parse_keys_text(KEYS, "keys").unwrap(),
            parse_rules_text(RULES, "rules").unwrap(),
        )
    }

    #[test]
    fn respond_tags_every_ok_with_the_serving_epoch() {
        let state = ServerState::new(bundle(), Jobs::default());
        let mut cache = ScratchCache::new();
        let resp = state.respond(&Request::Ping, &mut cache);
        assert_eq!(resp.header, "ok ping bundle=1");
        let resp = state.respond(
            &Request::Reload {
                keys: KEYS.into(),
                rules: RULES.into(),
            },
            &mut cache,
        );
        assert_eq!(resp.header, "ok reload bundle=2 keys=1 rules=1");
        let resp = state.respond(&Request::Ping, &mut cache);
        assert_eq!(resp.header, "ok ping bundle=2");
    }

    #[test]
    fn request_errors_keep_the_session_usable() {
        let state = ServerState::new(bundle(), Jobs::default());
        let mut cache = ScratchCache::new();
        let resp = state.respond(
            &Request::Validate {
                document: "<unclosed".into(),
            },
            &mut cache,
        );
        assert!(resp.is_err());
        assert_eq!(resp.wire_code(), Some("parse"));
        let resp = state.respond(
            &Request::Cover {
                relation: Some("nope".into()),
            },
            &mut cache,
        );
        assert_eq!(resp.wire_code(), Some("relation"));
        assert!(resp.header.contains("no rule for relation `nope`"));
        // Still serving fine afterwards.
        let resp = state.respond(&Request::Status, &mut cache);
        assert!(resp.header.starts_with("ok status bundle=1 "));
    }

    #[test]
    fn status_reports_per_verb_counters_and_counts_itself() {
        let state = ServerState::new(bundle(), Jobs::default());
        let mut cache = ScratchCache::new();
        state.respond(&Request::Ping, &mut cache);
        state.respond(&Request::Ping, &mut cache);
        let resp = state.respond(&Request::Status, &mut cache);
        assert_eq!(
            resp.header,
            format!(
                "ok status bundle=1 keys=1 rules=1 jobs={} uptime=0s inflight=1 served=3",
                Jobs::default().get()
            )
        );
        assert_eq!(
            resp.payload,
            "ping=2 status=1 validate=0 shred=0 propagate=0 cover=0 query=0 reload=0 quit=0\n\
             panics=0 timeouts=0 sheds=0\n"
        );
        assert_eq!(state.counters().total(), 3);
        assert_eq!(state.counters().get(&Request::Ping), 2);
        assert_eq!(state.inflight(), 0, "gauge drains after each request");
        // Errors are served requests too: the bump happens at entry.
        state.respond(
            &Request::Validate {
                document: "<unclosed".into(),
            },
            &mut cache,
        );
        assert_eq!(
            state.counters().get(&Request::Validate {
                document: String::new()
            }),
            1
        );

        // Every verb, in protocol order, through the wire and the handler.
        let state = ServerState::new(bundle(), Jobs::default());
        let doc = "<db><book isbn=\"1\"/></db>".to_string();
        let requests = [
            Request::Ping,
            Request::Status,
            Request::Validate {
                document: doc.clone(),
            },
            Request::Shred {
                document: doc.clone(),
                relation: None,
            },
            Request::Propagate {
                relation: "book".into(),
                fd: "isbn -> isbn".into(),
            },
            Request::Cover { relation: None },
            Request::Query {
                document: doc,
                query: "select isbn from book".into(),
            },
            Request::Reload {
                keys: KEYS.into(),
                rules: RULES.into(),
            },
            Request::Quit,
        ];
        for (i, request) in requests.iter().enumerate() {
            let mut wire = Vec::new();
            request.write_to(&mut wire).unwrap();
            let read = Request::read_from(&mut wire.as_slice()).unwrap().unwrap();
            assert_eq!(&read, request);
            assert_eq!((read.verb_index(), read.verb()), (i, VERBS[i]));
            let resp = state.respond(&read, &mut cache);
            assert!(
                resp.header.starts_with(&format!("ok {} ", VERBS[i])),
                "{}",
                resp.header
            );
        }
        let resp = state.respond(&Request::Status, &mut cache);
        assert!(resp.header.ends_with(" served=10"), "{}", resp.header);
        let line = resp.payload.lines().next().unwrap();
        let named: Vec<(&str, &str)> = line
            .split(' ')
            .map(|pair| pair.split_once('=').unwrap())
            .collect();
        let expected: Vec<(&str, &str)> = VERBS
            .iter()
            .map(|&verb| (verb, if verb == "status" { "2" } else { "1" }))
            .collect();
        assert_eq!(named, expected, "each verb once, in protocol order");
    }

    #[test]
    fn handler_panics_are_contained_to_err_internal() {
        let state = ServerState::new(bundle(), Jobs::default());
        let mut cache = ScratchCache::new();
        let resp = state.respond(&Request::Boom, &mut cache);
        assert!(resp.is_err());
        assert_eq!(resp.wire_code(), Some("internal"));
        assert!(resp.header.contains("`boom`"), "{}", resp.header);
        assert_eq!(state.health().panics(), 1);
        assert_eq!(state.inflight(), 0, "unwind releases the gauge");
        // `boom` never skews the published totals or the golden report.
        assert_eq!(state.counters().total(), 0);
        assert!(!state.counters().report().contains("boom"));
        assert_eq!(state.counters().get(&Request::Boom), 1);
        // The very next request on the same connection state succeeds.
        let resp = state.respond(&Request::Ping, &mut cache);
        assert_eq!(resp.header, "ok ping bundle=1");
        let resp = state.respond(
            &Request::Validate {
                document: "<db><book isbn=\"1\"/></db>".into(),
            },
            &mut cache,
        );
        assert!(resp.header.starts_with("ok validate bundle=1"));
    }

    #[test]
    fn connections_shed_when_saturated_and_report_idle() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let streams: Vec<TcpStream> = (0..3).map(|_| TcpStream::connect(addr).unwrap()).collect();
        let connections = Arc::new(Connections::new(2));
        let (short, long) = (Duration::from_millis(10), Duration::from_secs(10));
        let a = connections.admit(&streams[0], short).unwrap();
        let b = connections.admit(&streams[1], short).unwrap();
        assert_ne!(a, b);
        assert!(connections.admit(&streams[2], short).is_none(), "saturated");
        assert!(!connections.wait_idle(short), "still live");
        // A release wakes an admission that is waiting for a slot.
        let releaser = {
            let connections = Arc::clone(&connections);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                connections.release(a);
            })
        };
        let c = connections.admit(&streams[2], long).expect("slot freed");
        releaser.join().unwrap();
        assert_eq!(connections.shutdown_all(Shutdown::Read), 2);
        // An entry without a stream clone is counted but unreachable.
        connections.release(b);
        connections.lock().streams.insert(u64::MAX, None);
        assert!(connections.admit(&streams[0], short).is_none(), "counted");
        assert_eq!(connections.shutdown_all(Shutdown::Read), 1);
        connections.release(u64::MAX);
        connections.release(c);
        assert!(connections.wait_idle(short));
        assert_eq!(connections.shutdown_all(Shutdown::Both), 0);
    }

    #[test]
    fn reload_faults_fail_the_request_but_never_publish() {
        let faults = Faults::parse("reload.prepare=100%error", 7).unwrap();
        let state = ServerState::with_faults(bundle(), Jobs::default(), faults);
        let mut cache = ScratchCache::new();
        let resp = state.respond(
            &Request::Reload {
                keys: KEYS.into(),
                rules: RULES.into(),
            },
            &mut cache,
        );
        assert_eq!(resp.wire_code(), Some("io"));
        assert_eq!(state.epoch(), 1, "failed reload must not tick the epoch");
        let resp = state.respond(&Request::Ping, &mut cache);
        assert_eq!(resp.header, "ok ping bundle=1", "old bundle still serves");
    }

    #[test]
    fn scratch_cache_rederives_on_epoch_change() {
        let state = ServerState::new(bundle(), Jobs::default());
        let mut cache = ScratchCache::new();
        let snap1 = state.cell().read();
        let _ = cache.for_snapshot(&snap1);
        assert_eq!(cache.epoch, 1);
        state.cell().publish(bundle());
        let snap2 = state.cell().read();
        let _ = cache.for_snapshot(&snap2);
        assert_eq!(cache.epoch, 2);
    }

    #[test]
    fn tcp_round_trip_serves_and_shuts_down() {
        use std::io::BufRead;
        let server = Server::bind("127.0.0.1:0", bundle(), Jobs::default()).unwrap();
        let addr = server.local_addr();
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut greeting = String::new();
        reader.read_line(&mut greeting).unwrap();
        assert_eq!(
            greeting.trim_end(),
            "xmlprop/1 ready bundle=1 keys=1 rules=1"
        );
        let mut writer = stream;
        Request::Ping.write_to(&mut writer).unwrap();
        writer.flush().unwrap();
        let resp = Response::read_from(&mut reader).unwrap().unwrap();
        assert_eq!(resp.header, "ok ping bundle=1");
        Request::Quit.write_to(&mut writer).unwrap();
        writer.flush().unwrap();
        let resp = Response::read_from(&mut reader).unwrap().unwrap();
        assert_eq!(resp.header, "ok quit bundle=1");
        assert!(
            Response::read_from(&mut reader).unwrap().is_none(),
            "hung up"
        );
        let report = server.shutdown();
        assert!(report.drained);
        assert_eq!(report.forced, 0);
    }

    #[test]
    fn slow_request_hits_the_deadline_not_the_thread() {
        use std::io::BufRead;
        let config = ServiceConfig {
            read_timeout: Duration::from_millis(200),
            request_deadline: Duration::from_millis(120),
            ..ServiceConfig::default()
        };
        let server = Server::bind_with(
            "127.0.0.1:0",
            bundle(),
            Jobs::default(),
            config,
            Faults::disabled(),
        )
        .unwrap();
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut greeting = String::new();
        reader.read_line(&mut greeting).unwrap();
        // Slow-loris: start a request header, then trickle bytes slower
        // than the deadline.  Each write lands within the read timeout,
        // so only the per-request deadline can catch this.
        let mut writer = stream;
        writer.write_all(b"vali").unwrap();
        writer.flush().unwrap();
        let start = Instant::now();
        let response = loop {
            if start.elapsed() > Duration::from_secs(10) {
                panic!("server never enforced the request deadline");
            }
            if writer.write_all(b" ").is_err() {
                // Server already hung up on us; read what it said.
                break Response::read_from(&mut reader).unwrap();
            }
            std::thread::sleep(Duration::from_millis(40));
            // Peek for the err response without blocking forever.
            let buf = reader.fill_buf().unwrap_or(&[]);
            if !buf.is_empty() {
                break Response::read_from(&mut reader).unwrap();
            }
        };
        let response = response.expect("server answers before closing");
        assert_eq!(response.wire_code(), Some("timeout"), "{}", response.header);
        assert!(server.state().health().timeouts() >= 1);
        server.shutdown();
    }

    #[test]
    fn saturated_gate_sheds_with_err_overloaded() {
        use std::io::BufRead;
        let config = ServiceConfig {
            shed_wait: Duration::from_millis(50),
            ..ServiceConfig::default()
        };
        let server = Server::bind_with(
            "127.0.0.1:0",
            bundle(),
            Jobs::new(1).unwrap(),
            config,
            Faults::disabled(),
        )
        .unwrap();
        let addr = server.local_addr();
        // First connection holds the only slot.
        let holder = TcpStream::connect(addr).unwrap();
        let mut holder_reader = BufReader::new(holder.try_clone().unwrap());
        let mut line = String::new();
        holder_reader.read_line(&mut line).unwrap();
        assert!(line.starts_with("xmlprop/1 ready"));
        // Second connection must be shed, not queued forever.
        let second = TcpStream::connect(addr).unwrap();
        let mut second_reader = BufReader::new(second);
        let mut line = String::new();
        second_reader.read_line(&mut line).unwrap();
        assert!(
            line.starts_with("err overloaded "),
            "expected a shed, got `{line}`"
        );
        assert_eq!(server.state().health().sheds(), 1);
        drop(holder_reader);
        drop(holder);
        server.shutdown();
    }
}
