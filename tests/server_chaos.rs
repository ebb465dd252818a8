//! Chaos: the server under a seeded fault schedule.
//!
//! The property this file pins is the PR's central robustness claim:
//! with faults injected at every transport seam (`accept.conn` tears
//! connections at admission, `conn.read` / `conn.write` disconnect,
//! delay and fragment mid-stream), concurrent clients hammering
//! validate/shred/propagate/cover across **live reloads** still observe
//! a correct service —
//!
//! * the server never dies: requests keep completing, no handler panic
//!   is ever recorded, and shutdown still drains;
//! * epochs are monotonic per client, reconnects included;
//! * every *completed* `ok` response is byte-identical to what the
//!   shared renderer produces for the bundle epoch it claims;
//! * failures only ever surface as transport-shaped errors (`io`,
//!   `timeout`, `protocol`, `overloaded`) — never as wrong bytes.
//!
//! The schedule is deterministic per seed ([`Faults::parse`]), so a
//! failing case replays exactly.  The reloads republish the same
//! keys/rules text, which keeps the oracle payloads epoch-independent
//! while still exercising the full parse→prepare→publish path under
//! load.
//!
//! A separate test drives the panic-isolation path end-to-end: a
//! `handle.cover=100%panic` schedule makes every `cover` handler panic,
//! which yields `err internal`, and the same connection and a fresh one
//! keep serving.

use proptest::prelude::*;
use std::fs;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xmlprop::pipeline::{parse_keys_text, parse_rules_text, CorpusBundle, Faults, Jobs};
use xmlprop::prelude::{Document, PreparedState};
use xmlprop::server::{render, Client, ClientConfig, Request, Response, Server, ServiceConfig};

fn data(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("examples/data")
        .join(name)
}

fn read(name: &str) -> String {
    fs::read_to_string(data(name)).unwrap()
}

fn book_bundle(keys_text: &str, rules_text: &str) -> CorpusBundle {
    CorpusBundle::prepare(
        parse_keys_text(keys_text, "keys").unwrap(),
        parse_rules_text(rules_text, "rules").unwrap(),
    )
}

/// Fast-retry client policy for fault-heavy runs: the defaults' backoff
/// would dominate the test's wall clock.
fn chaos_client_config() -> ClientConfig {
    ClientConfig {
        connect_timeout: Duration::from_secs(5),
        retries: 5,
        backoff: Duration::from_millis(2),
    }
}

/// Connects, absorbing admission-torn connections (`accept.conn` faults
/// kill some attempts before the greeting) up to `deadline`.
fn connect_retry(addr: SocketAddr, deadline: Instant) -> Client {
    loop {
        match Client::connect_with(addr, chaos_client_config()) {
            Ok(client) => return client,
            Err(e) => assert!(
                Instant::now() < deadline,
                "could not connect before the deadline: {e}"
            ),
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// The renderer-derived expected responses, one per chaos verb.  Reloads
/// republish identical keys/rules, so these are valid at every epoch —
/// only the `bundle=<epoch>` tag in the header varies.
struct Oracle {
    requests: Vec<Request>,
    /// `(verb, extra, payload)` for each request, in the same order.
    expected: Vec<(&'static str, String, String)>,
}

impl Oracle {
    fn new(keys_text: &str, rules_text: &str, doc_text: &str) -> Oracle {
        let bundle = book_bundle(keys_text, rules_text);
        let doc = Document::parse_str(doc_text).unwrap();
        let mut scratch = bundle.scratch();

        let (v_ok, v_text) = render::validate_report(&bundle, &doc, &mut scratch);
        assert!(v_ok, "fig1.xml satisfies the book keys");
        let (tuples, s_text) =
            render::shred_report(&bundle, &doc, &mut scratch, Some("chapter")).unwrap();
        let fd = render::parse_fd("inBook, number -> name").unwrap();
        let engine = render::require_rule(&bundle, "chapter").unwrap();
        let (p_all, p_text) = render::propagate_report(&engine.propagation_explained(&fd));
        assert!(p_all, "the chapter FD is propagated");
        let (fds, c_text) = render::cover_report(&bundle, Some("U")).unwrap();

        Oracle {
            requests: vec![
                Request::Validate {
                    document: doc_text.to_string(),
                },
                Request::Shred {
                    document: doc_text.to_string(),
                    relation: Some("chapter".into()),
                },
                Request::Propagate {
                    relation: "chapter".into(),
                    fd: "inBook, number -> name".into(),
                },
                Request::Cover {
                    relation: Some("U".into()),
                },
            ],
            expected: vec![
                ("validate", "verdict=ok".into(), v_text),
                ("shred", format!("tuples={tuples}"), s_text),
                ("propagate", "verdict=guaranteed".into(), p_text),
                ("cover", format!("fds={fds}"), c_text),
            ],
        }
    }

    /// The exact response the `i`-th request must produce at `epoch`.
    fn response(&self, i: usize, epoch: u64) -> Response {
        let (verb, extra, payload) = &self.expected[i % self.expected.len()];
        Response::ok(verb, epoch, extra, payload.clone())
    }
}

/// Wire codes a fault is allowed to surface as.  Anything else — a wrong
/// payload, `internal`, a request-level diagnostic — is a real bug.
fn transport_shaped(code: Option<&str>) -> bool {
    matches!(code, Some("io" | "timeout" | "protocol" | "overloaded"))
}

fn chaos_round(seed: u64) {
    const CLIENTS: usize = 3;
    const REQUESTS: usize = 32;
    const RELOADS: u64 = 3;

    let keys_text = read("book_keys.txt");
    let rules_text = read("book_rules.txt");
    let doc_text = read("fig1.xml");
    let oracle = Oracle::new(&keys_text, &rules_text, &doc_text);

    // Every transport seam is on the schedule; rates are low enough that
    // most requests complete, high enough that every client suffers.
    let faults = Faults::parse(
        "accept.conn=6%error,conn.read=5%disconnect,conn.read=4%delay:1,\
         conn.write=5%disconnect,conn.write=10%short:8",
        seed,
    )
    .unwrap();
    let server = Server::bind_with(
        "127.0.0.1:0",
        book_bundle(&keys_text, &rules_text),
        Jobs::new(8).unwrap(),
        ServiceConfig::default(),
        faults,
    )
    .unwrap();
    let state = Arc::clone(server.state());
    let addr = server.local_addr();
    let deadline = Instant::now() + Duration::from_secs(60);

    std::thread::scope(|scope| {
        let mut workers = Vec::new();
        for worker in 0..CLIENTS {
            let oracle = &oracle;
            workers.push(scope.spawn(move || {
                let mut client = connect_retry(addr, deadline);
                let mut last_epoch = 0u64;
                let mut completed = 0usize;
                for i in 0..REQUESTS {
                    let request = &oracle.requests[i % oracle.requests.len()];
                    match client.send(request) {
                        Ok(resp) if !resp.is_err() => {
                            let epoch = resp.epoch().expect("ok responses carry bundle=<epoch>");
                            assert!(
                                epoch >= last_epoch,
                                "worker {worker}: epoch went backwards ({last_epoch} -> {epoch})"
                            );
                            let expected = oracle.response(i, epoch);
                            assert_eq!(
                                resp.header, expected.header,
                                "worker {worker}: header diverges at epoch {epoch}"
                            );
                            assert_eq!(
                                resp.payload, expected.payload,
                                "worker {worker}: payload diverges at epoch {epoch}"
                            );
                            last_epoch = epoch;
                            completed += 1;
                        }
                        Ok(resp) => {
                            // A server-completed error: the only legal
                            // causes are injected transport faults.
                            assert!(
                                transport_shaped(resp.wire_code()),
                                "worker {worker}: unexpected error response `{}`",
                                resp.header
                            );
                            client = connect_retry(addr, deadline);
                        }
                        Err(e) => {
                            use xmlprop::ErrorKind;
                            assert!(
                                matches!(
                                    e.kind(),
                                    ErrorKind::Io | ErrorKind::Timeout | ErrorKind::Overloaded
                                ),
                                "worker {worker}: unexpected client failure: {e}"
                            );
                            client = connect_retry(addr, deadline);
                        }
                    }
                }
                completed
            }));
        }

        // The admin publishes identical bundles while workers are
        // mid-flight.  Reloads are never retried by the client (a retry
        // could double-publish), so under faults the admin must requery
        // the epoch and decide for itself whether the publish landed.
        let mut admin = connect_retry(addr, deadline);
        let mut epoch = 1u64;
        while epoch < 1 + RELOADS {
            assert!(
                Instant::now() < deadline,
                "admin: could not land {RELOADS} reloads before the deadline (epoch {epoch})"
            );
            match admin.send(&Request::Reload {
                keys: keys_text.clone(),
                rules: rules_text.clone(),
            }) {
                Ok(resp) if !resp.is_err() => {
                    let published = resp.epoch().expect("ok reload carries bundle=<epoch>");
                    assert!(
                        published > epoch,
                        "admin: reload published a stale epoch ({epoch} -> {published})"
                    );
                    epoch = published;
                }
                outcome => {
                    if let Ok(resp) = outcome {
                        assert!(
                            transport_shaped(resp.wire_code()),
                            "admin: unexpected reload error `{}`",
                            resp.header
                        );
                    }
                    // The reload may or may not have been applied before
                    // the connection tore; ping (retried) reveals where
                    // the epoch actually is.
                    admin = connect_retry(addr, deadline);
                    if let Ok(resp) = admin.send(&Request::Ping) {
                        if let Some(current) = resp.epoch() {
                            epoch = epoch.max(current);
                        }
                    }
                }
            }
            std::thread::sleep(Duration::from_millis(5));
        }

        for (worker, handle) in workers.into_iter().enumerate() {
            let completed = handle.join().expect("worker panicked");
            assert!(
                completed >= REQUESTS / 2,
                "worker {worker}: only {completed}/{REQUESTS} requests completed — \
                 the service degraded far beyond the injected fault rate"
            );
        }
    });

    // The server survived: it still drains, epochs moved forward, and no
    // handler panic was ever recorded.
    server.shutdown();
    assert!(state.epoch() > RELOADS, "final epoch {}", state.epoch());
    assert_eq!(
        state.health().panics(),
        0,
        "no handler may panic under faults"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 3, ..ProptestConfig::default() })]

    /// Seeded chaos: see [`chaos_round`].  Three seeds per run; each
    /// schedule is deterministic, so failures replay.
    #[test]
    fn concurrent_clients_stay_correct_across_reloads_under_faults(seed in 0u64..1_000_000) {
        chaos_round(seed);
    }
}

#[test]
fn scheduled_handler_panics_yield_err_internal_and_the_service_keeps_serving() {
    let keys_text = read("book_keys.txt");
    let rules_text = read("book_rules.txt");
    let doc_text = read("fig1.xml");
    let server = Server::bind_with(
        "127.0.0.1:0",
        book_bundle(&keys_text, &rules_text),
        Jobs::new(4).unwrap(),
        ServiceConfig::default(),
        Faults::parse("handle.cover=100%panic", 0).unwrap(),
    )
    .unwrap();
    let addr = server.local_addr();

    let mut client = Client::connect(addr).unwrap();
    let resp = client.send(&Request::Cover { relation: None }).unwrap();
    assert!(
        resp.is_err(),
        "the panicking cover must fail: {}",
        resp.header
    );
    assert_eq!(resp.wire_code(), Some("internal"));
    assert!(
        resp.header.contains("panicked"),
        "the diagnostic names the panic: {}",
        resp.header
    );
    assert_eq!(server.state().health().panics(), 1);

    // Panic isolation keeps the *same* connection serving...
    let ping = client.send(&Request::Ping).unwrap();
    assert!(
        !ping.is_err(),
        "session died after the panic: {}",
        ping.header
    );

    // ...and a fresh connection works end to end.
    let mut fresh = Client::connect(addr).unwrap();
    let resp = fresh
        .send(&Request::Validate {
            document: doc_text.clone(),
        })
        .unwrap();
    assert_eq!(resp.epoch(), Some(1));
    assert!(resp.header.contains("verdict=ok"), "{}", resp.header);
    let oracle = Oracle::new(&keys_text, &rules_text, &doc_text);
    assert_eq!(resp.payload, oracle.expected[0].2, "validate bytes");

    let report = server.shutdown();
    assert!(report.drained, "idle sessions drain cleanly");
}
