//! Adversarial clients against a live server: protocol fuzz, slow-loris,
//! overload shedding and graceful drain — the degradation guarantees of
//! the README's robustness table, driven over real TCP.
//!
//! The fuzz property: whatever bytes a client writes — random garbage,
//! truncated frames, oversized length headers, a disconnect mid-body —
//! the server answers with an `err …` response or closes the connection
//! cleanly, never hangs past its timeouts, never panics, and keeps
//! serving well-formed clients afterwards.

use proptest::prelude::*;
use std::fs;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::path::PathBuf;
use std::time::Duration;
use xmlprop::pipeline::{parse_keys_text, parse_rules_text, CorpusBundle, Faults, Jobs};
use xmlprop::server::{Client, Request, Server, ServiceConfig};
use xmlprop::ErrorKind;

fn data(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("examples/data")
        .join(name);
    fs::read_to_string(path).unwrap()
}

fn book_bundle() -> CorpusBundle {
    CorpusBundle::prepare(
        parse_keys_text(&data("book_keys.txt"), "keys").unwrap(),
        parse_rules_text(&data("book_rules.txt"), "rules").unwrap(),
    )
}

/// Writes `bytes` to a fresh connection, half-closes the write side and
/// drains whatever the server answers (bounded by a read timeout so a
/// hung server fails the test instead of wedging it).  Returns the
/// server's output as text.
fn fuzz_once(addr: std::net::SocketAddr, bytes: &[u8]) -> String {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut write_half = stream.try_clone().unwrap();
    // The write may legitimately fail midway: the server is allowed to
    // slam the door on garbage before we finish sending it.
    let _ = write_half.write_all(bytes);
    let _ = write_half.flush();
    let _ = stream.shutdown(Shutdown::Write);

    let mut out = Vec::new();
    let mut reader = stream;
    let mut buf = [0u8; 4096];
    loop {
        match reader.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => out.extend_from_slice(&buf[..n]),
            Err(e) => panic!("server neither answered nor hung up: {e}"),
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Every fuzz session must look like: the greeting, then at most one
/// `err …` response (the server closes after a protocol error), then
/// EOF.  Garbage never earns an `ok`.
fn assert_rejected(transcript: &str) {
    let mut lines = transcript.lines();
    let greeting = lines.next().expect("the greeting always arrives");
    assert!(
        greeting.starts_with("xmlprop/"),
        "unexpected greeting `{greeting}`"
    );
    if let Some(first) = lines.next() {
        assert!(
            first.starts_with("err "),
            "garbage earned a non-error response: `{first}`"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Random bytes, truncated frames, oversized headers and mid-body
    /// disconnects: always `err …` or a clean close, and the server keeps
    /// serving a well-formed client afterwards.
    #[test]
    fn fuzzed_sessions_are_rejected_and_the_server_survives(
        mode in 0usize..4,
        garbage in proptest::collection::vec(0u8..=255, 1..160),
        declared in 1usize..4096,
    ) {
        let server = Server::bind("127.0.0.1:0", book_bundle(), Jobs::new(4).unwrap()).unwrap();
        let addr = server.local_addr();

        let bytes: Vec<u8> = match mode {
            // Raw garbage; '\n' and lowercase bytes remapped so no random
            // line can spell a valid lowercase verb — anything else would
            // make "garbage never earns an ok" flaky by design.
            0 => garbage
                .iter()
                .map(|&b| if b == b'\n' || b.is_ascii_lowercase() { b'#' } else { b })
                .chain(*b"\n")
                .collect(),
            // An oversized length header: rejected before allocation.
            1 => format!("validate {}\n", usize::MAX / 2).into_bytes(),
            // A truncated frame: the header promises more body bytes than
            // ever arrive before the disconnect.
            2 => {
                let body = &garbage[..garbage.len().min(declared.saturating_sub(1))];
                let mut b = format!("validate {declared}\n").into_bytes();
                b.extend_from_slice(body);
                b
            }
            // A torn request line: no terminating newline, then EOF.
            _ => b"cover ".to_vec(),
        };

        let transcript = fuzz_once(addr, &bytes);
        assert_rejected(&transcript);

        // The server survived: a well-formed session still works.
        let mut client = Client::connect(addr).unwrap();
        let resp = client.send(&Request::Ping).unwrap();
        prop_assert!(!resp.is_err(), "ping after fuzz failed: {}", resp.header);
        prop_assert_eq!(resp.epoch(), Some(1));
        prop_assert_eq!(server.state().health().panics(), 0);
        server.shutdown();
    }
}

#[test]
fn slow_loris_requests_time_out_with_err_timeout_over_tcp() {
    let config = ServiceConfig {
        io_timeout: Duration::from_millis(200),
        request_deadline: Duration::from_millis(150),
        ..ServiceConfig::default()
    };
    let server = Server::bind_with(
        "127.0.0.1:0",
        book_bundle(),
        Jobs::new(4).unwrap(),
        config,
        Faults::disabled(),
    )
    .unwrap();

    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // Start a request, then trickle bytes slower than the deadline allows.
    stream.write_all(b"vali").unwrap();
    for _ in 0..10 {
        std::thread::sleep(Duration::from_millis(40));
        if stream.write_all(b" ").is_err() {
            break; // the server already gave up on us — that's the point
        }
    }

    let mut out = String::new();
    stream.read_to_string(&mut out).unwrap();
    let err_line = out
        .lines()
        .find(|l| l.starts_with("err "))
        .unwrap_or_else(|| panic!("no error response in transcript:\n{out}"));
    assert!(
        err_line.starts_with("err timeout "),
        "slow-loris must surface as a timeout: `{err_line}`"
    );
    assert!(server.state().health().timeouts() >= 1);

    // The thread was reclaimed, not wedged: a fast client still gets through.
    let mut client = Client::connect(server.local_addr()).unwrap();
    assert!(!client.send(&Request::Ping).unwrap().is_err());
    server.shutdown();
}

#[test]
fn saturated_server_sheds_with_err_overloaded_and_the_client_classifies_it() {
    let config = ServiceConfig {
        shed_wait: Duration::from_millis(50),
        ..ServiceConfig::default()
    };
    let server = Server::bind_with(
        "127.0.0.1:0",
        book_bundle(),
        Jobs::new(1).unwrap(),
        config,
        Faults::disabled(),
    )
    .unwrap();

    // The single slot is held by a live session...
    let _holder = Client::connect(server.local_addr()).unwrap();
    // ...so the next connection is shed, and the client surfaces it as
    // the typed Overloaded error straight from the greeting line.
    let err = Client::connect(server.local_addr()).expect_err("the second connection must be shed");
    assert_eq!(err.kind(), ErrorKind::Overloaded, "{err}");
    assert!(err.to_string().contains("capacity"), "{err}");
    assert_eq!(server.state().health().sheds(), 1);

    drop(_holder);
    let report = server.shutdown();
    assert!(report.drained, "the held session drains once dropped");
}

#[test]
fn graceful_shutdown_drains_idle_sessions() {
    let server = Server::bind("127.0.0.1:0", book_bundle(), Jobs::new(4).unwrap()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    assert!(!client.send(&Request::Ping).unwrap().is_err());

    let report = server.shutdown();
    assert!(report.drained, "idle sessions must not require force");
    assert_eq!(report.forced, 0);

    // The drained client sees a dead transport, not a half-answered
    // request.
    let err = client.send(&Request::Reload {
        keys: String::new(),
        rules: String::new(),
    });
    assert!(err.is_err(), "requests after shutdown must fail");
}
