//! The transport's framing rule, checked over real loopback TCP: every
//! `xmlprop/1` message leaves its sender in one write on a `TCP_NODELAY`
//! socket, so no round trip waits on Nagle's algorithm for the peer's
//! delayed ACK.
//!
//! A message split over several small writes stalls about 40 ms per round
//! trip on Linux loopback (the delayed-ACK timer).  The 110 sequential
//! requests below would then take more than 4 s; framed correctly they
//! take a few milliseconds each even in a debug build.

use std::fs;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use xmlprop::pipeline::{parse_keys_text, parse_rules_text, CorpusBundle, Jobs};
use xmlprop::server::{Client, Request, Server};

fn data(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("examples/data")
        .join(name);
    fs::read_to_string(path).unwrap()
}

#[test]
fn sequential_round_trips_never_wait_on_delayed_acks() {
    let bundle = CorpusBundle::prepare(
        parse_keys_text(&data("book_keys.txt"), "keys").unwrap(),
        parse_rules_text(&data("book_rules.txt"), "rules").unwrap(),
    );
    let server = Server::bind("127.0.0.1:0", bundle, Jobs::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let document = data("fig1.xml");
    let fds = ["inBook, number -> name", "number -> name"];
    let relations = ["book", "chapter", "section", "U"];
    let mut requests = Vec::new();
    for i in 0..50 {
        requests.push(Request::Propagate {
            relation: "chapter".into(),
            fd: fds[i % fds.len()].into(),
        });
    }
    for i in 0..50 {
        requests.push(Request::Cover {
            relation: Some(relations[i % relations.len()].into()),
        });
    }
    for _ in 0..10 {
        requests.push(Request::Shred {
            document: document.clone(),
            relation: None,
        });
    }

    let start = Instant::now();
    for request in &requests {
        let response = client.send(request).unwrap();
        assert!(
            response
                .header
                .starts_with(&format!("ok {} ", request.verb())),
            "{}",
            response.header
        );
    }
    let elapsed = start.elapsed();
    server.shutdown();
    assert!(
        elapsed < Duration::from_secs(1),
        "{} sequential round trips took {elapsed:?}: a message is leaving in \
         more than one write, or Nagle's algorithm is on",
        requests.len()
    );
}
