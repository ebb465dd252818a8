//! `serve_mix`: two `Client` connections in a closed loop against one
//! `Server` over loopback.
//!
//! Each connection sends a seeded mix — validate 40%, shred 20%, query
//! 20%, propagate 10%, cover 10% — drawn from a pool built over 8 corpus
//! documents of ~7k nodes.  Every expected payload is rendered in set-up
//! by `render::*` on the bundle the server then publishes, and every served
//! payload is compared byte for byte.  The server is bound after the timed
//! set-ups, so `setup_s` is generation, preparation and rendering.  This is
//! the only workload that crosses protocol, transport and handler.
//!
//! The traced run replays one connection's sequence and, per request,
//! times the round trip, the in-process `ServerState::respond`, the
//! protocol encode/decode over in-memory buffers, and the same request
//! decomposed into the public calls of each layer.

use crate::stats::Summary;
use crate::trace::{Profile, Tracer};
use crate::{
    document_layers, inputs, per, trace_twins, Bench, Metric, Params, Scale, Tally, Timed,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xmlprop_pipeline::{CorpusBundle, Error, Jobs, PreparedState, RequestScratch};
use xmlprop_reldb::{Database, Fd};
use xmlprop_server::{render, Client, Request, Response, ScratchCache, Server};
use xmlprop_workload::{generate_corpus, random_fd, target_fd, Workload};
use xmlprop_xmltree::{to_xml, Document};

/// The verbs of the mix, in pool order.
pub const VERBS: [&str; 5] = ["validate", "shred", "query", "propagate", "cover"];
const VALIDATE: usize = 0;
const SHRED: usize = 1;
const QUERY: usize = 2;
const PROPAGATE: usize = 3;
const COVER: usize = 4;
/// The mix in tenths: 4 validate, 2 shred, 2 query, 1 propagate, 1 cover.
const MIX: [usize; 10] = [0, 0, 0, 0, 1, 1, 2, 2, 3, 4];
const ROUNDTRIP: [&str; 5] = [
    "server.roundtrip.validate",
    "server.roundtrip.shred",
    "server.roundtrip.query",
    "server.roundtrip.propagate",
    "server.roundtrip.cover",
];
const RESPOND: [&str; 5] = [
    "server.respond.validate",
    "server.respond.shred",
    "server.respond.query",
    "server.respond.propagate",
    "server.respond.cover",
];
/// Idle time before the timed and traced phases.  Whether a large shred
/// response stalls on the loopback delayed ACK depends on how busy the
/// host was in the last seconds: right after a CPU-heavy run (a build, the
/// batch workload) shred round trips lose their ~40 ms stall for about ten
/// seconds, and the served numbers jump by half.  Settling first measures
/// the served path in one state, whatever ran before.
const SETTLE: Duration = Duration::from_secs(10);
/// Client connections, and the server's worker gate width.
pub const CLIENTS: usize = 2;
/// Per-verb samples a traced pass collects at least, so every per-verb
/// median is supported.
const MIN_PER_VERB: usize = 20;

/// The per-layer metrics of the traced run.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("server.respond_ms.validate", "ms"),
    ("server.respond_ms.shred", "ms"),
    ("server.respond_ms.query", "ms"),
    ("server.respond_ms.propagate", "ms"),
    ("server.respond_ms.cover", "ms"),
    ("server.transport_ms.validate", "ms"),
    ("server.transport_ms.shred", "ms"),
    ("server.transport_ms.query", "ms"),
    ("server.transport_ms.propagate", "ms"),
    ("server.protocol.encode_us", "us"),
    ("server.protocol.decode_us", "us"),
    ("server.bytes_in_per_req", "count"),
    ("server.bytes_out_per_req", "count"),
    ("xmltree.parse_ms", "ms"),
    ("xmltree.index_ms", "ms"),
    ("xmlkeys.violations_ms", "ms"),
    ("xmltransform.shred_ms", "ms"),
    ("reldb.render_ms", "ms"),
    ("query.parse_us", "us"),
    ("query.plan_us", "us"),
    ("query.execute_ms", "ms"),
    ("core.cover_ms_per_query", "ms"),
    ("core.cover_calls_per_query", "count"),
    ("core.propagation_us", "us"),
    ("serve_mix.unattributed_ms", "ms"),
    ("serve_mix.trace_overhead_ms", "ms"),
];

/// One request of the pool with the payload `render::*` gives for it.
#[derive(Debug)]
pub struct Item {
    /// The request.
    pub request: Request,
    /// The expected payload.
    pub expected: String,
}

/// The `serve_mix` workload; see the module docs.
#[derive(Debug)]
pub struct ServeMix {
    /// The prepared bundle, until [`Bench::start`] moves it into `server`.
    bundle: Option<CorpusBundle>,
    server: Option<Server>,
    /// The request pool, one list per verb (public so a self-test can
    /// corrupt an expected payload).
    pub pool: Vec<Vec<Item>>,
    seed: u64,
    settle: Duration,
    sizes: Vec<(&'static str, String)>,
}

/// The queries of the pool: for each level `i ≥ 1`, `L{i}` joined to
/// `L{i-1}` on the parent's chain identifiers, which its propagated cover
/// makes a key (so the join plans as a key lookup), plus a scan of `L0`.
fn queries(w: &Workload) -> Vec<String> {
    let mut out = vec!["select id0 from L0".to_string()];
    for i in 1..w.config.depth {
        let on: Vec<String> = (0..i)
            .map(|l| format!("L{i}.id{l} = L{p}.id{l}", p = i - 1))
            .collect();
        out.push(format!(
            "select L{i}.id{i}, L{p}.id{p} from L{i} join L{p} on {}",
            on.join(" and "),
            p = i - 1
        ));
    }
    out
}

fn served_ok(response: &Result<Response, Error>, expected: &str) -> bool {
    matches!(response, Ok(r) if !r.is_err() && r.payload == expected)
}

/// A seeded request sequence over the pool that keeps the mix exact: each
/// run of ten requests is a fresh shuffle of [`MIX`], and each request is
/// drawn uniformly from its verb's pool.
struct Sequence<'p> {
    pool: &'p [Vec<Item>],
    rng: StdRng,
    slots: [usize; 10],
    next: usize,
}

impl<'p> Sequence<'p> {
    fn new(pool: &'p [Vec<Item>], rng: StdRng) -> Self {
        Sequence {
            pool,
            rng,
            slots: MIX,
            next: MIX.len(),
        }
    }

    fn next(&mut self) -> (usize, &'p Item) {
        if self.next == self.slots.len() {
            self.slots.shuffle(&mut self.rng);
            self.next = 0;
        }
        let verb = self.slots[self.next];
        self.next += 1;
        let items = &self.pool[verb];
        (verb, &items[self.rng.gen_range(0..items.len())])
    }
}

/// One connection's closed loop until `deadline`: `(verb, ms)` per
/// request, `+∞` for a failed or mismatched one.
fn closed_loop(
    mut requests: Sequence<'_>,
    addr: SocketAddr,
    deadline: Instant,
) -> Vec<(usize, f64)> {
    let mut client = match Client::connect(addr) {
        Ok(client) => client,
        Err(_) => return vec![(VALIDATE, f64::INFINITY)],
    };
    let mut out = Vec::new();
    while Instant::now() < deadline {
        let (verb, item) = requests.next();
        let start = Instant::now();
        let response = client.send(&item.request);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        out.push((
            verb,
            if served_ok(&response, &item.expected) {
                ms
            } else {
                f64::INFINITY
            },
        ));
    }
    out
}

/// Counts the traced pass gathers next to its spans.
#[derive(Debug, Default)]
struct Counters {
    bytes_in: usize,
    bytes_out: usize,
    cover_calls_in_queries: usize,
}

impl ServeMix {
    fn server(&self) -> &Server {
        self.server
            .as_ref()
            .expect("the server is bound before the gate")
    }
}

impl Bench for ServeMix {
    const NAME: &'static str = "serve_mix";

    fn setup(params: &Params) -> Self {
        let (documents, branching, fds) = match params.scale {
            Scale::Full => (8, 6, 16),
            Scale::Smoke => (2, 2, 4),
        };
        let w = inputs::schema(15, 4, 10);
        let (docs, report) = generate_corpus(
            &w,
            &inputs::corpus_config(documents, branching, 4, params.seed),
        );
        let texts: Vec<String> = docs.iter().map(to_xml).collect();
        let prepared = inputs::bundle(&w);
        let bundle = &prepared;
        let mut scratch = bundle.scratch();
        let mut pool: Vec<Vec<Item>> = VERBS.iter().map(|_| Vec::new()).collect();
        let queries = queries(&w);
        for text in &texts {
            // The server parses the text it is sent; so does the reference.
            let doc = Document::parse_str(text).expect("generated documents reparse");
            pool[VALIDATE].push(Item {
                request: Request::Validate {
                    document: text.clone(),
                },
                expected: render::validate_report(bundle, &doc, &mut scratch).1,
            });
            pool[SHRED].push(Item {
                request: Request::Shred {
                    document: text.clone(),
                    relation: None,
                },
                expected: render::shred_report(bundle, &doc, &mut scratch, None)
                    .expect("every rule shreds")
                    .1,
            });
            for query in &queries {
                pool[QUERY].push(Item {
                    request: Request::Query {
                        document: text.clone(),
                        query: query.clone(),
                    },
                    expected: render::query_report(bundle, &doc, &mut scratch, query)
                        .expect("benchmark queries bind")
                        .1,
                });
            }
        }
        let mut rng = inputs::rng(params.seed, 1);
        let universal = render::require_rule(bundle, "U").expect("U is a rule");
        let probes: Vec<Fd> = std::iter::once(target_fd(&w))
            .chain((1..fds).map(|i| random_fd(&w, &mut rng, 1 + i % 3)))
            .collect();
        for fd in probes {
            pool[PROPAGATE].push(Item {
                request: Request::Propagate {
                    relation: "U".to_string(),
                    fd: fd.to_string(),
                },
                expected: render::propagate_report(&universal.propagation_explained(&fd)).1,
            });
        }
        let relations = std::iter::once(None).chain(
            bundle
                .transformation()
                .rules()
                .iter()
                .map(|r| Some(r.schema().name().to_string())),
        );
        for relation in relations {
            let expected = render::cover_report(bundle, relation.as_deref())
                .expect("every rule has a cover")
                .1;
            pool[COVER].push(Item {
                request: Request::Cover { relation },
                expected,
            });
        }
        let settle = if params.scale == Scale::Full {
            SETTLE
        } else {
            Duration::ZERO
        };
        let sizes = vec![
            ("docs", documents.to_string()),
            ("nodes", inputs::thousands(report.total_nodes)),
            (
                "bytes",
                inputs::thousands(texts.iter().map(String::len).sum()),
            ),
            ("fields/depth/keys", "15/4/10".to_string()),
            ("rules", bundle.transformation().rules().len().to_string()),
            (
                "mix",
                "validate 40%, shred 20%, query 20%, propagate 10%, cover 10%".to_string(),
            ),
            (
                "clients",
                format!("{CLIENTS} closed-loop connections, server jobs {CLIENTS}"),
            ),
            (
                "settle",
                format!("{} s idle before timing", settle.as_secs()),
            ),
            (
                "pool",
                VERBS
                    .iter()
                    .zip(&pool)
                    .map(|(v, items)| format!("{v} {}", items.len()))
                    .collect::<Vec<_>>()
                    .join(", "),
            ),
        ];
        drop(scratch);
        ServeMix {
            bundle: Some(prepared),
            server: None,
            pool,
            seed: params.seed,
            settle,
            sizes,
        }
    }

    fn start(&mut self) {
        let bundle = self.bundle.take().expect("the server starts once");
        self.server = Some(
            Server::bind(
                "127.0.0.1:0",
                bundle,
                Jobs::new(CLIENTS).expect("2 is a valid thread count"),
            )
            .expect("bind a loopback port"),
        );
    }

    fn sizes(&self) -> Vec<(&'static str, String)> {
        self.sizes.clone()
    }

    fn gate(&mut self, tally: &mut Tally) {
        tally.check(
            self.pool[QUERY]
                .iter()
                .any(|item| item.expected.contains("[key lookup]")),
            || "serve_mix: no query of the mix plans as a key lookup".to_string(),
        );
        let mut client = match Client::connect(self.server().local_addr()) {
            Ok(client) => client,
            Err(e) => return tally.check(false, || format!("serve_mix: cannot connect: {e}")),
        };
        for (verb, items) in VERBS.iter().zip(&self.pool) {
            for (i, item) in items.iter().enumerate() {
                let response = client.send(&item.request);
                tally.check(served_ok(&response, &item.expected), || {
                    format!(
                        "serve_mix: served {verb} #{i} differs from render::* on the bundle it serves"
                    )
                });
            }
        }
    }

    fn measure(&mut self, seconds: f64, tally: &mut Tally) -> Timed {
        std::thread::sleep(self.settle);
        let addr = self.server().local_addr();
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);
        let pool = &self.pool;
        let seed = self.seed;
        let results: Vec<(usize, f64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let requests = Sequence::new(pool, inputs::rng(seed, 10 + c as u64));
                    scope.spawn(move || closed_loop(requests, addr, deadline))
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread"))
                .collect()
        });
        let wall = start.elapsed().as_secs_f64();
        let mut by_verb: Vec<Vec<f64>> = VERBS.iter().map(|_| Vec::new()).collect();
        let mut completed = 0usize;
        for &(verb, ms) in &results {
            tally.check(ms.is_finite(), || {
                format!(
                    "serve_mix: a {} request failed or differed from render::*",
                    VERBS[verb]
                )
            });
            completed += usize::from(ms.is_finite());
            by_verb[verb].push(ms);
        }
        let all = Summary::new(results.iter().map(|&(_, ms)| ms).collect());
        let rps = completed as f64 / wall;
        let mut metrics = vec![
            Metric::new(
                "serve.rps",
                rps,
                "1/s",
                format!("mean over {wall:.1} s, {} requests", all.len()),
            ),
            Metric::p99("serve.p99_ms", &all),
        ];
        // The headline latency weighs each verb's median by its share of
        // the mix: the overall median would sit on the steep edge between
        // the fast verbs and the ones that stall in transport.
        let mut weighted = Some(0.0);
        for (verb, samples) in by_verb.into_iter().enumerate() {
            let samples = Summary::new(samples);
            let share = MIX.iter().filter(|&&v| v == verb).count() as f64 / MIX.len() as f64;
            weighted = weighted
                .zip(samples.p50())
                .map(|(sum, p50)| sum + share * p50);
            if verb != COVER {
                metrics.push(Metric::p50(
                    format!("serve.{}_p50_ms", VERBS[verb]),
                    &samples,
                ));
            }
        }
        Timed {
            throughput: rps,
            latency: Metric::maybe(
                "latency_ms",
                weighted,
                "ms",
                format!("mix-weighted mean of per-verb p50s, {} requests", all.len()),
            ),
            metrics,
        }
    }

    fn trace(&mut self, seconds: f64, tally: &mut Tally) -> (Vec<Metric>, Tracer) {
        std::thread::sleep(self.settle);
        let server = self.server();
        let state = Arc::clone(server.state());
        let snapshot = state.cell().read();
        let bundle: &CorpusBundle = &snapshot;
        let mut client =
            Client::connect(server.local_addr()).expect("connect to the benchmark's own server");
        let mut verbs = Vec::new();
        let mut counters = Counters::default();
        let traced = trace_twins(seconds, |budget, t| {
            verbs.clear();
            counters = Counters::default();
            let mut requests = Sequence::new(&self.pool, inputs::rng(self.seed, 20));
            let mut cache = ScratchCache::new();
            let mut scratch = bundle.scratch();
            let mut per_verb = [0usize; 5];
            let start = Instant::now();
            let mut i = 0;
            while budget.more(i, start, per_verb.iter().any(|&n| n < MIN_PER_VERB)) {
                let (verb, item) = requests.next();
                t.set_op(i as u64);
                verbs.push(verb);
                per_verb[verb] += 1;
                let served = t.span(ROUNDTRIP[verb], |_| client.send(&item.request));
                let local = t.span(RESPOND[verb], |_| state.respond(&item.request, &mut cache));
                let (mut wire_in, mut wire_out) = (Vec::new(), Vec::new());
                t.span("server.protocol.encode", |_| {
                    item.request.write_to(&mut wire_in).expect("write to a Vec");
                    local.write_to(&mut wire_out).expect("write to a Vec");
                });
                let decoded = t.span("server.protocol.decode", |_| {
                    (
                        Request::read_from(&mut wire_in.as_slice()),
                        Response::read_from(&mut wire_out.as_slice()),
                    )
                });
                counters.bytes_in += wire_in.len();
                counters.bytes_out += wire_out.len();
                let pieces = decompose(bundle, &item.request, &mut scratch, t, &mut counters);
                t.span("bench.check", |_| {
                    let what = VERBS[verb];
                    tally.check(served_ok(&served, &item.expected), || {
                        format!("serve_mix: served {what} differs from render::*")
                    });
                    tally.check(!local.is_err() && local.payload == item.expected, || {
                        format!("serve_mix: in-process respond({what}) differs from render::*")
                    });
                    tally.check(
                        matches!(&decoded, (Ok(Some(r)), Ok(Some(p))) if *r == item.request && *p == local),
                        || format!("serve_mix: {what} does not survive a protocol round trip"),
                    );
                    tally.check(pieces.as_deref().ok() == Some(item.expected.as_str()), || {
                        format!("serve_mix: the layer-by-layer replay of {what} differs from render::*")
                    });
                });
                i += 1;
            }
            i
        });
        let metrics = layer_metrics(&traced.profile, &verbs, &counters, traced.ops);
        let mut all = metrics;
        all.extend(traced.accounting(Self::NAME));
        (all, traced.tracer)
    }
}

fn layer_metrics(p: &Profile, verbs: &[usize], counters: &Counters, ops: usize) -> Vec<Metric> {
    let of = |verb: usize| move |op: u64| verbs[op as usize] == verb;
    let n = |verb: usize| verbs.iter().filter(|&&v| v == verb).count();
    // Mean self time per request of `verb`, in `scale` units per ns.
    let mean = |name: &str, verb: usize, scale: f64| {
        per(p.self_ns(name, of(verb)) as f64 * scale, n(verb))
    };
    let stat = |verb: usize| {
        format!(
            "mean self time per {} request, {} requests",
            VERBS[verb],
            n(verb)
        )
    };
    let mut out = Vec::new();
    // Each verb's respond time, then its transport time beside it.
    for verb in 0..VERBS.len() {
        let samples = Summary::new(p.durations_ms(RESPOND[verb]));
        let respond = samples.p50();
        out.push(Metric::p50(
            format!("server.respond_ms.{}", VERBS[verb]),
            &samples,
        ));
        if verb == COVER {
            continue;
        }
        let roundtrip = Summary::new(p.durations_ms(ROUNDTRIP[verb]));
        out.push(Metric::maybe(
            format!("server.transport_ms.{}", VERBS[verb]),
            roundtrip.p50().zip(respond).map(|(rt, local)| rt - local),
            "ms",
            format!("p50 round trip - p50 respond, {} requests", roundtrip.len()),
        ));
    }
    let all = |_: u64| true;
    let per_req = format!("mean per request, {ops} requests");
    out.push(Metric::new(
        "server.protocol.encode_us",
        per(p.self_ns("server.protocol.encode", all) as f64 / 1e3, ops),
        "us",
        per_req.clone(),
    ));
    out.push(Metric::new(
        "server.protocol.decode_us",
        per(p.self_ns("server.protocol.decode", all) as f64 / 1e3, ops),
        "us",
        per_req.clone(),
    ));
    out.push(Metric::new(
        "server.bytes_in_per_req",
        per(counters.bytes_in as f64, ops),
        "count",
        per_req.clone(),
    ));
    out.push(Metric::new(
        "server.bytes_out_per_req",
        per(counters.bytes_out as f64, ops),
        "count",
        per_req,
    ));
    // Parse, index, violations and shred: per call, over every verb that
    // makes it (validate; shred; query, which shreds only what it joins).
    out.extend(document_layers(p));
    for (name, span, verb, scale, unit) in [
        ("reldb.render_ms", "reldb.render", SHRED, 1e-6, "ms"),
        ("query.parse_us", "query.parse", QUERY, 1e-3, "us"),
        ("query.plan_us", "query.plan", QUERY, 1e-3, "us"),
        ("query.execute_ms", "query.execute", QUERY, 1e-6, "ms"),
        ("core.cover_ms_per_query", "core.cover", QUERY, 1e-6, "ms"),
        (
            "core.propagation_us",
            "core.propagation",
            PROPAGATE,
            1e-3,
            "us",
        ),
    ] {
        out.push(Metric::new(name, mean(span, verb, scale), unit, stat(verb)));
    }
    out.push(Metric::new(
        "core.cover_calls_per_query",
        per(counters.cover_calls_in_queries as f64, n(QUERY)),
        "count",
        format!(
            "minimum_cover calls per query request, {} requests",
            n(QUERY)
        ),
    ));
    out
}

fn parse(t: &mut Tracer, text: &str) -> Result<Document, Error> {
    t.span("xmltree.parse", |_| Document::parse_str(text))
        .map_err(|e| Error::parse("request document", e))
}

/// Serves `request` through the public call of each layer in turn — the
/// same calls `ServerState::respond` makes — one span per layer, and
/// renders the payload the server would send.
fn decompose(
    bundle: &CorpusBundle,
    request: &Request,
    scratch: &mut RequestScratch,
    t: &mut Tracer,
    counters: &mut Counters,
) -> Result<String, Error> {
    match request {
        Request::Validate { document } => {
            let doc = parse(t, document)?;
            let index = t.span("xmltree.index", |_| scratch.index_document(&doc));
            let keys = bundle.keys();
            let broken: Vec<_> = t.span("xmlkeys.violations", |_| {
                (0..keys.len())
                    .map(|k| keys.violations_of(k, &doc, &index))
                    .collect()
            });
            Ok(t.span("server.render", |_| {
                let mut out = String::new();
                for (key, broken) in bundle.sigma().iter().zip(&broken) {
                    let tag = if broken.is_empty() {
                        "[ok]  "
                    } else {
                        "[FAIL]"
                    };
                    writeln!(out, "{tag} {key}").expect("String write");
                    for v in broken {
                        writeln!(out, "         {v}").expect("String write");
                    }
                }
                out
            }))
        }
        Request::Shred { document, relation } => {
            let doc = parse(t, document)?;
            let index = t.span("xmltree.index", |_| scratch.index_document(&doc));
            let database = t.span("xmltransform.shred", |_| {
                scratch.shred_scratch().reset();
                let mut database = Database::new();
                for plan in bundle.plan().plans() {
                    if relation
                        .as_deref()
                        .is_none_or(|r| r == plan.schema().name())
                    {
                        database.insert(plan.shred_with(&doc, &index, scratch.shred_scratch()));
                    }
                }
                database
            });
            Ok(t.span("reldb.render", |_| {
                let mut out = String::new();
                for relation in database.relations() {
                    writeln!(out, "{relation}").expect("String write");
                }
                out
            }))
        }
        Request::Query { document, query } => {
            let query = t.span("query.parse", |_| xmlprop_query::parse_query(query))?;
            let covers: Vec<Vec<Fd>> = t.span("core.cover", |_| {
                bundle.engines().iter().map(|e| e.minimum_cover()).collect()
            });
            counters.cover_calls_in_queries += covers.len();
            let plan = t.span("query.plan", |_| {
                let mut catalog = xmlprop_query::Catalog::new();
                for (engine, cover) in bundle.engines().iter().zip(&covers) {
                    catalog.add_relation(engine.rule().schema().clone(), cover);
                }
                xmlprop_query::plan(&query, &catalog)
            })?;
            let needed: BTreeSet<&str> = std::iter::once(query.from.as_str())
                .chain(query.joins.iter().map(|j| j.relation.as_str()))
                .collect();
            let doc = parse(t, document)?;
            let index = t.span("xmltree.index", |_| scratch.index_document(&doc));
            let database = t.span("xmltransform.shred", |_| {
                scratch.shred_scratch().reset();
                let mut database = Database::new();
                for plan in bundle.plan().plans() {
                    if needed.contains(plan.schema().name()) {
                        database.insert(plan.shred_with(&doc, &index, scratch.shred_scratch()));
                    }
                }
                database
            });
            let result = t.span("query.execute", |_| {
                xmlprop_query::execute(&plan, &database)
            })?;
            Ok(t.span("server.render", |_| {
                let rows = result.len();
                let mut out = format!("plan: {}\n", plan.describe());
                if result.schema().arity() > 0 {
                    out.push_str(&result.to_table_string());
                }
                writeln!(out, "({rows} {})", if rows == 1 { "row" } else { "rows" })
                    .expect("String write");
                out
            }))
        }
        Request::Propagate { relation, fd } => {
            let fd = t.span("reldb.parse_fd", |_| render::parse_fd(fd))?;
            let engine = render::require_rule(bundle, relation)?;
            let outcomes = t.span("core.propagation", |_| engine.propagation_explained(&fd));
            Ok(t.span("server.render", |_| render::propagate_report(&outcomes).1))
        }
        Request::Cover { relation } => {
            let engines: Vec<_> = match relation {
                Some(rel) => vec![render::require_rule(bundle, rel)?],
                None => bundle.engines().iter().collect(),
            };
            let covers: Vec<Vec<Fd>> = t.span("core.cover", |_| {
                engines.iter().map(|e| e.minimum_cover()).collect()
            });
            Ok(t.span("server.render", |_| {
                let mut out = String::new();
                for (engine, cover) in engines.iter().zip(&covers) {
                    if relation.is_none() {
                        writeln!(out, "-- {}", engine.rule().schema().name())
                            .expect("String write");
                    }
                    out.push_str(&render::render_cover(cover));
                }
                out
            }))
        }
        other => Err(Error::protocol(format!(
            "`{}` is not in the serve mix",
            other.verb()
        ))),
    }
}
