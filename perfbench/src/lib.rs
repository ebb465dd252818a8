//! The xmlprop repository benchmark.
//!
//! Four seeded workloads drive the library crates through their public
//! API, each from one process with at most two client threads or worker
//! jobs:
//!
//! * [`serve::ServeMix`] — two `Client` connections in a closed loop
//!   against one `Server`, over loopback;
//! * [`batch::BatchCorpus`] — a ~675k-node corpus parsed with `fan_out`
//!   and run through `CorpusBundle::run` at two jobs;
//! * [`design::DesignPropagate`] — the paper's Fig. 7 path: prepare a
//!   wide rule, compute its minimum cover, decide ~20k probe FDs;
//! * [`edit::EditStream`] — a fixed seeded edit script applied to one
//!   ~177k-node document through `CorpusBundle::apply_delta`.
//!
//! Every run sets the workload up several times (the median is
//! `setup_s`), checks the program's outputs against an independent
//! reference before any timing counts (the *gate*), and then either
//! measures the end-to-end metrics untraced or, in a separate traced run,
//! times the calls into each layer with [`trace::Tracer`] spans.

#![forbid(unsafe_code)]

pub mod batch;
pub mod design;
pub mod edit;
pub mod inputs;
pub mod serve;
pub mod stats;
pub mod trace;

use stats::{median, Summary};
use std::path::Path;
use std::time::Instant;
use trace::{Profile, Tracer};

/// Input sizes: the benchmark's own, or a smoke size for self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark is defined with (see README.md).
    Full,
    /// Tiny inputs that exercise every code path in well under a second.
    Smoke,
}

/// What one run is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// The workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long the measured phase runs.
    pub seconds: f64,
    /// Input sizes.
    pub scale: Scale,
}

/// One reported number.  `value` is `None` when the samples cannot
/// support it (see [`stats`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Dotted metric name, e.g. `serve.p99_ms`.
    pub name: String,
    /// The value, or `None` when missing.
    pub value: Option<f64>,
    /// Unit, e.g. `ms`, `1/s`, `count`.
    pub unit: &'static str,
    /// The statistic and its sample count, e.g. `p50 of 1742`.
    pub stat: String,
}

impl Metric {
    /// A metric with a value.
    pub fn new(
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        stat: impl Into<String>,
    ) -> Self {
        Metric::maybe(name, Some(value), unit, stat)
    }

    /// A metric that may be missing.
    pub fn maybe(
        name: impl Into<String>,
        value: Option<f64>,
        unit: &'static str,
        stat: impl Into<String>,
    ) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
            stat: stat.into(),
        }
    }

    /// The median of `samples` (ms), honestly: missing below 20 samples.
    pub fn p50(name: impl Into<String>, samples: &Summary) -> Self {
        Metric::maybe(
            name,
            samples.p50(),
            "ms",
            format!("p50 of {}", samples.len()),
        )
    }

    /// `latency_ms`: the median of `samples`, each one `what`, with the
    /// highest tail percentile they support in the statistic.
    pub fn latency(samples: &Summary, what: &str) -> Self {
        let tail = samples.tail().map_or_else(
            || "no tail percentile supported".to_string(),
            |(q, v)| format!("{q} {v:.4} ms"),
        );
        Metric::maybe(
            "latency_ms",
            samples.p50(),
            "ms",
            format!("p50 of {} {what}; {tail}", samples.len()),
        )
    }

    /// The p99 of `samples` (ms), missing below 1,000 samples.
    pub fn p99(name: impl Into<String>, samples: &Summary) -> Self {
        Metric::maybe(
            name,
            samples.quantile(0.99),
            "ms",
            format!("p99 of {}", samples.len()),
        )
    }
}

/// Operations attempted and failed, with the first few mismatch reports.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Operations attempted (requests, documents, probes, edits, checks).
    pub attempted: u64,
    /// Operations that failed, were refused, or disagreed with the
    /// reference.
    pub failed: u64,
    /// Descriptions of the first mismatches.
    pub mismatches: Vec<String>,
}

impl Tally {
    /// Counts one operation; `describe` explains a failure.
    pub fn check(&mut self, ok: bool, describe: impl FnOnce() -> String) {
        self.record(1, u64::from(!ok), describe);
    }

    /// Counts `attempted` operations of which `failed` failed; `describe`
    /// explains the failures.
    pub fn record(&mut self, attempted: u64, failed: u64, describe: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 && self.mismatches.len() < 10 {
            self.mismatches.push(describe());
        }
    }

    /// Failed over attempted (0 when nothing was attempted).
    pub fn error_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// The untraced measured phase of a run.
#[derive(Debug, Clone)]
pub struct Timed {
    /// Work completed per second: requests, nodes, probes or edits.
    pub throughput: f64,
    /// The workload's headline latency, `latency_ms`: the median corpus
    /// pass, prepare-plus-cover or edit, or for the served mix the
    /// mix-weighted mean of the per-verb median round trips.
    pub latency: Metric,
    /// The workload's own end-to-end metrics, by name.
    pub metrics: Vec<Metric>,
}

/// How much a replay pass does.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Run until this many seconds have passed (and the workload's own
    /// sample minimums are met); the pass reports how many ops it did.
    Seconds(f64),
    /// Run exactly this many ops (the traced twin of a timed pass).
    Ops(usize),
}

impl Budget {
    /// Whether a pass that has done `done` ops since `start` continues;
    /// `short` says the workload still lacks samples.
    pub fn more(self, done: usize, start: Instant, short: bool) -> bool {
        match self {
            Budget::Seconds(s) => short || start.elapsed().as_secs_f64() < s,
            Budget::Ops(n) => done < n,
        }
    }
}

/// A traced pass and its untraced twin; see [`trace_twins`].
#[derive(Debug)]
pub struct Traced {
    /// The tracer of the traced pass (spans kept for writing out).
    pub tracer: Tracer,
    /// The traced pass's spans, aggregated.
    pub profile: Profile,
    /// Ops both passes did.
    pub ops: usize,
    /// Wall time of the traced pass.
    pub wall_ns: u64,
    /// Wall time of the untraced twin.
    pub untraced_ns: u64,
}

impl Traced {
    /// `<workload>.unattributed_ms` (traced wall time no span covers, per
    /// op) and `<workload>.trace_overhead_ms` (traced minus untraced wall
    /// time, per op).
    pub fn accounting(&self, workload: &str) -> Vec<Metric> {
        let per_op = |ns: f64| ns / 1e6 / self.ops.max(1) as f64;
        let stat = format!("per op, {} ops", self.ops);
        vec![
            Metric::new(
                format!("{workload}.unattributed_ms"),
                per_op(self.wall_ns.saturating_sub(self.profile.covered_ns()) as f64),
                "ms",
                stat.clone(),
            ),
            Metric::new(
                format!("{workload}.trace_overhead_ms"),
                per_op(self.wall_ns as f64 - self.untraced_ns as f64),
                "ms",
                stat,
            ),
        ]
    }
}

/// Runs `pass` untraced for half of `seconds`, then traced for the same
/// number of ops.  The difference of the two wall times is the tracing
/// overhead.
pub fn trace_twins(seconds: f64, mut pass: impl FnMut(Budget, &mut Tracer) -> usize) -> Traced {
    let mut untraced = Tracer::new(false);
    let start = Instant::now();
    let ops = pass(Budget::Seconds(seconds / 2.0), &mut untraced);
    let untraced_ns = start.elapsed().as_nanos() as u64;
    let mut tracer = Tracer::new(true);
    let done = pass(Budget::Ops(ops), &mut tracer);
    let wall_ns = tracer.now_ns();
    assert_eq!(done, ops, "the traced twin must repeat the untraced pass");
    Traced {
        profile: Profile::new(tracer.spans()),
        tracer,
        ops,
        wall_ns,
        untraced_ns,
    }
}

/// One workload of the benchmark.
pub trait Bench: Sized {
    /// The workload name used on the command line and in metric names.
    const NAME: &'static str;

    /// Generates the inputs from `params.seed` and prepares the program.
    fn setup(params: &Params) -> Self;

    /// Starts what the gate and the measured phases need beyond the
    /// program's own preparation, once, after the timed set-ups.  The
    /// default does nothing.
    fn start(&mut self) {}

    /// The input sizes, for the run's report.
    fn sizes(&self) -> Vec<(&'static str, String)>;

    /// Checks the program's outputs against an independent reference
    /// before any timing counts.
    fn gate(&mut self, tally: &mut Tally);

    /// Runs the workload's own operations, unmeasured, before the measured
    /// phase, so caches, allocator pools and the scheduler are in the state
    /// the measured phase keeps them in.  The default does nothing.
    fn warm_up(&mut self) {}

    /// The untraced measured phase; checks outputs as it goes.
    fn measure(&mut self, seconds: f64, tally: &mut Tally) -> Timed;

    /// The traced run: per-layer metrics plus the tracer holding its spans.
    fn trace(&mut self, seconds: f64, tally: &mut Tally) -> (Vec<Metric>, Tracer);
}

/// Everything one run found.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The workload name.
    pub workload: &'static str,
    /// Input sizes.
    pub sizes: Vec<(&'static str, String)>,
    /// Attempted / failed operations across gate and measured phase.
    pub tally: Tally,
    /// Median set-up time over both rounds of set-ups (see
    /// [`SETUP_ROUND`]).
    pub setup_s: f64,
    /// How many set-ups `setup_s` is the median of.
    pub setups: usize,
    /// Peak resident set size of the process (VmHWM) at the end of the
    /// measured phase.
    pub peak_rss_mb: f64,
    /// The untraced phase, when this was not a traced run.
    pub timed: Option<Timed>,
    /// Per-layer metrics, when this was a traced run.
    pub layers: Vec<Metric>,
}

/// How long CPU-bound workloads warm up before their measured phase (see
/// [`Bench::warm_up`]).
pub const WARM_UP: std::time::Duration = std::time::Duration::from_secs(3);

/// A run sets its workload up in two rounds, one before the gate and one
/// after the measured phase; `setup_s` is the median of every set-up of
/// both.  Each round repeats the set-up for at least [`SETUP_ROUND`] and
/// [`SETUP_ROUND_MIN`] times (smoke-size rounds only the latter): on a
/// shared host set-up time moves by a third for seconds at a time, so a few
/// back-to-back set-ups would time one such stretch rather than the run.
pub const SETUP_ROUND: std::time::Duration = std::time::Duration::from_secs(4);

/// The fewest set-ups in one round (see [`SETUP_ROUND`]).
pub const SETUP_ROUND_MIN: usize = 4;

/// One round of set-ups, each timed into `setups`; returns the last.
fn setup_round<B: Bench>(params: &Params, setups: &mut Vec<f64>) -> B {
    let round = Instant::now();
    let least = match params.scale {
        Scale::Full => SETUP_ROUND,
        Scale::Smoke => std::time::Duration::ZERO,
    };
    let mut done = 0;
    loop {
        let start = Instant::now();
        let bench = B::setup(params);
        setups.push(start.elapsed().as_secs_f64());
        done += 1;
        if done >= SETUP_ROUND_MIN && round.elapsed() >= least {
            return bench;
        }
        // Dropped before the next set-up, so peak memory holds one copy.
        drop(bench);
    }
}

/// Runs workload `B`: a round of set-ups, gate, then the timed phase or —
/// with `trace` — the traced run, whose spans go to `trace_file`, then the
/// second round of set-ups.
pub fn run<B: Bench>(params: &Params, trace: bool, trace_file: Option<&Path>) -> Outcome {
    let mut setups = Vec::new();
    let mut bench = setup_round::<B>(params, &mut setups);
    bench.start();
    let mut tally = Tally::default();
    bench.gate(&mut tally);
    bench.warm_up();
    let (timed, layers) = if trace {
        let (layers, tracer) = bench.trace(params.seconds, &mut tally);
        if let Some(path) = trace_file {
            if let Err(e) = tracer.write_tsv(path) {
                eprintln!("warning: cannot write spans to {}: {e}", path.display());
            }
        }
        (None, layers)
    } else {
        (Some(bench.measure(params.seconds, &mut tally)), Vec::new())
    };
    let sizes = bench.sizes();
    let peak_rss_mb = peak_rss_mb();
    drop(bench);
    drop(setup_round::<B>(params, &mut setups));
    Outcome {
        workload: B::NAME,
        sizes,
        tally,
        setup_s: median(&setups),
        setups: setups.len(),
        peak_rss_mb,
        timed,
        layers,
    }
}

/// Runs the named workload; `None` for an unknown name.
pub fn run_named(
    name: &str,
    params: &Params,
    trace: bool,
    trace_file: Option<&Path>,
) -> Option<Outcome> {
    Some(match name {
        serve::ServeMix::NAME => run::<serve::ServeMix>(params, trace, trace_file),
        batch::BatchCorpus::NAME => run::<batch::BatchCorpus>(params, trace, trace_file),
        design::DesignPropagate::NAME => run::<design::DesignPropagate>(params, trace, trace_file),
        edit::EditStream::NAME => run::<edit::EditStream>(params, trace, trace_file),
        _ => return None,
    })
}

/// Every workload name, in the order `all` runs them.
pub const WORKLOADS: [&str; 4] = [
    serve::ServeMix::NAME,
    batch::BatchCorpus::NAME,
    design::DesignPropagate::NAME,
    edit::EditStream::NAME,
];

/// The workloads `BENCHMARK.json` gates.  `design_propagate` and
/// `edit_stream` are CPU-bound on one thread and spread too widely between
/// runs on a shared 2-vCPU host to be gated (see README.md); they still
/// run by name and under `all`.
pub const GATED: [&str; 2] = [serve::ServeMix::NAME, batch::BatchCorpus::NAME];

/// The per-layer metrics `BENCHMARK.json` names, with the span each one
/// reads: the document layers every gated workload calls, as mean self
/// time (ms) per call.  Every traced run of a gated workload measures each
/// of them; the rest of its layer metrics are printed, not gated.
pub const DOCUMENT_LAYERS: [(&str, &str); 4] = [
    ("xmltree.parse_ms", "xmltree.parse"),
    ("xmltree.index_ms", "xmltree.index"),
    ("xmlkeys.violations_ms", "xmlkeys.violations"),
    ("xmltransform.shred_ms", "xmltransform.shred"),
];

/// The [`DOCUMENT_LAYERS`] metrics of a traced pass; one is missing when
/// the pass made no call of its span.
pub fn document_layers(p: &Profile) -> Vec<Metric> {
    let all = |_: u64| true;
    DOCUMENT_LAYERS
        .iter()
        .map(|&(name, span)| {
            let calls = p.count(span, all);
            Metric::maybe(
                name,
                (calls > 0).then(|| p.self_ns(span, all) as f64 / 1e6 / calls as f64),
                "ms",
                format!("mean self time per call, {calls} calls"),
            )
        })
        .collect()
}

/// The process's peak resident set size in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The mean of `total` over `count`, 0 when `count` is 0.
pub fn per(total: f64, count: usize) -> f64 {
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}
