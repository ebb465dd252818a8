//! `batch_corpus`: document engines at volume, with no transport.
//!
//! ~96 corpus documents (~675k nodes, ~7 MB of in-memory XML text).  Each
//! pass parses the texts with `fan_out` and runs `CorpusBundle::run` with
//! validate and shred at two jobs.  The gate checks that `run` equals
//! `run_sequential` and that both equal `stream_text` on every document;
//! every timed pass is compared with that reference.
//!
//! The traced run walks the corpus on one thread through the public
//! per-document calls (parse, index, violations, shred) and then through
//! `stream_text`, so its spans tile the wall time; the fan-out efficiency
//! comes from an untraced sequential and an untraced parallel pass.

use crate::stats::Summary;
use crate::trace::Tracer;
use crate::{
    document_layers, inputs, per, trace_twins, Bench, Metric, Params, Scale, Tally, Timed, WARM_UP,
};
use std::time::{Duration, Instant};
use xmlprop_pipeline::{
    fan_out, CorpusBundle, CorpusOptions, CorpusResult, DocOutcome, Jobs, PreparedState,
};
use xmlprop_reldb::Database;
use xmlprop_workload::generate_corpus;
use xmlprop_xmltree::{to_xml, Document, ParseError};

/// Worker jobs of `fan_out` and `CorpusBundle::run`.
pub const JOBS: usize = 2;
/// Passes a timed run makes at least, so the pass median is supported.
const MIN_PASSES: usize = 20;

/// The per-layer metrics of the traced run.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("xmltree.parse_ms", "ms"),
    ("xmltree.index_ms", "ms"),
    ("xmlkeys.violations_ms", "ms"),
    ("xmltransform.shred_ms", "ms"),
    ("pipeline.stream_s", "s"),
    ("pipeline.fanout_efficiency", "ratio"),
    ("batch.tuples", "count"),
    ("pipeline.stream_peak_open_bindings", "count"),
    ("batch_corpus.unattributed_ms", "ms"),
    ("batch_corpus.trace_overhead_ms", "ms"),
];

/// The `batch_corpus` workload; see the module docs.
#[derive(Debug)]
pub struct BatchCorpus {
    bundle: CorpusBundle,
    texts: Vec<String>,
    nodes: usize,
    options: CorpusOptions,
    /// The reference result the gate established (public so a self-test
    /// can corrupt it).
    pub reference: Option<CorpusResult>,
    warm_up: Duration,
}

fn parse_all(texts: &[String], jobs: usize) -> Result<Vec<Document>, ParseError> {
    fan_out(
        texts,
        jobs,
        2,
        || (),
        |_, _, text| Document::parse_str(text),
    )
    .into_iter()
    .collect()
}

/// Whether a streamed outcome carries the DOM outcome's results (the
/// streaming-only peak statistic aside).
fn same_results(stream: &DocOutcome, dom: &DocOutcome) -> bool {
    stream.database == dom.database
        && stream.violations == dom.violations
        && stream.nodes == dom.nodes
        && stream.tuples == dom.tuples
}

impl BatchCorpus {
    /// One timed pass: parse at two jobs, then `run` at two jobs.
    fn pass(&self) -> Result<CorpusResult, ParseError> {
        let docs = parse_all(&self.texts, JOBS)?;
        Ok(self.bundle.run(&docs, &self.options))
    }

    /// The same work on the calling thread.
    fn sequential_pass(&self) -> Result<CorpusResult, ParseError> {
        let docs = parse_all(&self.texts, 1)?;
        Ok(self.bundle.run_sequential(&docs, &self.options))
    }

    /// Counts one pass, failed unless it equals the reference; returns
    /// whether it did.
    fn check_pass(
        &self,
        result: Result<CorpusResult, ParseError>,
        what: &str,
        tally: &mut Tally,
    ) -> bool {
        let ok = matches!((&result, &self.reference), (Ok(r), Some(reference)) if r == reference);
        tally.check(ok, || {
            format!("batch_corpus: {what} differs from the reference run")
        });
        ok
    }
}

impl Bench for BatchCorpus {
    const NAME: &'static str = "batch_corpus";

    fn setup(params: &Params) -> Self {
        let (documents, branching) = match params.scale {
            Scale::Full => (96, 6),
            Scale::Smoke => (4, 2),
        };
        let w = inputs::schema(15, 4, 10);
        let (docs, report) = generate_corpus(
            &w,
            &inputs::corpus_config(documents, branching, 4, params.seed),
        );
        let texts = docs.iter().map(to_xml).collect();
        let options = CorpusOptions {
            jobs: Jobs::new(JOBS).expect("2 is a valid thread count"),
            shred: true,
            validate: true,
            covers: false,
            stream: false,
        };
        BatchCorpus {
            bundle: inputs::bundle(&w),
            texts,
            nodes: report.total_nodes,
            options,
            reference: None,
            warm_up: if params.scale == Scale::Full {
                WARM_UP
            } else {
                Duration::ZERO
            },
        }
    }

    fn sizes(&self) -> Vec<(&'static str, String)> {
        vec![
            ("docs", self.texts.len().to_string()),
            ("nodes", inputs::thousands(self.nodes)),
            (
                "bytes",
                inputs::thousands(self.texts.iter().map(String::len).sum()),
            ),
            ("fields/depth/keys", "15/4/10".to_string()),
            (
                "rules",
                self.bundle.transformation().rules().len().to_string(),
            ),
            ("jobs", JOBS.to_string()),
        ]
    }

    fn gate(&mut self, tally: &mut Tally) {
        let sequential = match self.sequential_pass() {
            Ok(result) => result,
            Err(e) => {
                return tally.check(false, || {
                    format!("batch_corpus: a corpus text does not parse: {e}")
                })
            }
        };
        self.reference = Some(sequential.clone());
        let parallel = self.pass();
        self.check_pass(parallel, "run at 2 jobs", tally);
        for (i, (text, dom)) in self.texts.iter().zip(&sequential.documents).enumerate() {
            let streamed = self.bundle.stream_text(text, &self.options);
            tally.check(matches!(&streamed, Ok(s) if same_results(s, dom)), || {
                format!("batch_corpus: stream_text of document {i} differs from run_sequential")
            });
        }
    }

    fn warm_up(&mut self) {
        let start = Instant::now();
        while start.elapsed() < self.warm_up {
            std::hint::black_box(self.pass().ok());
        }
    }

    fn measure(&mut self, seconds: f64, tally: &mut Tally) -> Timed {
        let start = Instant::now();
        let mut passes_ms = Vec::new();
        let mut rates = Vec::new();
        while passes_ms.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
            let t = Instant::now();
            let result = self.pass();
            let elapsed = t.elapsed().as_secs_f64();
            let ok = self.check_pass(result, "a timed pass", tally);
            rates.push(if ok { self.nodes as f64 / elapsed } else { 0.0 });
            passes_ms.push(if ok { elapsed * 1e3 } else { f64::INFINITY });
        }
        let nodes_per_s = Summary::new(rates).p50().unwrap_or(f64::NAN);
        let latency = Summary::new(passes_ms);
        Timed {
            throughput: nodes_per_s,
            metrics: vec![Metric::new(
                "batch.nodes_per_s",
                nodes_per_s,
                "1/s",
                format!("p50 of {} passes of {} nodes", latency.len(), self.nodes),
            )],
            latency: Metric::latency(&latency, "corpus passes"),
        }
    }

    fn trace(&mut self, seconds: f64, tally: &mut Tally) -> (Vec<Metric>, Tracer) {
        // Fan-out efficiency: the same work on one thread, over two jobs'
        // worth of the parallel wall time.
        let t = Instant::now();
        let sequential = self.sequential_pass();
        let sequential_s = t.elapsed().as_secs_f64();
        self.check_pass(sequential, "a sequential pass", tally);
        let t = Instant::now();
        let parallel = self.pass();
        let parallel_s = t.elapsed().as_secs_f64();
        self.check_pass(parallel, "a parallel pass", tally);

        let reference = self
            .reference
            .as_ref()
            .expect("the gate parses every generated document");
        let mut peak_bindings = 0;
        let traced = trace_twins(seconds, |budget, t| {
            let start = Instant::now();
            let mut passes = 0;
            let mut scratch = self.bundle.scratch();
            while budget.more(passes, start, passes == 0) {
                for (i, (text, expected)) in self.texts.iter().zip(&reference.documents).enumerate()
                {
                    t.set_op(i as u64);
                    let doc = t.span("xmltree.parse", |_| Document::parse_str(text));
                    let Ok(doc) = doc else {
                        tally.check(false, || {
                            format!("batch_corpus: document {i} does not parse")
                        });
                        continue;
                    };
                    let index = t.span("xmltree.index", |_| scratch.index_document(&doc));
                    let violations = t.span("xmlkeys.violations", |_| {
                        self.bundle.keys().violations(&doc, &index)
                    });
                    let database = t.span("xmltransform.shred", |_| {
                        scratch.shred_scratch().reset();
                        let mut database = Database::new();
                        for plan in self.bundle.plan().plans() {
                            database.insert(plan.shred_with(&doc, &index, scratch.shred_scratch()));
                        }
                        database
                    });
                    t.span("bench.check", |_| {
                        tally.check(
                            database == expected.database && violations == expected.violations,
                            || format!("batch_corpus: the layer-by-layer replay of document {i} differs"),
                        )
                    });
                }
                for (i, (text, expected)) in self.texts.iter().zip(&reference.documents).enumerate()
                {
                    t.set_op(i as u64);
                    let streamed = t.span("pipeline.stream", |_| {
                        self.bundle.stream_text(text, &self.options)
                    });
                    t.span("bench.check", |_| {
                        if let Ok(s) = &streamed {
                            peak_bindings = peak_bindings.max(s.peak_open_bindings);
                        }
                        tally.check(
                            matches!(&streamed, Ok(s) if same_results(s, expected)),
                            || format!("batch_corpus: stream_text of document {i} differs"),
                        )
                    });
                }
                passes += 1;
            }
            passes
        });
        let p = &traced.profile;
        let passes = traced.ops;
        let mut metrics = document_layers(p);
        metrics.push(Metric::new(
            "pipeline.stream_s",
            per(p.self_ns("pipeline.stream", |_| true) as f64 / 1e9, passes),
            "s",
            format!(
                "self time per pass, {passes} passes of {} docs",
                self.texts.len()
            ),
        ));
        metrics.push(Metric::new(
            "pipeline.fanout_efficiency",
            sequential_s / (JOBS as f64 * parallel_s),
            "ratio",
            format!("sequential {sequential_s:.3} s / ({JOBS} x parallel {parallel_s:.3} s)"),
        ));
        metrics.push(Metric::new(
            "batch.tuples",
            reference.stats.tuples as f64,
            "count",
            "per pass",
        ));
        metrics.push(Metric::new(
            "pipeline.stream_peak_open_bindings",
            peak_bindings as f64,
            "count",
            "max over documents",
        ));
        metrics.extend(traced.accounting(Self::NAME));
        (metrics, traced.tracer)
    }
}
