//! `design_propagate`: the paper's Fig. 7 path, with no document layer.
//!
//! A wide rule from `generate(300, 10, 100)` (105 cover FDs).  Each
//! iteration prepares a `PropagationEngine` and computes its
//! `minimum_cover` — the CLI `cover` path, timed as one latency — and then
//! decides a seeded set of ~20k probe FDs with `propagate_all`.  Half the
//! probes are built to be guaranteed (a chain key determines an attribute
//! of its own level or of an ancestor level), half are random, most of
//! which are not.  The gate checks the verdicts against
//! `GMinimumCover::check` on a seeded sample.

use crate::stats::Summary;
use crate::trace::Tracer;
use crate::{inputs, per, trace_twins, Bench, Metric, Params, Scale, Tally, Timed, WARM_UP};
use rand::seq::SliceRandom;
use std::time::{Duration, Instant};
use xmlprop_core::{GMinimumCover, PropagationEngine};
use xmlprop_reldb::Fd;
use xmlprop_workload::{random_fd, Workload};

/// Iterations a timed run makes at least, so the cover median is
/// supported.
const MIN_ITERATIONS: usize = 20;

/// The per-layer metrics of the traced run.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("xmlkeys.prepare_ms", "ms"),
    ("core.prepare_ms", "ms"),
    ("core.minimum_cover_ms", "ms"),
    ("core.propagate_us", "us"),
    ("core.cover_fds", "count"),
    ("core.guaranteed_share", "ratio"),
    ("design_propagate.unattributed_ms", "ms"),
    ("design_propagate.trace_overhead_ms", "ms"),
];

/// The `design_propagate` workload; see the module docs.
#[derive(Debug)]
pub struct DesignPropagate {
    w: Workload,
    probes: Vec<Fd>,
    gate_sample: usize,
    shape: (usize, usize, usize),
    /// The verdicts the gate established (public so a self-test can
    /// corrupt them).
    pub verdicts: Vec<bool>,
    cover: Vec<Fd>,
    warm_up: Duration,
}

/// The `(level, field)` pairs a key of Σ makes unique under their entity:
/// attributes with an `alt_…` key and elements with a `uniq_…` key (the
/// fields `target_fd` picks from for the deepest level).
fn keyed_fields(w: &Workload) -> Vec<(usize, String)> {
    let has_key = |name: String| w.sigma.iter().any(|k| k.name() == Some(name.as_str()));
    let mut out = Vec::new();
    for level in 0..w.config.depth {
        for field in w.attr_fields_per_level[level].iter().skip(1) {
            if has_key(format!("alt_{field}")) {
                out.push((level, field.clone()));
            }
        }
        for field in &w.element_fields_per_level[level] {
            if has_key(format!("uniq_{field}")) {
                out.push((level, field.clone()));
            }
        }
    }
    out
}

impl DesignPropagate {
    fn iteration(&self) -> (PropagationEngine, Vec<Fd>) {
        let engine = PropagationEngine::prepare(&self.w.sigma, &self.w.universal);
        let cover = engine.minimum_cover();
        (engine, cover)
    }
}

impl Bench for DesignPropagate {
    const NAME: &'static str = "design_propagate";

    fn setup(params: &Params) -> Self {
        let ((fields, depth, keys), probes, gate_sample) = match params.scale {
            Scale::Full => ((300, 10, 100), 20_000, 2_000),
            Scale::Smoke => ((40, 5, 12), 400, 400),
        };
        let w = inputs::schema(fields, depth, keys);
        let mut rng = inputs::rng(params.seed, 3);
        let keyed = keyed_fields(&w);
        let probes = (0..probes)
            .map(|i| {
                if i % 2 == 0 {
                    // Built to be guaranteed: a level's chain key
                    // determines a keyed field of that level.
                    let (level, field) = keyed.choose(&mut rng).expect("Σ keys some field");
                    Fd::new(
                        w.chain_key(*level),
                        std::iter::once(field.clone()).collect(),
                    )
                } else {
                    random_fd(&w, &mut rng, 1 + (i / 2) % 3)
                }
            })
            .collect();
        DesignPropagate {
            w,
            probes,
            gate_sample,
            shape: (fields, depth, keys),
            verdicts: Vec::new(),
            cover: Vec::new(),
            warm_up: if params.scale == Scale::Full {
                WARM_UP
            } else {
                Duration::ZERO
            },
        }
    }

    fn sizes(&self) -> Vec<(&'static str, String)> {
        let (fields, depth, keys) = self.shape;
        vec![
            ("fields/depth/keys", format!("{fields}/{depth}/{keys}")),
            ("probes", inputs::thousands(self.probes.len())),
            (
                "probe mix",
                "half chain key -> keyed field (built guaranteed), half random".to_string(),
            ),
            ("gate sample", inputs::thousands(self.gate_sample)),
        ]
    }

    fn gate(&mut self, tally: &mut Tally) {
        let (engine, cover) = self.iteration();
        self.verdicts = engine.propagate_all(&self.probes);
        self.cover = cover;
        let checker = GMinimumCover::from_engine(engine);
        tally.check(checker.cover() == self.cover.as_slice(), || {
            "design_propagate: GMinimumCover's cover differs from minimum_cover".to_string()
        });
        let mut rng = inputs::rng(0, 4);
        let mut sample: Vec<usize> = (0..self.probes.len()).collect();
        sample.shuffle(&mut rng);
        for &i in sample.iter().take(self.gate_sample) {
            tally.check(checker.check(&self.probes[i]) == self.verdicts[i], || {
                format!(
                    "design_propagate: verdict on {} differs from GMinimumCover::check",
                    self.probes[i]
                )
            });
        }
    }

    fn warm_up(&mut self) {
        let start = Instant::now();
        while start.elapsed() < self.warm_up {
            let (engine, _) = self.iteration();
            std::hint::black_box(engine.propagate_all(&self.probes));
        }
    }

    fn measure(&mut self, seconds: f64, tally: &mut Tally) -> Timed {
        let start = Instant::now();
        let mut cover_ms = Vec::new();
        let mut rates = Vec::new();
        while cover_ms.len() < MIN_ITERATIONS || start.elapsed().as_secs_f64() < seconds {
            let t = Instant::now();
            let (engine, cover) = self.iteration();
            let cover_elapsed = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let verdicts = engine.propagate_all(&self.probes);
            let probe_s = t.elapsed().as_secs_f64();
            let cover_ok = cover == self.cover;
            tally.check(cover_ok, || {
                "design_propagate: a cover differs from the gate's".to_string()
            });
            cover_ms.push(if cover_ok {
                cover_elapsed * 1e3
            } else {
                f64::INFINITY
            });
            let wrong = verdicts
                .iter()
                .zip(&self.verdicts)
                .filter(|(a, b)| a != b)
                .count();
            tally.record(verdicts.len() as u64, wrong as u64, || {
                format!("design_propagate: {wrong} verdicts differ from the gate's")
            });
            rates.push((verdicts.len() - wrong) as f64 / probe_s);
        }
        let rates = Summary::new(rates);
        let probes_per_s = rates.p50().unwrap_or(f64::NAN);
        let cover = Summary::new(cover_ms);
        Timed {
            throughput: probes_per_s,
            metrics: vec![
                Metric::p50("design.cover_ms", &cover),
                Metric::new(
                    "design.probes_per_s",
                    probes_per_s,
                    "1/s",
                    format!(
                        "p50 of {} passes of {} probes",
                        rates.len(),
                        self.probes.len()
                    ),
                ),
            ],
            latency: Metric::latency(&cover, "prepare + minimum_cover"),
        }
    }

    fn trace(&mut self, seconds: f64, tally: &mut Tally) -> (Vec<Metric>, Tracer) {
        let mut guaranteed = 0;
        let traced = trace_twins(seconds, |budget, t| {
            let start = Instant::now();
            let mut i = 0;
            while budget.more(i, start, i < MIN_ITERATIONS) {
                t.set_op(i as u64);
                let keys = t.span("xmlkeys.prepare", |_| self.w.sigma.prepare());
                std::hint::black_box(keys);
                let engine = t.span("core.prepare", |_| {
                    PropagationEngine::prepare(&self.w.sigma, &self.w.universal)
                });
                let cover = t.span("core.minimum_cover", |_| engine.minimum_cover());
                let verdicts = t.span("core.propagate", |_| engine.propagate_all(&self.probes));
                t.span("bench.check", |_| {
                    tally.check(cover == self.cover && verdicts == self.verdicts, || {
                        "design_propagate: a traced iteration differs from the gate".to_string()
                    });
                    guaranteed = verdicts.iter().filter(|&&v| v).count();
                });
                i += 1;
            }
            i
        });
        let p = &traced.profile;
        let n = traced.ops;
        let all = |_: u64| true;
        let stat = format!("mean self time per iteration, {n} iterations");
        let mut metrics = vec![
            Metric::new(
                "xmlkeys.prepare_ms",
                per(p.self_ns("xmlkeys.prepare", all) as f64 / 1e6, n),
                "ms",
                stat.clone(),
            ),
            Metric::new(
                "core.prepare_ms",
                per(p.self_ns("core.prepare", all) as f64 / 1e6, n),
                "ms",
                stat.clone(),
            ),
            Metric::new(
                "core.minimum_cover_ms",
                per(p.self_ns("core.minimum_cover", all) as f64 / 1e6, n),
                "ms",
                stat,
            ),
            Metric::new(
                "core.propagate_us",
                per(
                    p.self_ns("core.propagate", all) as f64 / 1e3,
                    n * self.probes.len(),
                ),
                "us",
                format!("mean per probe, {n} x {} probes", self.probes.len()),
            ),
            Metric::new(
                "core.cover_fds",
                self.cover.len() as f64,
                "count",
                "FDs in the minimum cover",
            ),
            Metric::new(
                "core.guaranteed_share",
                per(guaranteed as f64, self.probes.len()),
                "ratio",
                format!("guaranteed verdicts of {} probes", self.probes.len()),
            ),
        ];
        metrics.extend(traced.accounting(Self::NAME));
        (metrics, traced.tracer)
    }
}
