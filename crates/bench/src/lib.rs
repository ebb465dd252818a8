//! Experiment harness reproducing the evaluation of Section 6 (Fig. 7).
//!
//! Every experiment is one entry of [`EXPERIMENTS`] and returns its
//! measurements as [`Row`]s.  Every timing goes through [`measure`]: it
//! runs the experiment's equivalence assertions first, then the timed arms
//! interleaved for [`TRIALS`] rounds.  The `paper_experiments` binary
//! prints the rows as tables and writes them as JSON.
//!
//! The absolute numbers will differ from the paper's 2003 hardware; what is
//! being reproduced is the *shape* of each curve:
//!
//! * Fig. 7(a): `minimumCover` grows polynomially with the number of fields
//!   while `naive` explodes exponentially (≈200× per +5 fields);
//! * Fig. 7(b): both `propagation` and `GminimumCover` are insensitive to
//!   the table-tree depth, and `propagation` is much faster;
//! * Fig. 7(c): `propagation` grows roughly linearly with the number of
//!   keys, `GminimumCover` faster.

#![forbid(unsafe_code)]

use std::hint::black_box;
use std::time::Instant;
use xmlprop_core::{
    minimum_cover, naive_minimum_cover, propagation, GMinimumCover, PropagationEngine,
};
use xmlprop_pipeline::{CorpusBundle, CorpusOptions, Faults, Jobs, PreparedState};
use xmlprop_query::{execute, parse_query, plan, plan_naive, Catalog, JoinKind, Plan};
use xmlprop_reldb::{Database, Fd, Relation, RelationSchema, Value};
use xmlprop_workload::{
    generate, generate_document_with_report, random_fd, target_fd, DocConfig, Workload,
    WorkloadConfig,
};
use xmlprop_xmltransform::Transformation;
use xmlprop_xmltree::{
    to_xml, AppliedDelta, Delta, DocIndex, Document, ElementBuilder, Fragment, LabelUniverse,
};

/// Timed trials per arm.  With five trials the p90 of [`Stats`] is the
/// slowest trial.
pub const TRIALS: usize = 5;

/// Minimum, median and 90th percentile (nearest rank) of one arm's trial
/// times, in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    /// The fastest trial.
    pub min: f64,
    /// The median trial.
    pub median: f64,
    /// The 90th-percentile trial.
    pub p90: f64,
}

impl Stats {
    /// The statistics of a non-empty sample.
    pub fn of(samples: &[f64]) -> Stats {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let rank = |q: f64| sorted[((q * sorted.len() as f64).ceil() as usize).max(1) - 1];
        Stats {
            min: sorted[0],
            median: rank(0.5),
            p90: rank(0.9),
        }
    }
}

/// Runs `check`, the experiment's equivalence assertions, and then every
/// arm once per round for [`TRIALS`] rounds, in arm order, so host jitter
/// hits all arms alike.  Returns each arm's [`Stats`] in arm order.  A
/// failing check panics before any arm has run.
pub fn measure(check: impl FnOnce(), arms: &mut [&mut dyn FnMut()]) -> Vec<Stats> {
    check();
    let mut samples = vec![Vec::with_capacity(TRIALS); arms.len()];
    for _ in 0..TRIALS {
        for (arm, times) in arms.iter_mut().zip(&mut samples) {
            let start = Instant::now();
            arm();
            times.push(start.elapsed().as_secs_f64());
        }
    }
    samples.iter().map(|times| Stats::of(times)).collect()
}

/// One measurement: a line of an experiment's table, of its JSON file under
/// `target/paper_experiments/`, and of `BENCH_fig7.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// The row family, e.g. `fig7a_minimum_cover`.
    pub bench: String,
    /// The family's scale parameter (fields, depth, keys, FDs, nodes,
    /// threads or rows).
    pub n: usize,
    /// The measured value, in `unit`.
    pub value: f64,
    /// `s` (seconds), `ms` (milliseconds per operation) or `1/s`
    /// (operations per second).
    pub unit: &'static str,
    /// How `value` summarizes the trials: `median`.
    pub stat: &'static str,
    /// How far the value moved between the fastest trial and the p90
    /// trial, in `unit`.
    pub spread: f64,
}

impl Row {
    fn secs(bench: impl Into<String>, n: usize, stats: &Stats) -> Row {
        Row {
            bench: bench.into(),
            n,
            value: stats.median,
            unit: "s",
            stat: "median",
            spread: stats.p90 - stats.min,
        }
    }

    /// A rate row for an arm that performs `ops` operations per trial.
    fn per_sec(bench: impl Into<String>, n: usize, stats: &Stats, ops: usize) -> Row {
        let rate = |secs: f64| ops as f64 / secs;
        Row {
            bench: bench.into(),
            n,
            value: rate(stats.median),
            unit: "1/s",
            stat: "median",
            spread: rate(stats.min) - rate(stats.p90),
        }
    }

    /// A milliseconds-per-operation row for an arm that performs `ops`
    /// operations per trial.
    fn ms_per_op(bench: impl Into<String>, n: usize, stats: &Stats, ops: usize) -> Row {
        let ms = |secs: f64| secs * 1e3 / ops as f64;
        Row {
            bench: bench.into(),
            n,
            value: ms(stats.median),
            unit: "ms",
            stat: "median",
            spread: ms(stats.p90) - ms(stats.min),
        }
    }
}

/// Renders rows as the pretty-printed JSON array `paper_experiments`
/// writes: two-space indent, `": "` separators, integer-valued numbers
/// without a fraction, non-finite numbers as `null`, every other number
/// with Rust's `{}`.  Names are quoted with `{:?}`, which is JSON string
/// syntax for the printable identifiers rows carry.
pub fn rows_json(rows: &[Row]) -> String {
    let number = |x: f64| {
        if !x.is_finite() {
            "null".to_string()
        } else if x == x.trunc() && x.abs() < 9_007_199_254_740_992.0 {
            format!("{}", x as i64)
        } else {
            format!("{x}")
        }
    };
    let objects: Vec<String> = rows
        .iter()
        .map(|row| {
            format!(
                "  {{\n    \"bench\": {:?},\n    \"n\": {},\n    \"value\": {},\n    \
                 \"unit\": {:?},\n    \"stat\": {:?},\n    \"spread\": {}\n  }}",
                row.bench,
                number(row.n as f64),
                number(row.value),
                row.unit,
                row.stat,
                number(row.spread),
            )
        })
        .collect();
    if objects.is_empty() {
        "[]".to_string()
    } else {
        format!("[\n{}\n]", objects.join(",\n"))
    }
}

/// One seconds row per arm, named in arm order.  Panics unless there is
/// exactly one name per arm.
fn time_rows<S: Into<String>>(
    names: impl IntoIterator<Item = S>,
    n: usize,
    stats: &[Stats],
) -> Vec<Row> {
    let names: Vec<String> = names.into_iter().map(Into::into).collect();
    assert_eq!(
        names.len(),
        stats.len(),
        "one row name per timed arm: {names:?}"
    );
    names
        .into_iter()
        .zip(stats)
        .map(|(name, stats)| Row::secs(name, n, stats))
        .collect()
}

/// An experiment: its name on the command line, a one-line title, and the
/// function that runs it (`true` selects the reduced grids).
pub type Experiment = (&'static str, &'static str, fn(bool) -> Vec<Row>);

/// Every experiment, in the order a full run executes them.
pub const EXPERIMENTS: &[Experiment] = &[
    (
        "fig7a",
        "Fig. 7(a): minimum-cover time vs number of fields (depth 5, keys 10)",
        fig7a,
    ),
    (
        "fig7b",
        "Fig. 7(b): effect of table-tree depth (fields 15, keys 10)",
        fig7b,
    ),
    (
        "fig7c",
        "Fig. 7(c): effect of the number of XML keys (fields 15, depth 10)",
        fig7c,
    ),
    ("large", "Section 6 in-text large-scale spot checks", large),
    (
        "closure",
        "FD engine: attribute closure and minimum cover at 1k-10k FDs",
        closure,
    ),
    (
        "prepared",
        "One-shot facades vs prepared state: implication by keys and by depth, batch propagation",
        prepared,
    ),
    (
        "docs",
        "Document engine: index build, prepared shredding and validation",
        docs,
    ),
    (
        "stream",
        "Streaming validation vs the DOM path end to end",
        stream,
    ),
    (
        "corpus",
        "Corpus pipeline: whole-corpus shred and validate vs worker threads",
        corpus,
    ),
    (
        "serve",
        "Resident server: validate requests/s vs client threads, per-verb round trips",
        serve,
    ),
    (
        "incremental",
        "Incremental maintenance of one edit vs from-scratch recomputation",
        incremental,
    ),
    (
        "query",
        "Query layer: key-lookup join vs nested loop",
        query,
    ),
];

/// Depth and key count of the Fig. 7(a) sweep.  The paper does not print
/// them, so these are the Fig. 7(b)/(c) defaults.
const FIG7A_DEPTH: usize = 5;
const FIG7A_KEYS: usize = 10;
/// Fields beyond which the exponential `naive` baseline is not run: it
/// doubles its work with every added field, and 15 fields already take a
/// third of a second.
const NAIVE_MAX_FIELDS: usize = 15;

/// Fig. 7(a): the minimum cover through the one-shot facade and from a
/// prepared engine, and the `naive` baseline while it stays tractable.
fn fig7a(quick: bool) -> Vec<Row> {
    let field_counts: &[usize] = if quick {
        &[5, 10, 15, 20, 40, 80]
    } else {
        &[5, 10, 15, 20, 25, 50, 75, 100, 150, 200, 300, 400, 500]
    };
    let mut rows = Vec::new();
    for &fields in field_counts {
        let w = generate(&WorkloadConfig::new(
            fields,
            FIG7A_DEPTH.min(fields),
            FIG7A_KEYS,
        ));
        let engine = PropagationEngine::prepare(&w.sigma, &w.universal);
        let mut facade = || {
            black_box(minimum_cover(&w.sigma, &w.universal));
        };
        let mut prepared = || {
            black_box(engine.minimum_cover());
        };
        let mut naive = || {
            black_box(naive_minimum_cover(&w.sigma, &w.universal));
        };
        let mut names = vec!["fig7a_minimum_cover", "fig7a_minimum_cover_prepared"];
        let mut arms: Vec<&mut dyn FnMut()> = vec![&mut facade, &mut prepared];
        if fields <= NAIVE_MAX_FIELDS {
            names.push("fig7a_naive");
            arms.push(&mut naive);
        }
        let stats = measure(
            || {
                assert_eq!(
                    minimum_cover(&w.sigma, &w.universal),
                    engine.minimum_cover(),
                    "facade and prepared covers disagree at {fields} fields"
                );
            },
            &mut arms,
        );
        rows.extend(time_rows(names, fields, &stats));
    }
    rows
}

/// Fig. 7(b): effect of table-tree depth (fields = 15, keys = 10).
fn fig7b(quick: bool) -> Vec<Row> {
    let depths: &[usize] = if quick {
        &[2, 5, 10, 15]
    } else {
        &[2, 4, 6, 8, 10, 12, 14, 16, 18, 20]
    };
    depths
        .iter()
        .flat_map(|&depth| {
            let w = generate(&WorkloadConfig::new(15.max(depth), depth, 10));
            propagation_rows("fig7b", depth, &w)
        })
        .collect()
}

/// Fig. 7(c): effect of the number of XML keys (fields = 15, depth = 10).
fn fig7c(quick: bool) -> Vec<Row> {
    let key_counts: &[usize] = if quick {
        &[10, 25, 50]
    } else {
        &[10, 20, 30, 40, 50, 60, 70, 80, 90, 100]
    };
    key_counts
        .iter()
        .flat_map(|&keys| {
            let w = generate(&WorkloadConfig::new(15, 10, keys));
            propagation_rows("fig7c", keys, &w)
        })
        .collect()
}

/// Probe FDs for the propagation experiments: the workload's positive
/// chain FD plus `extra` random ones drawn from a seed salted by `salt`.
fn probe_fds(w: &Workload, extra: usize, salt: u64) -> Vec<Fd> {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(w.config.seed ^ salt);
    std::iter::once(target_fd(w))
        .chain((0..extra).map(|i| random_fd(w, &mut rng, 1 + i % 3)))
        .collect()
}

/// The Fig. 7(b)/(c) arms on one workload: five probe FDs through the
/// one-shot `propagation` facade (which prepares per call), a prepared
/// engine, and `GminimumCover` (including its minimum cover).
fn propagation_rows(figure: &str, n: usize, w: &Workload) -> Vec<Row> {
    let probes = probe_fds(w, 4, 0xfd);
    let engine = PropagationEngine::prepare(&w.sigma, &w.universal);
    let facade = || {
        probes
            .iter()
            .map(|fd| propagation(&w.sigma, &w.universal, fd))
            .collect::<Vec<_>>()
    };
    let g_minimum_cover = || {
        let checker = GMinimumCover::new(w.sigma.clone(), w.universal.clone());
        probes
            .iter()
            .map(|fd| checker.check(fd))
            .collect::<Vec<_>>()
    };
    let stats = measure(
        || {
            let verdicts = facade();
            assert_eq!(
                verdicts,
                engine.propagate_all(&probes),
                "facade and prepared engine disagree on {probes:?}"
            );
            assert_eq!(
                verdicts,
                g_minimum_cover(),
                "propagation and GminimumCover disagree on {probes:?}"
            );
        },
        &mut [
            &mut || {
                black_box(facade());
            },
            &mut || {
                black_box(engine.propagate_all(&probes));
            },
            &mut || {
                black_box(g_minimum_cover());
            },
        ],
    );
    time_rows(
        ["propagation", "propagation_prepared", "gminimumcover"]
            .map(|arm| format!("{figure}_{arm}")),
        n,
        &stats,
    )
}

/// The in-text measurements of Section 6: `GminimumCover` at (200 fields,
/// 50 keys) and (150, 100), and `propagation` at 1000 fields (the Oracle
/// column limit) with 50 and 100 keys.  Rows are named by algorithm and
/// field count, with `n` the key count.
fn large(_quick: bool) -> Vec<Row> {
    [
        ("gminimumcover", 200, 50),
        ("gminimumcover", 150, 100),
        ("propagation", 1000, 50),
        ("propagation", 1000, 100),
    ]
    .into_iter()
    .map(|(algorithm, fields, keys)| {
        let w = generate(&WorkloadConfig::new(fields, 10, keys));
        let probe = target_fd(&w);
        let by_propagation = || propagation(&w.sigma, &w.universal, &probe);
        let by_g_minimum_cover =
            || GMinimumCover::new(w.sigma.clone(), w.universal.clone()).check(&probe);
        let mut run = || {
            black_box(if algorithm == "propagation" {
                by_propagation()
            } else {
                by_g_minimum_cover()
            });
        };
        let stats = measure(
            || {
                assert_eq!(
                    by_propagation(),
                    by_g_minimum_cover(),
                    "propagation and GminimumCover disagree at {fields} fields"
                );
            },
            &mut [&mut run],
        );
        Row::secs(format!("large_{algorithm}_{fields}f"), keys, &stats[0])
    })
    .collect()
}

/// The interned FD engine of `xmlprop-reldb` on synthetic sets of 1k–10k
/// FDs: one closure query over a prepared `FdIndex`, the same query through
/// the `String` facade (which interns the FD set per call), and the
/// quadratic `minimum_cover` whose implication tests dominate Fig. 7(a).
fn closure(quick: bool) -> Vec<Row> {
    use std::collections::BTreeSet;
    use xmlprop_reldb::intern::{AttrUniverse, FdIndex};
    use xmlprop_workload::{closure_seed, generate_fds, FdSetConfig};
    let sizes: &[usize] = if quick {
        &[1_000]
    } else {
        &[1_000, 5_000, 10_000]
    };
    let mut rows = Vec::new();
    for &n in sizes {
        let config = FdSetConfig::sized(n);
        let fds = generate_fds(&config);
        let seed = closure_seed(&config, 3);
        let mut universe = AttrUniverse::from_fds(&fds);
        let interned: Vec<_> = fds.iter().map(|fd| universe.intern_fd(fd)).collect();
        let index = FdIndex::new(universe.len(), &interned);
        let interned_seed = universe.lookup_set(&seed);
        let stats = measure(
            || {
                let indexed: BTreeSet<String> = index
                    .closure(&interned_seed)
                    .iter()
                    .map(|attr| universe.name(attr).to_string())
                    .collect();
                assert_eq!(
                    indexed,
                    xmlprop_reldb::closure(&seed, &fds),
                    "indexed and facade closures disagree at {n} FDs"
                );
            },
            &mut [
                &mut || {
                    black_box(index.closure(&interned_seed));
                },
                &mut || {
                    black_box(xmlprop_reldb::closure(&seed, &fds));
                },
                &mut || {
                    black_box(xmlprop_reldb::minimum_cover(&fds));
                },
            ],
        );
        rows.extend(time_rows(
            ["closure_indexed", "closure_facade", "closure_minimum_cover"],
            n,
            &stats,
        ));
    }
    rows
}

/// A representative implication probe for a chain workload of the given
/// depth: is the deepest entity level keyed (relative to the level above)
/// by its id?
fn implication_probe(depth: usize) -> xmlprop_xmlkeys::XmlKey {
    use xmlprop_xmlpath::PathExpr;
    let mut context = PathExpr::epsilon().descendant("e0");
    for level in 1..depth.saturating_sub(1) {
        context = context.child(format!("e{level}"));
    }
    xmlprop_xmlkeys::XmlKey::new(
        context,
        PathExpr::label(format!("e{}", depth - 1)),
        [format!("@id{}", depth - 1)],
    )
}

/// The prepared-engine ablation: the same queries through the one-shot
/// facades (which re-prepare Σ and the rule per call) and through prepared
/// state built once, inside the timed region.
///
/// * `implication` / `implication_depth`: one probe key asked 2 000 times
///   through `xmlprop_xmlkeys::implies` (which rebuilds the key index per
///   call) versus one prepared index, by key count (20 fields, depth 5)
///   and by depth (10 keys); the `_prepared_query` arm asks an index and
///   probe prepared before timing, so it is the query cost alone;
/// * `batch_propagation`: a 10 000-FD candidate grid over a deep
///   large-Σ workload through the `propagation` facade versus one
///   `PropagationEngine::propagate_all`.
fn prepared(quick: bool) -> Vec<Row> {
    let reps = if quick { 200 } else { 2_000 };
    let key_counts: &[usize] = if quick { &[50] } else { &[10, 25, 50, 100] };
    let depths: &[usize] = if quick { &[2, 5] } else { &[2, 5, 10, 20] };
    // (row family, n, workload, probe depth)
    let grid = key_counts
        .iter()
        .map(|&keys| ("implication", keys, WorkloadConfig::new(20, 5, keys), 5))
        .chain(depths.iter().map(|&depth| {
            let config = WorkloadConfig::new(20.max(depth), depth, 10);
            ("implication_depth", depth, config, depth)
        }));
    let mut rows = Vec::new();
    for (family, n, config, depth) in grid {
        let w = generate(&config);
        let probe = implication_probe(depth);
        let facade = || (0..reps).fold(false, |_, _| xmlprop_xmlkeys::implies(&w.sigma, &probe));
        let prepared = || {
            let mut index = w.sigma.prepare();
            let probe = index.prepare(&probe);
            (0..reps).fold(false, |_, _| index.implies(&probe))
        };
        let mut ready_index = w.sigma.prepare();
        let ready_probe = ready_index.prepare(&probe);
        let query = || (0..reps).fold(false, |_, _| ready_index.implies(&ready_probe));
        let stats = measure(
            || {
                let verdict = facade();
                assert_eq!(verdict, prepared(), "implication disagreement on {probe}");
                assert_eq!(verdict, query(), "implication disagreement on {probe}");
            },
            &mut [
                &mut || {
                    black_box(facade());
                },
                &mut || {
                    black_box(prepared());
                },
                &mut || {
                    black_box(query());
                },
            ],
        );
        rows.extend(time_rows(
            ["facade", "prepared", "prepared_query"].map(|arm| format!("{family}_{arm}")),
            n,
            &stats,
        ));
    }

    let n_fds = if quick { 1_000 } else { 10_000 };
    let w = generate(&WorkloadConfig::new(15, 10, 100));
    let probes = probe_fds(&w, n_fds - 1, 0xba7c4);
    let facade = || {
        probes
            .iter()
            .map(|fd| propagation(&w.sigma, &w.universal, fd))
            .collect::<Vec<_>>()
    };
    let prepared = || PropagationEngine::prepare(&w.sigma, &w.universal).propagate_all(&probes);
    let stats = measure(
        || assert_eq!(facade(), prepared(), "batch propagation disagreement"),
        &mut [
            &mut || {
                black_box(facade());
            },
            &mut || {
                black_box(prepared());
            },
        ],
    );
    rows.extend(time_rows(
        ["batch_propagation_facade", "batch_propagation_prepared"],
        n_fds,
        &stats,
    ));
    rows
}

/// The document grid shared by `docs`, `stream` and `incremental`, as
/// (fields, depth, keys, branching): about 10⁴, 10⁵ and 10⁶ nodes, so
/// their row families compare at identical `n`.
const DOC_GRID: [(usize, usize, usize, usize); 3] =
    [(15, 4, 10, 6), (15, 5, 10, 8), (18, 6, 10, 8)];

/// The document grid; `quick` keeps the ~10⁴-node point.
fn doc_grid(quick: bool) -> &'static [(usize, usize, usize, usize)] {
    if quick {
        &DOC_GRID[..1]
    } else {
        &DOC_GRID
    }
}

/// The workload and generated document of one grid point, with the
/// document's exact node count.  The depth is explicit: the generator
/// panics rather than silently capping if the workload cannot honor it.
fn grid_document(
    (fields, depth, keys, branching): (usize, usize, usize, usize),
) -> (Workload, Document, usize) {
    let w = generate(&WorkloadConfig::new(fields, depth, keys));
    let (doc, report) = generate_document_with_report(
        &w,
        &DocConfig {
            branching,
            omission_probability: 0.1,
            seed: 11,
            depth: Some(depth),
        },
    );
    (w, doc, report.nodes)
}

/// Whether some relation of `db` holds a tuple, so that two engines
/// agreeing on it is not two empty outputs agreeing.
fn has_tuples(db: &Database) -> bool {
    db.relations().any(|relation| !relation.is_empty())
}

/// The transformation holding only the workload's universal rule.
fn universal_transformation(w: &Workload) -> Transformation {
    let mut t = Transformation::new(Vec::new());
    t.add_rule(w.universal.clone());
    t
}

/// The document engine at 10⁴–10⁶ nodes: the DOM parse of the serialized
/// document alone, the one-time `DocIndex` build, universal-relation
/// shredding through a prepared `ShredPlan`, and whole-Σ validation
/// through `KeyIndex::satisfies`.  `n` is the exact node count.
fn docs(quick: bool) -> Vec<Row> {
    let mut rows = Vec::new();
    for &point in doc_grid(quick) {
        let (w, doc, nodes) = grid_document(point);
        let text = to_xml(&doc);
        let mut universe = LabelUniverse::new();
        let plan = w.universal.prepare(&mut universe);
        let doc_index = DocIndex::build(&doc, &mut universe);
        let mut key_index = w.sigma.prepare();
        let key_doc_index = key_index.index_document(&doc);
        let parse = || Document::parse_str(&text).expect("serialized documents reparse");
        let stats = measure(
            || {
                let parsed = parse();
                assert_eq!(parsed.len(), nodes, "the parse keeps every node");
                assert_eq!(to_xml(&parsed), text, "the parse round-trips");
                let shredded = plan.shred(&doc, &doc_index);
                assert!(!shredded.is_empty(), "the universal relation is empty");
                assert!(
                    key_index.satisfies(&doc, &key_doc_index),
                    "generated documents satisfy their own Σ"
                );
            },
            &mut [
                &mut || {
                    black_box(parse());
                },
                &mut || {
                    black_box(DocIndex::build(&doc, &mut universe));
                },
                &mut || {
                    black_box(plan.shred(&doc, &doc_index));
                },
                &mut || {
                    black_box(key_index.satisfies(&doc, &key_doc_index));
                },
            ],
        );
        rows.extend(time_rows(
            [
                "docs_parse",
                "docs_index_build",
                "docs_shred_prepared",
                "docs_validate_prepared",
            ],
            nodes,
            &stats,
        ));
    }
    rows
}

/// Streaming validation against the DOM path on the `docs` grid: one
/// validate-only `CorpusBundle::stream_text` pass over the serialized text
/// versus the DOM path end to end (parse + `DocIndex` build + engine),
/// since that is what the streaming pass replaces.  Shredding has only the
/// DOM arm: `stream_text` shreds by parsing.
fn stream(quick: bool) -> Vec<Row> {
    let mut rows = Vec::new();
    for &point in doc_grid(quick) {
        let (w, doc, nodes) = grid_document(point);
        let text = to_xml(&doc);
        drop(doc); // the streaming side must stand on the text alone
        let bundle = CorpusBundle::prepare(w.sigma.clone(), universal_transformation(&w));
        let options = |shred: bool, stream: bool| CorpusOptions {
            jobs: Jobs::default(),
            shred,
            validate: !shred,
            covers: false,
            stream,
        };
        let dom = |scratch: &mut _, shred: bool| {
            let doc = Document::parse_str(&text).expect("serialized documents reparse");
            bundle.process(&doc, scratch, &options(shred, false))
        };
        let (mut shred_scratch, mut validate_scratch) = (bundle.scratch(), bundle.scratch());
        let stats = measure(
            || {
                let streamed = bundle
                    .stream_text(&text, &options(false, true))
                    .expect("serialized workload documents stream");
                let dom_validated = dom(&mut bundle.scratch(), false);
                assert!(
                    streamed.peak_open_bindings > 0,
                    "validation took the streaming path"
                );
                assert_eq!(
                    streamed.violations, dom_validated.violations,
                    "stream/DOM validation disagree"
                );
                assert_eq!(
                    streamed.nodes, dom_validated.nodes,
                    "stream/DOM node counts disagree"
                );
                assert!(
                    streamed.violations.is_empty(),
                    "generated documents satisfy their own Σ"
                );
                assert!(
                    has_tuples(&dom(&mut bundle.scratch(), true).database),
                    "the shredded database is empty"
                );
            },
            &mut [
                &mut || {
                    black_box(bundle.stream_text(&text, &options(false, true)))
                        .expect("serialized workload documents stream");
                },
                &mut || {
                    black_box(dom(&mut shred_scratch, true));
                },
                &mut || {
                    black_box(dom(&mut validate_scratch, false));
                },
            ],
        );
        rows.extend(time_rows(
            ["stream_validate", "dom_shred_e2e", "dom_validate_e2e"],
            nodes,
            &stats,
        ));
    }
    rows
}

/// The corpus shared by the `corpus` and `serve` experiments: one prepared
/// bundle plus a generated corpus whose documents satisfy Σ.  The full
/// corpus exceeds 100k total nodes (asserted).
fn corpus_setup(quick: bool) -> (CorpusBundle, Vec<Document>) {
    use xmlprop_workload::{generate_corpus, CorpusConfig};
    let w = generate(&WorkloadConfig::new(15, 4, 10));
    let config = CorpusConfig {
        documents: if quick { 6 } else { 24 },
        base: DocConfig {
            branching: 6,
            omission_probability: 0.1,
            seed: 23,
            depth: Some(4),
        },
    };
    let (docs, report) = generate_corpus(&w, &config);
    assert!(
        quick || report.total_nodes >= 100_000,
        "full corpus must exceed 100k nodes, got {}",
        report.total_nodes
    );
    let bundle = CorpusBundle::prepare(w.sigma.clone(), universal_transformation(&w));
    (bundle, docs)
}

/// Whole-corpus shredding and validation through one shared bundle at
/// 1/2/4/8 worker threads, with `n` the thread count.  Scaling is bounded
/// by the cores of the host that runs it.
fn corpus(quick: bool) -> Vec<Row> {
    let (bundle, docs) = corpus_setup(quick);
    let (bundle, docs) = (&bundle, &docs);
    let job_grid: &[usize] = if quick { &[1, 2] } else { &[1, 2, 4, 8] };
    let options = |jobs: usize, shred: bool| CorpusOptions {
        jobs: Jobs::new(jobs).expect("grid thread counts are valid"),
        shred,
        validate: !shred,
        covers: false,
        stream: false,
    };
    let configs: Vec<(&str, usize, CorpusOptions)> = job_grid
        .iter()
        .flat_map(|&jobs| {
            [
                ("corpus_shred", jobs, options(jobs, true)),
                ("corpus_validate", jobs, options(jobs, false)),
            ]
        })
        .collect();
    let mut runs: Vec<_> = configs
        .iter()
        .map(|(_, _, options)| {
            move || {
                black_box(bundle.run(docs, options));
            }
        })
        .collect();
    let stats = measure(
        || {
            // The parallel merge must reproduce the sequential result
            // exactly, whatever the completion order.
            let reference = bundle.run_sequential(docs, &CorpusOptions::default());
            for (_, jobs, options) in &configs {
                let result = bundle.run(docs, options);
                assert_eq!(reference.documents.len(), result.documents.len());
                for (i, (seq, par)) in reference
                    .documents
                    .iter()
                    .zip(&result.documents)
                    .enumerate()
                {
                    if options.shred {
                        assert_eq!(seq.database, par.database, "doc {i} at jobs={jobs}");
                    } else {
                        assert_eq!(seq.violations, par.violations, "doc {i} at jobs={jobs}");
                    }
                }
                if options.validate {
                    assert_eq!(
                        result.stats.violations, 0,
                        "generated corpora satisfy their own Σ"
                    );
                }
            }
        },
        &mut runs
            .iter_mut()
            .map(|run| run as &mut dyn FnMut())
            .collect::<Vec<_>>(),
    );
    configs
        .iter()
        .zip(&stats)
        .map(|((bench, jobs, _), stats)| Row::secs(*bench, *jobs, stats))
        .collect()
}

/// The seeded schedule the faulty serve grid runs under: 10% of server
/// reads delayed by 1 ms, 10% of server writes fragmented to 16 bytes —
/// real transport jitter, but no torn connections, so every response
/// still completes and byte-checks.
const FAULTY_SERVE_SPEC: &str = "conn.read=10%delay:1,conn.write=10%short:16";

/// Validate throughput of the resident server at 1/2/4/8 concurrent client
/// connections, each a real TCP loopback session, with `n` the client
/// count; once clean and once under [`FAULTY_SERVE_SPEC`].  Then the round
/// trip of each verb at one client ([`serve_roundtrips`]).  Every served
/// response is asserted byte-equal to the one-shot renderer's output.
fn serve(quick: bool) -> Vec<Row> {
    use xmlprop_server::{render, Client, Request, Server, ServiceConfig};
    let (bundle, docs) = corpus_setup(quick);
    let texts: Vec<String> = docs.iter().take(4).map(to_xml).collect();
    let expected: Vec<String> = {
        let mut scratch = bundle.scratch();
        texts
            .iter()
            .map(|text| {
                let doc = Document::parse_str(text).expect("serialized corpus documents reparse");
                render::validate_report(&bundle, &doc, &mut scratch).1
            })
            .collect()
    };
    let (texts, expected) = (&texts, &expected);
    let grid: &[usize] = if quick { &[1, 2] } else { &[1, 2, 4, 8] };
    let requests = if quick { 24 } else { 240 };
    let mut rows = Vec::new();
    for (bench, faults) in [
        ("serve_requests_per_sec", Faults::disabled()),
        (
            "serve_requests_per_sec_faulty",
            Faults::parse(FAULTY_SERVE_SPEC, 42).expect("the faulty serve spec parses"),
        ),
    ] {
        let server = Server::bind_with(
            "127.0.0.1:0",
            bundle.clone(),
            Jobs::new(8).expect("8 is a valid thread count"),
            ServiceConfig::default(),
            faults,
        )
        .expect("loopback bind");
        let addr = server.local_addr();
        // One pass: `requests` validate requests spread over `threads`
        // client connections.
        let pass = |threads: usize| {
            std::thread::scope(|scope| {
                for t in 0..threads {
                    scope.spawn(move || {
                        let mut client = Client::connect(addr).expect("loopback connect");
                        for i in 0..requests / threads {
                            let j = (t + i) % texts.len();
                            let response = client
                                .send(&Request::Validate {
                                    document: texts[j].clone(),
                                })
                                .expect("request round-trip");
                            assert_eq!(
                                response.payload, expected[j],
                                "served response must equal the sequential renderer output"
                            );
                        }
                    });
                }
            });
        };
        let mut passes: Vec<_> = grid.iter().map(|&threads| move || pass(threads)).collect();
        let stats = measure(
            || grid.iter().for_each(|&threads| pass(threads)),
            &mut passes
                .iter_mut()
                .map(|pass| pass as &mut dyn FnMut())
                .collect::<Vec<_>>(),
        );
        server.shutdown();
        rows.extend(grid.iter().zip(&stats).map(|(&threads, stats)| {
            Row::per_sec(bench, threads, stats, requests / threads * threads)
        }));
    }
    rows.extend(serve_roundtrips(&bundle, &texts[0], quick));
    rows
}

/// Per-verb round trips of the resident server at one client: one loopback
/// connection sends a run of sequential requests of one verb per trial,
/// and each `serve_roundtrip_ms_<verb>` row (`n` = 1 client) is the
/// milliseconds per request.  Validate and shred carry `text`; propagate
/// asks for the first FD of the first rule's cover, cover for that rule.
/// A round trip is the transport plus the handler, so a message that
/// leaves its sender in several writes shows here as a delayed-ACK stall.
fn serve_roundtrips(bundle: &CorpusBundle, text: &str, quick: bool) -> Vec<Row> {
    use std::cell::RefCell;
    use xmlprop_server::{render, Client, Request, Server};
    let doc = Document::parse_str(text).expect("serialized corpus documents reparse");
    let mut scratch = bundle.scratch();
    let rule = &bundle.covers()[0];
    let fd = rule
        .cover
        .first()
        .expect("the universal rule propagates FDs");
    let engine = render::require_rule(bundle, &rule.relation).expect("the rule is served");
    let cases = [
        (
            Request::Validate {
                document: text.to_string(),
            },
            render::validate_report(bundle, &doc, &mut scratch).1,
        ),
        (
            Request::Shred {
                document: text.to_string(),
                relation: None,
            },
            render::shred_report(bundle, &doc, &mut scratch, None)
                .expect("the corpus document shreds")
                .1,
        ),
        (
            Request::Propagate {
                relation: rule.relation.clone(),
                fd: fd.to_string(),
            },
            render::propagate_report(&engine.propagation_explained(fd)).1,
        ),
        (
            Request::Cover {
                relation: Some(rule.relation.clone()),
            },
            render::cover_report(bundle, Some(&rule.relation))
                .expect("the rule has a cover")
                .1,
        ),
    ];
    let server = Server::bind(
        "127.0.0.1:0",
        bundle.clone(),
        Jobs::new(1).expect("1 is a valid thread count"),
    )
    .expect("loopback bind");
    let client = RefCell::new(Client::connect(server.local_addr()).expect("loopback connect"));
    let round_trip = |(request, expected): &(Request, String)| {
        let response = client
            .borrow_mut()
            .send(request)
            .expect("request round-trip");
        assert_eq!(
            &response.payload,
            expected,
            "served {} must equal the renderer output",
            request.verb()
        );
    };
    let repeats = if quick { 4 } else { 40 };
    let mut arms: Vec<_> = cases
        .iter()
        .map(|case| move || (0..repeats).for_each(|_| round_trip(case)))
        .collect();
    let stats = measure(
        || cases.iter().for_each(round_trip),
        &mut arms
            .iter_mut()
            .map(|arm| arm as &mut dyn FnMut())
            .collect::<Vec<_>>(),
    );
    drop(client);
    server.shutdown();
    cases
        .iter()
        .zip(&stats)
        .map(|((request, _), stats)| {
            let bench = format!("serve_roundtrip_ms_{}", request.verb());
            Row::ms_per_op(bench, 1, stats, repeats)
        })
        .collect()
}

/// A document under edits, with its index kept current.
struct Edited {
    doc: Document,
    universe: LabelUniverse,
    index: DocIndex,
}

impl Edited {
    fn new(doc: &Document, mut universe: LabelUniverse) -> Edited {
        let index = DocIndex::build(doc, &mut universe);
        Edited {
            doc: doc.clone(),
            universe,
            index,
        }
    }

    /// Applies `delta` and splices the index.
    fn splice(&mut self, delta: &Delta) -> AppliedDelta {
        let applied = self.doc.apply(delta).expect("toggle applies");
        self.index
            .apply_delta(&self.doc, &applied, &mut self.universe);
        applied
    }

    /// Applies `delta` and rebuilds the index from scratch.
    fn rebuild(&mut self, delta: &Delta) {
        self.doc.apply(delta).expect("toggle applies");
        self.index = DocIndex::build(&self.doc, &mut self.universe);
    }

    /// A from-scratch index of the current document.
    fn fresh_index(&self) -> DocIndex {
        DocIndex::build(&self.doc, &mut self.universe.clone())
    }
}

/// Delta maintenance versus from-scratch recomputation on the `docs` grid,
/// for one steady-state edit: a text toggle on the document's last text
/// leaf, whose dirty region is one root-to-leaf chain.  Incremental rows
/// apply the edit, splice the index and update the maintained validator
/// or shredder; scratch rows apply the same edit, rebuild the index and
/// run the full pass.  The maintained state is asserted equal to the
/// from-scratch result before and after the timed edits, and before them
/// also after a new root-child anchor is inserted and after it is removed,
/// so the checks cover contexts and anchors that appear and vanish.
fn incremental(quick: bool) -> Vec<Row> {
    use xmlprop_xmlkeys::IncrementalValidator;
    use xmlprop_xmltransform::{IncrementalShredder, TransformationPlan};
    use xmlprop_xmltree::NodeKind;
    let mut rows = Vec::new();
    for &point in doc_grid(quick) {
        let (w, doc, nodes) = grid_document(point);
        let target = doc
            .all_nodes()
            .into_iter()
            .rev()
            .find(|&n| matches!(doc.kind(n), NodeKind::Text))
            .expect("workload documents contain text leaves");
        let edit = |i: usize| Delta::SetText {
            node: target,
            text: format!("edit-{}", i % 2),
        };
        // A binding-set change for the checks: a new root-child `e0`
        // anchor with an `e1` child appears, then vanishes again.
        let anchor = ElementBuilder::new("e0")
            .attr("id0", "inserted")
            .child(ElementBuilder::new("e1").attr("id1", "inserted"))
            .build();
        let insert_anchor = Delta::InsertSubtree {
            parent: doc.root(),
            position: doc.children(doc.root()).count(),
            fragment: Fragment::Element(anchor),
        };
        let remove_anchor = |doc: &Document| Delta::RemoveSubtree {
            node: doc
                .children(doc.root())
                .last()
                .expect("the anchor was appended"),
        };

        let keys = w.sigma.prepare();
        let open = || {
            let side = Edited::new(&doc, keys.universe().clone());
            let validator = IncrementalValidator::new(&keys, &side.doc, &side.index);
            (side, validator)
        };
        let maintain = |(side, validator): &mut (Edited, IncrementalValidator), delta: &Delta| {
            let applied = side.splice(delta);
            validator.apply(&keys, &side.doc, &side.index, &applied);
        };
        let agree = |(side, validator): &(Edited, IncrementalValidator), what: &str| {
            let expected = keys.violations(&side.doc, &side.fresh_index());
            assert_eq!(validator.violation_count(), expected.len(), "{what}");
            assert_eq!(validator.violations(), expected, "{what}");
        };
        let mut maintained = open();
        let mut scratch = Edited::new(&doc, keys.universe().clone());
        let (mut i, mut j) = (0, 0);
        let stats = measure(
            || {
                let mut gate = open();
                maintain(&mut gate, &edit(0));
                agree(&gate, "incremental/scratch validation disagree");
                maintain(&mut gate, &insert_anchor);
                agree(&gate, "validation disagrees after an anchor insert");
                let remove = remove_anchor(&gate.0.doc);
                maintain(&mut gate, &remove);
                agree(&gate, "validation disagrees after an anchor removal");
            },
            &mut [
                &mut || {
                    i += 1;
                    maintain(&mut maintained, &edit(i));
                    black_box(maintained.1.violation_count());
                },
                &mut || {
                    j += 1;
                    scratch.rebuild(&edit(j));
                    black_box(keys.violations(&scratch.doc, &scratch.index));
                },
            ],
        );
        agree(
            &maintained,
            "incremental validation drifted across the timed edits",
        );
        rows.extend(time_rows(
            ["incr_validate", "scratch_validate"],
            nodes,
            &stats,
        ));

        let transformation = universal_transformation(&w);
        let mut universe = LabelUniverse::new();
        let plan = TransformationPlan::new(&transformation, &mut universe);
        let open = || {
            let side = Edited::new(&doc, universe.clone());
            let shredder = IncrementalShredder::new(&plan, &side.doc, &side.index);
            (side, shredder)
        };
        let maintain = |(side, shredder): &mut (Edited, IncrementalShredder), delta: &Delta| {
            let applied = side.splice(delta);
            shredder
                .apply(&plan, &side.doc, &side.index, &applied)
                .len()
        };
        let agree = |(side, shredder): &(Edited, IncrementalShredder), what: &str| {
            let fresh = side.fresh_index();
            let maintained = shredder.database(&plan);
            assert!(has_tuples(&maintained), "the maintained database is empty");
            assert_eq!(maintained, plan.shred_all(&side.doc, &fresh), "{what}");
        };
        let mut maintained = open();
        let mut scratch = Edited::new(&doc, universe.clone());
        let (mut i, mut j) = (0, 0);
        let stats = measure(
            || {
                let mut gate = open();
                maintain(&mut gate, &edit(0));
                agree(&gate, "incremental/scratch shredding disagree");
                maintain(&mut gate, &insert_anchor);
                agree(&gate, "shredding disagrees after an anchor insert");
                let remove = remove_anchor(&gate.0.doc);
                maintain(&mut gate, &remove);
                agree(&gate, "shredding disagrees after an anchor removal");
            },
            &mut [
                &mut || {
                    i += 1;
                    black_box(maintain(&mut maintained, &edit(i)));
                },
                &mut || {
                    j += 1;
                    scratch.rebuild(&edit(j));
                    black_box(plan.shred_all(&scratch.doc, &scratch.index));
                },
            ],
        );
        agree(
            &maintained,
            "incremental shredding drifted across the timed edits",
        );
        rows.extend(time_rows(["incr_shred", "scratch_shred"], nodes, &stats));
    }
    rows
}

/// A foreign-key join between a fact table and a dimension table whose
/// propagated cover makes `id` a key (`id -> payload`), executed by the
/// key-aware plan (a hash lookup) and by the naive nested-loop baseline on
/// `n`-row relations.  A sixteenth of the fact keys are NULL, which keeps
/// the null-semantics path on the measured loop.
fn query(quick: bool) -> Vec<Row> {
    let sizes: &[usize] = if quick {
        &[200, 400]
    } else {
        &[500, 1000, 2000, 4000]
    };
    let mut rows = Vec::new();
    for &n in sizes {
        let mut dim = Relation::new(RelationSchema::new("dim", ["id", "payload"]));
        let mut fact = Relation::new(RelationSchema::new("fact", ["fid", "val"]));
        for i in 0..n {
            dim.insert(vec![
                Value::text(format!("k{i}")),
                Value::text(format!("p{i}")),
            ]);
            let fid = if i % 16 == 15 {
                Value::Null
            } else {
                Value::text(format!("k{i}"))
            };
            fact.insert(vec![fid, Value::text(format!("v{i}"))]);
        }
        let mut catalog = Catalog::new();
        catalog.add_relation(
            dim.schema().clone(),
            &[Fd::parse("id -> payload").expect("well-formed FD")],
        );
        catalog.add_relation(fact.schema().clone(), &[]);
        let mut db = Database::new();
        db.insert(dim);
        db.insert(fact);

        let query = parse_query("select val, payload from fact join dim on fid = id")
            .expect("experiment query parses");
        let keyed = plan(&query, &catalog).expect("query binds");
        let naive = plan_naive(&query, &catalog).expect("query binds");
        let run = |plan: &Plan| execute(plan, &db).expect("plan executes");
        let stats = measure(
            || {
                assert_eq!(
                    keyed.joins[0].kind,
                    JoinKind::KeyLookup,
                    "the dimension join must plan as a hash lookup"
                );
                let joined = run(&keyed);
                assert!(!joined.is_empty(), "the join matched no rows");
                assert_eq!(
                    run(&naive),
                    joined,
                    "keyed and naive outputs must be identical"
                );
            },
            &mut [
                &mut || {
                    black_box(run(&naive));
                },
                &mut || {
                    black_box(run(&keyed));
                },
            ],
        );
        rows.extend(time_rows(["query_naive", "query_keyed"], n, &stats));
    }
    rows
}

/// `v` with four significant digits, or exactly when it is integral.
fn significant(v: f64) -> String {
    if v.fract() == 0.0 || !v.is_finite() {
        return v.to_string();
    }
    let decimals = (3 - v.abs().log10().floor() as i32).clamp(0, 12) as usize;
    format!("{v:.decimals$}")
}

/// Renders rows as an aligned text table under a header line.
pub fn render_table(rows: &[Row]) -> String {
    let cells: Vec<[String; 6]> =
        std::iter::once(["bench", "n", "value", "unit", "stat", "spread"].map(String::from))
            .chain(rows.iter().map(|row| {
                [
                    row.bench.clone(),
                    row.n.to_string(),
                    significant(row.value),
                    row.unit.to_string(),
                    row.stat.to_string(),
                    significant(row.spread),
                ]
            }))
            .collect();
    let mut widths = [0; 6];
    for line in &cells {
        for (width, cell) in widths.iter_mut().zip(line) {
            *width = (*width).max(cell.chars().count());
        }
    }
    let mut out = String::new();
    for (i, line) in cells.iter().enumerate() {
        let padded: Vec<String> = line
            .iter()
            .zip(widths)
            .enumerate()
            .map(|(column, (cell, width))| match column {
                0 => format!("{cell:<width$}"),
                _ => format!("{cell:>width$}"),
            })
            .collect();
        out.push_str(&padded.join("  "));
        out.push('\n');
        if i == 0 {
            out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// The writer against literal output of the `serde_json` stub it
    /// replaced (`to_string_pretty` over the same rows).
    #[test]
    fn rows_json_matches_the_serde_json_bytes() {
        let row = |bench: &str, n, value, unit, spread| Row {
            bench: bench.into(),
            n,
            value,
            unit,
            stat: "median",
            spread,
        };
        let rows = [
            row("fig7a_minimum_cover", 5, 200.0, "s", 0.00003901300000000007),
            row(
                "serve_requests_per_sec",
                1_250_000,
                0.000148453,
                "1/s",
                f64::INFINITY,
            ),
            row("dom_shred_e2e", 2, 12345.5, "ms", f64::NAN),
        ];
        assert_eq!(rows_json(&[]), "[]");
        assert_eq!(
            rows_json(&rows[..1]),
            "[\n  {\n    \"bench\": \"fig7a_minimum_cover\",\n    \"n\": 5,\n    \
             \"value\": 200,\n    \"unit\": \"s\",\n    \"stat\": \"median\",\n    \
             \"spread\": 0.00003901300000000007\n  }\n]"
        );
        assert_eq!(
            rows_json(&rows),
            "[\n  {\n    \"bench\": \"fig7a_minimum_cover\",\n    \"n\": 5,\n    \
             \"value\": 200,\n    \"unit\": \"s\",\n    \"stat\": \"median\",\n    \
             \"spread\": 0.00003901300000000007\n  },\n  {\n    \
             \"bench\": \"serve_requests_per_sec\",\n    \"n\": 1250000,\n    \
             \"value\": 0.000148453,\n    \"unit\": \"1/s\",\n    \"stat\": \"median\",\n    \
             \"spread\": null\n  },\n  {\n    \"bench\": \"dom_shred_e2e\",\n    \"n\": 2,\n    \
             \"value\": 12345.5,\n    \"unit\": \"ms\",\n    \"stat\": \"median\",\n    \
             \"spread\": null\n  }\n]"
        );
    }

    #[test]
    fn stats_are_min_median_and_nearest_rank_p90() {
        let ten = [0.7, 0.1, 0.9, 0.3, 0.5, 1.0, 0.2, 0.8, 0.4, 0.6];
        let expected = Stats {
            min: 0.1,
            median: 0.5,
            p90: 0.9,
        };
        assert_eq!(Stats::of(&ten), expected);
        let five = [3.0, 1.0, 2.0, 5.0, 4.0];
        let expected = Stats {
            min: 1.0,
            median: 3.0,
            p90: 5.0,
        };
        assert_eq!(Stats::of(&five), expected);
        assert_eq!(Stats::of(&[2.0]).p90, 2.0);
    }

    #[test]
    fn measure_checks_first_then_interleaves_the_arms() {
        let log = RefCell::new(Vec::new());
        let stats = measure(
            || log.borrow_mut().push("check"),
            &mut [&mut || log.borrow_mut().push("a"), &mut || {
                log.borrow_mut().push("b")
            }],
        );
        assert_eq!(stats.len(), 2);
        let mut expected = vec!["check"];
        for _ in 0..TRIALS {
            expected.extend(["a", "b"]);
        }
        assert_eq!(log.into_inner(), expected);
    }

    #[test]
    fn a_failing_check_runs_no_trial_and_yields_no_row() {
        let mut trials = 0;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let stats = measure(|| panic!("engines disagree"), &mut [&mut || trials += 1]);
            Row::secs("never", 1, &stats[0])
        }));
        assert!(outcome.is_err());
        assert_eq!(trials, 0);
    }

    #[test]
    fn rows_state_unit_statistic_and_spread() {
        let stats = Stats {
            min: 0.5,
            median: 1.0,
            p90: 2.0,
        };
        let secs = Row::secs("t", 3, &stats);
        assert_eq!(
            (secs.value, secs.unit, secs.stat, secs.spread),
            (1.0, "s", "median", 1.5)
        );
        let rate = Row::per_sec("r", 3, &stats, 10);
        assert_eq!(
            (rate.value, rate.unit, rate.stat, rate.spread),
            (10.0, "1/s", "median", 15.0)
        );
    }

    #[test]
    #[should_panic(expected = "one row name per timed arm")]
    fn time_rows_needs_one_name_per_arm() {
        time_rows(["named", "unmeasured"], 1, &[Stats::of(&[1.0])]);
    }

    /// One `(bench, n)` pair per name at each `n`, names varying fastest.
    fn family<S: AsRef<str>>(names: &[S], ns: &[usize]) -> Vec<(String, usize)> {
        ns.iter()
            .flat_map(|&n| names.iter().map(move |name| (name.as_ref().to_string(), n)))
            .collect()
    }

    /// The `(bench, n)` pairs a quick run of experiment `name` emits, in
    /// order, where `nodes` is the node count of the quick document.
    fn quick_grid(name: &str, nodes: usize) -> Vec<(String, usize)> {
        let propagation = |figure: &str, ns: &[usize]| {
            let names = ["propagation", "propagation_prepared", "gminimumcover"]
                .map(|arm| format!("{figure}_{arm}"));
            family(&names, ns)
        };
        match name {
            "fig7a" => [5, 10, 15, 20, 40, 80]
                .into_iter()
                .flat_map(|fields| {
                    let mut names = vec!["fig7a_minimum_cover", "fig7a_minimum_cover_prepared"];
                    if fields <= NAIVE_MAX_FIELDS {
                        names.push("fig7a_naive");
                    }
                    family(&names, &[fields])
                })
                .collect(),
            "fig7b" => propagation("fig7b", &[2, 5, 10, 15]),
            "fig7c" => propagation("fig7c", &[10, 25, 50]),
            "large" => vec![
                ("large_gminimumcover_200f".into(), 50),
                ("large_gminimumcover_150f".into(), 100),
                ("large_propagation_1000f".into(), 50),
                ("large_propagation_1000f".into(), 100),
            ],
            "closure" => family(
                &["closure_indexed", "closure_facade", "closure_minimum_cover"],
                &[1_000],
            ),
            "prepared" => [
                family(
                    &[
                        "implication_facade",
                        "implication_prepared",
                        "implication_prepared_query",
                    ],
                    &[50],
                ),
                family(
                    &[
                        "implication_depth_facade",
                        "implication_depth_prepared",
                        "implication_depth_prepared_query",
                    ],
                    &[2, 5],
                ),
                family(
                    &["batch_propagation_facade", "batch_propagation_prepared"],
                    &[1_000],
                ),
            ]
            .concat(),
            "docs" => family(
                &[
                    "docs_parse",
                    "docs_index_build",
                    "docs_shred_prepared",
                    "docs_validate_prepared",
                ],
                &[nodes],
            ),
            "stream" => family(
                &["stream_validate", "dom_shred_e2e", "dom_validate_e2e"],
                &[nodes],
            ),
            "corpus" => family(&["corpus_shred", "corpus_validate"], &[1, 2]),
            "serve" => [
                family(&["serve_requests_per_sec"], &[1, 2]),
                family(&["serve_requests_per_sec_faulty"], &[1, 2]),
                family(
                    &[
                        "serve_roundtrip_ms_validate",
                        "serve_roundtrip_ms_shred",
                        "serve_roundtrip_ms_propagate",
                        "serve_roundtrip_ms_cover",
                    ],
                    &[1],
                ),
            ]
            .concat(),
            "incremental" => family(
                &[
                    "incr_validate",
                    "scratch_validate",
                    "incr_shred",
                    "scratch_shred",
                ],
                &[nodes],
            ),
            "query" => family(&["query_naive", "query_keyed"], &[200, 400]),
            other => panic!("no expected quick grid for experiment `{other}`"),
        }
    }

    #[test]
    fn quick_run_emits_each_grid_with_honest_units() {
        let nodes = grid_document(DOC_GRID[0]).2;
        assert!(nodes > 1_000, "the quick document has only {nodes} nodes");
        for (name, _, run) in EXPERIMENTS {
            let rows = run(true);
            let grid: Vec<(String, usize)> =
                rows.iter().map(|row| (row.bench.clone(), row.n)).collect();
            assert_eq!(grid, quick_grid(name, nodes), "rows of {name}");
            for row in &rows {
                let (unit, stat) = if row.bench.starts_with("serve_roundtrip_ms_") {
                    ("ms", "median")
                } else if row.bench.starts_with("serve_") {
                    ("1/s", "median")
                } else {
                    ("s", "median")
                };
                assert_eq!((row.unit, row.stat), (unit, stat), "{row:?}");
                assert!(row.value.is_finite() && row.value >= 0.0, "{row:?}");
                assert!(row.spread.is_finite() && row.spread >= 0.0, "{row:?}");
            }
        }
    }

    #[test]
    fn table_rendering_is_aligned() {
        let rows = [
            Row::secs("short", 5, &Stats::of(&[1.0])),
            Row::secs("a_much_longer_bench", 500, &Stats::of(&[12345.0])),
        ];
        let table = render_table(&rows);
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("bench"));
        assert!(lines.iter().all(|l| l.chars().count() == lines[1].len()));
    }
}
