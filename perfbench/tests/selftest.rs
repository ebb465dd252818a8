//! Self-test of the benchmark at smoke size: every workload emits every
//! named metric with its unit, the traced run's spans account for its wall
//! time, `BENCHMARK.json` names exactly the metrics the binary prints, and
//! a corrupted reference trips each workload's correctness gate.

use std::collections::BTreeSet;
use xmlprop_perfbench::batch::{self, BatchCorpus};
use xmlprop_perfbench::design::{self, DesignPropagate};
use xmlprop_perfbench::edit::{self, EditStream};
use xmlprop_perfbench::serve::{self, ServeMix};
use xmlprop_perfbench::trace::Profile;
use xmlprop_perfbench::{
    run_named, trace_twins, Bench, Params, Scale, Tally, DOCUMENT_LAYERS, GATED,
};

fn smoke(seed: u64) -> Params {
    Params {
        seed,
        seconds: 0.2,
        scale: Scale::Smoke,
    }
}

/// The end-to-end metrics each workload reports by name, with units.
const NAMED: &[(&str, &[(&str, &str)])] = &[
    (
        "serve_mix",
        &[
            ("serve.rps", "1/s"),
            ("serve.p99_ms", "ms"),
            ("serve.validate_p50_ms", "ms"),
            ("serve.shred_p50_ms", "ms"),
            ("serve.query_p50_ms", "ms"),
            ("serve.propagate_p50_ms", "ms"),
        ],
    ),
    ("batch_corpus", &[("batch.nodes_per_s", "1/s")]),
    (
        "design_propagate",
        &[("design.cover_ms", "ms"), ("design.probes_per_s", "1/s")],
    ),
    (
        "edit_stream",
        &[("edit.p50_ms", "ms"), ("edit.p99_ms", "ms")],
    ),
];

#[test]
fn every_workload_emits_every_named_metric_with_its_unit() {
    for &(workload, named) in NAMED {
        let o = run_named(workload, &smoke(1), false, None).expect("a known workload");
        assert_eq!(o.tally.failed, 0, "{workload}: {:?}", o.tally.mismatches);
        assert!(o.tally.attempted > 0, "{workload} checked nothing");
        assert!(o.setup_s > 0.0 && o.peak_rss_mb > 0.0, "{workload}");
        let timed = o.timed.expect("an untraced run");
        assert!(timed.throughput > 0.0, "{workload} throughput");
        assert_eq!(
            (timed.latency.name.as_str(), timed.latency.unit),
            ("latency_ms", "ms")
        );
        let got: Vec<(&str, &str)> = timed
            .metrics
            .iter()
            .map(|m| (m.name.as_str(), m.unit))
            .collect();
        assert_eq!(got, named, "{workload} named metrics");
        // Rates are always supported; only percentiles may be missing at
        // smoke size.
        for m in &timed.metrics {
            assert!(
                m.value.is_some() || m.stat.starts_with('p'),
                "{workload}: {} missing",
                m.name
            );
        }
    }
}

#[test]
fn every_traced_run_emits_its_layer_metrics_and_accounts_for_its_wall_time() {
    for (workload, own) in [
        ("serve_mix", serve::LAYER_METRICS),
        ("batch_corpus", batch::LAYER_METRICS),
        ("design_propagate", design::LAYER_METRICS),
        ("edit_stream", edit::LAYER_METRICS),
    ] {
        let o = run_named(workload, &smoke(2), true, None).expect("a known workload");
        assert_eq!(o.tally.failed, 0, "{workload}: {:?}", o.tally.mismatches);
        assert!(o.timed.is_none());
        assert_eq!(
            o.layers.len(),
            own.len(),
            "{workload} reports exactly its layer metrics"
        );
        if GATED.contains(&workload) {
            for (name, _) in DOCUMENT_LAYERS {
                assert!(own.contains(&(name, "ms")), "gated {workload} lacks {name}");
            }
        }
        for &(name, unit) in own {
            let m = o
                .layers
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("{workload} does not report {name}"));
            assert_eq!(m.unit, unit, "{name}");
            assert!(
                m.value.is_some_and(f64::is_finite),
                "{workload}: {name} missing"
            );
        }
        let unattributed = o
            .layers
            .iter()
            .find(|m| m.name == format!("{workload}.unattributed_ms"))
            .and_then(|m| m.value)
            .expect("unattributed time is reported");
        assert!(unattributed >= 0.0);
    }
}

#[test]
fn spans_plus_unattributed_time_add_up_to_the_traced_wall_time() {
    let traced = trace_twins(0.02, |_, t| {
        for i in 0..50u64 {
            t.set_op(i);
            t.span("outer", |t| {
                t.span("inner", |_| std::hint::black_box((0..1000u64).sum::<u64>()));
            });
            std::hint::black_box((0..100u64).product::<u64>());
        }
        50
    });
    let p = Profile::new(traced.tracer.spans());
    assert_eq!(
        p.total_self_ns(),
        p.covered_ns(),
        "self times partition the spans"
    );
    assert!(p.covered_ns() <= traced.wall_ns);
    let accounting = traced.accounting("toy");
    let unattributed = accounting[0].value.expect("reported");
    let covered_ms = p.covered_ns() as f64 / 1e6 / 50.0;
    let wall_ms = traced.wall_ns as f64 / 1e6 / 50.0;
    assert!((covered_ms + unattributed - wall_ms).abs() < 1e-9);
}

#[test]
fn benchmark_json_names_exactly_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let names: BTreeSet<&str> = text
        .split("\"name\": \"")
        .skip(1)
        .filter_map(|rest| rest.split('"').next())
        .collect();
    let mut expected: BTreeSet<&str> = DOCUMENT_LAYERS.iter().map(|&(name, _)| name).collect();
    expected.extend(GATED);
    expected.extend(["setup_s", "throughput", "latency_ms", "peak_rss_mb"]);
    assert_eq!(names, expected);
    for (name, _) in DOCUMENT_LAYERS {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"ms\"");
        assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
}

#[test]
fn a_corrupted_expected_payload_trips_the_serve_gate() {
    let mut bench = ServeMix::setup(&smoke(3));
    bench.pool[0][0].expected.push_str("corrupted\n");
    bench.start();
    let mut tally = Tally::default();
    bench.gate(&mut tally);
    assert_eq!(tally.failed, 1, "{:?}", tally.mismatches);
}

#[test]
fn a_corrupted_reference_trips_the_batch_check() {
    let mut bench = BatchCorpus::setup(&smoke(4));
    let mut tally = Tally::default();
    bench.gate(&mut tally);
    assert_eq!(tally.failed, 0, "{:?}", tally.mismatches);
    let reference = bench
        .reference
        .as_mut()
        .expect("the gate sets the reference");
    reference.documents[0].tuples += 1;
    bench.measure(0.01, &mut tally);
    assert!(
        tally.failed > 0,
        "a timed pass that disagrees must count as failed"
    );
}

#[test]
fn a_corrupted_verdict_trips_the_design_check() {
    let mut bench = DesignPropagate::setup(&smoke(5));
    let mut tally = Tally::default();
    bench.gate(&mut tally);
    assert_eq!(tally.failed, 0, "{:?}", tally.mismatches);
    bench.verdicts[0] = !bench.verdicts[0];
    bench.measure(0.01, &mut tally);
    assert!(tally.failed > 0);
}

#[test]
fn a_refused_edit_counts_as_failed() {
    let mut bench = EditStream::setup(&smoke(6));
    let mut tally = Tally::default();
    bench.gate(&mut tally);
    assert_eq!(tally.failed, 0, "{:?}", tally.mismatches);
    // Removing the document root is refused by `Document::apply`.
    bench.script[0] = xmlprop_xmltree::Delta::RemoveSubtree {
        node: xmlprop_xmltree::NodeId::from_index(0),
    };
    bench.measure(0.01, &mut tally);
    assert!(tally.failed > 0);
}
