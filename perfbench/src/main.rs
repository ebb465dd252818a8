//! `xmlprop-perfbench --workload <name|all> --seed <n> --seconds <s>
//! --trace <0|1> [--trace-dir <dir>]`
//!
//! Runs one workload (or, with `all`, every workload untraced and then
//! traced), prints a table per run and, as the last line of standard
//! output, one JSON object:
//!
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}}}`
//!
//! With `--trace 0` the metrics are the end-to-end ones every workload
//! reports (`setup_s`, `throughput`, `latency_ms`, `peak_rss_mb`);
//! with `--trace 1` they are the per-layer metrics `BENCHMARK.json` names
//! (the document layers of [`DOCUMENT_LAYERS`]), or the run's own when
//! `BENCHMARK.json` does not gate its workload.  A metric the run could not
//! support is left out and makes `correct` false.  The exit code is 0 only
//! when every output matched its reference.

use std::path::PathBuf;
use std::process::ExitCode;
use xmlprop_perfbench::{
    run_named, Metric, Outcome, Params, Scale, Tally, DOCUMENT_LAYERS, GATED, WORKLOADS,
};

const USAGE: &str = "usage: xmlprop-perfbench --workload <serve_mix|batch_corpus|design_propagate|edit_stream|all> \
--seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]";

struct Args {
    workload: String,
    params: Params,
    trace: bool,
    trace_dir: Option<PathBuf>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut trace_dir = None;
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} expects a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad --seed `{value}`"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|_| format!("bad --seconds `{value}`"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got `{value}`")),
                })
            }
            "--trace-dir" => trace_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    Ok(Args {
        workload,
        params: Params {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            scale: Scale::Full,
        },
        trace: trace.unwrap_or(false),
        trace_dir,
    })
}

fn format_value(m: &Metric) -> String {
    match m.value {
        None => "missing".to_string(),
        Some(v) if v.abs() >= 1000.0 => format!("{v:.0}"),
        Some(v) => format!("{v:.4}"),
    }
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("   {title:<36} {:>12}  {:<6} statistic", "value", "unit");
    for m in metrics {
        println!(
            "   {:<36} {:>12}  {:<6} {}",
            m.name,
            format_value(m),
            m.unit,
            m.stat
        );
    }
}

/// `setup_s` and `peak_rss_mb`, which every run reports.
fn setup_and_rss(o: &Outcome) -> [Metric; 2] {
    [
        Metric::new(
            "setup_s",
            o.setup_s,
            "s",
            format!(
                "median of {} set-ups: {} s rounds before the gate and after timing",
                o.setups,
                xmlprop_perfbench::SETUP_ROUND.as_secs()
            ),
        ),
        Metric::new("peak_rss_mb", o.peak_rss_mb, "MB", "VmHWM of the process"),
    ]
}

fn error_share(t: &Tally) -> Metric {
    Metric::new(
        "error_share",
        t.error_share(),
        "ratio",
        format!("{} failed of {} attempted", t.failed, t.attempted),
    )
}

/// The end-to-end metrics `BENCHMARK.json` names, common to every
/// workload.
fn headline(o: &Outcome) -> Vec<Metric> {
    let timed = o.timed.as_ref().expect("an untraced run");
    let [setup, rss] = setup_and_rss(o);
    vec![
        setup,
        Metric::new(
            "throughput",
            timed.throughput,
            "1/s",
            "requests, nodes, probes or edits per second",
        ),
        timed.latency.clone(),
        rss,
    ]
}

fn print_outcome(o: &Outcome, params: &Params) {
    let mode = if o.timed.is_some() {
        "untraced"
    } else {
        "traced"
    };
    println!(
        "== {} (seed {}, {} s, {mode})",
        o.workload, params.seed, params.seconds
    );
    let sizes: Vec<String> = o.sizes.iter().map(|(k, v)| format!("{k} {v}")).collect();
    println!("   inputs: {}", sizes.join(" | "));
    for m in &o.tally.mismatches {
        println!("   MISMATCH: {m}");
    }
    let mut named = setup_and_rss(o).to_vec();
    named.push(error_share(&o.tally));
    if let Some(timed) = &o.timed {
        named.extend(timed.metrics.iter().cloned());
        print_table("end-to-end metric", &named);
        print_table("as BENCHMARK.json names it", &headline(o));
    } else {
        named.extend(o.layers.iter().cloned());
        print_table("per-layer metric", &named);
    }
}

/// Whether every metric has a finite value.
fn all_measured(metrics: &[Metric]) -> bool {
    metrics.iter().all(|m| m.value.is_some_and(f64::is_finite))
}

/// The result line; a metric without a finite value is left out.
fn json_line(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .filter_map(|m| {
            let value = m.value.filter(|v| v.is_finite())?;
            Some(format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            ))
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let params = &args.params;
    let trace_file = |name: &str| {
        args.trace_dir
            .as_ref()
            .map(|dir| dir.join(format!("{name}-seed{}.tsv", params.seed)))
    };
    let run = |name: &str, trace: bool| {
        let outcome =
            run_named(name, params, trace, trace_file(name).as_deref()).expect("a known workload");
        print_outcome(&outcome, params);
        outcome
    };

    if args.workload == "all" {
        let mut total = Tally::default();
        let mut named: Vec<Metric> = Vec::new();
        let (mut setup_s, mut rss) = (0.0, 0.0f64);
        for name in WORKLOADS {
            for trace in [false, true] {
                let o = run(name, trace);
                total.attempted += o.tally.attempted;
                total.failed += o.tally.failed;
                if let Some(timed) = &o.timed {
                    named.extend(timed.metrics.iter().cloned());
                    setup_s += o.setup_s;
                }
                rss = rss.max(o.peak_rss_mb);
            }
        }
        named.splice(
            0..0,
            [
                Metric::new(
                    "setup_s",
                    setup_s,
                    "s",
                    "sum over workloads of the median set-up",
                ),
                Metric::new("peak_rss_mb", rss, "MB", "max over workloads"),
                error_share(&total),
            ],
        );
        println!("== all workloads");
        print_table("end-to-end metric", &named);
        let correct = total.failed == 0 && all_measured(&named);
        println!("{}", json_line(correct, &total, &named));
        return if correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let o = run(&args.workload, args.trace);
    let metrics: Vec<Metric> = if !args.trace {
        headline(&o)
    } else if GATED.contains(&o.workload) {
        DOCUMENT_LAYERS
            .iter()
            .map(|&(name, _)| {
                o.layers
                    .iter()
                    .find(|m| m.name == name)
                    .cloned()
                    .unwrap_or_else(|| Metric::maybe(name, None, "ms", "not reported"))
            })
            .collect()
    } else {
        o.layers.clone()
    };
    let correct = o.tally.failed == 0 && all_measured(&metrics);
    println!("{}", json_line(correct, &o.tally, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
