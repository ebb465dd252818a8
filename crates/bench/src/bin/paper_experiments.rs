//! Regenerates the evaluation of Section 6 of the paper (Fig. 7(a)–(c) and
//! the in-text spot checks) plus the engine experiments around it.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p xmlprop-bench --bin paper_experiments                 # every experiment
//! cargo run --release -p xmlprop-bench --bin paper_experiments -- fig7a docs   # named experiments
//! cargo run --release -p xmlprop-bench --bin paper_experiments -- quick        # reduced grids
//! ```
//!
//! Each experiment prints its rows as a table and writes them to
//! `target/paper_experiments/<experiment>.json`.  A full run (no `quick`, no
//! names) also writes every row to `BENCH_fig7.json` at the repository
//! root.  An unknown experiment name exits 2 with the list of valid names.

use std::fs;
use std::path::Path;
use std::process::ExitCode;
use xmlprop_bench::{render_table, rows_json, Row, EXPERIMENTS};

fn usage() -> String {
    let mut out = String::from(
        "usage: paper_experiments [quick] [experiment ...]\n\n\
         `quick` runs the reduced grids; with no experiment named, all run:\n",
    );
    for (name, title, _) in EXPERIMENTS {
        out.push_str(&format!("  {name:<12} {title}\n"));
    }
    out
}

fn write_rows(path: &Path, rows: &[Row]) {
    if let Err(e) = fs::write(path, rows_json(rows) + "\n") {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "quick");
    let mut selected = Vec::new();
    for arg in args.iter().filter(|a| *a != "quick") {
        match EXPERIMENTS.iter().find(|(name, _, _)| name == arg) {
            Some(experiment) => selected.push(experiment),
            None => {
                eprintln!("error: unknown experiment `{arg}`\n\n{}", usage());
                return ExitCode::from(2);
            }
        }
    }
    let run_all = selected.is_empty();
    if run_all {
        selected.extend(EXPERIMENTS);
    }

    let dir = Path::new("target/paper_experiments");
    if let Err(e) = fs::create_dir_all(dir) {
        eprintln!("warning: could not create {}: {e}", dir.display());
    }
    let mut all = Vec::new();
    for (name, title, run) in selected {
        println!("== {title} ==\n");
        let rows = run(quick);
        println!("{}", render_table(&rows));
        write_rows(&dir.join(format!("{name}.json")), &rows);
        all.extend(rows);
    }
    println!("JSON copies written to {}", dir.display());
    // The tracked file is only refreshed by a full run: a filtered run
    // would drop the other experiments' rows from the cross-PR record, and
    // a `quick` run would replace the full grids with the reduced ones.
    if run_all && !quick {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_fig7.json");
        write_rows(&path, &all);
        println!("Consolidated rows written to {}", path.display());
    }
    ExitCode::SUCCESS
}
