//! The `paper_experiments` command line accepts only `quick` and the names
//! of [`xmlprop_bench::EXPERIMENTS`].

use std::process::Command;
use xmlprop_bench::EXPERIMENTS;

#[test]
fn unknown_experiment_exits_2_listing_the_valid_names_and_runs_nothing() {
    let out = Command::new(env!("CARGO_BIN_EXE_paper_experiments"))
        .args(["quick", "fig7a", "fig7z"])
        .output()
        .expect("paper_experiments runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no experiment may run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown experiment `fig7z`"), "{stderr}");
    for (name, _, _) in EXPERIMENTS {
        assert!(stderr.contains(name), "usage must list `{name}`: {stderr}");
    }
}
