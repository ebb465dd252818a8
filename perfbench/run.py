#!/usr/bin/env python3
"""Build and run the xmlprop repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

`<name>` is serve_mix, batch_corpus, design_propagate, edit_stream, or
`all` (every workload, untraced and then traced).  `--trace-dir <dir>`
says where traced runs write their spans.

The script builds perfbench/ (a Cargo package of its own) in release mode
into $CARGO_TARGET_DIR, or .bench_build at the repository root when that is
unset, and then runs the benchmark binary with the same arguments.  The
binary's standard output ends with one JSON line holding `correct`,
`attempted`, `failed` and `metrics`.  The exit code is non-zero when the
build fails, an output disagrees with its reference, or the run overruns:
170 s for one workload, and for `all`, which makes eight runs, 60 s plus
three times `--seconds` for each of them.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
ALL_RUNS = 8
ALL_RUN_SLACK_S = 60


def run_timeout(argv):
    """The time the binary may take for the run `argv` asks for."""
    flags = dict(zip(argv[::2], argv[1::2]))
    if flags.get("--workload") != "all":
        return RUN_TIMEOUT_S
    try:
        seconds = float(flags.get("--seconds", "0"))
    except ValueError:
        seconds = 0.0  # the binary rejects the flag itself
    return ALL_RUNS * (ALL_RUN_SLACK_S + 3 * seconds)


def main(argv):
    target = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    )
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build_cmd = [
        "cargo",
        "build",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        # Cargo's own output goes to stderr: stdout carries only results.
        build = subprocess.run(
            build_cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"error: cannot build the benchmark: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("error: the benchmark does not build", file=sys.stderr)
        return 2

    cmd = [os.path.join(target, "release", "xmlprop-perfbench"), *argv]
    if "--trace-dir" not in argv:
        cmd += ["--trace-dir", os.path.join(target, "perfbench-traces")]
    timeout = run_timeout(argv)
    try:
        return subprocess.run(cmd, timeout=timeout).returncode
    except OSError as e:
        print(f"error: cannot run the benchmark: {e}", file=sys.stderr)
        return 2
    except subprocess.TimeoutExpired:
        print(f"error: the run overran {timeout:.0f} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
