#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the `perfbench` package and the
`arcaded` daemon in release mode (into $CARGO_TARGET_DIR, default
`.bench_build`), then runs one workload. The last stdout line is the JSON
result the benchmark binary prints; build output goes to stderr. Spans of
a traced run are written under `perfbench/out/`.

Exits non-zero without printing a result when the build fails (for example
in a directory that holds only the benchmark and not the repository's
crates) and with the binary's code when a correctness check fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("analyze_cold", "sweep_rerate", "serve_mixed")
# A whole run, set-up included, must end well inside this; the first run
# in a fresh checkout also pays for the build, which is not counted here.
RUN_TIMEOUT_S = 170


def build(target_dir):
    manifest = os.path.join(HERE, "Cargo.toml")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    for extra in ([], ["-p", "arcade", "--bin", "arcaded"]):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", manifest] + extra
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target_dir = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(target_dir):
        target_dir = os.path.join(ROOT, target_dir)
    if not build(target_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 3
    release = os.path.join(target_dir, "release")
    cmd = [os.path.join(release, "perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--out", os.path.join(HERE, "out"),
           "--arcaded", os.path.join(release, "arcaded")]
    # Own process group, so a timeout also stops the workers and the
    # daemon the benchmark started.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, 9)
        proc.wait()
        print("perfbench: the run overran %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
