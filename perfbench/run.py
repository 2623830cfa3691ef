#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper_window --seed 7 --seconds 20 --trace 0

Run from the root of a checkout.  The first call configures and builds
perfbench/ (the simulator's libraries plus the benchmark binary) under
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls
only check that the build is current.

With --trace 0 the workload process runs untraced and the last line of
stdout is {"correct", "attempted", "failed", "metrics"} with the
end-to-end metrics.  With --trace 1 the same seed runs twice, untraced and
then traced, each on half of the budget: the metrics are the traced run's
per-layer numbers plus bench.trace_overhead_pct (the traced run's
samples_per_s loss), and the verdict also requires both runs to print
identical fingerprints.  Either way the drift sentinel runs before and
after the workload.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 150
# "[op N] ... events=E events_fp=H stats_fp=H": the simulated state an
# operation ended in (host timings on the same line are left out)
FINGERPRINT = re.compile(
    r"^\[op (\d+)\] .*?(events=\d+ events_fp=\w+ stats_fp=\w+)$")


class BenchError(Exception):
    pass


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configure (once) and build the benchmark binary; return its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"simulator sources not found under {ROOT / 'src'}")
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                  "-j", "2"])
    for cmd in steps:
        # build chatter goes to stderr: stdout ends with the result line
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise BenchError(f"build step failed: {' '.join(cmd)}")
    return out / "perfbench"


def child(exe, args):
    """Run the benchmark binary, echo its output, return (JSON, lines)."""
    try:
        done = subprocess.run([str(exe)] + args, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"perfbench {args[0]} timed out")
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"perfbench {args[0]} exited {done.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1]), lines


def sentinel(exe):
    result, _ = child(exe, ["sentinel"])
    return result["mem_latency_ns"]


def play(exe, opts, seconds, traced):
    scratch = build_dir() / "scratch" / f"{opts.workload}-{os.getpid()}"
    args = ["workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", str(seconds), "--scratch", str(scratch)]
    if traced:
        traces = build_dir() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        args += ["--trace-out",
                 str(traces / f"{opts.workload}-seed{opts.seed}.json")]
    try:
        result, lines = child(exe, args)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    result["fingerprints"] = [m.groups() for m in map(FINGERPRINT.match, lines)
                              if m]
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    # the binary rejects an unknown workload name
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()
    try:
        exe = build()
        latency_before = sentinel(exe)
        # a traced run plays the seed twice in the time of one
        seconds = opts.seconds / 2 if opts.trace else opts.seconds
        untraced = play(exe, opts, seconds, traced=False)
        traced = play(exe, opts, seconds, traced=True) if opts.trace else None
        latency_after = sentinel(exe)
    except (BenchError, OSError, ValueError, KeyError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1

    latency = (latency_before + latency_after) / 2
    print(f"[perfbench] bench.mem_latency_ns before={latency_before:.2f} "
          f"after={latency_after:.2f}")
    correct = untraced["correct"]
    attempted, failed = untraced["attempted"], untraced["failed"]
    metrics = untraced["end_to_end"]
    if traced is not None:
        # one seed replays the same work: the traced run must print the
        # same fingerprints (over the passes both runs completed)
        a, b = untraced["fingerprints"], traced["fingerprints"]
        n = min(len(a), len(b))
        same = n > 0 and a[:n] == b[:n]
        print(f"[perfbench] traced vs untraced fingerprints: "
              f"{'identical' if same else 'DIFFERENT'} ({n} compared)")
        correct = correct and traced["correct"] and same
        attempted += traced["attempted"]
        failed += traced["failed"]
        base = untraced["end_to_end"]["samples_per_s"]["value"]
        slow = traced["end_to_end"]["samples_per_s"]["value"]
        metrics = dict(traced["per_layer"])
        metrics["bench.trace_overhead_pct"] = {
            "value": 100.0 * (base - slow) / base, "unit": "%"}
        metrics["bench.mem_latency_ns"] = {"value": latency, "unit": "ns"}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
