#!/usr/bin/env python3
"""Steadiness check for the benchmark, on one build.

    python3 perfbench/check.py                    # 2 sets x 5 seeds + trace check
    python3 perfbench/check.py --sets 1 --seeds 10 --workloads fault_storm

Run from the root of a checkout.  For each workload it calls run.py once
per seed, --sets times back to back (every run has its own seed), and
reports for each end-to-end metric each set's median and spread: Q3 - Q1
of the set's values (statistics.quantiles, n=4) as a share of its median.
The bounds come from BENCHMARK.json: every spread must stay within its
metric's bound, and no set's median may differ from the first set's, in
either direction, by more than the bound.  A steady benchmark also keeps
every spread under a third of its bound; each spread above that is
flagged.

Then one traced run per workload: run.py --trace 1 plays the seed
untraced and traced, fails the verdict if their fingerprints differ, and
reports bench.trace_overhead_pct.

Verdict STEADY (exit status 0) when every figure holds and no spread is
flagged; otherwise exit status 1.  The raw values are written to
<build dir>/check-<unix time>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
import run  # noqa: E402  (for build_dir)


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    begin = time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=180)
    wall = time.monotonic() - begin
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"run.py failed: {' '.join(cmd)}")
    result = json.loads(lines[-1])
    result["fingerprints_identical"] = any(
        "fingerprints: identical" in line for line in lines)
    for line in lines:
        if "bench.mem_latency_ns before=" in line:
            result["mem_latency_ns"] = [float(part.split("=")[1])
                                        for part in line.split()[2:]]
    result["wall_s"] = wall
    result["seed"] = seed
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(metric, first, later):
    """Share by which `later` is worse than `first` (negative: better)."""
    change = (later - first) / first
    return change if metric["better"] == "lower" else -change


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=1)
    opts = parser.parse_args()

    ok = True     # every figure within its bound
    loose = 0     # spreads above a third of their bound
    log = {"bench": bench, "opts": vars(opts), "sets": {}, "traced": {}}
    seed = opts.first_seed
    for workload in opts.workloads:
        sets = []
        for _ in range(opts.sets):
            runs = []
            for _ in range(opts.seeds):
                runs.append(one_run(workload, seed, bench["run_seconds"], 0))
                seed += 1
                r = runs[-1]
                print(f"{workload} seed={r['seed']} wall={r['wall_s']:.1f}s "
                      f"correct={r['correct']} attempted={r['attempted']} "
                      f"failed={r['failed']} mem_latency_ns="
                      f"{'/'.join(f'{v:.0f}' for v in r['mem_latency_ns'])} " +
                      " ".join(f"{k}={v['value']:.6g}"
                               for k, v in r["metrics"].items()), flush=True)
            sets.append(runs)
        log["sets"][workload] = sets
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for i, runs in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in runs]
                med = statistics.median(values)
                medians.append(med)
                s = spread(values)
                held = s <= bound
                ok = ok and held
                loose += s > bound / 3
                print(f"  {workload:13s} {name:14s} set {i + 1}: median "
                      f"{med:.6g} spread {100 * s:5.1f}% of bound "
                      f"{100 * bound:.0f}% ({s / bound:4.2f} of it)"
                      f"{'' if s <= bound / 3 else '  ABOVE A THIRD'}"
                      f"{'' if held else '  OUT OF BOUND'}")
            for i in range(1, len(medians)):
                w = worse_by(metric, medians[0], medians[i])
                held = abs(w) <= bound
                ok = ok and held
                print(f"  {workload:13s} {name:14s} set {i + 1} vs set 1: "
                      f"{100 * w:+.1f}% worse (bound {100 * bound:.0f}%)"
                      f"{'' if held else '  OUT OF BOUND'}")
        ok = ok and all(r["correct"] for runs in sets for r in runs)

    for workload in opts.workloads:
        r = one_run(workload, seed, bench["run_seconds"], 1)
        seed += 1
        log["traced"][workload] = r
        overhead = r["metrics"]["bench.trace_overhead_pct"]["value"]
        same = r["fingerprints_identical"]
        print(f"{workload} traced seed={r['seed']} correct={r['correct']} "
              f"fingerprints {'identical' if same else 'DIFFERENT'} "
              f"traced vs untraced, "
              f"bench.trace_overhead_pct={overhead:+.2f}")
        ok = ok and r["correct"] and same

    out = run.build_dir() / f"check-{int(time.time())}.json"
    out.write_text(json.dumps(log, indent=1))
    if not ok:
        verdict = "NOT STEADY: a figure is out of its bound or a run failed"
    elif loose:
        verdict = (f"NOT STEADY: within bounds, but {loose} spread(s) above "
                   "a third of their bound")
    else:
        verdict = "STEADY"
    print(f"{verdict}; raw values in {out}")
    return 0 if ok and not loose else 1


if __name__ == "__main__":
    sys.exit(main())
