#!/usr/bin/env python3
"""Repeat benchmark runs and compare two result sets.

Run each workload N times, one seed per run, and summarise every metric
by its median and quartiles:

    python3 perfbench/compare.py run --workload offline-batch \
        --workload serve-zipf --runs 10 --seed0 1 --out before.json

Compare two such files: every end-to-end metric whose median got worse
by more than its bound in BENCHMARK.json is flagged, and the exit code
is 1 if any is:

    python3 perfbench/compare.py compare before.json after.json

The benchmark command is read from BENCHMARK.json and run from the
repository root. Quartiles are those of statistics.quantiles(n=4); the
spread is their distance as a share of the median.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(spec, workload, seed, seconds, trace):
    cmd = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def summarise(runs):
    out = {}
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        out[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0,
        }
    return out


def cmd_run(args):
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    result = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    for w in args.workload:
        runs = []
        for i in range(args.runs):
            seed = args.seed0 + i
            r = run_once(spec, w, seed, seconds, args.trace)
            if not r["correct"]:
                raise SystemExit(f"{w} seed {seed}: a correctness check failed")
            runs.append(r)
            print(f"{w} seed {seed}: done", file=sys.stderr)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        summary = summarise(runs)
        result["workloads"][w] = {
            "seeds": [args.seed0 + i for i in range(args.runs)],
            "runs": runs,
            "summary": summary,
            "failed_share": failed / attempted,
        }
        print(f"\n{w}: {args.runs} runs, failed share {failed}/{attempted}")
        print(f"  {'metric':34} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for name, s in summary.items():
            b = bounds.get(name)
            flag = " !" if b is not None and name != "setup_s" and s["spread"] > b else ""
            print(
                f"  {name:34} {s['median']:14.6g} {s['q1']:14.6g} {s['q3']:14.6g}"
                f" {s['spread']:8.4f} {'' if b is None else b:>6}{flag} {s['unit']}"
            )
    if args.out:
        with open(args.out, "w") as f:
            json.dump(result, f, indent=1)


def cmd_compare(args):
    spec = load_spec()
    with open(args.before) as f:
        before = json.load(f)
    with open(args.after) as f:
        after = json.load(f)
    flagged = 0
    for w in sorted(set(before["workloads"]) & set(after["workloads"])):
        b, a = before["workloads"][w], after["workloads"][w]
        print(f"{w}:")
        for m in spec["end_to_end"]:
            name = m["name"]
            if name not in b["summary"] or name not in a["summary"]:
                continue
            m0, m1 = b["summary"][name]["median"], a["summary"][name]["median"]
            change = (m1 - m0) / abs(m0) if m0 else 0.0
            worse = change if m["better"] == "lower" else -change
            bad = worse > m["bound"]
            flagged += bad
            print(
                f"  {name:14} {m0:14.6g} -> {m1:14.6g}  {change:+8.2%}"
                f"  (bound {m['bound']:.0%}){'  WORSE' if bad else ''}"
            )
        if b["failed_share"] != a["failed_share"]:
            flagged += 1
            print(f"  failed share {b['failed_share']} -> {a['failed_share']}  DIFFERS")
    print(f"{flagged} flagged")
    return 1 if flagged else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="repeat runs and summarise them")
    r.add_argument("--workload", action="append", required=True)
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--seed0", type=int, default=1)
    r.add_argument("--seconds", type=int, default=0, help="default: run_seconds")
    r.add_argument("--trace", type=int, default=0)
    r.add_argument("--out")
    c = sub.add_parser("compare", help="flag end-to-end medians worse than their bound")
    c.add_argument("before")
    c.add_argument("after")
    args = p.parse_args()
    if args.cmd == "run":
        cmd_run(args)
        return 0
    return cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
