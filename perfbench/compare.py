#!/usr/bin/env python3
"""Compares two sets of benchmark runs: a parent commit and a change.

Run alternating pairs (the side that runs first alternates, seed by seed)
from two checkouts, each with its own perfbench/run.py:

    python3 perfbench/compare.py pairs --parent ../parent --change . \\
        --workload fleet-mixed --seeds 1-10 --out runs/

which appends one JSON line per run to runs/parent.jsonl and
runs/change.jsonl. Then compare them:

    python3 perfbench/compare.py report runs/parent.jsonl runs/change.jsonl

For every workload and end-to-end metric the report prints each side's
median and quartiles (statistics.quantiles, n=4), the share of pairs (same
workload and seed) the change won, ties counting for neither, and a verdict
against the metric's bound in BENCHMARK.json:

  regressed   the change's median is worse than the parent's by more than
              the bound;
  unresolved  the runs spread wider than the bound (quartile distance over
              the parent's median), so a move within it cannot be told
              apart, unless every change run beats every parent run;
  improved    the change wins at least 9 in 10 pairs and the medians differ
              by more than the parent's own quartile distance;
  unchanged   otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_bounds():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}, spec


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",") if s]


def run_once(checkout, workload, seed, seconds):
    cmd = ["python3", os.path.join(checkout, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} failed:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result.update({"workload": workload, "seed": seed})
    return result


def cmd_pairs(args):
    _, spec = load_bounds()
    seconds = args.seconds or spec["run_seconds"]
    os.makedirs(args.out, exist_ok=True)
    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    for i, seed in enumerate(parse_seeds(args.seeds)):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            result = run_once(sides[side], args.workload, seed, seconds)
            result["first"] = side == order[0]
            with open(os.path.join(args.out, side + ".jsonl"), "a") as f:
                f.write(json.dumps(result) + "\n")
            print(f"{args.workload} seed {seed} {side}: "
                  f"correct={result['correct']}", flush=True)
    return 0


def read_runs(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                r = json.loads(line)
                runs.setdefault(r["workload"], {})[r["seed"]] = r
    return runs


def quartiles(values):
    if len(values) < 2:
        return (values[0],) * 3 if values else (0.0,) * 3
    return tuple(statistics.quantiles(values, n=4))


def verdict(metric, parent, change, pairs):
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    pq, cq = quartiles(parent), quartiles(change)
    base = abs(pq[1]) or 1.0
    worse = (cq[1] - pq[1]) / base if lower else (pq[1] - cq[1]) / base
    spread = max(pq[2] - pq[0], cq[2] - cq[0]) / base
    wins = sum(1 for p, c in pairs if (c < p if lower else c > p))
    won = wins / len(pairs) if pairs else 0.0
    separated = (max(change) < min(parent)) if lower else \
        (min(change) > max(parent))
    if spread > bound and not separated:
        v = "unresolved"
    elif worse > bound:
        v = "regressed"
    elif won >= 0.9 and -worse * base > (pq[2] - pq[0]):
        v = "improved"
    else:
        v = "unchanged"
    return pq, cq, won, worse, v


def cmd_report(args):
    bounds, _ = load_bounds()
    parent, change = read_runs(args.parent), read_runs(args.change)
    worst = 0
    for workload in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[workload]) & set(change[workload]))
        p_runs = [parent[workload][s] for s in seeds]
        c_runs = [change[workload][s] for s in seeds]
        failed = [s for s in seeds if not (parent[workload][s]["correct"]
                                           and change[workload][s]["correct"])]
        print(f"\n{workload}: {len(seeds)} pairs"
              + (f", INCORRECT runs at seeds {failed}" if failed else ""))
        print(f"  {'metric':18} {'parent q1/med/q3':>32} "
              f"{'change q1/med/q3':>32} {'won':>5} {'worse':>7} verdict")
        for name, metric in bounds.items():
            if not all(name in r["metrics"] for r in p_runs + c_runs):
                continue
            p = [r["metrics"][name]["value"] for r in p_runs]
            c = [r["metrics"][name]["value"] for r in c_runs]
            pq, cq, won, worse, v = verdict(metric, p, c, list(zip(p, c)))
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
            print(f"  {name:18} {fmt(pq):>32} {fmt(cq):>32} {won:5.0%} "
                  f"{worse:+7.1%} {v}")
            if v == "regressed" or failed:
                worst = 1
    return worst


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="\n".join(__doc__.splitlines()[1:]))
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("pairs", help="run alternating parent/change pairs")
    p.add_argument("--parent", required=True, help="parent checkout")
    p.add_argument("--change", required=True, help="change checkout")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    p.add_argument("--seconds", type=int, default=0,
                   help="run length (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--out", required=True, help="directory for the .jsonl files")
    r = sub.add_parser("report", help="compare two .jsonl files of runs")
    r.add_argument("parent")
    r.add_argument("change")
    args = parser.parse_args()
    return cmd_pairs(args) if args.command == "pairs" else cmd_report(args)


if __name__ == "__main__":
    sys.exit(main())
