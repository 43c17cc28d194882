#!/usr/bin/env python3
"""Fold paired benchmark runs and test timings into BENCH_<pr>.json.

    python3 tools/bench_fold.py --pr N \\
        --parent PARENT/.perfbench_out --change CHANGE/.perfbench_out \\
        --acceptance PARENT_ACCEPTANCE.log CHANGE_ACCEPTANCE.log \\
        --tier1 PARENT_TIER1.log CHANGE_TIER1.log

A run directory ``<workload>-seed<seed>-trace<0|1>`` (as perfbench/run.py
writes it) present under both --parent and --change makes one pair.  For
each end-to-end metric in BENCHMARK.json the fold lists both sides' runs,
their quartiles, the pairs the change won (ties count for neither), whether
that is a gain (at least 9 pairs in 10 won, and the medians apart by more
than the parent's interquartile range) and how far the change's median is
worse than the parent's against the metric's bound.  Traced pairs give the
per-layer metrics side by side.  The acceptance logs are pytest output run
with ``--durations=0``; a Tier-1 log is pytest output ending in its
"N passed in Xs" line.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_DIR = re.compile(r"(?P<workload>.+)-seed(?P<seed>\d+)-trace(?P<trace>[01])")
DURATION = re.compile(r"^\s*(?P<s>[\d.]+)s\s+(?:setup|call|teardown)\s+(?P<test>\S+)")
PASSED = re.compile(r"(?P<n>\d+) passed.* in (?P<s>[\d.]+)s")


def load_runs(out_dir: Path) -> dict:
    """(workload, seed, trace) -> result.json contents."""
    runs = {}
    for path in sorted(out_dir.glob("*/result.json")):
        match = RUN_DIR.fullmatch(path.parent.name)
        if match:
            key = (match["workload"], int(match["seed"]), int(match["trace"]))
            runs[key] = json.loads(path.read_text())
    return runs


def quartiles(values: list) -> list:
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def compare(pairs: list, better: str, bound: float) -> dict:
    """Parent/change pairs of one metric, judged as the benchmark rules say."""
    sign = 1.0 if better == "higher" else -1.0
    parent, change = [p for p, _ in pairs], [c for _, c in pairs]
    pq, cq = quartiles(parent), quartiles(change)
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    return {"better": better, "parent": parent, "change": change,
            "parent_quartiles": pq, "change_quartiles": cq,
            "change_over_parent_median": cq[1] / pq[1],
            "change_won": f"{wins}/{len(pairs)}",
            "gain": wins >= 0.9 * len(pairs) and sign * (cq[1] - pq[1]) > pq[2] - pq[0],
            "worse_frac": sign * (pq[1] - cq[1]) / pq[1], "bound": bound}


def fold_workload(parent: dict, change: dict, keys: list, end_to_end: list) -> dict:
    plain = [k for k in keys if k[2] == 0]
    traced = [k for k in keys if k[2] == 1]
    out = {"seeds": [k[1] for k in plain],
           "attempted": {side: sum(runs[k]["attempted"] for k in plain)
                         for side, runs in (("parent", parent), ("change", change))},
           "failed": {side: sum(runs[k]["failed"] for k in plain)
                      for side, runs in (("parent", parent), ("change", change))},
           "end_to_end": {}}
    for metric in end_to_end if plain else ():
        pairs = [(parent[k]["metrics"][metric["name"]], change[k]["metrics"][metric["name"]])
                 for k in plain]
        out["end_to_end"][metric["name"]] = compare(pairs, metric["better"], metric["bound"])
    if traced:
        out["per_layer"] = {
            f"seed{k[1]}": {name: {"parent": value, "change": change[k]["metrics"].get(name)}
                            for name, value in parent[k]["metrics"].items()}
            for k in traced}
    return out


def acceptance_times(log: Path) -> dict:
    """Per-test seconds (setup + call + teardown) and the suite's total."""
    text = log.read_text()
    tests = {}
    for line in text.splitlines():
        match = DURATION.match(line)
        if match:
            tests[match["test"]] = round(tests.get(match["test"], 0.0) + float(match["s"]), 2)
    summary = PASSED.search(text)
    return {"total_s": float(summary["s"]) if summary else None, "tests": tests}


def tier1_time(log: Path) -> dict:
    summary = PASSED.search(log.read_text())
    return {"passed": int(summary["n"]), "wall_s": float(summary["s"])} if summary else {}


def fold(pr: int, parent_dir: Path, change_dir: Path, acceptance=None, tier1=None) -> dict:
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    parent, change = load_runs(parent_dir), load_runs(change_dir)
    keys = sorted(set(parent) & set(change))
    env = dict(change[keys[0]]["environment"]) if keys else {}
    for field in ("workload", "seed", "trace", "seconds", "git_commit"):
        env.pop(field, None)
    out = {"pr": pr, "environment": env, "workloads": {
        name: fold_workload(parent, change, [k for k in keys if k[0] == name], end_to_end)
        for name in sorted({k[0] for k in keys})}}
    if acceptance:
        out["acceptance"] = dict(zip(("parent", "change"), map(acceptance_times, acceptance)))
    if tier1:
        out["tier1"] = dict(zip(("parent", "change"), map(tier1_time, tier1)))
    return out


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--parent", type=Path, required=True, help="parent's .perfbench_out")
    parser.add_argument("--change", type=Path, required=True, help="change's .perfbench_out")
    parser.add_argument("--acceptance", type=Path, nargs=2, metavar=("PARENT", "CHANGE"))
    parser.add_argument("--tier1", type=Path, nargs=2, metavar=("PARENT", "CHANGE"))
    parser.add_argument("--out", type=Path, help="default: BENCH_<pr>.json at the repo root")
    args = parser.parse_args(argv)
    result = fold(args.pr, args.parent, args.change, args.acceptance, args.tier1)
    out = args.out or ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")


if __name__ == "__main__":
    main()
