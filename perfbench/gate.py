"""Correctness gate: compare one CLI invocation with its recorded reference.

A reference (see ``snapshot``) holds the exit code, the ``summary.txt``
verdict line and every CSV the run wrote, as the strings the CLI printed.
Numeric fields must agree within ``RTOL``; every other field, the headers,
the row counts and the set of CSV files must agree exactly.
"""

from __future__ import annotations

import math
from pathlib import Path

# Relative tolerance per numeric field.  Solving every system of the
# decay-1d and influence-2d workloads with a sparse direct factorization
# instead of the CG solver (tol 1e-9) moves no field by more than 5e-5
# relative (far-field curve values and their CIs, program seeds 101, 105,
# 109, 113); the fits move by < 1e-7.  1e-3 leaves a wide margin for any
# solver that meets the configured tolerance, and is far below the change
# any modelling or sampling error makes.
RTOL = 1e-3


def snapshot(exit_code: int | None, out_dir: Path) -> dict:
    """The reference record of one invocation's results."""
    out_dir = Path(out_dir)
    summary = out_dir / "summary.txt"
    return {
        "exit_code": exit_code,
        "summary": summary.read_text().strip() if summary.is_file() else None,
        "csv": {p.name: [line.split(",") for line in p.read_text().splitlines()]
                for p in sorted(out_dir.glob("*.csv"))},
    }


def _field_matches(got: str, want: str) -> bool:
    if got == want:
        return True
    try:
        a, b = float(got), float(want)
    except ValueError:
        return False
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= RTOL * max(abs(a), abs(b))


def compare(got: dict, want: dict) -> list:
    """Every difference between two snapshots, as readable strings."""
    problems = []
    if got["exit_code"] != want["exit_code"]:
        problems.append(f"exit code {got['exit_code']}, expected {want['exit_code']}")
    if got["summary"] != want["summary"]:
        problems.append(f"summary {got['summary']!r}, expected {want['summary']!r}")
    if sorted(got["csv"]) != sorted(want["csv"]):
        problems.append(f"CSV files {sorted(got['csv'])}, expected {sorted(want['csv'])}")
    for name in sorted(set(got["csv"]) & set(want["csv"])):
        rows, ref = got["csv"][name], want["csv"][name]
        if len(rows) != len(ref) or (ref and rows[0] != ref[0]):
            problems.append(f"{name}: shape or header differs from the reference")
            continue
        for i, (row, ref_row) in enumerate(zip(rows[1:], ref[1:]), start=1):
            if len(row) != len(ref_row):
                problems.append(f"{name} row {i}: {len(row)} fields, expected {len(ref_row)}")
                continue
            for col, g, w in zip(ref[0], row, ref_row):
                if not _field_matches(g, w):
                    problems.append(f"{name} row {i} {col}: {g}, expected {w}")
    return problems


def check(exit_code: int | None, out_dir: Path, want: dict) -> list:
    return compare(snapshot(exit_code, out_dir), want)
