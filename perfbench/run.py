#!/usr/bin/env python3
"""Closed-loop benchmark of the landscape-lab CLI.

    python3 perfbench/run.py --workload decay-1d --seed 0 --seconds 30 --trace 0

One client runs the workload's CLI invocations back to back, each in a
fresh interpreter, for about ``--seconds`` seconds; every output is checked
against the references recorded for its program seed (gate.py).  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it runs
the same invocations in-process at one worker, alternately untraced and
traced, and reports the per-layer metrics.  A human-readable report comes
first; the last line of standard output is the JSON result.  Every result,
with its environment and (when traced) its spans, is also written to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import gate
import spans
from workloads import (BLAS_ENV, REFERENCES, ROOT, SRC,
                       WORKLOADS, child_env, invoke, master_seed, write_config)

OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 7
DEADLINE_S = 170            # whole run, set-up included; the limit is 180 s

END_TO_END = (("samples_per_s", "1/s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"),
              ("setup_s", "s"))

FAILURE_COUNTED = ("lattice.cg_solve", "green.green_column",
                   "landscape.solve_landscape")
PER_LAYER = tuple(
    [(f"{n}.calls", "count", "lower") for n in spans.NAMES]
    + [(f"{n}.self_s", "s", "lower") for n in spans.NAMES]
    + [(f"{n}.failed", "count", "lower") for n in FAILURE_COUNTED]
    + [("lattice.cg_solve.nodes", "count", "lower"),
       ("lattice.cg_solve.us_per_node", "us", "lower"),
       ("percolation.coarse_grain.edges", "count", "lower"),
       ("percolation.coarse_grain.us_per_edge", "us", "lower"),
       ("stats.samples_used_frac", "frac", "higher"),
       ("cli.output_bytes", "bytes", "lower"),
       ("trace.overhead_frac", "frac", "lower")])


class BenchmarkError(Exception):
    """The benchmark cannot produce a result; it exits non-zero."""


def _deadline(signum, frame):
    raise BenchmarkError(f"run exceeded its {DEADLINE_S} s deadline")


# ------------------------------------------------------------- environment

def git_commit():
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = res.stdout.split()
    if res.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None      # not a git checkout, or one that encloses this one
    return lines[1]


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "cpu_count": os.cpu_count(),
        "blas_threads": BLAS_ENV["OPENBLAS_NUM_THREADS"],
        "omp_threads": BLAS_ENV["OMP_NUM_THREADS"],
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------- end to end

@dataclass
class UnitRun:
    samples: int = 0            # of invocations that passed the gate
    wall_s: float = 0.0
    cpu_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)


def record_check(unit: UnitRun, label: str, problems: list) -> bool:
    unit.attempted += 1
    if problems:
        unit.failed += 1
        unit.problems += [f"{label}: {p}" for p in problems]
    return not problems


def run_unit(workload, seed: int, references: dict, scratch: Path) -> UnitRun:
    """One pass over the workload's invocations at one program seed."""
    unit = UnitRun()
    for k, inv in enumerate(workload.invocations):
        out = scratch / f"out{k}"
        shutil.rmtree(out, ignore_errors=True)
        res = invoke(inv, seed, write_config(inv, scratch / f"cfg{k}.json"), out)
        unit.wall_s += res.wall_s
        unit.cpu_s += res.cpu_s
        if res.exit_code is None:
            problems = [f"timed out after {res.wall_s:.1f} s"]
        else:
            problems = gate.check(res.exit_code, out, references[str(seed)][k])
        if res.left_running:
            problems.append("processes of the CLI outlived it")
        if problems and res.stderr.strip():
            problems.append("stderr: " + res.stderr.strip().splitlines()[-1])
        if record_check(unit, f"{inv.subcommand} seed {seed}", problems):
            unit.samples += inv.samples
    return unit


def _import_probe(code: str):
    t0 = time.perf_counter()
    res = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                         capture_output=True, text=True, timeout=60)
    wall = time.perf_counter() - t0
    if res.returncode != 0:
        raise BenchmarkError(f"cannot import landscape_lab.cli: {res.stderr.strip()}")
    return wall, res.stdout.strip()


def warm_up_import() -> None:
    """One untimed import: writes the bytecode caches and checks which
    source is used."""
    _, where = _import_probe("import landscape_lab.cli as c; print(c.__file__)")
    if not Path(where).resolve().is_relative_to(SRC):
        raise BenchmarkError(f"landscape_lab imported from {where}, not {SRC}")


def setup_probe() -> float:
    """A fresh interpreter importing the CLI and exiting."""
    return _import_probe("import landscape_lab.cli")[0]


def end_to_end(workload, args, references, scratch):
    warm_up_import()
    # One set-up probe before each unit, so that the probes sample the
    # machine across the whole run rather than in its first seconds.
    setup, units = [], []
    t0 = time.perf_counter()
    while True:
        setup.append(setup_probe())
        units.append(run_unit(workload, master_seed(args.seed, len(units)),
                              references, scratch))
        typical = statistics.median(u.wall_s for u in units) + statistics.median(setup)
        if time.perf_counter() - t0 + typical > args.seconds:
            break
    setup += [setup_probe() for _ in range(SETUP_PROBES - len(setup))]
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    metrics = {
        "samples_per_s": statistics.median(u.samples / u.wall_s for u in units),
        "cpu_s": statistics.median(u.cpu_s for u in units),
        "peak_rss_mb": peak_kb / 1024.0,
        "setup_s": statistics.median(setup),
    }
    extra = {
        "failed_frac": (failed / attempted, "frac"),
        "units": (len(units), "count"),
        "samples_per_unit": (workload.samples, "count"),
    }
    detail = {"units": [vars(u) for u in units], "setup_s": setup}
    return attempted, failed, [p for u in units for p in u.problems], \
        metrics, extra, detail


# ---------------------------------------------------------- per layer

def _import_package():
    os.environ.update(BLAS_ENV)       # before numpy is first imported
    sys.path.insert(0, str(SRC))
    import landscape_lab
    from landscape_lab import (cli, disorder, green, landscape, lattice,
                               percolation, stats)
    if not Path(landscape_lab.__file__).resolve().is_relative_to(SRC):
        raise BenchmarkError(f"landscape_lab imported from {landscape_lab.__file__}")
    return {"disorder": disorder, "lattice": lattice, "green": green,
            "landscape": landscape, "stats": stats,
            "percolation": percolation, "cli": cli}


def _output_bytes(out: Path) -> int:
    """Bytes of the data CSVs and summary.txt; the manifest holds a clock."""
    return sum(p.stat().st_size for p in out.iterdir()
               if p.suffix == ".csv" or p.name == "summary.txt")


def per_layer(workload, args, references, scratch):
    """Untraced and traced in-process passes of one unit, alternately.

    In-process at one worker, so every span lands in this process; the
    ratio of the two walls is the tracing overhead.
    """
    modules = _import_package()
    cli = modules["cli"]
    seed = master_seed(args.seed, 0)
    configs = [write_config(inv, scratch / f"cfg{k}.json")
               for k, inv in enumerate(workload.invocations)]
    unit = UnitRun()

    def one_pass(tag):
        wall, counts = 0.0, {"cli.output_bytes": 0, "samples_used": 0}
        for k, inv in enumerate(workload.invocations):
            out = scratch / f"{tag}{k}"
            shutil.rmtree(out, ignore_errors=True)
            crash = []
            t0 = time.perf_counter()
            try:
                with redirect_stdout(io.StringIO()):    # the CLI prints its verdict
                    code = cli.run(inv.subcommand, configs[k], output_dir=out,
                                   workers=1, seed=seed)
            except BenchmarkError:
                raise
            except Exception as exc:    # a traceback is a failed invocation
                code, crash = None, [f"raised {exc!r}"]
            wall += time.perf_counter() - t0
            problems = crash + gate.check(code, out, references[str(seed)][k])
            if record_check(unit, f"{tag} {inv.subcommand} seed {seed}", problems):
                counts["samples_used"] += inv.samples
            if out.is_dir():
                counts["cli.output_bytes"] += _output_bytes(out)
        return wall, counts

    plain_walls, traced = [], []
    t0 = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - t0 < args.seconds:
        plain_walls.append(one_pass("plain")[0])
        tracer = spans.Tracer()
        with tracer.installed(modules):
            wall, counts = one_pass("traced")
        traced.append((tracer, wall, counts))

    problems = list(unit.problems)
    exact = []
    for i, (tracer, wall, counts) in enumerate(traced):
        problems += [f"traced pass {i}: {p}" for p in tracer.accounting_problems(wall)]
        totals = tracer.totals()
        for name in spans.NAMES:
            counts[f"{name}.calls"] = totals[name]["calls"]
        for name in FAILURE_COUNTED:
            counts[f"{name}.failed"] = totals[name]["failed"]
        counts["lattice.cg_solve.nodes"] = totals["lattice.cg_solve"]["work"]
        counts["percolation.coarse_grain.edges"] = totals["percolation.coarse_grain"]["work"]
        exact.append(counts)
    for i, counts in enumerate(exact[1:], start=1):
        diff = sorted(k for k in counts if counts[k] != exact[0][k])
        if diff:
            problems.append(f"counts of traced pass {i} differ from pass 0: {diff}")

    self_s = {name: statistics.median(t.totals()[name]["self_s"]
                                      for t, _, _ in traced)
              for name in spans.NAMES}
    counts = exact[0]
    requested = workload.samples
    used = counts["samples_used"] - counts["green.green_column.failed"]
    nodes = counts["lattice.cg_solve.nodes"]
    edges = counts["percolation.coarse_grain.edges"]
    values = dict(counts)
    values.update({f"{name}.self_s": v for name, v in self_s.items()})
    values.update({
        "lattice.cg_solve.us_per_node":
            1e6 * self_s["lattice.cg_solve"] / nodes if nodes else 0.0,
        "percolation.coarse_grain.us_per_edge":
            1e6 * self_s["percolation.coarse_grain"] / edges if edges else 0.0,
        "stats.samples_used_frac": used / requested,
        "trace.overhead_frac": statistics.median(w for _, w, _ in traced)
                               / statistics.median(plain_walls) - 1.0,
    })
    metrics = {name: values[name] for name, _, _ in PER_LAYER}
    extra = {"failed_frac": (unit.failed / unit.attempted, "frac"),
             "traced_passes": (len(traced), "count")}
    detail = {"plain_walls_s": plain_walls,
              "traced_walls_s": [w for _, w, _ in traced],
              "spans": [t.to_json() for t, _, _ in traced]}
    return unit.attempted, unit.failed, problems, metrics, extra, detail


# ---------------------------------------------------------------- main

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "landscape_lab" / "cli.py").is_file() or not REFERENCES.is_file():
        print(f"perfbench: no landscape_lab source under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _deadline)
    signal.alarm(DEADLINE_S)
    workload = WORKLOADS[args.workload]
    references = json.loads(REFERENCES.read_text())["workloads"][workload.name]
    scratch = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        measure = per_layer if args.trace else end_to_end
        attempted, failed, problems, metrics, extra, detail = measure(
            workload, args, references, scratch)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)

    units = dict(END_TO_END) if not args.trace else {n: u for n, u, _ in PER_LAYER}
    env = environment(args)
    (scratch / "result.json").write_text(json.dumps({
        "environment": env, "attempted": attempted, "failed": failed,
        "metrics": metrics, "extra": {k: v for k, (v, _) in extra.items()},
        "problems": problems, "detail": detail}, indent=1))
    for p in problems[:20]:
        print(f"perfbench: {p}", file=sys.stderr)

    print(f"perfbench {workload.name} seed {args.seed} trace {args.trace}: "
          f"{attempted} invocations, {failed} failed")
    print("environment " + json.dumps(env, sort_keys=True))
    rows = [(k, v, units[k]) for k, v in metrics.items()]
    rows += [(k, v, u) for k, (v, u) in extra.items()]
    for name, value, unit in rows:
        print(f"  {name:42s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
