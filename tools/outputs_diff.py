#!/usr/bin/env python3
"""Run the CLI on two source trees and report where their outputs differ.

    python3 tools/outputs_diff.py TREE_A TREE_B [--work DIR]

The cases are the ``SMOKE_CONFIGS`` of tests/test_cli.py and the invocations
of perfbench/workloads.py, both read from this checkout, then ``EXTRA_CASES``;
each runs at master seed 101 with 1 and with 2 workers.  A run is ``python -m
landscape_lab.cli`` in a fresh interpreter with only that tree's ``src`` on
PYTHONPATH, one BLAS thread and no bytecode written, in a work directory
outside both trees (a temporary one unless --work names a new one to keep).
A run differs when its exit code, the set of files it wrote or the bytes of
a CSV or of summary.txt differ; then the tool exits 1.  Manifest values that
differ, ``wall_clock_seconds`` aside, are printed as notes.  Standard library
only; perfbench/ is read and nothing is written to it.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = "manifest.json"
SEED, WORKERS = 101, (1, 2)
# The smoke configs and the benchmark draw Bernoulli and uniform sites only, and
# solve periodic in 1-d only.  The covariance cases take the derived fields the
# smoke config's u does not: grad log u on a plane and 1/u on a line.  The atom
# cases draw from a discrete_atoms table
# listed out of value order, with a repeated atom, and take k (cluster-tail) and
# gamma (anchor-1d) from the law's defaults.  The energy-check case solves
# periodic in 2-d: the stencil's wrap entries and the real FFT preconditioner on
# a plane.  The rank-one case checks the identity in 2-d, so its site and node
# pass the library's index rule on a plane; the Agmon and eta cases take their
# weight, cutoff and sup window on a plane too.  The next two coarse-grain on a
# 3-d box and with a 7-site window (k = 4) that still leaves closed components.
# The next solves on a 2-d Dirichlet grid of odd side, 105 nodes, whose folded
# sine transform carries a middle row.  The last checks the identity on a 3-d
# Dirichlet box, the only case that runs a 3-d solve, with a site and node
# offset that fit its L = 4.
ATOMS = {"kind": "discrete_atoms", "values": [1.0, 0.0, 0.5, 0.0],
         "probs": [0.25, 0.25, 0.25, 0.25]}
EXTRA_CASES = [
    ("covariance-grad-log-u-2d", "covariance",
     {"d": 2, "L": 8, "m": 20, "law": {"kind": "uniform01"}, "lambda": 1.0, "eta": 1e-3,
      "observable": "grad_log_u", "separations": [1, 2], "n_samples": 3, "margin": 1}),
    ("covariance-inv-u", "covariance",
     {"d": 1, "L": 16, "m": 20, "law": {"kind": "bernoulli", "q": 0.5}, "lambda": 1.0,
      "eta": 1e-3, "observable": "inv_u", "separations": [1, 2], "n_samples": 3,
      "margin": 2}),
    ("cluster-tail-atoms", "cluster-tail",
     {"d": 2, "L": 33, "law": ATOMS, "gamma": 0.5, "n_samples": 2}),
    ("anchor-1d-atoms", "anchor-1d", {"L": 32, "law": ATOMS, "n_samples": 5}),
    ("energy-check-2d", "energy-check",
     {"d": 2, "L": 8, "m": 20, "law": {"kind": "uniform01"}, "lambda": 1.0,
      "eta": 1e-3, "n_samples": 2}),
    ("rank-one-check-2d", "rank-one-check",
     {"d": 2, "L": 8, "m": 20, "law": {"kind": "uniform01"}, "lambda": 1.0,
      "eta": 1e-3, "n_samples": 2}),
    ("agmon-check-2d", "agmon-check",
     {"d": 2, "L": 8, "m": 20, "law": {"kind": "uniform01"}, "lambda": 1.0,
      "eta": 1e-3, "n_samples": 1}),
    ("eta-convergence-2d", "eta-convergence",
     {"d": 2, "L": 8, "m": 20, "law": {"kind": "uniform01"}, "lambda": 1.0,
      "etas": [1e-2, 1e-3, 1e-4], "n_samples": 1}),
    ("fpp-kesten-3d", "fpp-kesten",
     {"d": 3, "L": 65, "law": {"kind": "uniform01"}, "gamma": 0.95, "radii": [1, 2, 4],
      "c_probe": 0.5, "n_samples": 4}),
    ("cluster-tail-k4", "cluster-tail",
     {"d": 2, "L": 129, "k": 4, "law": {"kind": "uniform01"}, "gamma": 0.99,
      "diam_min": 0, "diam_max": 4, "n_samples": 4}),
    ("solve-landscape-odd-2d", "solve-landscape",
     {"d": 2, "L": 5, "m": 21, "law": {"kind": "uniform01"}, "lambda": 1.0, "eta": 1e-3}),
    ("rank-one-check-3d", "rank-one-check",
     {"d": 3, "L": 4, "m": 20, "law": {"kind": "uniform01"}, "lambda": 1.0,
      "eta": 1e-3, "z_offset": 1, "x_offset": -1, "n_samples": 1}),
]


def smoke_configs(test_module: Path) -> dict:
    """SMOKE_CONFIGS, from the module-level assignments up to it, run
    without the test module's imports."""
    body = []
    for node in ast.parse(test_module.read_text()).body:
        if isinstance(node, ast.Assign):
            body.append(node)
            if any(getattr(t, "id", None) == "SMOKE_CONFIGS" for t in node.targets):
                break
    namespace = {}
    exec(compile(ast.Module(body=body, type_ignores=[]), str(test_module), "exec"), namespace)
    return namespace["SMOKE_CONFIGS"]


def workloads(path: Path) -> dict:
    """WORKLOADS of perfbench/workloads.py, executed without writing its bytecode."""
    module = types.ModuleType("outputs_diff_workloads")
    module.__file__ = str(path)
    sys.modules[module.__name__] = module     # its dataclasses look their module up
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module.WORKLOADS


def cases() -> list:
    """(name, subcommand, config): every smoke config, every benchmark invocation,
    then the extra cases."""
    found = [(sub, sub, cfg)
             for sub, cfg in smoke_configs(ROOT / "tests" / "test_cli.py").items()]
    for name, workload in workloads(ROOT / "perfbench" / "workloads.py").items():
        found += [(f"{name}-{inv.subcommand}", inv.subcommand, inv.config)
                  for inv in workload.invocations]
    return found + EXTRA_CASES


def run_cli(tree: Path, subcommand: str, config: Path, workers: int, out: Path) -> int:
    env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"),
               PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    cmd = [sys.executable, "-m", "landscape_lab.cli", subcommand, "--config", str(config),
           "--output", str(out), "--seed", str(SEED), "--workers", str(workers)]
    return subprocess.run(cmd, cwd=config.parent, env=env, capture_output=True,
                          timeout=600).returncode


def _data_files(out: Path) -> dict:
    """name -> bytes of every file in out but the manifest; none if out is absent."""
    if not out.is_dir():
        return {}
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != MANIFEST}


def differences(a: Path, b: Path) -> list:
    """How the data files (CSVs and summary.txt) of two output directories differ."""
    files_a, files_b = _data_files(a), _data_files(b)
    found = [] if list(files_a) == list(files_b) else [
        f"files {list(files_a)} vs {list(files_b)}"]
    for name in sorted(files_a.keys() & files_b.keys()):
        lines_a, lines_b = files_a[name].splitlines(True), files_b[name].splitlines(True)
        if lines_a != lines_b:
            line = next((i for i, (x, y) in enumerate(zip(lines_a, lines_b), 1) if x != y),
                        min(len(lines_a), len(lines_b)) + 1)
            found.append(f"{name} differs from line {line}")
    return found


def manifest_notes(a: Path, b: Path) -> list:
    """The manifest paths whose values differ, wall_clock_seconds aside; NaN equals NaN."""
    def load(out):
        path = out / MANIFEST
        if not path.is_file():
            return None
        manifest = json.loads(path.read_text())
        manifest.pop("wall_clock_seconds", None)
        return manifest

    notes = []

    def walk(x, y, path):
        if isinstance(x, dict) and isinstance(y, dict):
            for key in sorted(x.keys() | y.keys()):
                walk(x.get(key, "<absent>"), y.get(key, "<absent>"), f"{path}.{key}")
        elif isinstance(x, list) and isinstance(y, list) and len(x) == len(y):
            for i, (u, v) in enumerate(zip(x, y)):
                walk(u, v, f"{path}[{i}]")
        elif x != y and not (x != x and y != y):
            notes.append(f"{path.lstrip('.')}: {x!r} -> {y!r}")

    walk(load(a), load(b), "")
    return notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree_a", type=Path)
    parser.add_argument("tree_b", type=Path)
    parser.add_argument("--work", type=Path, default=None,
                        help="a new directory that keeps the outputs (default: removed)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        work = (args.work or Path(tmp) / "work").resolve()
        work.mkdir(parents=True)
        runs = differ = 0
        for name, subcommand, config in cases():
            config_path = work / f"{name}.json"
            config_path.write_text(json.dumps(config))
            for workers in WORKERS:
                outs = [work / side / f"{name}-w{workers}" for side in ("a", "b")]
                codes = [run_cli(tree, subcommand, config_path, workers, out)
                         for tree, out in zip((args.tree_a, args.tree_b), outs)]
                problems = ([] if codes[0] == codes[1] else [f"exit {codes[0]} vs {codes[1]}"])
                problems += differences(*outs)
                print(f"{name} workers={workers} exit={codes[0]}: "
                      + ("; ".join(problems) or "same"))
                for note in manifest_notes(*outs):
                    print(f"    manifest {note}")
                runs, differ = runs + 1, differ + bool(problems)
        print(f"{runs} runs, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
