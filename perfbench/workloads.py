"""The benchmark's workloads: CLI invocations at shapes taken from the
acceptance criteria, and the map from a benchmark seed to program seeds.

A workload *unit* is the list of CLI invocations the closed loop repeats.
Each unit runs at one program master seed, drawn from ``MASTER_SEEDS``
because the correctness gate compares every output with reference values
recorded for that master seed (``references.json``).
"""

from __future__ import annotations

import json
import os
import resource
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCES = Path(__file__).resolve().parent / "references.json"

# Program master seeds with recorded references.  Unit j of a run with
# benchmark seed s uses MASTER_SEEDS[(s + j) % len(MASTER_SEEDS)].
MASTER_SEEDS = tuple(range(101, 117))

# One BLAS/OpenMP thread per process, so decay-1d's two pool workers own
# the two cores of the reference machine and no run oversubscribes them.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

INVOCATION_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Invocation:
    subcommand: str
    config: dict
    workers: int

    @property
    def samples(self) -> int:
        return int(self.config["n_samples"])


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple

    @property
    def samples(self) -> int:
        return sum(inv.samples for inv in self.invocations)


WORKLOADS = {
    # criterion 5's Green-decay config; the only workload on the process pool
    "decay-1d": Workload("decay-1d", (
        Invocation("green-decay", {
            "d": 1, "L": 128, "m": 20, "law": {"kind": "bernoulli", "q": 0.5},
            "lambda": 1.0, "eta": 1e-6, "p": 1.0, "n_samples": 40,
            "r_min": 5.0, "r_max": 40.0}, workers=2),
    )),
    # 2-d single-site influence: six landscape solves per sample on
    # operators that differ at one site; uniform law so every resample moves
    "influence-2d": Workload("influence-2d", (
        Invocation("vertical-derivative", {
            "d": 2, "L": 12, "m": 20, "law": {"kind": "uniform01"},
            "lambda": 1.0, "eta": 1e-4, "z_offsets": [1, 2, 3, 4, 5],
            "n_samples": 1}, workers=1),
    )),
    # criteria 9b and 9c: coarse graining, chemical distance and clusters;
    # no linear solve at all
    "percolation-2d": Workload("percolation-2d", (
        Invocation("fpp-kesten", {
            "d": 2, "L": 513, "k": 3, "law": {"kind": "uniform01"},
            "gamma": 0.875, "radii": [8, 16, 32], "c_probe": 0.25,
            "n_samples": 20}, workers=1),
        Invocation("cluster-tail", {
            "d": 2, "L": 257, "k": 3, "law": {"kind": "uniform01"},
            "gamma": 0.92, "diam_min": 0, "diam_max": 10,
            "n_samples": 40}, workers=1),
    )),
}


def master_seed(seed: int, unit: int) -> int:
    return MASTER_SEEDS[(seed + unit) % len(MASTER_SEEDS)]


def child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def write_config(inv: Invocation, path: Path) -> Path:
    path.write_text(json.dumps(inv.config))
    return path


@dataclass(frozen=True)
class InvocationResult:
    exit_code: int | None       # None: killed after the timeout
    wall_s: float
    cpu_s: float                # user + system of the whole process tree
    stderr: str
    left_running: bool          # processes of its session outlived the CLI


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def invoke(inv: Invocation, seed: int, config_path: Path,
           out_dir: Path) -> InvocationResult:
    """Run one CLI invocation in a fresh interpreter, process start to exit.

    The CPU time is the rusage of waited-for children, taken around this one
    child; pool workers are waited for by the CLI, so they are included.
    """
    cmd = [sys.executable, "-m", "landscape_lab.cli", inv.subcommand,
           "--config", str(config_path), "--output", str(out_dir),
           "--seed", str(seed), "--workers", str(inv.workers)]
    cpu0 = _children_cpu()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=INVOCATION_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        err, code = "", None
    finally:
        if proc.returncode is None:       # timed out or interrupted
            os.killpg(proc.pid, signal.SIGKILL)   # the CLI and its pool workers
            proc.wait()
    wall = time.perf_counter() - t0
    # Anything left in the CLI's session would load the machine during the
    # next invocation's timing.
    try:
        os.killpg(proc.pid, signal.SIGKILL)
        left_running = True
    except ProcessLookupError:
        left_running = False
    return InvocationResult(exit_code=code, wall_s=wall,
                            cpu_s=_children_cpu() - cpu0, stderr=err,
                            left_running=left_running and code is not None)
