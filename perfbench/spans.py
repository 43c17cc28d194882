"""Spans around the package's public functions, recorded from outside.

``Tracer.installed`` replaces each function in ``TRACED`` wherever a module
of the package holds a reference to it (``stats.green_column``,
``green.cg_solve``, ...), so calls through every import path are seen.
Nothing under ``src/`` is edited.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass

TRACED = (
    ("disorder", "sample_omega"), ("disorder", "assemble_potential"),
    ("disorder", "resample_site"),
    ("lattice", "cg_solve"),
    ("green", "green_column"), ("green", "all_cell_masses"),
    ("landscape", "solve_landscape"),
    ("stats", "green_decay_experiment"), ("stats", "vertical_derivative_decay"),
    ("stats", "fit_exponential_decay"),
    ("percolation", "kesten_tail_experiment"), ("percolation", "coarse_grain"),
    ("percolation", "chemical_distance"), ("percolation", "cluster_analysis"),
    ("cli", "run"), ("cli", "write_csv"),
)
NAMES = tuple(f"{mod}.{fn}" for mod, fn in TRACED)


def _solve_nodes(args, kwargs, result):
    H = args[0] if args else kwargs["H"]
    return H.grid.n_nodes


def _coarse_edges(args, kwargs, result):
    return sum(int(xi.size) for xi in result.xi)


# Work counted per successful call: nodes per solve, edges per coarse graph.
WORK = {"lattice.cg_solve": _solve_nodes,
        "percolation.coarse_grain": _coarse_edges}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None          # index of the enclosing span
    failed: bool = False
    work: int = 0


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []

    def _wrap(self, name, fn):
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, self._open[-1] if self._open else None)
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if work is not None:
                span.work = work(args, kwargs, result)
            return result
        return traced

    @contextmanager
    def installed(self, modules: dict):
        """Trace every function in TRACED while the block runs.

        ``modules`` maps the short module names in TRACED to the imported
        package modules; all of them are searched for references.
        """
        saved = []
        try:
            for mod_name, fn_name in TRACED:
                original = getattr(modules[mod_name], fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for mod in modules.values():
                    if getattr(mod, fn_name, None) is original:
                        saved.append((mod, fn_name, original))
                        setattr(mod, fn_name, wrapper)
            yield self
        finally:
            for mod, fn_name, original in saved:
                setattr(mod, fn_name, original)

    def self_times(self) -> list:
        """Each span's duration minus the time its child spans cover.

        Calls are synchronous and in one thread, so children of a span
        never overlap and their durations add up.
        """
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.end - s.start
        return [s.end - s.start - c for s, c in zip(self.spans, covered)]

    def totals(self) -> dict:
        """Per traced name: calls, failed calls, self seconds and work."""
        out = {name: {"calls": 0, "failed": 0, "self_s": 0.0, "work": 0}
               for name in NAMES}
        for s, self_s in zip(self.spans, self.self_times()):
            t = out[s.name]
            t["calls"] += 1
            t["failed"] += int(s.failed)
            t["self_s"] += self_s
            t["work"] += s.work
        return out

    def accounting_problems(self, wall_s: float) -> list:
        """Check that self times plus the untraced remainder make the wall.

        ``wall_s`` is the traced wall time measured around the root calls.
        """
        problems = []
        for i, s in enumerate(self.spans):
            if s.end < s.start:
                problems.append(f"span {i} {s.name} ends before it starts")
            if s.parent is not None:
                p = self.spans[s.parent]
                if s.start < p.start or s.end > p.end:
                    problems.append(f"span {i} {s.name} leaves its parent {p.name}")
        self_times = self.self_times()
        slack = 1e-9 * max(wall_s, 1.0)
        if min(self_times, default=0.0) < -slack:
            problems.append("a span has negative self time")
        roots = sum(s.end - s.start for s in self.spans if s.parent is None)
        remainder = wall_s - roots
        if remainder < -slack:
            problems.append(f"root spans cover {roots:.6f} s of a {wall_s:.6f} s wall")
        if abs(sum(self_times) + remainder - wall_s) > slack:
            problems.append("self times plus remainder do not sum to the wall")
        return problems

    def to_json(self) -> list:
        return [[s.name, s.start, s.end, s.parent] for s in self.spans]
