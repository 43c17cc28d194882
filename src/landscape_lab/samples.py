"""The one sample loop.

Samples are independent tasks keyed by (master_seed, sample_index); results
are folded in sample-index order so worker counts never change the output.
"""

from __future__ import annotations

import os
from itertools import repeat
from numbers import Integral

from .errors import ConfigurationError, ExperimentError, SolverFailure


def _attempt(fn, i, args):
    try:
        return fn(i, *args)
    except SolverFailure as exc:
        import logging   # only a skipped sample logs; the logger keeps the experiments' name

        logging.getLogger("landscape_lab.stats").warning("sample %d skipped: %s", i, exc)
        return None


def _pool_map(fn, n_samples: int, workers: int, *args) -> dict:
    """{i: fn(i, *args)} over the samples that solved.

    Serial or on a pool of min(workers, n_samples, cpu count) processes, in
    index order; n_samples must be an integer >= 1 (ConfigurationError).  A
    solver failure skips its sample with a logged warning, more than 5 %
    skipped raises ExperimentError, and any other error is raised.
    """
    if not isinstance(n_samples, Integral) or n_samples < 1:
        raise ConfigurationError(f"n_samples must be an integer >= 1, got {n_samples!r}")
    workers = min(workers, n_samples, os.cpu_count() or 1)
    if workers <= 1:
        outcomes = [_attempt(fn, i, args) for i in range(n_samples)]
    else:
        from concurrent.futures import ProcessPoolExecutor   # serial runs never load the pool

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_attempt, repeat(fn), range(n_samples), repeat(args),
                                     chunksize=max(1, n_samples // (4 * workers))))
    kept = {i: out for i, out in enumerate(outcomes) if out is not None}
    skipped = n_samples - len(kept)
    if skipped and skipped / n_samples > 0.05:
        raise ExperimentError(f"{skipped}/{n_samples} samples failed to solve")
    return kept
