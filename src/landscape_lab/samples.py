"""The one sample loop.

Samples are independent tasks keyed by (master_seed, sample_index); results
are folded in sample-index order so worker counts never change the output.
"""

import os
import pickle
from numbers import Integral

from .errors import ConfigurationError, ExperimentError, SolverFailure


def _attempt(fn, i, args):
    try:
        return fn(i, *args)
    except SolverFailure as exc:
        import logging   # only a skipped sample logs; the logger keeps the experiments' name

        logging.getLogger("landscape_lab.stats").warning("sample %d skipped: %s", i, exc)
        return None


def _forked(fn, n_samples: int, workers: int, args) -> list:
    """[_attempt(fn, i, args) for i in range(n_samples)], child w of `workers`
    forked ones running samples w, w + workers, ...; every child is reaped."""
    children = []
    try:
        for w in range(workers):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:   # the child: it ends in os._exit, whatever is raised
                try:
                    os.close(read)
                    sent = []
                    try:
                        for i in range(w, n_samples, workers):
                            sent.append(_attempt(fn, i, args))
                    except Exception as exc:
                        sent = (i, exc)
                    with open(write, "wb") as pipe:
                        pickle.dump(sent, pipe)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(write)
            children.append((pid, open(read, "rb")))
        results = [pickle.loads(pipe.read()) for _, pipe in children]
    except (EOFError, pickle.UnpicklingError):   # a child died or could not pickle
        raise ExperimentError("a sample worker ended without its results") from None
    finally:   # last first: a child holds the read ends of the pipes made before it
        for pid, pipe in reversed(children):
            pipe.close()
            os.waitpid(pid, 0)
    for _, exc in sorted(result for result in results if isinstance(result, tuple)):
        raise exc   # the lowest sample index's, as in a serial run
    return [results[i % workers][i // workers] for i in range(n_samples)]


def _pool_map(fn, n_samples: int, workers: int, *args) -> dict:
    """{i: fn(i, *args)} over the samples that solved.

    Serial, or forked into min(workers, n_samples, cpu count) processes where
    os.fork exists; n_samples must be an integer >= 1 (ConfigurationError).  A
    solver failure skips its sample with a logged warning, more than 5 %
    skipped raises ExperimentError, and any other error is raised.
    """
    if not isinstance(n_samples, Integral) or n_samples < 1:
        raise ConfigurationError(f"n_samples must be an integer >= 1, got {n_samples!r}")
    workers = min(workers, n_samples, hasattr(os, "fork") and os.cpu_count() or 1)
    outcomes = (_forked(fn, n_samples, workers, args) if workers > 1
                else [_attempt(fn, i, args) for i in range(n_samples)])
    kept = {i: out for i, out in enumerate(outcomes) if out is not None}
    skipped = n_samples - len(kept)
    if skipped and skipped / n_samples > 0.05:
        raise ExperimentError(f"{skipped}/{n_samples} samples failed to solve")
    return kept
