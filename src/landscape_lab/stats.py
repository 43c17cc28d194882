"""Monte Carlo experiments: decay curves, rate fits, covariances.

Samples are independent tasks keyed by (master_seed, sample_index); results
are folded in sample-index order so worker counts never change the output.
"""

from __future__ import annotations

import logging
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from itertools import repeat

import numpy as np

from .disorder import (DisorderLaw, OmegaField, assemble_potential, default_bump,
                       resample_site, sample_omega)
from .errors import ConfigurationError, ExperimentError, FitError, SolverFailure
from .green import all_cell_masses, green_column
from .landscape import derived_fields, solve_landscape
from .lattice import Grid, HamiltonianSpec

log = logging.getLogger(__name__)

N_BOOT = 200   # bootstrap resamples per confidence interval


@dataclass(frozen=True)
class DecayFit:
    rate: float
    log_prefactor: float
    r_min: float
    r_max: float
    r_squared: float
    n_points: int


@dataclass(frozen=True)
class MomentCurve:
    distances: np.ndarray
    values: np.ndarray
    ci: np.ndarray


@dataclass(frozen=True)
class CovariancePoint:
    separation: float
    cov: float
    ci: float
    observable: str


@dataclass(frozen=True)
class ExperimentSetup:
    """Geometry + disorder + operator parameters shared by the experiments."""

    d: int
    L: int
    m: int
    law: DisorderLaw
    lam: float | None       # None where the experiment sweeps lambda
    eta: float | None       # None where the experiment sweeps eta
    bc: str = "dirichlet"
    tol: float = 1e-9
    margin: int = 5

    def grid(self) -> Grid:
        return Grid(d=self.d, L=self.L, m=self.m, bc=self.bc)

    def omega(self, master_seed: int, sample_index: int) -> OmegaField:
        return sample_omega(self.law, (self.L,) * self.d, master_seed, sample_index)

    def operator(self, omega: OmegaField) -> HamiltonianSpec:
        V = assemble_potential(omega, default_bump(), self.grid())
        return HamiltonianSpec(grid=self.grid(), potential=V, lam=self.lam, eta=self.eta)

    def hamiltonian(self, master_seed: int, sample_index: int) -> HamiltonianSpec:
        return self.operator(self.omega(master_seed, sample_index))


def _attempt(fn, i, args):
    try:
        return fn(i, *args)
    except SolverFailure as exc:
        log.warning("sample %d skipped: %s", i, exc)
        return None


def _pool_map(fn, n_samples: int, workers: int, *args) -> dict:
    """The one sample loop: {i: fn(i, *args)} over the samples that solved.

    Serial or on a pool of min(workers, n_samples, cpu count) processes, in
    index order.  A solver failure skips its sample with a logged warning,
    more than 5 % skipped raises ExperimentError, and any other error is raised.
    """
    workers = min(workers, n_samples, os.cpu_count() or 1)
    if workers <= 1:
        outcomes = [_attempt(fn, i, args) for i in range(n_samples)]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_attempt, repeat(fn), range(n_samples), repeat(args),
                                     chunksize=max(1, n_samples // (4 * workers))))
    kept = {i: out for i, out in enumerate(outcomes) if out is not None}
    skipped = n_samples - len(kept)
    if skipped and skipped / n_samples > 0.05:
        raise ExperimentError(f"{skipped}/{n_samples} samples failed to solve")
    return kept


def _bootstrap_ci(per_sample: np.ndarray, statistic, seed: int) -> np.ndarray:
    """Half-widths from N_BOOT bootstrap resamples over the sample axis (axis 0)."""
    rng = np.random.default_rng(seed)
    n = per_sample.shape[0]
    reps = np.empty((N_BOOT,) + np.shape(statistic(per_sample)))
    for b in range(N_BOOT):
        idx = rng.integers(0, n, size=n)
        reps[b] = statistic(per_sample[idx])
    return 1.96 * np.nanstd(reps, axis=0, ddof=1)


# ----------------------------------------------------------------- green decay

def _green_sample(i, setup, master_seed):
    H = setup.hamiltonian(master_seed, i)
    return all_cell_masses(green_column(H, H.grid.center_node, tol=setup.tol))


def _shell_index(grid: Grid, margin: int):
    """Cells outside the boundary margin, binned by r = |z - center|_oo.

    Returns the cells' flat indices, each cell's bin, and the sorted distinct r.
    """
    axes = [np.arange(margin, grid.L - margin)] * grid.d
    mesh = np.meshgrid(*axes, indexing="ij")
    r = np.max([np.abs(a - c) for a, c in zip(mesh, grid.center_cell)], axis=0)
    cells = np.ravel_multi_index(mesh, (grid.L,) * grid.d).ravel()
    dists, shell = np.unique(r.ravel(), return_inverse=True)
    return cells, shell.ravel(), dists


def green_decay_experiment(setup: ExperimentSetup, p: float, n_samples: int,
                           master_seed: int, workers: int = 1) -> MomentCurve:
    """Shell-averaged E[(cube mass)^p]^(1/p) of center-source Green columns."""
    if n_samples < 1:
        raise ConfigurationError("n_samples must be >= 1")
    grid = setup.grid()
    cells, shell, dists = _shell_index(grid, setup.margin)
    masses = _pool_map(_green_sample, n_samples, workers, setup, master_seed)
    kept = np.stack([mv.ravel()[cells] for mv in masses.values()]) ** p
    # per-(sample, shell) sums in one bincount over offset bin labels
    nb = len(dists)
    labels = (np.arange(len(kept))[:, None] * nb + shell).ravel()
    sums = np.bincount(labels, weights=kept.ravel(), minlength=len(kept) * nb)
    S = sums.reshape(len(kept), nb) / np.bincount(shell, minlength=nb)

    def stat(rows):
        return np.mean(rows, axis=0) ** (1.0 / p)

    values = stat(S)
    ci = _bootstrap_ci(S, stat, seed=master_seed ^ 0x5EED)
    return MomentCurve(distances=np.asarray(dists, dtype=float), values=values, ci=ci)


def fit_exponential_decay(curve: MomentCurve, r_min: float, r_max: float) -> DecayFit:
    """Weighted least squares of log(value) on distance; rate = -slope."""
    if r_min >= r_max:
        raise ConfigurationError("need r_min < r_max")
    mask = ((curve.distances >= r_min) & (curve.distances <= r_max)
            & (curve.values > 0.0) & np.isfinite(curve.values))
    if int(mask.sum()) < 4:
        raise FitError(f"only {int(mask.sum())} usable bins in [{r_min}, {r_max}]")
    r = curve.distances[mask]
    y = np.log(curve.values[mask])
    sig = curve.ci[mask] / curve.values[mask]   # log-scale half-widths
    sig = np.maximum(sig, 1e-9)
    if np.all(curve.ci[mask] == 0.0):
        w = np.ones_like(y)
    else:
        w = 1.0 / sig ** 2
        w = np.minimum(w, 1e4 * np.median(w))   # clamp runaway weights
    W = w.sum()
    rbar = float(np.dot(w, r)) / W
    ybar = float(np.dot(w, y)) / W
    sxx = float(np.dot(w, (r - rbar) ** 2))
    sxy = float(np.dot(w, (r - rbar) * (y - ybar)))
    slope = sxy / sxx if sxx > 0 else 0.0
    intercept = ybar - slope * rbar
    resid = y - (intercept + slope * r)
    ss_res = float(np.dot(w, resid ** 2))
    ss_tot = float(np.dot(w, (y - ybar) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return DecayFit(rate=-slope, log_prefactor=intercept, r_min=float(r_min),
                    r_max=float(r_max), r_squared=min(r2, 1.0), n_points=int(mask.sum()))


def lambda_scaling_curve(setup: ExperimentSetup, lambdas, p: float,
                         n_samples: int, master_seed: int,
                         r_min: float, r_max: float, workers: int = 1):
    """Decay fits across disorder strengths; rate should scale like sqrt(lam)^1.

    The small mass eta = min(1e-6, lam*1e-3) keeps the measured rate
    disorder-induced rather than a mass gap.
    """
    fits, curves, ratios = {}, {}, {}
    for lam in lambdas:
        lam = float(lam)
        setup_l = replace(setup, lam=lam, eta=min(1e-6, lam * 1e-3))
        curve = green_decay_experiment(setup_l, p, n_samples, master_seed,
                                       workers=workers)
        fit = fit_exponential_decay(curve, r_min, r_max)
        fits[lam] = fit
        curves[lam] = curve
        ratios[lam] = fit.rate / np.sqrt(lam) if lam <= 1.0 else fit.rate
    return {"fits": fits, "curves": curves, "ratios": ratios}


# ----------------------------------------------------------------- covariance

_OBSERVABLES = ("u", "inv_u", "grad_log_u")


def _observable_fields(sol, observable):
    if observable == "u":
        return [sol.u.values]
    if observable == "inv_u":
        return [derived_fields(sol)["inv_u"].values]
    return [c.values for c in derived_fields(sol)["grad_log_u"]]


def _cov_sample(i, setup, master_seed, observables, sep_nodes, center):
    sol = solve_landscape(setup.hamiltonian(master_seed, i), tol=setup.tol)
    out = {}
    for observable in observables:
        fields = _observable_fields(sol, observable)
        out[observable] = np.array([[fv[node] for fv in fields]
                                    for node in (center, *sep_nodes)])
    return out


def covariance_suite(setup: ExperimentSetup, observables, separations,
                     n_samples: int, master_seed: int, workers: int = 1):
    """Covariances between the center and axis-shifted points, one solve per sample.

    Returns {observable: [CovariancePoint per separation]}; all observables
    are read off the same landscape solves.
    """
    observables = list(observables)
    for observable in observables:
        if observable not in _OBSERVABLES:
            raise ConfigurationError(f"observable must be one of {_OBSERVABLES}")
    if n_samples < 2:
        raise ConfigurationError("covariance needs at least 2 samples")
    grid = setup.grid()
    center = grid.center_node
    sep_nodes = []
    for s in separations:
        node = list(center)
        node[0] = center[0] + int(s) * grid.m
        zmax = (node[0] // grid.m)
        if not (setup.margin <= zmax < grid.L - setup.margin):
            raise ConfigurationError(f"separation {s} leaves the interior window")
        sep_nodes.append(tuple(node))
    rows = _pool_map(_cov_sample, n_samples, workers,
                     setup, master_seed, observables, sep_nodes, center)

    def stat(block):
        x = block[:, 0, :]
        n = block.shape[0]
        xc = x - x.mean(axis=0)
        out = np.empty(len(sep_nodes))
        for si in range(len(sep_nodes)):
            y = block[:, 1 + si, :]
            yc = y - y.mean(axis=0)
            covs = xc.T @ yc / (n - 1)    # component-pair covariances
            out[si] = np.max(np.abs(covs)) if covs.size > 1 else covs.ravel()[0]
        return out

    result = {}
    for observable in observables:
        data = np.stack([r[observable] for r in rows.values()])  # (n, 1 + n_seps, n_comp)
        covs = stat(data)
        ci = _bootstrap_ci(data, stat, seed=master_seed ^ 0xC0F)
        result[observable] = [
            CovariancePoint(separation=float(s), cov=float(c), ci=float(w),
                            observable=observable)
            for s, c, w in zip(separations, covs, ci)]
    return result


# ------------------------------------------------- vertical derivative decay

def _vert_sample(i, setup, master_seed, offsets):
    grid = setup.grid()
    omega = setup.omega(master_seed, i)
    u = solve_landscape(setup.operator(omega), tol=setup.tol).u.values
    center = grid.center_node
    out = np.empty(len(offsets))
    for oi, off in enumerate(offsets):
        z = (grid.L // 2 + off,) + grid.center_cell[1:]
        omega_z = resample_site(omega, z, resample_seed=i * 65536 + oi)
        uz = solve_landscape(setup.operator(omega_z), tol=setup.tol).u.values
        out[oi] = (u[center] - uz[center]) ** 2
    return out


def vertical_derivative_decay(setup: ExperimentSetup, z_offsets, n_samples: int,
                              master_seed: int, workers: int = 1) -> MomentCurve:
    """E[|u(x) - u^z(x)|^2]^(1/2) against the resampled-site distance |z - x|."""
    offsets = [int(o) for o in z_offsets]
    zc = setup.L // 2
    for off in offsets:
        if not (0 <= zc + off < setup.L):
            raise ConfigurationError(f"z offset {off} puts the site outside the box")
    rows = _pool_map(_vert_sample, n_samples, workers, setup, master_seed, offsets)
    sq = np.stack(list(rows.values()))     # (kept samples, n_offsets)

    def stat(block):
        return np.sqrt(np.mean(block, axis=0))

    values = stat(sq)
    ci = _bootstrap_ci(sq, stat, seed=master_seed ^ 0xD17)
    return MomentCurve(distances=np.abs(np.asarray(offsets, dtype=float)),
                       values=values, ci=ci)
