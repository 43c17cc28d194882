"""Monte Carlo experiments: decay curves, rate fits, covariances."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import DEFAULT_TOL
from .disorder import (DisorderLaw, OmegaField, assemble_potential, resample_site,
                       sample_omega)
from .errors import ConfigurationError, FitError, box_index
from .green import all_cell_masses, green_column
from .landscape import derived_fields, solve_landscape
from .lattice import Grid, HamiltonianSpec
from .samples import _pool_map

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
    bc: str = Grid.bc
    tol: float = DEFAULT_TOL
    margin: int = 5

    def grid(self) -> Grid:
        return Grid(d=self.d, L=self.L, m=self.m, bc=self.bc)

    def omega(self, master_seed: int, sample_index: int) -> OmegaField:
        return sample_omega(self.law, (self.L,) * self.d, master_seed, sample_index)

    def operator(self, omega: OmegaField) -> HamiltonianSpec:
        V = assemble_potential(omega, self.grid())
        return HamiltonianSpec(grid=self.grid(), potential=V, lam=self.lam, eta=self.eta)

    def hamiltonian(self, master_seed: int, sample_index: int) -> HamiltonianSpec:
        return self.operator(self.omega(master_seed, sample_index))


# numpy's SeedSequence, PCG64 and bounded-integer draw, copied so that the
# resamples need no numpy.random (whose import maps OpenSSL's libcrypto) and
# keep their bytes whatever numpy's Generator streams become.
_M32, _M128 = 0xFFFFFFFF, (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG64_BATCH = 1024     # states per batch: the draws' memory stays flat in n


def _hasher(h: int, mult: int):
    """SeedSequence's 32-bit hash, whose constant h steps by mult at each call."""
    def hashmix(v):
        nonlocal h
        v ^= h
        h = h * mult & _M32
        v = v * h & _M32
        return v ^ v >> 16
    return hashmix


def _pcg64_seed(seed: int) -> tuple[int, int]:
    """(state, increment) of PCG64(SeedSequence(seed)), before its first output."""
    if seed < 0:
        raise ValueError("seed must be non-negative")
    entropy = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(e) for e in (entropy + [0] * 4)[:4]]

    def mix(dst, v):
        x = (0xCA01F9DD * pool[dst] - 0x4973F715 * hashmix(v)) & _M32
        pool[dst] = x ^ x >> 16

    for src in range(4):
        for dst in range(4):
            if src != dst:
                mix(dst, pool[src])
    for e in entropy[4:]:
        for dst in range(4):
            mix(dst, e)
    words = list(map(_hasher(0x8B51F9DD, 0x58F38DED), pool * 2))
    v = [words[2 * k] | words[2 * k + 1] << 32 for k in range(4)]
    inc = ((v[2] << 64 | v[3]) << 1 | 1) & _M128
    return ((inc + (v[0] << 64 | v[1])) * _PCG64_MULT + inc) & _M128, inc


def _pcg64_integers(seed: int, n: int, shape: tuple) -> np.ndarray:
    """np.random.default_rng(seed).integers(0, n, shape), bit for bit, for n <= 2**32.

    The draws run on, unbroken, from one call of integers to the next, so shape
    (N_BOOT, n) holds the rows of N_BOOT calls with size n.
    """
    state, inc = _pcg64_seed(seed)
    out = np.empty(shape, dtype=np.int64)
    flat = out.reshape(-1)
    threshold = ((1 << 32) - n) % n     # Lemire: reject u where (u * n) mod 2**32 is below
    have = 0
    while have < flat.size:
        k = min((flat.size - have + 1) // 2, _PCG64_BATCH)
        states = [state := (state * _PCG64_MULT + inc) & _M128 for _ in range(k)]
        lo, hi = np.frombuffer(b"".join(s.to_bytes(16, "little") for s in states),
                               dtype="<u8").reshape(k, 2).T
        x, rot = lo ^ hi, hi >> np.uint64(58)   # XSL-RR output of each state
        x = x >> rot | x << (np.uint64(64) - rot & np.uint64(63))
        # two 32-bit draws per output, low half first
        m = np.stack([x & _M32, x >> np.uint64(32)], axis=1).ravel() * np.uint64(n)
        m = m[(m & _M32) >= threshold] >> np.uint64(32)
        take = min(m.size, flat.size - have)
        flat[have:have + take] = m[:take]
        have += take
    return out


def _bootstrap_ci(per_sample: np.ndarray, statistic, idx: np.ndarray) -> np.ndarray:
    """Half-widths over the resamples per_sample[row] along axis 0, one per row of idx."""
    reps = np.array([statistic(per_sample[row]) for row in idx])
    return 1.96 * np.nanstd(reps, axis=0, ddof=1)


def _moment_curve(distances, rows: np.ndarray, statistic, seed: int) -> MomentCurve:
    """statistic of the per-sample rows (axis 0), with bootstrap half-widths."""
    return MomentCurve(distances=np.asarray(distances, dtype=float), values=statistic(rows),
                       ci=_bootstrap_ci(rows, statistic,
                                        _pcg64_integers(seed, len(rows), (N_BOOT, len(rows)))))


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
    if p == 0:
        raise ConfigurationError("p must be nonzero")
    grid = setup.grid()
    cells, shell, dists = _shell_index(grid, setup.margin)
    masses = _pool_map(_green_sample, n_samples, workers, setup, master_seed)
    kept = np.stack([mv.ravel()[cells] for mv in masses.values()]) ** p
    # per-(sample, shell) sums in one bincount over offset bin labels
    nb = len(dists)
    labels = (np.arange(len(kept))[:, None] * nb + shell).ravel()
    sums = np.bincount(labels, weights=kept.ravel(), minlength=len(kept) * nb)
    S = sums.reshape(len(kept), nb) / np.bincount(shell, minlength=nb)

    return _moment_curve(dists, S, lambda rows: np.mean(rows, axis=0) ** (1.0 / p),
                         seed=master_seed ^ 0x5EED)


def _median(a: np.ndarray) -> float:
    """np.median of a 1-d array, the same float, without np.median's NaN
    check, which imports numpy.ma."""
    s = np.sort(a)
    if np.isnan(s[-1]):     # sorting puts NaN last
        return s[-1]
    mid = s.size // 2
    return s[mid] if s.size % 2 else 0.5 * (s[mid - 1] + s[mid])


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
        w = np.minimum(w, 1e4 * _median(w))   # clamp runaway weights
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


def _cov_sample(i, setup, master_seed, observables, sep_nodes, center):
    sol = solve_landscape(setup.hamiltonian(master_seed, i), tol=setup.tol)
    fields = {"u": [sol.u.values]}
    if set(observables) - {"u"}:    # one derived_fields call serves 1/u and grad log u
        der = derived_fields(sol)
        fields.update(inv_u=[der["inv_u"].values],
                      grad_log_u=[c.values for c in der["grad_log_u"]])
    return {observable: np.array([[fv[node] for fv in fields[observable]]
                                  for node in (center, *sep_nodes)])
            for observable in observables}


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
    # each shifted cell, counted from the first cell of the interior window
    first, window = grid.center_cell[0] - setup.margin, (grid.L - 2 * setup.margin,)
    shifts = [box_index(first + s, window, f"separation {s}: window cell")[0] - first
              for s in separations]
    sep_nodes = [(center[0] + k * grid.m,) + center[1:] for k in shifts]
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

    # every observable resamples the same kept samples, with the same indices
    idx = _pcg64_integers(master_seed ^ 0xC0F, len(rows), (N_BOOT, len(rows)))
    result = {}
    for observable in observables:
        data = np.stack([r[observable] for r in rows.values()])  # (n, 1 + n_seps, n_comp)
        covs = stat(data)
        ci = _bootstrap_ci(data, stat, idx)
        result[observable] = [
            CovariancePoint(separation=float(s), cov=float(c), ci=float(w),
                            observable=observable)
            for s, c, w in zip(separations, covs, ci)]
    return result


# ------------------------------------------------- vertical derivative decay

def _vert_sample(i, setup, master_seed, offsets):
    grid = setup.grid()
    omega = setup.omega(master_seed, i)
    center = grid.center_node
    u = solve_landscape(setup.operator(omega), tol=setup.tol).u.values[center]
    out = np.empty(len(offsets))
    for oi, off in enumerate(offsets):
        z = (grid.L // 2 + off,) + grid.center_cell[1:]
        omega_z = resample_site(omega, z, resample_seed=i * 65536 + oi)
        uz = solve_landscape(setup.operator(omega_z), tol=setup.tol).u.values[center]
        out[oi] = (u - uz) ** 2
    return out


def vertical_derivative_decay(setup: ExperimentSetup, z_offsets, n_samples: int,
                              master_seed: int, workers: int = 1) -> MomentCurve:
    """E[|u(x) - u^z(x)|^2]^(1/2) against the resampled-site distance |z - x|."""
    zc = setup.L // 2
    offsets = [box_index(zc + off, (setup.L,), f"z offset {off}: site")[0] - zc
               for off in z_offsets]
    rows = _pool_map(_vert_sample, n_samples, workers, setup, master_seed, offsets)
    sq = np.stack(list(rows.values()))     # (kept samples, n_offsets)
    return _moment_curve(np.abs(offsets), sq, lambda block: np.sqrt(np.mean(block, axis=0)),
                         seed=master_seed ^ 0xD17)
