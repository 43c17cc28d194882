"""The landscape solve u of -Lap u + (lam V + eta) u = 1 and its derived data.

Covers the regularized solve, moment estimation over unit cells, the
small-mass convergence table, the stationary energy estimate, and the derived
fields 1/u and grad log u.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .disorder import BumpProfile, OmegaField, assemble_potential
from .errors import ConfigurationError, PositivityError
from .lattice import (Grid, HamiltonianSpec, ScalarField, _forward_diff, cell_reduce,
                      cg_solve, forward_gradient_sq)


@dataclass(frozen=True)
class LandscapeSolution:
    u: ScalarField
    spec: HamiltonianSpec
    sup_per_cell: np.ndarray    # shape (L,)*d
    floor: float                # 1/(lam+eta): the V == 1 periodic barrier


@dataclass(frozen=True)
class EnergyReport:
    lhs: float          # sample/cell average of the cell Dirichlet energy
    rhs: float          # sample/cell average of the cell integral of u
    margin_sigma: float
    passed: bool


@dataclass(frozen=True)
class EtaRow:
    eta: float
    sup_diff: float
    sup_grad_diff: float
    ratio_to_eta: float


def cell_maxima(values: np.ndarray, grid: Grid) -> np.ndarray:
    return cell_reduce(values, grid, np.maximum)


def cell_integrals(values: np.ndarray, grid: Grid) -> np.ndarray:
    return cell_reduce(values, grid, np.add) * grid.h ** grid.d


def solve_landscape(H: HamiltonianSpec, tol: float = 1e-9,
                    max_iter: int | None = None) -> LandscapeSolution:
    u = cg_solve(H, ScalarField.constant(H.grid, 1.0), tol=tol, max_iter=max_iter)
    if float(u.values.min()) <= 0.0:
        raise PositivityError(
            f"landscape solution not positive (min={u.values.min():.3e})")
    denom = H.lam + H.eta
    floor = 1.0 / denom if denom > 0.0 else np.inf
    return LandscapeSolution(u=u, spec=H,
                             sup_per_cell=cell_maxima(u.values, H.grid),
                             floor=floor)


def interior_cells(grid: Grid, margin: int):
    """Multi-indices of cells at |.|-distance >= margin from the box boundary."""
    lo, hi = margin, grid.L - margin
    if hi <= lo:
        raise ConfigurationError(f"margin {margin} leaves no interior cells")
    ranges = [range(lo, hi)] * grid.d
    out = np.stack(np.meshgrid(*[np.asarray(r) for r in ranges], indexing="ij"),
                   axis=-1).reshape(-1, grid.d)
    return [tuple(row) for row in out]


def landscape_moments(samples, p: float, margin: int = 5):
    """Monte Carlo estimate of E[sup_Q u^p]^(1/p) over interior cells.

    Returns (estimate, ci_half_width); the CI comes from the normal
    approximation on per-sample spatial means of sup^p.
    """
    if len(samples) < 30:
        raise ConfigurationError("need at least 30 samples for a moment estimate")
    if p < 1:
        raise ConfigurationError("moment order must be >= 1")
    grid = samples[0].spec.grid
    eff_margin = margin if grid.bc == "dirichlet" else 0
    lo, hi = eff_margin, grid.L - eff_margin
    if hi <= lo:
        raise ConfigurationError("empty window")
    window = tuple(slice(lo, hi) for _ in range(grid.d))
    per_sample = np.asarray([float((s.sup_per_cell[window] ** p).mean())
                             for s in samples])
    mean = per_sample.mean()
    sem = per_sample.std(ddof=1) / np.sqrt(len(samples)) if len(samples) > 1 else 0.0
    est = mean ** (1.0 / p)
    hi_est = (mean + 1.96 * sem) ** (1.0 / p)
    lo_est = max(mean - 1.96 * sem, 0.0) ** (1.0 / p)
    return est, max(hi_est - est, est - lo_est)


def eta_convergence_study(omega: OmegaField, bump: BumpProfile, grid: Grid,
                          lam: float, etas, margin: int = 2, tol: float = 1e-10):
    """Sup-norm distance of u_eta to the smallest-eta reference, per eta.

    The smallest eta in the (strictly decreasing) list serves as the proxy for
    the eta -> 0 limit; differences should scale linearly in eta.
    """
    etas = [float(e) for e in etas]
    if len(etas) < 3 or any(b >= a for a, b in zip(etas, etas[1:])):
        raise ConfigurationError("etas must be a strictly decreasing list of >= 3 entries")
    V = assemble_potential(omega, bump, grid)
    sols = {}
    for eta in etas:
        H = HamiltonianSpec(grid=grid, potential=V, lam=lam, eta=eta)
        sols[eta] = solve_landscape(H, tol=tol).u.values
    ref = sols[etas[-1]]
    lo = margin * grid.m
    hi = grid.n_per_side - margin * grid.m
    win = tuple(slice(lo, hi) for _ in range(grid.d))
    rows = []
    for eta in etas[:-1]:
        diff = sols[eta] - ref
        gdiff = np.sqrt(forward_gradient_sq(diff, grid, boundary="edge"))
        sup_diff = float(np.abs(diff[win]).max())
        sup_grad = float(gdiff[win].max())
        rows.append(EtaRow(eta=eta, sup_diff=sup_diff, sup_grad_diff=sup_grad,
                           ratio_to_eta=sup_diff / eta))
    return rows


def energy_estimate_check(samples) -> EnergyReport:
    """Stationary energy bound: average cell Dirichlet energy <= average of u."""
    if any(s.spec.grid.bc != "periodic" for s in samples):
        raise ConfigurationError("energy estimate requires periodic samples")
    lhs_s, rhs_s = [], []
    for s in samples:
        grid = s.spec.grid
        n_cells = grid.L ** grid.d
        grad2 = forward_gradient_sq(s.u.values, grid, boundary="auto")
        lhs_s.append(float(grad2.sum()) * grid.h ** grid.d / n_cells)
        rhs_s.append(float(s.u.values.sum()) * grid.h ** grid.d / n_cells)
    lhs_s = np.asarray(lhs_s)
    rhs_s = np.asarray(rhs_s)
    lhs, rhs = float(lhs_s.mean()), float(rhs_s.mean())
    gap = rhs_s - lhs_s
    if len(samples) > 1 and gap.std(ddof=1) > 0.0:
        sem = gap.std(ddof=1) / np.sqrt(len(samples))
        margin_sigma = float(gap.mean() / sem)
    else:
        margin_sigma = np.inf if gap.mean() >= 0 else -np.inf
    slack = 1.96 / max(margin_sigma, 1e-12) if np.isfinite(margin_sigma) else 0.0
    passed = lhs <= rhs * (1.0 + max(slack, 0.0))
    return EnergyReport(lhs=lhs, rhs=rhs, margin_sigma=margin_sigma, passed=passed)


def derived_fields(sol: LandscapeSolution):
    """1/u and the forward-difference components of grad log u.

    The gradient components keep the grid shape; for Dirichlet the last slice
    along each axis (no forward link) is set to zero, periodic wraps.
    """
    u = sol.u.values
    if float(u.min()) <= 0.0:
        raise PositivityError("landscape values must stay positive")
    grid = sol.spec.grid
    if grid.bc == "periodic" and float(u.min()) < sol.floor * (1.0 - 1e-6):
        raise PositivityError(
            f"u dropped below the periodic barrier {sol.floor:.3e}")
    inv_u = ScalarField(grid=grid, values=1.0 / u)
    logu = np.log(u)
    boundary = "wrap" if grid.bc == "periodic" else "edge"
    comps = [ScalarField(grid=grid, values=_forward_diff(logu, ax, boundary) * grid.m)
             for ax in range(grid.d)]
    return {"inv_u": inv_u, "grad_log_u": comps}
