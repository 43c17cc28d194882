"""The landscape solve u of -Lap u + (lam V + eta) u = 1 and its derived data.

Covers the regularized solve, the small-mass convergence table, the
stationary energy estimate, and the derived fields 1/u and grad log u.
"""

from __future__ import annotations

import numpy as np

from . import DEFAULT_TOL, Record
from .disorder import OmegaField, assemble_potential
from .errors import ConfigurationError, PositivityError
from .lattice import (Grid, HamiltonianSpec, ScalarField, _forward_diff, cg_solve,
                      forward_gradient_sq)


class LandscapeSolution(Record):
    u: ScalarField
    spec: HamiltonianSpec


class EnergyReport(Record):
    lhs: float          # sample/cell average of the cell Dirichlet energy
    rhs: float          # sample/cell average of the cell integral of u
    margin_sigma: float
    passed: bool


class EtaRow(Record):
    eta: float
    sup_diff: float
    sup_grad_diff: float
    ratio_to_eta: float


def solve_landscape(H: HamiltonianSpec, tol: float = DEFAULT_TOL) -> LandscapeSolution:
    u = cg_solve(H, ScalarField.constant(H.grid, 1.0), tol=tol)
    if float(u.values.min()) <= 0.0:
        raise PositivityError(
            f"landscape solution not positive (min={u.values.min():.3e})")
    return LandscapeSolution(u=u, spec=H)


def eta_convergence_study(omega: OmegaField, grid: Grid, lam: float, etas,
                          tol: float = 1e-10):
    """Sup-norm distance of u_eta to the smallest-eta reference, per eta.

    The smallest eta in the (strictly decreasing) list serves as the proxy for
    the eta -> 0 limit; differences should scale linearly in eta.  The sups
    skip the nodes within 2 unit cells of the boundary, so L must be 5 or more.
    """
    etas = [float(e) for e in etas]
    if len(etas) < 3 or any(b >= a for a, b in zip(etas, etas[1:])):
        raise ConfigurationError("etas must be a strictly decreasing list of >= 3 entries")
    if grid.L < 5:
        raise ConfigurationError(f"eta convergence needs L >= 5, got L={grid.L}: "
                                 "its sups skip 2 cells at each wall")
    V = assemble_potential(omega, grid)

    def solve(eta):
        H = HamiltonianSpec(grid=grid, potential=V, lam=lam, eta=eta)
        return solve_landscape(H, tol=tol).u.values

    # the reference first, then one other solution at a time
    ref = solve(etas[-1])
    win = (slice(2 * grid.m, grid.n_per_side - 2 * grid.m),) * grid.d
    rows = []
    for eta in etas[:-1]:
        diff = solve(eta) - ref
        sup_diff = float(np.abs(diff[win]).max())
        sup_grad = float(np.sqrt(forward_gradient_sq(diff, grid, boundary="edge"))[win].max())
        del diff
        rows.append(EtaRow(eta=eta, sup_diff=sup_diff, sup_grad_diff=sup_grad,
                           ratio_to_eta=sup_diff / eta))
    return rows


def energy_estimate_check(samples) -> EnergyReport:
    """Stationary energy bound: average cell Dirichlet energy <= average of u."""
    if any(s.spec.grid.bc != "periodic" for s in samples):
        raise ConfigurationError("energy estimate requires periodic samples")
    return energy_report([energy_terms(s) for s in samples])


def energy_terms(sol: LandscapeSolution) -> tuple:
    """A sample's cell averages of the Dirichlet energy and of u."""
    grid = sol.spec.grid
    n_cells = grid.L ** grid.d
    grad2 = forward_gradient_sq(sol.u.values, grid, boundary="auto")
    return (float(grad2.sum()) * grid.h ** grid.d / n_cells,
            float(sol.u.values.sum()) * grid.h ** grid.d / n_cells)


def energy_report(terms) -> EnergyReport:
    """The energy check from per-sample (lhs, rhs) pairs of energy_terms."""
    lhs_s = np.asarray([lhs for lhs, _ in terms])
    rhs_s = np.asarray([rhs for _, rhs in terms])
    lhs, rhs = float(lhs_s.mean()), float(rhs_s.mean())
    gap = rhs_s - lhs_s
    if len(terms) > 1 and gap.std(ddof=1) > 0.0:
        sem = gap.std(ddof=1) / np.sqrt(len(terms))
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
    # 1/(lam+eta), the V == 1 barrier; a periodic spec has lam + eta > 0
    floor = 1.0 / (sol.spec.lam + sol.spec.eta) if grid.bc == "periodic" else 0.0
    if float(u.min()) < floor * (1.0 - 1e-6):
        raise PositivityError(f"u dropped below the periodic barrier {floor:.3e}")
    inv_u = ScalarField(grid=grid, values=1.0 / u)
    logu = np.log(u)
    boundary = "wrap" if grid.bc == "periodic" else "edge"
    comps = [ScalarField(grid=grid, values=_forward_diff(logu, ax, boundary) * grid.m)
             for ax in range(grid.d)]
    return {"inv_u": inv_u, "grad_log_u": comps}
