"""Green-function columns and the deterministic structure checks.

A Green column is the solve against a discrete delta (h^{-d} at one node),
so its cell integrals match the continuum normalization.  The checks in this
module are per-sample identities and inequalities: domination by the massive
free Green function, the single-site perturbation identity, and the weighted
(Agmon) energy inequality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .disorder import BumpProfile, OmegaField, assemble_potential
from .errors import ConfigurationError
from .lattice import (Grid, HamiltonianSpec, ScalarField, cell_reduce, cg_solve,
                      forward_gradient_sq)


@dataclass(frozen=True)
class GreenColumn:
    source: tuple
    field: ScalarField
    spec: HamiltonianSpec
    tol: float


@dataclass(frozen=True)
class DominationReport:
    max_violation: float
    scale: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class RankOneReport:
    lhs: float
    rhs: float
    relative_error: float


@dataclass(frozen=True)
class AgmonReport:
    lhs: float
    rhs: float
    passed: bool


def delta_rhs(grid: Grid, node: tuple) -> ScalarField:
    """Discrete delta: h^{-d} at one node so its cell integral is 1."""
    v = np.zeros(grid.shape)
    v[tuple(int(i) for i in node)] = grid.m ** grid.d
    return ScalarField(grid=grid, values=v)


def green_column(H: HamiltonianSpec, x0, tol: float = 1e-9,
                 max_iter: int | None = None) -> GreenColumn:
    x0 = tuple(int(i) for i in np.atleast_1d(x0))
    if len(x0) != H.grid.d or any(not (0 <= i < H.grid.n_per_side) for i in x0):
        raise ConfigurationError(f"source node {x0} outside grid")
    f = cg_solve(H, delta_rhs(H.grid, x0), tol=tol, max_iter=max_iter)
    return GreenColumn(source=x0, field=f, spec=H, tol=tol)


def massive_reference(G: GreenColumn) -> GreenColumn:
    """Same grid, mass and source but V = 0: the free massive Green column."""
    H = G.spec
    H0 = HamiltonianSpec(grid=H.grid, potential=ScalarField.constant(H.grid, 0.0),
                         lam=H.lam, eta=H.eta)
    return green_column(H0, G.source, tol=G.tol)


def massive_domination_check(G: GreenColumn) -> DominationReport:
    """0 <= G <= free massive Green function, node-wise up to solver slack."""
    gtilde = massive_reference(G)
    scale = float(gtilde.field.values.max())
    violation = float((G.field.values - gtilde.field.values).max())
    tolerance = 2.0 * G.tol * scale
    return DominationReport(max_violation=violation, scale=scale,
                            tolerance=tolerance, passed=violation <= tolerance)


def cube_mass(G: GreenColumn, cell) -> float:
    """Midpoint quadrature of the column over one unit cell."""
    grid = G.spec.grid
    sl = grid.cell_slices(tuple(int(c) for c in np.atleast_1d(cell)))
    return float(G.field.values[sl].sum()) * grid.h ** grid.d


def all_cell_masses(G: GreenColumn) -> np.ndarray:
    """Cube masses of every cell at once, shape (L,)*d."""
    grid = G.spec.grid
    return cell_reduce(G.field.values, grid, np.add) * grid.h ** grid.d


def rank_one_identity_check(omega: OmegaField, z, grid: Grid, bump: BumpProfile,
                            lam: float, eta: float, x, origin=None,
                            tol: float = 1e-12, floor: float = 1e-6) -> RankOneReport:
    """Exact single-site perturbation identity of the discrete resolvent.

    Compares (G - G^-)(x, origin) with the quadrature of
    lam * G(x,.) * (V^- - V) * G^-(., origin), where V^- is the potential with
    the amplitude at site z forced to 1.
    """
    z = tuple(int(c) for c in np.atleast_1d(z))
    if any(not (0 <= c < b) for c, b in zip(z, omega.box)):
        raise IndexError(f"site {z} outside box {omega.box}")
    if origin is None:
        origin = grid.center_node
    x = tuple(int(i) for i in np.atleast_1d(x))

    V = assemble_potential(omega, bump, grid)
    forced = omega.values.copy()
    forced[z] = 1.0
    omega_minus = OmegaField(box=omega.box, values=forced, law=omega.law,
                             master_seed=omega.master_seed,
                             sample_index=omega.sample_index)
    V_minus = assemble_potential(omega_minus, bump, grid)

    H = HamiltonianSpec(grid=grid, potential=V, lam=lam, eta=eta)
    H_minus = HamiltonianSpec(grid=grid, potential=V_minus, lam=lam, eta=eta)

    g_x = green_column(H, x, tol=tol)                 # G(x, .) by symmetry
    g_minus = green_column(H_minus, origin, tol=tol)  # G^-(., origin)

    dv = V_minus.values - V.values                    # (1 - w_z) * phi(. - z)
    lhs = g_x.field.values[origin] - g_minus.field.values[x]
    rhs = lam * grid.h ** grid.d * float(
        np.sum(g_x.field.values * dv * g_minus.field.values))
    # when the site is already at full amplitude both sides are exactly zero,
    # so floor the scale at a small multiple of the Green function magnitude
    scale = max(abs(lhs), abs(rhs), floor * abs(g_x.field.values[origin]))
    return RankOneReport(lhs=lhs, rhs=rhs, relative_error=abs(lhs - rhs) / scale)


def agmon_inequality_check(G: GreenColumn, weight_mu: float, weight_cap: float,
                           cutoff_inner: float, cutoff_outer: float) -> AgmonReport:
    """Weighted Caccioppoli inequality with weight exp(2h), h = mu*min(|x|_oo, cap).

    LHS = (1/2) Int chi^2 e^{2h} |grad G|^2
        + Int chi^2 e^{2h} G^2 (lam V - 4 |grad h|^2)
    RHS = 4 Int |grad chi|^2 e^{2h} G^2,
    both by forward differences and midpoint quadrature.
    """
    grid = G.spec.grid
    if G.source != grid.center_node:
        raise ConfigurationError("Agmon check expects the source at the grid center")
    if weight_mu < 0.0 or weight_cap < 0.0:
        raise ConfigurationError("weight rate and cap must be nonnegative")
    if cutoff_inner < 0.5 - 1e-12:
        raise ConfigurationError("cutoff_inner must be >= 1/2 so chi vanishes on Q")
    half_width = grid.L / 2.0
    if cutoff_outer > half_width - 1e-12:
        raise ConfigurationError("cutoff_outer must stay inside the box")
    if cutoff_outer < cutoff_inner:
        raise ConfigurationError("cutoff_outer must be >= cutoff_inner")

    src = grid.node_position(G.source)
    coords = grid.axis_coords
    r_inf = np.zeros(grid.shape)
    for ax in range(grid.d):
        sl = [None] * grid.d
        sl[ax] = slice(None)
        r_inf = np.maximum(r_inf, np.abs(coords - src[ax])[tuple(sl)])

    h_fun = weight_mu * np.minimum(r_inf, weight_cap)
    chi = np.clip(np.minimum(r_inf - cutoff_inner, cutoff_outer - r_inf), 0.0, 1.0)
    w = np.exp(2.0 * h_fun)

    g = G.field.values
    grad2_g = forward_gradient_sq(g, grid, boundary="auto")
    grad2_h = forward_gradient_sq(h_fun, grid, boundary="edge")
    grad2_chi = forward_gradient_sq(chi, grid, boundary="edge")

    lamV = G.spec.lam * G.spec.potential.values
    cell = grid.h ** grid.d
    lhs = cell * float(np.sum(0.5 * chi ** 2 * w * grad2_g
                              + chi ** 2 * w * g ** 2 * (lamV - 4.0 * grad2_h)))
    rhs = 4.0 * cell * float(np.sum(grad2_chi * w * g ** 2))
    return AgmonReport(lhs=lhs, rhs=rhs, passed=lhs <= rhs * (1.0 + 1e-6) + 1e-12)
