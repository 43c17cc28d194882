"""Green-function columns and the deterministic structure checks.

A Green column is the solve against a discrete delta (h^{-d} at one node),
so its cell integrals match the continuum normalization.  The checks in this
module are per-sample identities and inequalities: domination by the massive
free Green function, the single-site perturbation identity, and the weighted
(Agmon) energy inequality.
"""

from __future__ import annotations

import numpy as np

from . import DEFAULT_TOL, Record, replace
from .disorder import OmegaField, assemble_potential
from .errors import ConfigurationError, box_index
from .lattice import (Grid, HamiltonianSpec, ScalarField, cell_reduce, cg_solve,
                      forward_gradient_sq)


class GreenColumn(Record):
    source: tuple
    field: ScalarField
    spec: HamiltonianSpec
    tol: float


class DominationReport(Record):
    max_violation: float
    passed: bool


class RankOneReport(Record):
    lhs: float
    rhs: float
    relative_error: float


class AgmonReport(Record):
    lhs: float
    rhs: float
    passed: bool


def delta_rhs(grid: Grid, node: tuple) -> ScalarField:
    """Discrete delta: h^{-d} at one node so its cell integral is 1."""
    v = np.zeros(grid.shape)
    v[box_index(node, grid.shape, "source node")] = grid.m ** grid.d
    return ScalarField(grid=grid, values=v)


def green_column(H: HamiltonianSpec, x0, tol: float = DEFAULT_TOL) -> GreenColumn:
    x0 = box_index(x0, H.grid.shape, "source node")
    f = cg_solve(H, delta_rhs(H.grid, x0), tol=tol)
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
    violation = float((G.field.values - gtilde.field.values).max())
    tolerance = 2.0 * G.tol * float(gtilde.field.values.max())
    return DominationReport(max_violation=violation, passed=violation <= tolerance)


def all_cell_masses(G: GreenColumn) -> np.ndarray:
    """Cube masses (midpoint quadrature over each unit cell), shape (L,)*d."""
    grid = G.spec.grid
    return cell_reduce(G.field.values, grid, np.add) * grid.h ** grid.d


def rank_one_identity_check(omega: OmegaField, z, grid: Grid, lam: float, eta: float,
                            x) -> RankOneReport:
    """Exact single-site perturbation identity of the discrete resolvent.

    Compares (G - G^-)(x, o) with the quadrature of
    lam * G(x,.) * (V^- - V) * G^-(., o), where o is the grid's center node
    and V^- the potential with the amplitude at site z forced to 1.
    """
    z, x = box_index(z, omega.box, "site"), box_index(x, grid.shape, "node")
    origin, tol = grid.center_node, 1e-12

    V = assemble_potential(omega, grid)
    forced = (int(np.ravel_multi_index(z, omega.box)), 1.0)
    V_minus = assemble_potential(replace(omega, sites=omega.sites + (forced,)), grid)

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
    scale = max(abs(lhs), abs(rhs), 1e-6 * abs(g_x.field.values[origin]))
    return RankOneReport(lhs=lhs, rhs=rhs, relative_error=abs(lhs - rhs) / scale)


def agmon_inequality_check(G: GreenColumn, weight_mu: float) -> AgmonReport:
    """Weighted Caccioppoli inequality with weight exp(2h), h = mu*min(|x|_oo, L/4),
    and a cutoff chi that vanishes at |x|_oo <= 1 and at |x|_oo >= L/2 - 1.

    LHS = (1/2) Int chi^2 e^{2h} |grad G|^2
        + Int chi^2 e^{2h} G^2 (lam V - 4 |grad h|^2)
    RHS = 4 Int |grad chi|^2 e^{2h} G^2,
    both by forward differences and midpoint quadrature.
    """
    grid = G.spec.grid
    if G.source != grid.center_node:
        raise ConfigurationError("Agmon check expects the source at the grid center")
    if weight_mu < 0.0:
        raise ConfigurationError("weight rate must be nonnegative")
    if grid.L <= 4:
        raise ConfigurationError(
            f"Agmon check needs L >= 5: at L={grid.L} the cutoff vanishes everywhere")
    cutoff_inner, cutoff_outer = 1.0, grid.L / 2.0 - 1.0

    coords = grid.axis_coords
    r_inf = np.zeros(grid.shape)
    for dist in np.ix_(*(np.abs(coords - coords[i]) for i in G.source)):
        r_inf = np.maximum(r_inf, dist)

    h_fun = weight_mu * np.minimum(r_inf, grid.L / 4.0)
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
