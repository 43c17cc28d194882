"""Finite-difference discretization of -Lap + lambda*V + eta on a box.

Grids carry L unit cells per side and m mesh nodes per unit length, so nodes
sit at x_i = -1/2 + i*h with h = 1/m and the unit cell Q(z) around lattice
site z collects exactly m nodes per axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (ConfigurationError, GridMismatchError,
                     SingularOperatorError, SolverNonConvergenceError)

_MAX_DENSE_NODES = 10_000
_MAX_NODES = 1 << 24  # memory budget guard


@dataclass(frozen=True)
class Grid:
    """Regular mesh on the box [-1/2, L-1/2)^d."""

    d: int
    L: int
    m: int
    bc: str = "dirichlet"   # 'dirichlet' | 'periodic'

    def __post_init__(self):
        if self.d not in (1, 2, 3):
            raise ConfigurationError(f"dimension must be 1, 2 or 3, got {self.d}")
        if self.L < 4:
            raise ConfigurationError(f"need L >= 4 unit cells per side, got {self.L}")
        if self.m < 1:
            raise ConfigurationError(f"need m >= 1 nodes per unit length, got {self.m}")
        if self.bc not in ("dirichlet", "periodic"):
            raise ConfigurationError(f"unknown bc {self.bc!r}")
        if self.n_per_side ** self.d > _MAX_NODES:
            raise ConfigurationError("node count exceeds the memory budget")

    @property
    def h(self) -> float:
        return 1.0 / self.m

    @property
    def n_per_side(self) -> int:
        return self.L * self.m

    @property
    def shape(self) -> tuple:
        return (self.n_per_side,) * self.d

    @property
    def n_nodes(self) -> int:
        return self.n_per_side ** self.d

    @property
    def axis_coords(self) -> np.ndarray:
        return -0.5 + np.arange(self.n_per_side) / self.m

    @property
    def center_cell(self) -> tuple:
        return (self.L // 2,) * self.d

    @property
    def center_node(self) -> tuple:
        """Node sitting exactly on the central lattice site (m even) or next to it."""
        z = self.L // 2
        return (z * self.m + self.m // 2,) * self.d

    def cell_slices(self, cell: tuple) -> tuple:
        if len(cell) != self.d or any(not (0 <= c < self.L) for c in cell):
            raise IndexError(f"cell {cell} out of range for L={self.L}")
        return tuple(slice(c * self.m, (c + 1) * self.m) for c in cell)

    def node_position(self, node: tuple) -> np.ndarray:
        return np.asarray([-0.5 + i / self.m for i in node])


@dataclass(frozen=True)
class ScalarField:
    """One real value per grid node."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.shape:
            raise GridMismatchError(
                f"field shape {v.shape} does not match grid shape {self.grid.shape}")
        if not np.all(np.isfinite(v)):
            raise ConfigurationError("field contains non-finite values")
        object.__setattr__(self, "values", v)

    @classmethod
    def constant(cls, grid: Grid, c: float) -> "ScalarField":
        return cls(grid=grid, values=np.full(grid.shape, float(c)))


@dataclass(frozen=True)
class HamiltonianSpec:
    """The operator -Lap_h + lambda*V + eta on its grid."""

    grid: Grid
    potential: ScalarField
    lam: float
    eta: float

    def __post_init__(self):
        if self.potential.grid != self.grid:
            raise GridMismatchError("potential lives on a different grid")
        if np.any(self.potential.values < 0.0):
            raise ConfigurationError("potential must be nonnegative")
        if self.lam < 0.0 or self.eta < 0.0:
            raise ConfigurationError("lambda and eta must be nonnegative")
        if self.grid.bc == "periodic" and self.mass_floor() <= 0.0:
            raise SingularOperatorError(
                "periodic operator with eta = 0 and lambda*V = 0 is singular")

    def mass_floor(self) -> float:
        return self.eta + self.lam * float(self.potential.values.max())

    def diagonal(self) -> np.ndarray:
        return (2.0 * self.grid.d * self.grid.m ** 2
                + self.lam * self.potential.values + self.eta)


def _neighbor_sum(values: np.ndarray, bc: str) -> np.ndarray:
    out = np.zeros_like(values)
    for ax in range(values.ndim):
        if bc == "periodic":
            out += np.roll(values, 1, axis=ax)
            out += np.roll(values, -1, axis=ax)
        else:
            lo = [slice(None)] * values.ndim
            hi = [slice(None)] * values.ndim
            lo[ax] = slice(0, -1)
            hi[ax] = slice(1, None)
            out[tuple(hi)] += values[tuple(lo)]
            out[tuple(lo)] += values[tuple(hi)]
    return out


def apply_hamiltonian(H: HamiltonianSpec, f: ScalarField) -> ScalarField:
    """(2d+1)-point stencil; Dirichlet reads zeros outside, periodic wraps."""
    if f.grid != H.grid:
        raise GridMismatchError("field and Hamiltonian grids differ")
    return ScalarField(grid=H.grid, values=_apply_raw(H, f.values, H.diagonal()))


def _apply_raw(H: HamiltonianSpec, v: np.ndarray, diag: np.ndarray) -> np.ndarray:
    return diag * v - H.grid.m ** 2 * _neighbor_sum(v, H.grid.bc)


def cell_reduce(values: np.ndarray, grid: Grid, ufunc) -> np.ndarray:
    """Reduce the m^d nodes of every unit cell with a ufunc; shape (L,)*d."""
    blocks = values.reshape(tuple(n for _ in range(grid.d) for n in (grid.L, grid.m)))
    for ax in range(grid.d - 1, -1, -1):
        blocks = ufunc.reduce(blocks, axis=2 * ax + 1)
    return blocks


def _preconditioner(H: HamiltonianSpec, diag: np.ndarray):
    """r -> M^-1 r.  1-d Dirichlet: the operator's banded Cholesky factor.  Else
    M = -Lap_h + eta + lambda*mean(V) by a real FFT (periodic) or a DST-II
    (Dirichlet, ghost node half a step out: SPD, inexact); no stored factor.
    """
    if H.grid.d == 1 and H.grid.bc == "dirichlet":
        band = np.empty((2, diag.size))   # upper form: superdiagonal, diagonal
        band[0] = -float(H.grid.m ** 2)
        band[1] = diag
        try:
            factor = sla.cholesky_banded(band)
        except sla.LinAlgError as exc:
            raise SingularOperatorError("operator is not positive definite") from exc
        return lambda r: sla.cho_solve_banded((factor, False), r)
    import scipy.fft as sfft   # only here, so other grids skip its import cost
    n, periodic = H.grid.n_per_side, H.grid.bc == "periodic"
    # 1-d eigenvalues 4 m^2 sin^2(pi k / n): k = 0..n-1 periodic, 1/2..n/2 DST-II
    k = np.arange(n) if periodic else np.arange(1, n + 1) / 2.0
    eig = 4.0 * H.grid.m ** 2 * np.sin(np.pi * k / n) ** 2
    axes = [eig] * H.grid.d
    if periodic:   # rfftn keeps n//2 + 1 frequencies on the last axis
        axes[-1] = eig[:n // 2 + 1]
    scale = 1.0 / (H.eta + H.lam * float(H.potential.values.mean()) + sum(np.ix_(*axes)))
    if periodic:
        return lambda r: sfft.irfftn(scale * sfft.rfftn(r), s=r.shape, overwrite_x=True)
    return lambda r: sfft.idstn(scale * sfft.dstn(r, type=2), type=2, overwrite_x=True)


def cg_solve(H: HamiltonianSpec, rhs: ScalarField, tol: float = 1e-9,
             max_iter: int | None = None) -> ScalarField:
    """Preconditioned CG down to ||A f - rhs|| <= tol * ||rhs||.

    A 1-d Dirichlet solve takes one iteration, any other some ten.  Only the
    stencil's true residual accepts an answer; a failed check restarts CG from
    it.  A stall (p.Ap <= 0, or a true residual that does not fall between two
    checks) raises like max_iter does, reporting the true relres.  Fixed order
    and plain numpy reductions keep the result bit-stable across runs.
    """
    if rhs.grid != H.grid:
        raise GridMismatchError("rhs and Hamiltonian grids differ")
    if max_iter is None:
        max_iter = 20 * H.grid.n_per_side * H.grid.d
    b = rhs.values
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return ScalarField(grid=H.grid, values=np.zeros_like(b))
    diag = H.diagonal()
    precond = _preconditioner(H, diag)
    x = np.zeros_like(b)
    r = b.copy()
    history = [1.0]
    checked, p = np.inf, None   # p None: steepest-descent (re)start
    for _ in range(max_iter):
        z = precond(r)
        rz_new = float(np.vdot(r, z))
        p = z if p is None else z + (rz_new / rz) * p
        rz = rz_new
        Ap = _apply_raw(H, p, diag)
        pAp = float(np.vdot(p, Ap))
        if not pAp > 0.0:
            break
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        relres = float(np.linalg.norm(r)) / bnorm
        history.append(relres)
        if relres <= tol:   # guard against recurrence drift
            r = b - _apply_raw(H, x, diag)
            relres = float(np.linalg.norm(r)) / bnorm
            if relres <= tol:
                return ScalarField(grid=H.grid, values=x)
            if relres >= checked:
                break
            checked, p = relres, None
    relres = float(np.linalg.norm(b - _apply_raw(H, x, diag))) / bnorm
    raise SolverNonConvergenceError(
        f"CG stopped above tol={tol} after {len(history) - 1} of {max_iter} "
        f"iterations (true relres={relres:.3e})", residual_history=history)


def _assemble_sparse(H: HamiltonianSpec) -> sp.csr_matrix:
    """The operator as a sparse matrix, built apart from the stencil code."""
    n = H.grid.n_per_side
    m2 = float(H.grid.m ** 2)
    offsets = [0, 1, -1] + ([n - 1, 1 - n] if H.grid.bc == "periodic" else [])
    lap1 = sp.diags([2.0 * m2] + [-m2] * (len(offsets) - 1), offsets, shape=(n, n))
    lap = lap1
    for _ in range(H.grid.d - 1):
        lap = sp.kronsum(lap, lap1)
    diag = (H.lam * H.potential.values + H.eta).ravel(order="C")
    return (lap + sp.diags(diag)).tocsr()


def dense_solve_oracle(H: HamiltonianSpec, rhs: ScalarField) -> ScalarField:
    """Exact direct-factorization solve; test oracle only, small systems."""
    if rhs.grid != H.grid:
        raise GridMismatchError("rhs and Hamiltonian grids differ")
    if H.grid.n_nodes > _MAX_DENSE_NODES:
        raise ConfigurationError(
            f"direct oracle limited to {_MAX_DENSE_NODES} nodes, got {H.grid.n_nodes}")
    A = _assemble_sparse(H).tocsc()
    lu = spla.splu(A)
    x = lu.solve(rhs.values.ravel(order="C"))
    return ScalarField(grid=H.grid, values=x.reshape(H.grid.shape))


def _forward_diff(values: np.ndarray, ax: int, boundary: str) -> np.ndarray:
    """values[i+1] - values[i] along ax, one per node.

    Past the last node, 'wrap' reads the first node, 'zero' a zero ghost
    node, and 'edge' the last node again (a zero difference).
    """
    past = 0.0 if boundary == "zero" else np.take(
        values, [0 if boundary == "wrap" else -1], axis=ax)
    return np.diff(values, axis=ax, append=past)


def forward_gradient_sq(values: np.ndarray, grid: Grid, boundary: str = "auto") -> np.ndarray:
    """Per-node sum over axes of squared forward differences / h^2.

    boundary: 'zero' pads with zeros (Dirichlet energy), 'edge' replicates the
    boundary value (zero gradient there), 'auto' picks from the grid bc
    ('zero' for dirichlet, wrap for periodic).
    """
    if boundary == "auto":
        boundary = "wrap" if grid.bc == "periodic" else "zero"
    out = np.zeros_like(values)
    for ax in range(values.ndim):
        out += (_forward_diff(values, ax, boundary) * grid.m) ** 2
    return out
