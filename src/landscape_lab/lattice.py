"""Finite-difference discretization of -Lap + lambda*V + eta on a box.

Grids carry L unit cells per side and m mesh nodes per unit length, so nodes
sit at x_i = -1/2 + i*h with h = 1/m and the unit cell Q(z) around lattice
site z collects exactly m nodes per axis.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import DEFAULT_TOL, MAX_NODES, Record
from .errors import (ConfigurationError, GridMismatchError,
                     SingularOperatorError, SolverNonConvergenceError)

_MAX_DENSE_NODES = 10_000
_SLAB = 1 << 13     # nodes per slab of the spectral preconditioners' scale: 64 KB


class Grid(Record):
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
        if self.n_per_side ** self.d > MAX_NODES:
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


class ScalarField(Record):
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
        """c on every node: a read-only broadcast view that holds no node array."""
        return cls(grid=grid, values=np.broadcast_to(float(c), grid.shape))


class HamiltonianSpec(Record):
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
        v_max = float(self.potential.values.max())
        top = 2.0 * self.grid.d * self.grid.m ** 2 + float(self.lam) * v_max + float(self.eta)
        if not np.isfinite(top):    # python floats overflow to inf without a warning
            raise ConfigurationError("operator diagonal 2d m^2 + lambda*max V + eta overflows")
        if self.grid.bc == "periodic" and self.eta + self.lam * v_max <= 0.0:
            # with lambda = 0 too it is singular for every omega: a config error
            error = SingularOperatorError if self.lam > 0.0 else ConfigurationError
            raise error("periodic operator with eta = 0 and lambda*V = 0 is singular")

    @cached_property    # once per operator; it writes the record's __dict__
    def diagonal(self) -> np.ndarray:
        return (2.0 * self.grid.d * self.grid.m ** 2
                + self.lam * self.potential.values + self.eta)


def apply_hamiltonian(H: HamiltonianSpec, v: np.ndarray, out=None,
                      scratch=None) -> np.ndarray:
    """H v on node values: (2d+1)-point stencil; Dirichlet reads zeros outside,
    periodic wraps.  H v goes into out, the neighbour sum into scratch, if given."""
    nsum = np.empty_like(v) if scratch is None else scratch
    nsum.fill(0.0)
    for ax in range(v.ndim):
        lo, hi, first, last = ((slice(None),) * ax + (s,) for s in (
            slice(0, -1), slice(1, None), slice(0, 1), slice(-1, None)))
        # (into, from): each node adds its left neighbour, then its right one; the bits depend on it
        adds = [(hi, lo), (first, last), (lo, hi), (last, first)]
        for into, src in adds if H.grid.bc == "periodic" else adds[::2]:
            nsum[into] += v[src]
    nsum *= H.grid.m ** 2
    out = np.multiply(H.diagonal, v, out=out)
    out -= nsum
    return out


def cell_reduce(values: np.ndarray, grid: Grid, ufunc) -> np.ndarray:
    """Reduce the m^d nodes of every unit cell with a ufunc; shape (L,)*d."""
    blocks = values.reshape(tuple(n for _ in range(grid.d) for n in (grid.L, grid.m)))
    for ax in range(grid.d - 1, -1, -1):
        blocks = ufunc.reduce(blocks, axis=2 * ax + 1)
    return blocks


def _tridiagonal_solver(diag: np.ndarray, c: float):
    """r -> A^-1 r for the symmetric tridiagonal A with diagonal diag and every
    off-diagonal entry -c (c > 0), by odd-even cyclic reduction.

    Each level eliminates the even-indexed unknowns from the odd-indexed
    equations, which leaves a system of the same form (off-diagonals still
    negative) of half the size; the factor keeps every level's coefficients.
    A solve sweeps the levels down and back up in place on one array, whose
    entries 2^l - 1 + j 2^l are level l's unknowns: log2(n) whole-array steps
    each way.  No pivoting: a non-positive pivot means A is not positive
    definite.
    """
    levels = []
    b, s = diag, np.full(diag.size - 1, float(c))   # s[i] = -A[i, i + 1]
    while True:
        if not b.min() > 0.0:
            raise SingularOperatorError("operator is not positive definite")
        if b.size == 1:
            break
        inv_even = 1.0 / b[0::2]
        k = b.size // 2    # odd unknowns; with n even the last has no right neighbour
        left, right = s[0::2], s[1::2]
        alpha, gamma = left * inv_even[:k], right * inv_even[1:]
        b = b[1::2] - alpha * left
        b[:gamma.size] -= gamma * right
        s = gamma[:k - 1] * s[2::2]
        levels.append((inv_even, left, right, alpha, gamma))
    inv_last, top = 1.0 / b[0], (1 << len(levels)) - 1

    def solve(r: np.ndarray, out=None, scratch=None) -> np.ndarray:
        x = np.positive(r, out=out)    # a copy of r, in out if given
        for level, (_, _, _, alpha, gamma) in enumerate(levels):
            unknowns = x[(1 << level) - 1::1 << level]
            even, odd = unknowns[0::2], unknowns[1::2]
            odd += alpha * even[:alpha.size]
            odd[:gamma.size] += gamma * even[1:]
        x[top] *= inv_last
        for level in range(len(levels) - 1, -1, -1):
            inv_even, left, right, _, _ = levels[level]
            unknowns = x[(1 << level) - 1::1 << level]
            even, odd = unknowns[0::2], unknowns[1::2]
            even[:left.size] += left * odd
            even[1:] += right * odd[:right.size]
            even *= inv_even
        return x
    return solve


def _preconditioner(H: HamiltonianSpec):
    """(r, out=None, scratch=None) -> M^-1 r, into out with scratch as work space
    where given.  1-d Dirichlet: M = H, by cyclic reduction.  Else M = -Lap_h +
    eta + lambda*mean(V), diagonal in a real FFT basis (periodic) or in the
    Dirichlet stencil's own DST-I basis, so M = H exactly when V is constant.

    Periodic: numpy.fft's rfftn, the scale, then irfftn's own steps (ifft on
    every axis but the last, irfft on it), all in one complex buffer.  The
    DST-I is the symmetric orthogonal matrix S[k, j] = sqrt(2/(n+1)) sin(pi
    (k+1) (j+1) / (n+1)), S S = I, applied on each axis (fast diagonalization).
    Row k of S is even (k even) or odd (k odd) under j -> n-1-j, so an axis is
    folded into the sums x[j] + x[n-1-j] (and the middle entry, n odd) and the
    differences x[j] - x[n-1-j], j < n//2, which A = S[0::2, :ceil(n/2)] and
    B = S[1::2, :n//2] take to the even-k and the odd-k coefficients: two
    half-size matmuls instead of one n x n.  The factor, the eigenvalues and
    the matrices are computed once per call, for every CG step of one solve.
    """
    if H.grid.d == 1 and H.grid.bc == "dirichlet":
        return _tridiagonal_solver(H.diagonal, float(H.grid.m ** 2))
    n, d, periodic = H.grid.n_per_side, H.grid.d, H.grid.bc == "periodic"
    # 1-d eigenvalues 4 m^2 sin^2(theta_k): pi k / n for k = 0..n-1 periodic,
    # pi k / (2n + 2) for k = 1..n DST-I
    theta = np.pi * (np.arange(n) / n if periodic else np.arange(1, n + 1) / (2 * n + 2))
    eig = 4.0 * H.grid.m ** 2 * np.sin(theta) ** 2
    if not periodic:   # the folded transform's order: A's rows, then B's
        eig = np.concatenate((eig[0::2], eig[1::2]))
    axes = [eig] * d
    if periodic:   # rfftn keeps n//2 + 1 frequencies on the last axis
        axes[-1] = eig[:n // 2 + 1]
    shift, (first, *rest) = H.eta + H.lam * float(H.potential.values.mean()), np.ix_(*axes)
    row = tuple(e.size for e in axes[1:])
    slab = np.empty((max(1, _SLAB // np.prod(row, dtype=int)),) + row)

    def rescale(*ys: np.ndarray) -> None:
        """y *= 1 / (shift + sum of eigenvalues) for each real y, one slab of
        first-axis rows at a time."""
        for start in range(0, len(first), len(slab)):
            t = slab[:len(first) - start]
            np.copyto(t, first[start:start + len(t)])
            for e in rest:      # shift + ((e_i + e_j) + e_k), the order of sum(np.ix_)
                t += e
            t += shift
            np.divide(1.0, t, out=t)
            for y in ys:
                y[start:start + len(t)] *= t
    if periodic:
        spectrum = np.empty(tuple(e.size for e in axes), dtype=complex)

        def precondition(r: np.ndarray, out=None, scratch=None) -> np.ndarray:
            np.fft.rfftn(r, out=spectrum)
            rescale(spectrum.real, spectrum.imag)
            for ax in range(d - 1):
                np.fft.ifft(spectrum, axis=ax, out=spectrum)
            return np.fft.irfft(spectrum, n, axis=-1, out=out)
        return precondition
    # S takes 2(n+1) distinct values, one per residue of k j mod 2(n+1), the period
    sines = np.sqrt(2.0 / (n + 1)) * np.sin(np.pi / (n + 1) * np.arange(2 * n + 2))
    h, g = n // 2, (n + 1) // 2
    j = np.arange(1, g + 1)
    A = sines[np.outer(2 * j - 1, j) % (2 * n + 2)]       # S[0::2, :g]
    B = sines[np.outer(2 * j[:h], j[:h]) % (2 * n + 2)]   # S[1::2, :h]

    def precondition(r: np.ndarray, out=None, scratch=None) -> np.ndarray:
        # each step folds the first axis into scratch, transforms it and moves
        # it to the back in out; the scale; then the steps' transposes, each
        # moving the last axis to the front
        out, scratch = (np.empty_like(r) if a is None else a for a in (out, scratch))
        front, back, fold = out.reshape(n, -1), out.reshape(-1, n), scratch.reshape(n, -1)
        y = r.reshape(n, -1)
        for _ in range(d):
            np.add(y[:h], y[::-1][:h], out=fold[:h])
            fold[h:g] = y[h:g]
            np.subtract(y[:h], y[::-1][:h], out=fold[g:])
            np.matmul(fold[:g].T, A.T, out=back[:, :g])
            np.matmul(fold[g:].T, B.T, out=back[:, g:])
            y = front
        rescale(out)
        for _ in range(d):
            np.matmul(A.T, back[:, :g].T, out=fold[:g])
            np.matmul(B.T, back[:, g:].T, out=fold[g:])
            np.add(fold[:h], fold[g:], out=front[:h])
            front[h:g] = fold[h:g]
            np.subtract(fold[:h], fold[g:], out=front[::-1][:h])
        return out
    return precondition


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """sum(a * b) outside BLAS, whose ddot splits a sum across its threads."""
    return float(np.einsum("i,i->", a.ravel(), b.ravel()))


def cg_solve(H: HamiltonianSpec, rhs: ScalarField, tol: float = DEFAULT_TOL,
             max_iter: int | None = None) -> ScalarField:
    """Preconditioned CG down to ||A f - rhs|| <= tol * ||rhs||.

    The preconditioner is set up once per call and applied once per step.  On
    1-d Dirichlet grids it is the exact cyclic-reduction inverse, so a solve
    takes one iteration (a non-positive pivot raises SingularOperatorError);
    on every other grid it is spectral and a solve takes about five.  Only the
    stencil's true residual accepts an answer; a failed check restarts CG from
    it.  A stall (p.Ap <= 0, or a true residual that does not fall between two
    checks) raises like max_iter does, reporting the true relres.  Fixed order
    and reductions outside BLAS keep the inner products' bits at any BLAS
    thread count; the sine transform's matmuls do not on every grid side.
    """
    if rhs.grid != H.grid:
        raise GridMismatchError("rhs and Hamiltonian grids differ")
    if max_iter is None:
        max_iter = 20 * H.grid.n_per_side * H.grid.d
    b = rhs.values
    x, r = np.zeros_like(b), b.copy()   # ||r||: ravel() would copy a broadcast b
    bnorm = np.sqrt(_dot(r, r))
    if bnorm == 0.0:
        return ScalarField(grid=H.grid, values=x)
    precond = _preconditioner(H)
    # the rest of the workspace; z and Ap double as the stencil's and the preconditioner's scratch
    z, p, Ap = np.empty_like(b), np.empty_like(b), np.empty_like(b)
    done, checked, restart = 0, np.inf, True   # restart: steepest-descent step
    while done < max_iter:
        z = precond(r, z, Ap)
        rz_new = _dot(r, z)
        if restart:
            np.copyto(p, z)
        else:
            p *= rz_new / rz
            p += z
        rz, restart = rz_new, False
        Ap = apply_hamiltonian(H, p, Ap, z)
        pAp = _dot(p, Ap)
        if not pAp > 0.0:
            break
        done += 1
        alpha = rz / pAp
        x += np.multiply(alpha, p, out=z)
        r -= np.multiply(alpha, Ap, out=z)
        relres = np.sqrt(_dot(r, r)) / bnorm
        if relres <= tol:   # guard against recurrence drift
            np.subtract(b, apply_hamiltonian(H, x, r, z), out=r)
            relres = np.sqrt(_dot(r, r)) / bnorm
            if relres <= tol:
                return ScalarField(grid=H.grid, values=x)
            if relres >= checked:
                break
            checked, restart = relres, True
    np.subtract(b, apply_hamiltonian(H, x, r, z), out=r)
    relres = np.sqrt(_dot(r, r)) / bnorm
    raise SolverNonConvergenceError(
        f"CG stopped above tol={tol} after {done} of {max_iter} "
        f"iterations (true relres={relres:.3e})")


def _assemble_sparse(H: HamiltonianSpec):
    """The operator as a scipy.sparse CSR matrix, built apart from the stencil code."""
    import scipy.sparse as sp   # oracle only: the CLI's runtime path needs no scipy
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
    import scipy.sparse.linalg as spla
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
