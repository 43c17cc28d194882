import json
import os
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from landscape_lab.errors import (ConfigurationError, GridMismatchError,
                                  SingularOperatorError,
                                  SolverNonConvergenceError)
from landscape_lab import lattice
from landscape_lab.disorder import (assemble_potential, sample_omega,
                                    uniform01)
from landscape_lab.green import delta_rhs
from landscape_lab.lattice import (Grid, HamiltonianSpec, ScalarField,
                                   apply_hamiltonian, cg_solve,
                                   dense_solve_oracle, forward_gradient_sq)


def zero_potential_spec(grid, lam=0.0, eta=1.0):
    return HamiltonianSpec(grid=grid, potential=ScalarField.constant(grid, 0.0),
                           lam=lam, eta=eta)


def random_spec(d=1, L=8, m=20, bc="dirichlet", lam=1.0, eta=0.1, seed=0):
    grid = Grid(d=d, L=L, m=m, bc=bc)
    rng = np.random.default_rng(seed)
    V = ScalarField(grid=grid, values=rng.uniform(size=grid.shape))
    return HamiltonianSpec(grid=grid, potential=V, lam=lam, eta=eta)


def dense_matrix(H):
    """Explicit dense assembly, written independently of the solver path."""
    grid = H.grid
    n = grid.n_nodes
    A = np.zeros((n, n))
    shape = grid.shape
    m2 = grid.m ** 2
    diag = (2 * grid.d * m2 + H.lam * H.potential.values + H.eta).ravel()
    for i in range(n):
        A[i, i] = diag[i]
        idx = np.unravel_index(i, shape)
        for ax in range(grid.d):
            for step in (-1, 1):
                nb = list(idx)
                nb[ax] += step
                if grid.bc == "periodic":
                    nb[ax] %= shape[ax]
                elif not (0 <= nb[ax] < shape[ax]):
                    continue
                j = np.ravel_multi_index(tuple(nb), shape)
                A[i, j] -= m2
    return A


class TestGridValidation:
    def test_dimension_guard(self):
        with pytest.raises(ConfigurationError):
            Grid(d=4, L=8, m=20)

    def test_small_box_guard(self):
        with pytest.raises(ConfigurationError):
            Grid(d=1, L=3, m=20)

    def test_bc_guard(self):
        with pytest.raises(ConfigurationError):
            Grid(d=1, L=8, m=20, bc="neumann")

    def test_field_shape_guard(self):
        grid = Grid(d=1, L=4, m=5)
        with pytest.raises(GridMismatchError):
            ScalarField(grid=grid, values=np.zeros(7))

    def test_field_rejects_nan(self):
        grid = Grid(d=1, L=4, m=5)
        v = np.zeros(20)
        v[3] = np.nan
        with pytest.raises(ConfigurationError):
            ScalarField(grid=grid, values=v)


def roll_stencil(H, v):
    """H v with each axis's neighbours summed from np.roll copies (periodic) or
    slices (Dirichlet): the stencil as first written, a reference for its bits."""
    nsum = np.zeros_like(v)
    for ax in range(v.ndim):
        if H.grid.bc == "periodic":
            nsum += np.roll(v, 1, axis=ax)
            nsum += np.roll(v, -1, axis=ax)
        else:
            lo = tuple(slice(0, -1) if a == ax else slice(None) for a in range(v.ndim))
            hi = tuple(slice(1, None) if a == ax else slice(None) for a in range(v.ndim))
            nsum[hi] += v[lo]
            nsum[lo] += v[hi]
    nsum *= H.grid.m ** 2
    return H.diagonal * v - nsum


def dst_matrix(n):
    """The DST-I matrix S[k, j] = sqrt(2/(n+1)) sin(pi (k+1) (j+1) / (n+1))."""
    sines = np.sqrt(2.0 / (n + 1)) * np.sin(np.pi / (n + 1) * np.arange(2 * n + 2))
    k = np.arange(1, n + 1)
    return sines[np.outer(k, k) % (2 * n + 2)]


def full_scale_preconditioner(H, r):
    """M^-1 r with the scale 1 / (shift + sum of eigenvalues) held as one full
    array, as the spectral preconditioners were first written: a reference
    for the bits of the slab-by-slab scale.  The transforms take the same
    steps as the preconditioner's, the Dirichlet one folded."""
    n, d, periodic = H.grid.n_per_side, H.grid.d, H.grid.bc == "periodic"
    theta = np.pi * (np.arange(n) / n if periodic else np.arange(1, n + 1) / (2 * n + 2))
    eig = 4.0 * H.grid.m ** 2 * np.sin(theta) ** 2
    if not periodic:
        eig = np.concatenate((eig[0::2], eig[1::2]))
    axes = [eig] * d
    if periodic:
        axes[-1] = eig[:n // 2 + 1]
    scale = 1.0 / (H.eta + H.lam * float(H.potential.values.mean()) + sum(np.ix_(*axes)))
    if periodic:
        return np.fft.irfftn(scale * np.fft.rfftn(r), s=r.shape, axes=tuple(range(d)))
    # sums and differences of mirrored rows of the first axis, then half-size
    # matmuls that move it to the back; after the scale the transposes move the
    # last axis to the front
    S, h, g = dst_matrix(n), n // 2, (n + 1) // 2
    A, B = np.ascontiguousarray(S[0::2, :g]), np.ascontiguousarray(S[1::2, :h])
    y = r
    for _ in range(d):
        y = y.reshape(n, -1)
        f = np.concatenate((y[:h] + y[::-1][:h], y[h:g], y[:h] - y[::-1][:h]))
        y = np.concatenate((f[:g].T @ A.T, f[g:].T @ B.T), axis=1)
    y = y.reshape(r.shape) * scale
    for _ in range(d):
        y = y.reshape(-1, n)
        u = np.concatenate((A.T @ y[:, :g].T, B.T @ y[:, g:].T))
        y = np.concatenate((u[:h] + u[g:], u[h:g], (u[:h] - u[g:])[::-1]))
    return y.reshape(r.shape)


class TestApplyHamiltonian:
    def test_constants_periodic(self):
        grid = Grid(d=1, L=8, m=20, bc="periodic")
        H = zero_potential_spec(grid, eta=0.5)
        out = apply_hamiltonian(H, np.full(grid.shape, 2.0))
        assert np.allclose(out, 1.0)

    def test_unit_stencil_dirichlet(self):
        grid = Grid(d=1, L=8, m=1)
        H = zero_potential_spec(grid, eta=0.0)
        f = np.zeros(8)
        f[3] = 1.0
        out = apply_hamiltonian(H, f)
        expect = np.zeros(8)
        expect[3] = 2.0
        expect[2] = expect[4] = -1.0
        assert np.allclose(out, expect)

    @pytest.mark.parametrize("bc", ["dirichlet", "periodic"])
    def test_matches_dense_matrix(self, bc):
        H = random_spec(L=4, m=4, bc=bc, eta=0.3)
        rng = np.random.default_rng(1)
        f = rng.normal(size=H.grid.shape)
        out = apply_hamiltonian(H, f)
        expect = dense_matrix(H) @ f.ravel()
        assert np.allclose(out.ravel(), expect, atol=1e-10)

    @pytest.mark.parametrize("d, L, m, bc", [
        (1, 8, 20, "periodic"), (2, 8, 11, "periodic"), (3, 4, 5, "periodic"),
        (1, 8, 20, "dirichlet"), (2, 8, 11, "dirichlet"), (3, 4, 5, "dirichlet")])
    def test_same_bits_as_roll_stencil(self, d, L, m, bc):
        H = random_spec(d=d, L=L, m=m, bc=bc, seed=6)
        v = np.random.default_rng(7).standard_normal(H.grid.shape)
        assert apply_hamiltonian(H, v).tobytes() == roll_stencil(H, v).tobytes()

    def test_symmetry_and_positive_definiteness(self):
        H = random_spec(L=6, m=5, eta=0.2, seed=3)
        rng = np.random.default_rng(2)
        f = rng.normal(size=H.grid.shape)
        g = rng.normal(size=H.grid.shape)
        Af = apply_hamiltonian(H, f)
        Ag = apply_hamiltonian(H, g)
        assert np.vdot(Af, g) == pytest.approx(np.vdot(f, Ag), rel=1e-12)
        assert np.vdot(Af, f) > 0.0


class TestHamiltonianSpecInvariants:
    def test_negative_potential_rejected(self):
        grid = Grid(d=1, L=4, m=5)
        with pytest.raises(ConfigurationError):
            HamiltonianSpec(grid=grid,
                            potential=ScalarField.constant(grid, -1.0),
                            lam=1.0, eta=0.1)

    def test_singular_periodic_rejected(self):
        # singular whatever the potential: a configuration error
        grid = Grid(d=1, L=4, m=5, bc="periodic")
        with pytest.raises(ConfigurationError):
            HamiltonianSpec(grid=grid,
                            potential=ScalarField.constant(grid, 0.0),
                            lam=0.0, eta=0.0)

    def test_negative_parameters_rejected(self):
        grid = Grid(d=1, L=4, m=5)
        with pytest.raises(ConfigurationError):
            HamiltonianSpec(grid=grid,
                            potential=ScalarField.constant(grid, 0.0),
                            lam=-1.0, eta=0.1)

    @pytest.mark.parametrize("v_max, lam, eta, finite", [
        (1.0, 1e308, 1e308, False),     # lambda*V + eta overflows
        (2.0, 1e308, 0.0, False),       # lambda*max V alone overflows
        (1.0, 1e308, 0.0, True),        # large, but every entry is finite
    ])
    def test_overflowing_diagonal_rejected(self, v_max, lam, eta, finite):
        grid = Grid(d=1, L=4, m=5)
        values = np.zeros(grid.shape)
        values[7] = v_max
        V = ScalarField(grid=grid, values=values)
        if finite:
            H = HamiltonianSpec(grid=grid, potential=V, lam=lam, eta=eta)
            assert np.isfinite(H.diagonal).all() and H.diagonal is H.diagonal
        else:
            with pytest.raises(ConfigurationError, match="overflows"):
                HamiltonianSpec(grid=grid, potential=V, lam=lam, eta=eta)


class TestCgSolve:
    def test_constant_solution_periodic(self):
        grid = Grid(d=1, L=8, m=20, bc="periodic")
        H = zero_potential_spec(grid, eta=1.0)
        f = cg_solve(H, ScalarField.constant(grid, 1.0), tol=1e-12)
        assert np.allclose(f.values, 1.0, atol=1e-10)

    def test_round_trip_consistency(self):
        H = random_spec(L=8, m=10, eta=0.5, seed=4)
        rng = np.random.default_rng(3)
        v = rng.normal(size=H.grid.shape)
        rhs = ScalarField(grid=H.grid, values=apply_hamiltonian(H, v))
        out = cg_solve(H, rhs, tol=1e-12)
        assert np.abs(out.values - v).max() < 1e-6 * np.abs(v).max()

    def test_matches_dense_factorization(self):
        grid = Grid(d=1, L=8, m=4)   # 32 nodes
        rng = np.random.default_rng(5)
        V = ScalarField(grid=grid, values=rng.uniform(size=grid.shape))
        H = HamiltonianSpec(grid=grid, potential=V, lam=1.0, eta=0.1)
        rhs = ScalarField(grid=grid, values=rng.normal(size=grid.shape))
        x_cg = cg_solve(H, rhs, tol=1e-10)
        x_lu = dense_solve_oracle(H, rhs)
        rel = np.abs(x_cg.values - x_lu.values).max() / np.abs(x_lu.values).max()
        assert rel <= 1e-8

    def test_nonnegative_solution_for_nonnegative_rhs(self):
        H = random_spec(L=8, m=10, eta=1e-3, seed=6)
        tol = 1e-10
        u = cg_solve(H, ScalarField.constant(H.grid, 1.0), tol=tol)
        assert u.values.min() >= -tol * np.abs(u.values).max()

    def test_monotone_in_lambda(self):
        Ha = random_spec(L=8, m=10, lam=1.0, eta=1e-2, seed=7)
        Hb = HamiltonianSpec(grid=Ha.grid, potential=Ha.potential,
                             lam=4.0, eta=1e-2)
        tol = 1e-11
        ua = cg_solve(Ha, ScalarField.constant(Ha.grid, 1.0), tol=tol)
        ub = cg_solve(Hb, ScalarField.constant(Hb.grid, 1.0), tol=tol)
        scale = np.abs(ua.values).max()
        assert np.all(ub.values <= ua.values + 2 * tol * scale)

    def test_nonconvergence_reports_history(self):
        # 2-d: a 1-d Dirichlet solve converges in one step
        H = random_spec(d=2, L=4, m=20, eta=1e-6, seed=8)
        with pytest.raises(SolverNonConvergenceError) as exc:
            cg_solve(H, ScalarField.constant(H.grid, 1.0), tol=1e-12, max_iter=3)
        assert "after 3 of 3 iterations" in str(exc.value)

    def test_zero_rhs_returns_zero(self):
        H = random_spec(L=4, m=5)
        out = cg_solve(H, ScalarField.constant(H.grid, 0.0))
        assert np.all(out.values == 0.0)


class TestBandedPreconditioner:
    """1-d Dirichlet solves use the exact tridiagonal factor (cyclic reduction)
    as preconditioner."""

    @staticmethod
    def rhs_cases(grid):
        yield delta_rhs(grid, grid.center_node)
        yield ScalarField.constant(grid, 1.0)

    @staticmethod
    def rel_error(x, ref):
        return np.abs(x.values - ref.values).max() / np.abs(ref.values).max()

    @pytest.mark.parametrize("L", [16, 128])
    def test_one_iteration_matches_oracle(self, L):
        H = random_spec(L=L, m=20, eta=1e-6, seed=L)
        for rhs in self.rhs_cases(H.grid):
            x = cg_solve(H, rhs, tol=1e-10, max_iter=1)
            assert self.rel_error(x, dense_solve_oracle(H, rhs)) <= 1e-10

    # n = 4 (smallest grid), n = 35 (odd), n = 256 (a power of two)
    @pytest.mark.parametrize("L, m", [(4, 1), (5, 7), (16, 16)])
    def test_cyclic_reduction_matches_oracle(self, L, m):
        H = random_spec(L=L, m=m, eta=1e-6, seed=m)
        solve = lattice._preconditioner(H)
        for rhs in self.rhs_cases(H.grid):
            x = ScalarField(grid=H.grid, values=solve(rhs.values))
            assert self.rel_error(x, dense_solve_oracle(H, rhs)) <= 1e-10

    def test_nonpositive_pivot_rejected(self):
        # tridiag(-1, 1, -1) on three nodes is indefinite
        with pytest.raises(SingularOperatorError):
            lattice._tridiagonal_solver(np.ones(3), 1.0)

    def test_wrong_band_costs_iterations_not_accuracy(self, monkeypatch):
        # a preconditioner built from a raised diagonal is SPD but inexact
        exact = lattice._preconditioner
        monkeypatch.setattr(lattice, "_preconditioner",
                            lambda H: exact(replace(H, eta=H.eta + H.grid.m ** 2)))
        H = random_spec(L=16, m=20, eta=1e-6, seed=9)
        for rhs in self.rhs_cases(H.grid):
            x = cg_solve(H, rhs, tol=1e-10)
            assert self.rel_error(x, dense_solve_oracle(H, rhs)) <= 1e-10
            with pytest.raises(SolverNonConvergenceError):
                cg_solve(H, rhs, tol=1e-10, max_iter=1)


class TestSpectralPreconditioner:
    """Every grid but 1-d Dirichlet: constant-mass Laplacian by FFT or DST-I."""

    @pytest.mark.parametrize("d, L, m, bc", [
        (1, 32, 20, "periodic"), (2, 8, 11, "dirichlet"), (3, 4, 5, "dirichlet"),
        (2, 8, 11, "periodic"), (3, 4, 5, "periodic")])
    def test_matches_oracle(self, d, L, m, bc):
        H = random_spec(d=d, L=L, m=m, bc=bc, eta=1e-3, seed=10 + d)
        for rhs in TestBandedPreconditioner.rhs_cases(H.grid):
            x = cg_solve(H, rhs, tol=1e-10)
            rel = TestBandedPreconditioner.rel_error(x, dense_solve_oracle(H, rhs))
            assert rel <= 1e-8

    @pytest.mark.parametrize("d, L, m", [(2, 8, 11), (3, 4, 5)])
    def test_one_iteration_on_constant_potential(self, d, L, m):
        # with V constant the Dirichlet DST-I preconditioner is the operator's inverse
        grid = Grid(d=d, L=L, m=m)
        H = HamiltonianSpec(grid=grid, potential=ScalarField.constant(grid, 0.7),
                            lam=1.0, eta=1e-3)
        for rhs in TestBandedPreconditioner.rhs_cases(grid):
            x = cg_solve(H, rhs, tol=1e-10, max_iter=1)
            rel = TestBandedPreconditioner.rel_error(x, dense_solve_oracle(H, rhs))
            assert rel <= 1e-10

    @pytest.mark.parametrize("d, L, m", [
        (2, 8, 11), (2, 5, 21), (2, 12, 20), (3, 4, 5), (3, 5, 5)],
        ids=["8-11", "5-21", "12-20", "3d-4-5", "3d-5-5"])
    def test_folded_dst_matches_the_dense_transform(self, d, L, m):
        # n = 88, 105 (a middle row) and 240 (the influence-2d grid) in 2-d,
        # n = 20 and 25 (a middle row) in 3-d
        H = random_spec(d=d, L=L, m=m, seed=12)
        n = H.grid.n_per_side
        eig = 4.0 * m ** 2 * np.sin(np.pi * np.arange(1, n + 1) / (2 * n + 2)) ** 2
        scale = 1.0 / (H.eta + H.lam * H.potential.values.mean() + sum(np.ix_(*[eig] * d)))
        S = dst_matrix(n)

        def dense_dst(x):   # the n x n S on every axis
            for ax in range(d):
                x = np.moveaxis(np.tensordot(S, x, axes=(1, ax)), 0, ax)
            return x
        r = np.random.default_rng(13).standard_normal(H.grid.shape)
        dense = dense_dst(scale * dense_dst(r))
        z = lattice._preconditioner(H)(r)
        assert np.abs(z - dense).max() <= 1e-13 * np.abs(dense).max()

    def test_influence_grid_apply_count(self, monkeypatch):
        # the influence-2d benchmark grid; a diagonal preconditioner needs about 835
        grid = Grid(d=2, L=12, m=20)
        omega = sample_omega(uniform01(), (grid.L, grid.L), 101, 0)
        H = HamiltonianSpec(grid=grid, lam=1.0, eta=1e-4,
                            potential=assemble_potential(omega, grid))
        calls = []
        apply = lattice.apply_hamiltonian
        monkeypatch.setattr(lattice, "apply_hamiltonian",
                            lambda *args: calls.append(1) or apply(*args))
        cg_solve(H, ScalarField.constant(grid, 1.0))
        assert len(calls) <= 40


class TestLeanSolve:
    """A solve holds x, r, z, p and Ap, besides the operator: the stencil and
    the preconditioners write into buffers the solve passes them, the spectral
    scale is built one slab at a time, and a constant right-hand side is a
    broadcast view."""

    @pytest.mark.parametrize("d, L, bc, rhs_kind, bound", [
        (2, 16, "dirichlet", "delta", 6.0), (3, 4, "dirichlet", "delta", 5.5),
        (2, 16, "dirichlet", "ones", 6.0), (3, 4, "dirichlet", "ones", 5.5),
        (2, 16, "periodic", "ones", 6.75), (3, 4, "periodic", "ones", 6.5)])
    def test_peak_node_arrays(self, d, L, bc, rhs_kind, bound):
        # traced peaks 5.82, 5.15, 5.82, 5.15, 6.47 and 6.16.  With the n x n
        # DST-I matrix in 2-d and FFT temporaries on periodic grids they were
        # 6.32, 5.15, 6.32, 5.15, 7.25 and 8.09; with a full-size scale, a dense
        # rhs of ones and np.roll copies as well, the first five were 7.24,
        # 6.14, 8.24, 7.14 and 9.67
        grid = Grid(d=d, L=L, m=20, bc=bc)
        omega = sample_omega(uniform01(), (L,) * d, 5, 1)
        H = HamiltonianSpec(grid=grid, lam=1.0, eta=1e-4,
                            potential=assemble_potential(omega, grid))
        delta = delta_rhs(grid, grid.center_node) if rhs_kind == "delta" else None
        H.diagonal    # the operator's own array, built before tracing
        tracemalloc.start()
        try:   # the landscape's right-hand side is made inside the traced region
            cg_solve(H, delta or ScalarField.constant(grid, 1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * 8 * grid.n_nodes

    @pytest.mark.parametrize("d, L, m", [(1, 32, 20), (2, 8, 11)])
    def test_periodic_apply_scales_the_spectrum_in_place(self, d, L, m):
        # traced peaks 0.32 and 0.54 node arrays; with the real slab cast to
        # complex for the spectrum's multiply they were 1.11 and 1.05
        H = random_spec(d=d, L=L, m=m, bc="periodic", seed=8)
        r = np.random.default_rng(9).standard_normal(H.grid.shape)
        out, scratch = np.empty_like(r), np.empty_like(r)
        precond = lattice._preconditioner(H)
        precond(r, out, scratch)   # numpy.fft builds its plan on the first call
        tracemalloc.start()
        try:
            precond(r, out, scratch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.75 * 8 * H.grid.n_nodes

    def test_constant_field_is_a_read_only_view(self):
        H = random_spec(d=2, L=8, m=11, seed=2)
        ones = ScalarField.constant(H.grid, 1.0)
        assert ones.values.strides == (0, 0)
        with pytest.raises(ValueError, match="read-only"):
            ones.values[0, 0] = 2.0
        dense = ScalarField(grid=H.grid, values=np.ones(H.grid.shape))
        assert cg_solve(H, ones).values.tobytes() == cg_solve(H, dense).values.tobytes()

    @pytest.mark.parametrize("slab", [lattice._SLAB, 300])
    @pytest.mark.parametrize("d, L, m, bc", [
        (1, 32, 20, "periodic"), (2, 8, 11, "periodic"), (3, 4, 7, "periodic"),
        (2, 8, 11, "dirichlet"), (2, 5, 21, "dirichlet"), (3, 4, 7, "dirichlet")])
    def test_slab_scale_gives_the_full_scale_bits(self, d, L, m, bc, slab, monkeypatch):
        # a part slab at the end: 3-d, 28 first-axis rows in slabs of 19 (periodic)
        # and 10 at the default, 105 rows of the odd 2-d grid in slabs of 78; at
        # 300 nodes 321 rows in slabs of 300 (1-d), 88 in slabs of 6 (2-d
        # periodic) and 3 (2-d Dirichlet), and 105 in slabs of 2
        monkeypatch.setattr(lattice, "_SLAB", slab)
        H = random_spec(d=d, L=L, m=m, bc=bc, seed=8)
        r = np.random.default_rng(9).standard_normal(H.grid.shape)
        z = lattice._preconditioner(H)(r)
        assert z.tobytes() == full_scale_preconditioner(H, r).tobytes()

    @pytest.mark.parametrize("d, L, m, bc", [
        (1, 8, 20, "dirichlet"), (2, 8, 11, "dirichlet"), (2, 5, 21, "dirichlet"),
        (3, 4, 5, "dirichlet"), (2, 8, 11, "periodic")])
    def test_buffers_give_the_same_bits(self, d, L, m, bc):
        H = random_spec(d=d, L=L, m=m, bc=bc, seed=3)
        v = np.random.default_rng(4).standard_normal(H.grid.shape)
        out, scratch = np.empty_like(v), np.empty_like(v)
        assert apply_hamiltonian(H, v, out, scratch) is out
        assert out.tobytes() == apply_hamiltonian(H, v).tobytes()
        precond = lattice._preconditioner(H)
        z = precond(v, out, scratch)
        assert z is out
        assert z.tobytes() == precond(v).tobytes()


# Run in a fresh interpreter: after the import, after each (subcommand,
# config) run in argv[1] and after a 2-d and a 3-d Dirichlet solve it records
# the scipy modules loaded so far.
NO_SCIPY_PROBE = """
import json, sys
from pathlib import Path
from landscape_lab import cli
from landscape_lab.lattice import Grid, HamiltonianSpec, ScalarField, cg_solve
runs, tmp = json.loads(sys.argv[1]), Path(sys.argv[2])
def scipy_modules():
    return [m for m in sys.modules if m.split(".")[0] == "scipy"]
loaded = {"import": scipy_modules()}
for i, (name, cfg) in enumerate(runs):
    path = tmp / f"{i}.json"
    path.write_text(json.dumps(cfg))
    assert cli.run(name, path, output_dir=tmp / str(i)) in (0, 4, 5), name
    loaded[name] = scipy_modules()
for d in (2, 3):
    grid = Grid(d=d, L=4, m=5)
    H = HamiltonianSpec(grid=grid, potential=ScalarField.constant(grid, 0.0),
                        lam=0.0, eta=1.0)
    cg_solve(H, ScalarField.constant(grid, 1.0))
    loaded[f"{d}-d dirichlet"] = scipy_modules()
print(json.dumps(loaded))
"""


class TestScipyFreeRuntime:
    """scipy is loaded only by the direct oracle."""

    def test_cli_paths_load_no_scipy(self, tmp_path):
        law = {"kind": "bernoulli", "q": 0.5}
        runs = [
            ("green-decay", {"d": 1, "L": 16, "m": 20, "law": law, "lambda": 1.0,
                             "eta": 1e-3, "p": 1.0, "n_samples": 2, "margin": 2,
                             "r_min": 1.0, "r_max": 5.0}),
            ("solve-landscape", {"d": 1, "L": 16, "m": 20, "bc": "periodic", "law": law,
                                 "lambda": 1.0, "eta": 1e-3}),
            ("fpp-kesten", {"d": 2, "L": 65, "law": law, "gamma": 0.5, "k": 3,
                            "radii": [1, 2], "c_probe": 0.5, "n_samples": 2}),
            ("cluster-tail", {"d": 2, "L": 33, "law": law, "gamma": 0.5, "k": 3,
                              "n_samples": 2}),
            ("vertical-derivative", {"d": 2, "L": 8, "m": 20, "law": {"kind": "uniform01"},
                                     "lambda": 1.0, "eta": 1e-3, "z_offsets": [1, 2, 3],
                                     "n_samples": 1}),
            ("selftest", {})]
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run([sys.executable, "-c", NO_SCIPY_PROBE, json.dumps(runs),
                              str(tmp_path)], env=env, check=True,
                             capture_output=True, text=True).stdout
        loaded = json.loads(out.strip().splitlines()[-1])
        keys = ["import", *(name for name, _ in runs), "2-d dirichlet", "3-d dirichlet"]
        assert loaded == {key: [] for key in keys}


# Run in a fresh interpreter, whose BLAS thread count is set before numpy
# loads: the digest of a 2-d Green column's bytes (25 600 nodes).
BLAS_THREADS_PROBE = """
import hashlib
from landscape_lab.disorder import assemble_potential, sample_omega, uniform01
from landscape_lab.green import delta_rhs
from landscape_lab.lattice import Grid, HamiltonianSpec, cg_solve
grid = Grid(d=2, L=8, m=20)
omega = sample_omega(uniform01(), (grid.L, grid.L), 5, 1)
H = HamiltonianSpec(grid=grid, lam=1.0, eta=1e-4,
                    potential=assemble_potential(omega, grid))
G = cg_solve(H, delta_rhs(grid, grid.center_node))
print(hashlib.sha256(G.values.tobytes()).hexdigest())
"""


def test_solve_bits_do_not_depend_on_blas_threads():
    # BLAS ddot splits a sum of more than about 10^4 terms across its threads
    src = Path(__file__).resolve().parent.parent / "src"
    digests = {subprocess.run([sys.executable, "-c", BLAS_THREADS_PROBE], check=True,
                              env=dict(os.environ, PYTHONPATH=str(src),
                                       OPENBLAS_NUM_THREADS=str(threads)),
                              capture_output=True, text=True).stdout
               for threads in (1, 2)}
    assert len(digests) == 1


class TestStall:
    """Tolerances below round-off end in SolverNonConvergenceError, quickly."""

    def test_unreachable_tol(self):
        H = random_spec(L=16, m=20, bc="periodic", eta=1e-3, seed=12)
        with pytest.raises(SolverNonConvergenceError, match="true relres"):
            cg_solve(H, ScalarField.constant(H.grid, 1.0), tol=1e-300)

    def test_massless_periodic_delta(self):
        # V = 0, eta = 1e-6: the true residual floor sits above the default tol
        grid = Grid(d=1, L=128, m=20, bc="periodic")
        H = zero_potential_spec(grid, eta=1e-6)
        start = time.perf_counter()
        with pytest.raises(SolverNonConvergenceError) as exc:
            cg_solve(H, delta_rhs(grid, grid.center_node))
        assert time.perf_counter() - start < 1.0
        relres = float(str(exc.value).rsplit("true relres=", 1)[1].rstrip(")"))
        assert np.isfinite(relres) and relres > 1e-9


class TestDenseOracle:
    def test_scalar_formula_on_smallest_grid(self):
        # smallest admissible grid, checked entry-wise against the
        # hand-assembled matrix
        grid = Grid(d=1, L=4, m=1)
        V = ScalarField(grid=grid, values=np.asarray([0.0, 1.0, 0.5, 0.0]))
        H = HamiltonianSpec(grid=grid, potential=V, lam=2.0, eta=0.3)
        rhs = ScalarField(grid=grid, values=np.asarray([1.0, 0.0, 2.0, -1.0]))
        out = dense_solve_oracle(H, rhs)
        expect = np.linalg.solve(dense_matrix(H), rhs.values)
        assert np.allclose(out.values, expect, atol=1e-12)

    def test_size_guard(self):
        grid = Grid(d=2, L=8, m=20)   # 25600 nodes
        H = zero_potential_spec(grid, eta=1.0)
        with pytest.raises(ConfigurationError):
            dense_solve_oracle(H, ScalarField.constant(grid, 1.0))

    def test_singular_system_rejected(self):
        grid = Grid(d=1, L=4, m=5, bc="periodic")
        with pytest.raises(SingularOperatorError):
            HamiltonianSpec(grid=grid,
                            potential=ScalarField.constant(grid, 0.0),
                            lam=1.0, eta=0.0)


class TestForwardGradient:
    def test_linear_function_has_unit_gradient(self):
        grid = Grid(d=1, L=4, m=10)
        v = grid.axis_coords.copy()
        g2 = forward_gradient_sq(v, grid, boundary="edge")
        assert np.allclose(g2[:-1], 1.0)
        assert g2[-1] == 0.0

    def test_periodic_constant_has_zero_gradient(self):
        grid = Grid(d=2, L=4, m=5, bc="periodic")
        g2 = forward_gradient_sq(np.ones(grid.shape), grid, boundary="auto")
        assert np.all(g2 == 0.0)

    def test_dirichlet_ghost_zero_boundary_term(self):
        grid = Grid(d=1, L=4, m=5)
        v = np.ones(grid.shape)
        g2 = forward_gradient_sq(v, grid, boundary="zero")
        assert g2[-1] == pytest.approx(grid.m ** 2)
        assert np.all(g2[:-1] == 0.0)
