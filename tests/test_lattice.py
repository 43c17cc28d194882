import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from landscape_lab.errors import (ConfigurationError, GridMismatchError,
                                  SingularOperatorError,
                                  SolverNonConvergenceError)
from landscape_lab import lattice
from landscape_lab.disorder import (assemble_potential, default_bump, sample_omega,
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

    def test_cell_slices_cover_m_nodes(self):
        grid = Grid(d=2, L=4, m=5)
        sl = grid.cell_slices((1, 2))
        assert sl == (slice(5, 10), slice(10, 15))
        with pytest.raises(IndexError):
            grid.cell_slices((4, 0))

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


class TestApplyHamiltonian:
    def test_constants_periodic(self):
        grid = Grid(d=1, L=8, m=20, bc="periodic")
        H = zero_potential_spec(grid, eta=0.5)
        out = apply_hamiltonian(H, ScalarField.constant(grid, 2.0))
        assert np.allclose(out.values, 1.0)

    def test_unit_stencil_dirichlet(self):
        grid = Grid(d=1, L=8, m=1)
        H = zero_potential_spec(grid, eta=0.0)
        f = np.zeros(8)
        f[3] = 1.0
        out = apply_hamiltonian(H, ScalarField(grid=grid, values=f)).values
        expect = np.zeros(8)
        expect[3] = 2.0
        expect[2] = expect[4] = -1.0
        assert np.allclose(out, expect)

    @pytest.mark.parametrize("bc", ["dirichlet", "periodic"])
    def test_matches_dense_matrix(self, bc):
        H = random_spec(L=4, m=4, bc=bc, eta=0.3)
        rng = np.random.default_rng(1)
        f = rng.normal(size=H.grid.shape)
        out = apply_hamiltonian(H, ScalarField(grid=H.grid, values=f)).values
        expect = dense_matrix(H) @ f.ravel()
        assert np.allclose(out.ravel(), expect, atol=1e-10)

    def test_symmetry_and_positive_definiteness(self):
        H = random_spec(L=6, m=5, eta=0.2, seed=3)
        rng = np.random.default_rng(2)
        f = rng.normal(size=H.grid.shape)
        g = rng.normal(size=H.grid.shape)
        Af = apply_hamiltonian(H, ScalarField(grid=H.grid, values=f)).values
        Ag = apply_hamiltonian(H, ScalarField(grid=H.grid, values=g)).values
        assert np.vdot(Af, g) == pytest.approx(np.vdot(f, Ag), rel=1e-12)
        assert np.vdot(Af, f) > 0.0

    def test_grid_mismatch(self):
        H = random_spec(L=4, m=4)
        other = Grid(d=1, L=5, m=4)
        with pytest.raises(GridMismatchError):
            apply_hamiltonian(H, ScalarField.constant(other, 1.0))


class TestHamiltonianSpecInvariants:
    def test_negative_potential_rejected(self):
        grid = Grid(d=1, L=4, m=5)
        with pytest.raises(ConfigurationError):
            HamiltonianSpec(grid=grid,
                            potential=ScalarField.constant(grid, -1.0),
                            lam=1.0, eta=0.1)

    def test_singular_periodic_rejected(self):
        grid = Grid(d=1, L=4, m=5, bc="periodic")
        with pytest.raises(SingularOperatorError):
            HamiltonianSpec(grid=grid,
                            potential=ScalarField.constant(grid, 0.0),
                            lam=0.0, eta=0.0)

    def test_negative_parameters_rejected(self):
        grid = Grid(d=1, L=4, m=5)
        with pytest.raises(ConfigurationError):
            HamiltonianSpec(grid=grid,
                            potential=ScalarField.constant(grid, 0.0),
                            lam=-1.0, eta=0.1)


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
        rhs = apply_hamiltonian(H, ScalarField(grid=H.grid, values=v))
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
        assert len(exc.value.residual_history) == 4

    def test_zero_rhs_returns_zero(self):
        H = random_spec(L=4, m=5)
        out = cg_solve(H, ScalarField.constant(H.grid, 0.0))
        assert np.all(out.values == 0.0)


class TestBandedPreconditioner:
    """1-d Dirichlet solves use the exact tridiagonal factor as preconditioner."""

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

    def test_wrong_band_costs_iterations_not_accuracy(self, monkeypatch):
        # a preconditioner built from a scaled diagonal is SPD but inexact
        exact = lattice._preconditioner
        monkeypatch.setattr(lattice, "_preconditioner",
                            lambda H, diag: exact(H, 1.5 * diag))
        H = random_spec(L=16, m=20, eta=1e-6, seed=9)
        for rhs in self.rhs_cases(H.grid):
            x = cg_solve(H, rhs, tol=1e-10)
            assert self.rel_error(x, dense_solve_oracle(H, rhs)) <= 1e-10
            with pytest.raises(SolverNonConvergenceError):
                cg_solve(H, rhs, tol=1e-10, max_iter=1)


class TestSpectralPreconditioner:
    """Every grid but 1-d Dirichlet: constant-mass Laplacian by FFT or DST-II."""

    @pytest.mark.parametrize("d, L, m, bc", [
        (1, 32, 20, "periodic"), (2, 8, 11, "dirichlet"), (3, 4, 5, "dirichlet"),
        (2, 8, 11, "periodic"), (3, 4, 5, "periodic")])
    def test_matches_oracle(self, d, L, m, bc):
        H = random_spec(d=d, L=L, m=m, bc=bc, eta=1e-3, seed=10 + d)
        for rhs in TestBandedPreconditioner.rhs_cases(H.grid):
            x = cg_solve(H, rhs, tol=1e-10)
            rel = TestBandedPreconditioner.rel_error(x, dense_solve_oracle(H, rhs))
            assert rel <= 1e-8

    def test_influence_grid_apply_count(self, monkeypatch):
        # the influence-2d benchmark grid; a diagonal preconditioner needs about 835
        grid = Grid(d=2, L=12, m=20)
        omega = sample_omega(uniform01(), (grid.L, grid.L), 101, 0)
        H = HamiltonianSpec(grid=grid, lam=1.0, eta=1e-4,
                            potential=assemble_potential(omega, default_bump(), grid))
        calls = []
        raw = lattice._apply_raw
        monkeypatch.setattr(lattice, "_apply_raw",
                            lambda *args: calls.append(1) or raw(*args))
        cg_solve(H, ScalarField.constant(grid, 1.0))
        assert len(calls) <= 40

    def test_cli_import_leaves_fft_unloaded(self):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        code = "import sys, landscape_lab.cli; print('scipy.fft' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "False"


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
        import scipy.fft   # loaded first, so the timing covers the solve alone
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
