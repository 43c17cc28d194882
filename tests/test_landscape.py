import tracemalloc

import numpy as np
import pytest

from conftest import omega_from_values
from landscape_lab.disorder import (bernoulli, default_bump,
                                    assemble_potential, sample_omega)
from landscape_lab.errors import ConfigurationError, PositivityError
from landscape_lab.landscape import (derived_fields, energy_estimate_check,
                                     eta_convergence_study, solve_landscape)
from landscape_lab.lattice import (Grid, HamiltonianSpec, ScalarField, cell_reduce,
                                   dense_solve_oracle)

LAW = bernoulli(0.5)
BUMP = default_bump()


def disorder_spec(d=1, L=16, m=20, bc="dirichlet", lam=1.0, eta=1e-3,
                  seed=0, sample=0):
    grid = Grid(d=d, L=L, m=m, bc=bc)
    omega = sample_omega(LAW, (L,) * d, seed, sample)
    V = assemble_potential(omega, BUMP, grid)
    return HamiltonianSpec(grid=grid, potential=V, lam=lam, eta=eta)


class TestSolveLandscape:
    def test_mass_only_constant_solution(self):
        grid = Grid(d=1, L=8, m=20, bc="periodic")
        H = HamiltonianSpec(grid=grid,
                            potential=ScalarField.constant(grid, 0.0),
                            lam=1.0, eta=0.25)
        sol = solve_landscape(H, tol=1e-12)
        assert np.allclose(sol.u.values, 4.0, atol=1e-9)

    def test_lambda_zero_reduces_to_mass(self):
        H = disorder_spec(L=8, lam=0.0, eta=0.5, bc="periodic")
        sol = solve_landscape(H, tol=1e-12)
        assert np.allclose(sol.u.values, 2.0, atol=1e-9)

    def test_matches_dense_oracle(self):
        H = disorder_spec(L=16, m=20, lam=1.0, eta=1e-3, seed=1)
        sol = solve_landscape(H, tol=1e-10)
        lu = dense_solve_oracle(H, ScalarField.constant(H.grid, 1.0))
        rel = np.abs(sol.u.values - lu.values).max() / np.abs(lu.values).max()
        assert rel <= 1e-8

    def test_positivity_and_cell_sup_consistency(self):
        H = disorder_spec(L=16, seed=2)
        sol = solve_landscape(H, tol=1e-10)
        assert sol.u.values.min() > 0.0
        sup_per_cell = cell_reduce(sol.u.values, H.grid, np.maximum)
        assert sup_per_cell.shape == (16,)
        m = H.grid.m
        for z in range(16):
            assert sup_per_cell[z] == sol.u.values[z * m:(z + 1) * m].max()

    def test_monotone_in_lambda_and_eta(self):
        H1 = disorder_spec(L=16, lam=1.0, eta=1e-2, seed=3)
        tol = 1e-11
        u1 = solve_landscape(H1, tol=tol).u.values
        for lam, eta in ((4.0, 1e-2), (1.0, 1e-1)):
            H2 = HamiltonianSpec(grid=H1.grid, potential=H1.potential,
                                 lam=lam, eta=eta)
            u2 = solve_landscape(H2, tol=tol).u.values
            assert np.all(u2 <= u1 + 2 * tol * u1.max())

    def test_periodic_floor_barrier(self):
        H = disorder_spec(L=8, bc="periodic", lam=1.0, eta=0.1, seed=4)
        sol = solve_landscape(H, tol=1e-11)
        floor = 1.0 / 1.1    # 1/(lam + eta)
        assert sol.u.values.min() >= floor * (1 - 1e-9)
        derived_fields(sol)
        u = sol.u.values * (0.5 * floor / sol.u.values.min())   # min at half the floor
        below = type(sol)(u=ScalarField(grid=H.grid, values=u), spec=H)
        with pytest.raises(PositivityError, match=f"barrier {floor:.3e}"):
            derived_fields(below)


class TestCellReductions:
    def test_cell_maxima_and_integrals_2d(self):
        grid = Grid(d=2, L=4, m=3)
        rng = np.random.default_rng(0)
        v = rng.uniform(size=grid.shape)
        mx = cell_reduce(v, grid, np.maximum)
        integ = cell_reduce(v, grid, np.add) * grid.h ** 2
        sl = (slice(6, 9), slice(3, 6))   # cell (2, 1): m = 3 nodes per axis
        assert mx[2, 1] == v[sl].max()
        assert integ[2, 1] == pytest.approx(v[sl].sum() * grid.h ** 2)


class TestEtaConvergence:
    def test_closed_form_zero_potential(self):
        omega = omega_from_values(np.zeros(8), law=LAW)
        grid = Grid(d=1, L=8, m=20, bc="periodic")
        etas = [1e-1, 1e-2, 1e-3]
        rows = eta_convergence_study(omega, BUMP, grid, 0.0, etas, tol=1e-12)
        for row in rows:
            expect = 1.0 / row.eta - 1.0 / etas[-1]
            assert row.sup_diff == pytest.approx(abs(expect), rel=1e-6)

    def test_linear_in_eta_corridor(self):
        omega = sample_omega(LAW, (32,), 6, 0)
        grid = Grid(d=1, L=32, m=20)
        rows = eta_convergence_study(omega, BUMP, grid, 1.0,
                                     [1e-2, 1e-3, 1e-4], tol=1e-11)
        ratio = rows[0].sup_diff / rows[1].sup_diff
        assert 5.0 <= ratio <= 20.0

    def test_holds_one_solution_besides_the_reference(self):
        # holding every solution peaks at 15.2 node arrays with four etas
        omega = sample_omega(LAW, (16, 16), 5, 1)
        grid = Grid(d=2, L=16, m=20)
        tracemalloc.start()
        try:
            eta_convergence_study(omega, BUMP, grid, 1.0, [1e-2, 1e-3, 1e-4, 1e-5])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12.5 * 8 * grid.n_nodes

    def test_too_few_etas_rejected(self):
        omega = sample_omega(LAW, (8,), 0, 0)
        grid = Grid(d=1, L=8, m=20)
        with pytest.raises(ConfigurationError):
            eta_convergence_study(omega, BUMP, grid, 1.0, [1e-2])
        with pytest.raises(ConfigurationError):
            eta_convergence_study(omega, BUMP, grid, 1.0, [1e-3, 1e-2, 1e-4])


class TestEnergyEstimate:
    def test_zero_potential_zero_energy(self):
        grid = Grid(d=1, L=8, m=20, bc="periodic")
        H = HamiltonianSpec(grid=grid,
                            potential=ScalarField.constant(grid, 0.0),
                            lam=0.0, eta=0.1)
        rep = energy_estimate_check([solve_landscape(H, tol=1e-12)])
        assert rep.passed
        assert rep.lhs == pytest.approx(0.0, abs=1e-12)
        assert rep.rhs == pytest.approx(10.0, rel=1e-8)

    def test_disordered_samples_pass(self):
        sols = [solve_landscape(
                    disorder_spec(L=32, bc="periodic", eta=1e-2, seed=7,
                                  sample=i), tol=1e-9)
                for i in range(20)]
        rep = energy_estimate_check(sols)
        assert rep.passed
        assert rep.lhs <= rep.rhs

    def test_dirichlet_rejected(self):
        sol = solve_landscape(disorder_spec(L=8, eta=0.1), tol=1e-9)
        with pytest.raises(ConfigurationError):
            energy_estimate_check([sol])

    def test_single_sample_well_defined(self):
        sol = solve_landscape(disorder_spec(L=8, bc="periodic", eta=0.1,
                                            seed=8), tol=1e-10)
        rep = energy_estimate_check([sol])
        assert np.isfinite(rep.lhs) and np.isfinite(rep.rhs)


class TestDerivedFields:
    def test_constant_solution_derivatives(self):
        grid = Grid(d=1, L=8, m=20, bc="periodic")
        H = HamiltonianSpec(grid=grid,
                            potential=ScalarField.constant(grid, 0.0),
                            lam=1.0, eta=0.25)
        der = derived_fields(solve_landscape(H, tol=1e-12))
        assert np.allclose(der["inv_u"].values, 0.25, atol=1e-10)
        assert np.allclose(der["grad_log_u"][0].values, 0.0, atol=1e-8)

    def test_grad_log_scale_invariance(self):
        H = disorder_spec(L=16, seed=9, eta=1e-2)
        sol = solve_landscape(H, tol=1e-11)
        g1 = derived_fields(sol)["grad_log_u"][0].values
        scaled = type(sol)(u=ScalarField(grid=H.grid, values=3.0 * sol.u.values),
                           spec=sol.spec)
        g2 = derived_fields(scaled)["grad_log_u"][0].values
        assert np.allclose(g1, g2, atol=1e-12)

    def test_path_integration_recovers_u(self):
        H = disorder_spec(L=16, seed=10, eta=1e-2)
        sol = solve_landscape(H, tol=1e-11)
        g = derived_fields(sol)["grad_log_u"][0].values
        logu = np.log(sol.u.values)
        recon = logu[0] + np.concatenate([[0.0], np.cumsum(g[:-1]) * H.grid.h])
        rel = np.abs(np.exp(recon) - sol.u.values).max() / sol.u.values.max()
        assert rel <= 1e-6
