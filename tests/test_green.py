import numpy as np
import pytest

from conftest import omega_from_values
from landscape_lab.disorder import (bernoulli, default_bump, assemble_potential,
                                    sample_omega)
from landscape_lab.errors import ConfigurationError
from landscape_lab.green import (agmon_inequality_check, all_cell_masses,
                                 delta_rhs, green_column,
                                 massive_domination_check, massive_reference,
                                 rank_one_identity_check)
from landscape_lab.landscape import solve_landscape
from landscape_lab.lattice import (Grid, HamiltonianSpec, ScalarField,
                                   dense_solve_oracle)

LAW = bernoulli(0.5)
BUMP = default_bump()


def disorder_spec(d=1, L=16, m=20, bc="dirichlet", lam=1.0, eta=1e-3, seed=0,
                  sample=0):
    grid = Grid(d=d, L=L, m=m, bc=bc)
    omega = sample_omega(LAW, (L,) * d, seed, sample)
    V = assemble_potential(omega, BUMP, grid)
    return omega, HamiltonianSpec(grid=grid, potential=V, lam=lam, eta=eta)


class TestGreenColumn:
    def test_free_column_matches_dense_oracle(self):
        grid = Grid(d=1, L=4, m=16)   # 64 nodes
        H = HamiltonianSpec(grid=grid,
                            potential=ScalarField.constant(grid, 0.0),
                            lam=0.0, eta=1.0)
        G = green_column(H, (32,), tol=1e-11)
        lu = dense_solve_oracle(H, delta_rhs(grid, (32,)))
        rel = np.abs(G.field.values - lu.values).max() / lu.values.max()
        assert rel <= 1e-8

    def test_symmetry_between_sources(self):
        _, H = disorder_spec(L=16, seed=1)
        a, b = (100,), (220,)
        Ga = green_column(H, a, tol=1e-11)
        Gb = green_column(H, b, tol=1e-11)
        rel = abs(Ga.field.values[b] - Gb.field.values[a]) / Ga.field.values[b]
        assert rel <= 1e-8

    def test_monotone_in_lambda(self):
        omega, H1 = disorder_spec(L=16, lam=1.0, seed=2)
        H2 = HamiltonianSpec(grid=H1.grid, potential=H1.potential,
                             lam=4.0, eta=H1.eta)
        tol = 1e-11
        G1 = green_column(H1, H1.grid.center_node, tol=tol)
        G2 = green_column(H2, H1.grid.center_node, tol=tol)
        scale = G1.field.values.max()
        assert np.all(G2.field.values <= G1.field.values + 2 * tol * scale)

    def test_positivity(self):
        _, H = disorder_spec(L=16, seed=3)
        G = green_column(H, H.grid.center_node, tol=1e-10)
        assert G.field.values.min() >= -10 * G.tol * G.field.values.max()

    def test_source_outside_grid_rejected(self):
        _, H = disorder_spec(L=16)
        with pytest.raises(ConfigurationError):
            green_column(H, (16 * 20,))


class TestMassiveDomination:
    def test_zero_potential_no_violation(self):
        grid = Grid(d=1, L=8, m=20)
        H = HamiltonianSpec(grid=grid,
                            potential=ScalarField.constant(grid, 0.0),
                            lam=1.0, eta=0.5)
        G = green_column(H, grid.center_node, tol=1e-10)
        rep = massive_domination_check(G)
        assert rep.passed

    def test_lambda_zero_fields_identical(self):
        _, H = disorder_spec(L=8, lam=0.0, eta=0.5)
        G = green_column(H, H.grid.center_node, tol=1e-11)
        Gt = massive_reference(G)
        assert np.abs(G.field.values - Gt.field.values).max() <= \
            2e-11 * Gt.field.values.max()

    @pytest.mark.parametrize("sample", range(5))
    def test_random_samples_dominated(self, sample):
        _, H = disorder_spec(L=16, seed=4, sample=sample)
        G = green_column(H, H.grid.center_node, tol=1e-10)
        assert massive_domination_check(G).passed


class TestCubeMass:
    def test_constant_column_mass_equals_value(self):
        grid = Grid(d=2, L=4, m=10)
        H = HamiltonianSpec(grid=grid,
                            potential=ScalarField.constant(grid, 0.0),
                            lam=0.0, eta=1.0)
        G = green_column(H, grid.center_node, tol=1e-10)
        const = ScalarField.constant(grid, 3.0)
        G_const = type(G)(source=G.source, field=const, spec=H, tol=G.tol)
        assert all_cell_masses(G_const)[1, 2] == pytest.approx(3.0)

    def test_partition_additivity(self):
        _, H = disorder_spec(L=8, seed=5)
        G = green_column(H, H.grid.center_node, tol=1e-10)
        total = G.field.values.sum() * H.grid.h ** H.grid.d
        assert all_cell_masses(G).sum() == pytest.approx(total, rel=1e-12)

    def test_representation_matches_landscape(self):
        _, H = disorder_spec(L=8, seed=6, eta=1e-2)
        tol = 1e-11
        G = green_column(H, H.grid.center_node, tol=tol)
        u = solve_landscape(H, tol=tol)
        x = H.grid.center_node
        rel = abs(all_cell_masses(G).sum() - u.u.values[x]) / u.u.values[x]
        assert rel <= 1e-7

    def test_cell_out_of_range(self):
        _, H = disorder_spec(L=8)
        G = green_column(H, H.grid.center_node, tol=1e-8)
        assert all_cell_masses(G).shape == (8,)
        with pytest.raises(IndexError):
            all_cell_masses(G)[8]


class TestRankOneIdentity:
    def test_forced_site_already_one_gives_zero_sides(self):
        vals = sample_omega(LAW, (16,), 7, 0).values.copy()
        vals[10] = 1.0
        omega = omega_from_values(vals, law=LAW)
        grid = Grid(d=1, L=16, m=20)
        rep = rank_one_identity_check(omega, (10,), grid, BUMP, 1.0, 1e-3,
                                      (40,))
        assert abs(rep.lhs) < 1e-10 and abs(rep.rhs) < 1e-10

    def test_identity_exact_on_random_sample(self):
        omega = sample_omega(LAW, (32,), 8, 0)
        grid = Grid(d=1, L=32, m=20)
        rep = rank_one_identity_check(omega, (20,), grid, BUMP, 1.0, 1e-3,
                                      (100,))
        assert rep.relative_error <= 1e-6

    def test_identity_2d(self):
        omega = sample_omega(LAW, (4, 4), 9, 0)
        grid = Grid(d=2, L=4, m=20)
        rep = rank_one_identity_check(omega, (1, 2), grid, BUMP, 1.0, 1e-2,
                                      (30, 50))
        assert rep.relative_error <= 1e-6

    def test_mesh_guard_propagates(self):
        omega = omega_from_values(np.zeros(16), law=LAW)
        grid = Grid(d=1, L=16, m=10)
        with pytest.raises(ConfigurationError, match="too coarse"):
            rank_one_identity_check(omega, (8,), grid, BUMP, 1.0, 1e-3, (40,))

    def test_site_outside_box_rejected(self):
        omega = sample_omega(LAW, (16,), 7, 0)
        grid = Grid(d=1, L=16, m=20)
        with pytest.raises(IndexError):
            rank_one_identity_check(omega, (16,), grid, BUMP, 1.0, 1e-3, (40,))


class TestAgmonInequality:
    def test_zero_cutoff_passes_trivially(self):
        _, H = disorder_spec(L=16, seed=10)
        G = green_column(H, H.grid.center_node, tol=1e-9)
        rep = agmon_inequality_check(G, 0.5, 4.0, 3.0, 3.0)
        assert rep.passed
        assert rep.lhs == pytest.approx(0.0, abs=1e-15)
        assert rep.rhs == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("mu", [0.0, 0.1])
    @pytest.mark.parametrize("sample", range(5))
    def test_random_samples_1d(self, mu, sample):
        _, H = disorder_spec(L=32, seed=11, sample=sample, eta=1e-4)
        G = green_column(H, H.grid.center_node, tol=1e-9)
        rep = agmon_inequality_check(G, mu, 8.0, 1.0, 15.0)
        assert rep.passed, f"lhs={rep.lhs} rhs={rep.rhs}"

    @pytest.mark.slow
    @pytest.mark.parametrize("sample", range(50))
    def test_sweep_2d(self, sample):
        _, H = disorder_spec(d=2, L=16, seed=12, sample=sample, eta=1e-4)
        G = green_column(H, H.grid.center_node, tol=1e-9)
        for mu in (0.0, 0.1):
            rep = agmon_inequality_check(G, mu, 4.0, 1.0, 7.0)
            assert rep.passed, f"mu={mu} lhs={rep.lhs} rhs={rep.rhs}"

    @pytest.mark.slow
    @pytest.mark.parametrize("sample", range(5))
    def test_sweep_2d_wide_box(self, sample):
        _, H = disorder_spec(d=2, L=32, seed=13, sample=sample, eta=1e-4)
        G = green_column(H, H.grid.center_node, tol=1e-9)
        for mu in (0.0, 0.1):
            rep = agmon_inequality_check(G, mu, 8.0, 1.0, 15.0)
            assert rep.passed, f"mu={mu} lhs={rep.lhs} rhs={rep.rhs}"

    def test_geometry_guards(self):
        _, H = disorder_spec(L=16, seed=14)
        G = green_column(H, H.grid.center_node, tol=1e-8)
        with pytest.raises(ConfigurationError):
            agmon_inequality_check(G, 0.1, 4.0, 0.2, 7.0)   # chi overlaps Q
        with pytest.raises(ConfigurationError):
            agmon_inequality_check(G, 0.1, 4.0, 1.0, 8.5)   # outside box
        with pytest.raises(ConfigurationError):
            agmon_inequality_check(G, -0.1, 4.0, 1.0, 7.0)  # negative rate
