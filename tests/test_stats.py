import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from landscape_lab.disorder import bernoulli, uniform01
from landscape_lab import stats
from landscape_lab.errors import (ConfigurationError, ExperimentError, FitError,
                                   SolverNonConvergenceError)
from landscape_lab.green import all_cell_masses, green_column
from landscape_lab.landscape import solve_landscape
from landscape_lab.stats import (ExperimentSetup, MomentCurve,
                                 covariance_experiment, covariance_suite,
                                 fit_exponential_decay, green_decay_experiment,
                                 lambda_scaling_curve,
                                 vertical_derivative_decay)

LAW = bernoulli(0.5)


def setup_1d(L=32, lam=1.0, eta=1e-3, **kw):
    return ExperimentSetup(d=1, L=L, m=20, law=LAW, lam=lam, eta=eta, **kw)


def synthetic_curve(rate, pref, n=20, noise=0.0, seed=0):
    r = np.arange(2.0, 2.0 + n)
    v = pref * np.exp(-rate * r)
    if noise:
        v = v * (1.0 + noise * np.random.default_rng(seed).normal(size=n))
    return MomentCurve(distances=r, values=v, ci=np.zeros(n), p=1.0)


class TestFitExponentialDecay:
    def test_exact_on_noiseless_exponential(self):
        fit = fit_exponential_decay(synthetic_curve(0.3, 2.0), 2.0, 25.0)
        assert abs(fit.rate - 0.3) < 1e-10
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert np.exp(fit.log_prefactor) == pytest.approx(2.0, rel=1e-10)

    def test_constant_data_gives_zero_rate(self):
        curve = MomentCurve(distances=np.arange(1.0, 11.0),
                            values=np.full(10, 0.7), ci=np.zeros(10), p=1.0)
        fit = fit_exponential_decay(curve, 1.0, 10.0)
        assert fit.rate == pytest.approx(0.0, abs=1e-12)

    def test_noisy_recovery_within_band(self):
        fit = fit_exponential_decay(synthetic_curve(0.3, 2.0, noise=0.05,
                                                    seed=3), 2.0, 25.0)
        assert abs(fit.rate - 0.3) <= 0.03

    def test_too_few_bins_rejected(self):
        with pytest.raises(FitError):
            fit_exponential_decay(synthetic_curve(0.3, 2.0, n=3), 2.0, 25.0)
        with pytest.raises(ConfigurationError):
            fit_exponential_decay(synthetic_curve(0.3, 2.0), 5.0, 5.0)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=0.01, max_value=1.0),
           st.floats(min_value=0.1, max_value=10.0))
    def test_exact_recovery_property(self, rate, pref):
        fit = fit_exponential_decay(synthetic_curve(rate, pref), 2.0, 25.0)
        assert abs(fit.rate - rate) < 1e-8
        assert 0.0 <= fit.r_squared <= 1.0


class TestGreenDecayExperiment:
    def test_single_sample_identity(self):
        setup = setup_1d()
        curve = green_decay_experiment(setup, 1.0, 1, 4)
        H = setup.hamiltonian(4, 0)
        masses = all_cell_masses(green_column(H, H.grid.center_node,
                                              tol=setup.tol))
        zc = setup.L // 2
        for r, v in zip(curve.distances, curve.values):
            cells = [z for z in range(setup.margin, setup.L - setup.margin)
                     if abs(z - zc) == int(r)]
            assert v == pytest.approx(np.mean([masses[z] for z in cells]),
                                      rel=1e-12)

    def test_single_sample_shells_2d(self):
        setup = ExperimentSetup(d=2, L=6, m=20, law=LAW, lam=1.0, eta=1.0,
                                margin=1)
        p = 2.0
        curve = green_decay_experiment(setup, p, 1, 5)
        H = setup.hamiltonian(5, 0)
        masses = all_cell_masses(green_column(H, H.grid.center_node,
                                              tol=setup.tol))
        zc = setup.L // 2
        interior = range(setup.margin, setup.L - setup.margin)
        shells = {}
        for z in np.ndindex(masses.shape):
            if all(c in interior for c in z):
                r = max(abs(c - zc) for c in z)
                shells.setdefault(r, []).append(masses[z] ** p)
        assert list(curve.distances) == sorted(shells)
        for r, v in zip(curve.distances, curve.values):
            assert v == pytest.approx(np.mean(shells[int(r)]) ** (1 / p),
                                      rel=1e-12)

    def test_deterministic_mass_only_curve_is_monotone(self):
        setup = setup_1d(lam=0.0, eta=0.5)
        curve = green_decay_experiment(setup, 1.0, 5, 0)
        assert np.all(curve.ci < 1e-12)
        assert np.all(np.diff(curve.values) <= 1e-15)

    def test_moment_curve_shape(self):
        setup = setup_1d()
        curve = green_decay_experiment(setup, 2.0, 10, 7)
        assert np.all(np.diff(curve.distances) > 0)
        assert np.all(curve.values >= 0.0)
        assert curve.p == 2.0

    def test_ci_shrinks_with_sample_size(self):
        setup = setup_1d()
        small = green_decay_experiment(setup, 1.0, 25, 11)
        large = green_decay_experiment(setup, 1.0, 50, 11)
        ratio = np.median(large.ci / small.ci)
        assert 0.5 <= ratio <= 0.95

    def test_far_field_bin_monotonicity(self):
        setup = setup_1d(L=48, eta=1e-5)
        curve = green_decay_experiment(setup, 1.0, 40, 13)
        far = curve.distances >= 5
        vals = curve.values[far]
        rs = curve.distances[far]
        for i, r in enumerate(rs):
            j = np.searchsorted(rs, 2 * r)
            if j < len(rs) and rs[j] == 2 * r:
                assert vals[j] <= vals[i]

    def test_configuration_error_is_raised_not_skipped(self):
        with pytest.raises(ConfigurationError, match="nonnegative"):
            green_decay_experiment(setup_1d(lam=-1.0), 1.0, 2, 0)

    @pytest.mark.parametrize("n_failed, skipped", [(1, True), (2, False)])
    def test_solver_failures_skipped_up_to_5_percent(self, monkeypatch, n_failed, skipped):
        solve, calls = stats.green_column, []

        def failing(H, x0, tol):      # serial run: the first n_failed samples fail
            calls.append(x0)
            if len(calls) <= n_failed:
                raise SolverNonConvergenceError("stalled")
            return solve(H, x0, tol=tol)

        monkeypatch.setattr(stats, "green_column", failing)
        setup = setup_1d(L=16, margin=2)
        if skipped:
            assert np.all(np.isfinite(green_decay_experiment(setup, 1.0, 20, 0).values))
        else:
            with pytest.raises(ExperimentError, match="2/20"):
                green_decay_experiment(setup, 1.0, 20, 0)

    def test_worker_count_independence(self):
        setup = setup_1d()
        a = green_decay_experiment(setup, 1.0, 6, 21, workers=1)
        b = green_decay_experiment(setup, 1.0, 6, 21, workers=2)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.ci, b.ci)


class TestCovariance:
    def test_deterministic_observable_has_zero_covariance(self):
        setup = setup_1d(lam=0.0, eta=0.5)
        pts = covariance_experiment(setup, "u", [3, 8], 50, 3)
        for p in pts:
            assert abs(p.cov) < 1e-18

    def test_zero_separation_is_variance(self):
        setup = setup_1d()
        pts = covariance_experiment(setup, "u", [0, 4], 60, 5)
        assert pts[0].cov >= 0.0
        grid = setup.grid()
        x = grid.center_node
        obs = [float(solve_landscape(setup.hamiltonian(5, i),
                                     tol=setup.tol).u.values[x])
               for i in range(60)]
        assert pts[0].cov == pytest.approx(np.var(obs, ddof=1), rel=1e-10)

    def test_suite_shares_samples_with_single_runs(self):
        setup = setup_1d()
        suite = covariance_suite(setup, ["u", "inv_u"], [2, 6], 40, 9)
        single = covariance_experiment(setup, "inv_u", [2, 6], 40, 9)
        for a, b in zip(suite["inv_u"], single):
            assert a.cov == b.cov and a.ci == b.ci

    def test_unknown_observable_rejected(self):
        with pytest.raises(ConfigurationError):
            covariance_experiment(setup_1d(), "potential", [3], 10, 0)

    def test_separation_window_guard(self):
        with pytest.raises(ConfigurationError):
            covariance_experiment(setup_1d(L=32), "u", [14], 10, 0)


class TestVerticalDerivative:
    def test_center_offset_dominates(self):
        setup = setup_1d(eta=1e-4)
        curve = vertical_derivative_decay(setup, [0, 3, 8], 25, 7)
        assert curve.values[0] == curve.values.max()

    def test_decay_along_offsets(self):
        setup = setup_1d(L=48, eta=1e-5)
        curve = vertical_derivative_decay(setup, [1, 4, 12], 25, 7)
        assert curve.values[-1] < curve.values[0]

    def test_worker_count_independence(self):
        setup = setup_1d()
        a = vertical_derivative_decay(setup, [1, 4], 6, 3, workers=1)
        b = vertical_derivative_decay(setup, [1, 4], 6, 3, workers=2)
        assert np.array_equal(a.values, b.values)


class TestLambdaScaling:
    def test_structure_and_positive_rates(self):
        setup = setup_1d(L=64)
        res = lambda_scaling_curve(setup, [0.25, 4.0], 1.0, 30, 17,
                                   r_min=3.0, r_max=20.0)
        assert set(res["fits"]) == {0.25, 4.0}
        for lam, fit in res["fits"].items():
            assert fit.rate > 0.0
        assert res["ratios"][0.25] == pytest.approx(
            res["fits"][0.25].rate / np.sqrt(0.25))
        assert res["ratios"][4.0] == pytest.approx(res["fits"][4.0].rate)
