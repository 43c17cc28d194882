import contextlib
import json
import os
import pickle
import signal
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from landscape_lab.disorder import bernoulli, uniform01
from landscape_lab import samples, stats
from landscape_lab.errors import (ConfigurationError, ExperimentError, FitError,
                                   GridMismatchError, LandscapeLabError,
                                   LawValidationError,
                                   SingularOperatorError, SolverFailure,
                                   SolverNonConvergenceError)
from landscape_lab.green import all_cell_masses, green_column
from landscape_lab.landscape import solve_landscape
from landscape_lab.stats import (ExperimentSetup, MomentCurve,
                                 covariance_suite,
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
    return MomentCurve(distances=r, values=v, ci=np.zeros(n))


def square_unless(i, failing, invalid=frozenset()):
    if i in failing:
        raise SingularOperatorError("zero mode")
    if i in invalid:
        raise ConfigurationError("invalid sample")
    return i * i


def raise_at_7(i, error):
    if i == 7:
        raise error("sample 7")
    return i


def raise_at_7_and_12(i):
    if i in (7, 12):
        raise ConfigurationError(f"sample {i}")
    return i


def own_pid(i):
    return os.getpid()


def exit_at_5(i):
    if i == 5:
        os._exit(1)
    return i


def unpicklable_at_5(i):
    # the arrays before it fill the pipe, so part of a pickle may be written
    return (lambda: i) if i == 5 else np.zeros(20_000)


def exit_at_0(i):
    # the other workers' results fill their pipes after the loop has given up
    if i == 0:
        os._exit(1)
    return np.zeros(20_000)


@pytest.fixture
def forks(monkeypatch):
    """The pids os.fork returns to the parent, in order, with three cores, and
    a SIGALRM that fails a test whose sample loop still runs after 60 s."""
    pids, fork = [], os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    def hung(signum, frame):
        raise TimeoutError("the sample loop hung")

    monkeypatch.setattr(samples.os, "fork", recording_fork)
    monkeypatch.setattr(samples.os, "cpu_count", lambda: 3)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    yield pids
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


class TestSampleLoop:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_kept_results_keyed_by_sample_index(self, workers):
        kept = samples._pool_map(square_unless, 40, workers, {3, 17})
        assert list(kept) == [i for i in range(40) if i not in (3, 17)]
        assert all(v == i * i for i, v in kept.items())
        with pytest.raises(ExperimentError, match="3/40"):
            samples._pool_map(square_unless, 40, workers, {1, 2, 3})

    @pytest.mark.parametrize("n_samples", [0, -1, 2.5, 3.0, "3"])
    def test_no_integer_of_at_least_one_rejected(self, n_samples):
        with pytest.raises(ConfigurationError, match="n_samples must be an integer >= 1"):
            samples._pool_map(square_unless, n_samples, 1, set())

    def test_workers_capped_by_samples_and_cores(self, monkeypatch):
        started = []

        def serial_forked(fn, n_samples, workers, args):   # records the worker count, forks none
            started.append(workers)
            return [samples._attempt(fn, i, args) for i in range(n_samples)]

        monkeypatch.setattr(samples, "_forked", serial_forked)
        monkeypatch.setattr(samples.os, "cpu_count", lambda: 4)
        serial = samples._pool_map(square_unless, 40, 1, set())
        assert samples._pool_map(square_unless, 40, 100_000, set()) == serial
        assert samples._pool_map(square_unless, 3, 100_000, set()) == {0: 0, 1: 1, 2: 4}
        assert started == [4, 3]
        monkeypatch.setattr(samples.os, "cpu_count", lambda: None)   # unknown: serial
        assert samples._pool_map(square_unless, 40, 100_000, set()) == serial
        assert started == [4, 3]

    def test_serial_where_fork_is_missing(self, monkeypatch):
        monkeypatch.delattr(samples.os, "fork")
        monkeypatch.setattr(samples.os, "cpu_count", lambda: 4)
        monkeypatch.setattr(samples, "_forked", None)   # calling it fails
        assert samples._pool_map(square_unless, 40, 4, set()) == {
            i: i * i for i in range(40)}

    @pytest.mark.parametrize("workers", [1, 2])
    def test_other_errors_are_raised(self, workers):
        with pytest.raises(ConfigurationError, match="invalid"):
            samples._pool_map(square_unless, 40, workers, set(), {2})

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("error", SolverFailure.__subclasses__(),
                             ids=lambda error: error.__name__)
    def test_each_solver_failure_skips_its_sample(self, workers, error):
        assert list(samples._pool_map(raise_at_7, 20, workers, error)) == [
            i for i in range(20) if i != 7]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("error", [LawValidationError, GridMismatchError],
                             ids=lambda error: error.__name__)
    def test_configuration_errors_are_raised(self, workers, error):
        with pytest.raises(error, match="sample 7"):
            samples._pool_map(raise_at_7, 20, workers, error)


class TestForkedLoop:
    """Above one worker the samples run in forked children; `forks` records
    their pids and fails a hung loop."""

    def test_samples_run_in_children(self, forks):
        pids = samples._pool_map(own_pid, 12, 2)
        assert set(pids.values()) == set(forks) and len(forks) == 2
        assert os.getpid() not in forks
        assert [pids[i] for i in range(4)] == forks * 2   # child w runs w, w + 2, ...

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_lowest_sample_error_is_raised(self, forks, workers):
        with pytest.raises(ConfigurationError, match="^sample 7$"):
            samples._pool_map(raise_at_7_and_12, 20, workers)
        assert len(forks) == (workers if workers > 1 else 0)

    @pytest.mark.parametrize("fn", [exit_at_5, unpicklable_at_5, exit_at_0])
    def test_child_without_results_is_an_experiment_error(self, forks, fn):
        with pytest.raises(ExperimentError, match="a sample worker ended without its results"):
            samples._pool_map(fn, 12, 2)

    def test_child_killed_while_writing_is_an_experiment_error(self, forks, monkeypatch):
        def dump_part(obj, pipe):   # a child killed mid-write: its pickle is cut short
            pipe.write(pickle.dumps(obj)[:-3])
            pipe.flush()
            os._exit(1)

        monkeypatch.setattr(samples, "pickle", SimpleNamespace(
            dump=dump_part, loads=pickle.loads, UnpicklingError=pickle.UnpicklingError))
        with pytest.raises(ExperimentError, match="a sample worker ended without its results"):
            samples._pool_map(square_unless, 12, 2, set())

    @pytest.mark.parametrize("fn", [own_pid, raise_at_7_and_12, exit_at_5, unpicklable_at_5,
                                    exit_at_0])
    def test_every_child_is_reaped(self, forks, fn):
        with contextlib.suppress(LandscapeLabError):
            samples._pool_map(fn, 20, 3)
        assert len(forks) == 3
        for pid in forks:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


# Run in a fresh interpreter: after the import and after each (subcommand,
# config, workers) run in argv[1] it records the package modules, logging, the
# process-pool modules and numpy.ma, if loaded so far, and then the pids forked.
# It reports two cores, so a workers-2 run forks on any machine.
POOL_PROBE = """
import json, os, sys
from pathlib import Path
from landscape_lab import cli
runs, tmp = json.loads(sys.argv[1]), Path(sys.argv[2])
forks, fork = [], os.fork
def recording_fork():
    pid = fork()
    if pid:
        forks.append(pid)
    return pid
os.fork, os.cpu_count = recording_fork, lambda: 2
def watched():
    return sorted(m for m in sys.modules
                  if m in ("concurrent.futures.process", "numpy.ma", "logging")
                  or m.split(".")[0] in ("multiprocessing", "landscape_lab"))
loaded = {"import": watched()}
for name, cfg, workers in runs:
    path = tmp / f"{name}.json"
    path.write_text(json.dumps(cfg))
    out = tmp / f"{name}-w{workers}"
    assert cli.run(name, path, output_dir=out, workers=workers) in (0, 4, 5), name
    loaded[out.name] = watched()
loaded["forks"] = forks
print(json.dumps(loaded))
"""

SOLVER = {f"landscape_lab.{name}" for name in ("lattice", "green", "landscape", "stats")}


def probe(runs, tmp_path) -> dict:
    """POOL_PROBE's records, as sets, in one fresh interpreter."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", POOL_PROBE, json.dumps(runs),
                          str(tmp_path)], env=env, check=True,
                         capture_output=True, text=True).stdout
    return {key: set(names) for key, names in json.loads(out.strip().splitlines()[-1]).items()}


class TestPoolImport:
    """A run loads only its subcommand's modules: no run loads a process pool
    or numpy.ma, forked runs included, and a run that skips no sample never
    loads logging."""

    def test_no_run_loads_pool_or_logging(self, tmp_path):
        law = {"kind": "bernoulli", "q": 0.5}
        green = {"d": 1, "L": 16, "m": 20, "law": law, "lambda": 1.0, "eta": 1e-3,
                 "p": 1.0, "n_samples": 4, "margin": 2, "r_min": 1.0, "r_max": 5.0}
        kesten = {"d": 2, "L": 65, "law": law, "gamma": 0.5, "k": 3,
                  "radii": [1, 2], "c_probe": 0.5, "n_samples": 2}
        percolation = probe([("fpp-kesten", kesten, 1)], tmp_path)
        solver = probe([("green-decay", green, 1), ("green-decay", green, 2)], tmp_path)
        assert not (SOLVER | {"landscape_lab.percolation"}) & percolation["import"]
        assert not SOLVER & percolation["fpp-kesten-w1"]
        assert "landscape_lab.percolation" not in solver["green-decay-w2"]
        unwanted = {"concurrent.futures.process", "multiprocessing", "numpy.ma", "logging"}
        for loaded in (percolation["import"], percolation["fpp-kesten-w1"],
                       solver["import"], solver["green-decay-w1"],
                       solver["green-decay-w2"]):
            assert not unwanted & loaded
        assert not percolation["forks"] and len(solver["forks"]) == 2
        serial, forked = tmp_path / "green-decay-w1", tmp_path / "green-decay-w2"
        names = sorted(p.name for p in serial.iterdir() if p.name != "manifest.json")
        assert "summary.txt" in names
        for name in names:
            assert (serial / name).read_bytes() == (forked / name).read_bytes(), name


class TestFitExponentialDecay:
    @pytest.mark.parametrize("values", [
        [3.0], [2.0, 1.0], [5.0, 1.0, 4.0], [1e-3, 7.0, 2.5, 1e4],
        [2.0, 2.0, 1.0, 2.0, 9.0], [0.1, 0.2, 0.2, 0.1], [1.0, np.nan, 3.0],
        [np.nan, 2.0, 1.0, 4.0], [0.1 + 0.2, 0.3, 1 / 3, 2 / 3, 1.0, 5e-324]])
    def test_median_is_numpys(self, values):
        a = np.array(values)
        assert np.array_equal(stats._median(a), np.median(a), equal_nan=True)

    def test_exact_on_noiseless_exponential(self):
        fit = fit_exponential_decay(synthetic_curve(0.3, 2.0), 2.0, 25.0)
        assert abs(fit.rate - 0.3) < 1e-10
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert np.exp(fit.log_prefactor) == pytest.approx(2.0, rel=1e-10)

    def test_constant_data_gives_zero_rate(self):
        curve = MomentCurve(distances=np.arange(1.0, 11.0),
                            values=np.full(10, 0.7), ci=np.zeros(10))
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

    @pytest.mark.parametrize("experiment", [
        lambda setup: green_decay_experiment(setup, 0, 4, 0),
        lambda setup: lambda_scaling_curve(setup, [1.0], 0, 4, 0, r_min=1.0, r_max=5.0)],
        ids=["green-decay", "lambda-scaling"])
    def test_zero_p_rejected_before_any_sample(self, monkeypatch, experiment):
        solved = []
        monkeypatch.setattr(stats, "green_column", lambda *args, **kw: solved.append(1))
        with pytest.raises(ConfigurationError, match="p must be nonzero"):
            experiment(setup_1d(L=16, margin=2))
        assert solved == []

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
        pts = covariance_suite(setup, ["u"], [3, 8], 50, 3)["u"]
        for p in pts:
            assert abs(p.cov) < 1e-18

    def test_zero_separation_is_variance(self):
        setup = setup_1d()
        pts = covariance_suite(setup, ["u"], [0, 4], 60, 5)["u"]
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
        single = covariance_suite(setup, ["inv_u"], [2, 6], 40, 9)["inv_u"]
        for a, b in zip(suite["inv_u"], single):
            assert a.cov == b.cov and a.ci == b.ci

    def test_derived_fields_once_per_sample(self, monkeypatch):
        calls = []
        derived = stats.derived_fields
        monkeypatch.setattr(stats, "derived_fields", lambda sol: calls.append(1) or derived(sol))
        covariance_suite(setup_1d(), ["u"], [2, 6], 5, 9)
        assert calls == []      # u alone needs neither 1/u nor grad log u
        both = covariance_suite(setup_1d(), ["inv_u", "grad_log_u"], [2, 6], 5, 9)
        assert len(calls) == 5
        single = covariance_suite(setup_1d(), ["grad_log_u"], [2, 6], 5, 9)["grad_log_u"]
        assert both["grad_log_u"] == single

    def test_unknown_observable_rejected(self):
        with pytest.raises(ConfigurationError):
            covariance_suite(setup_1d(), ["potential"], [3], 10, 0)

    def test_separation_window_guard(self):
        with pytest.raises(ConfigurationError):
            covariance_suite(setup_1d(L=32), ["u"], [14], 10, 0)

    @pytest.mark.parametrize("separation", [1.5, -0.5])
    def test_non_integral_separation_rejected(self, separation):
        # 1.5 was reported as 1.5 but measured at separation 1
        with pytest.raises(ConfigurationError, match=f"separation {separation}"):
            covariance_suite(setup_1d(L=32), ["u"], [separation], 10, 0)


class TestVerticalDerivative:
    def test_center_offset_dominates(self):
        setup = setup_1d(eta=1e-4)
        curve = vertical_derivative_decay(setup, [0, 3, 8], 25, 7)
        assert curve.values[0] == curve.values.max()

    @pytest.mark.parametrize("offset", [1.5, -0.5])
    def test_non_integral_offset_rejected_before_any_sample(self, monkeypatch, offset):
        solved = []
        monkeypatch.setattr(stats, "solve_landscape", lambda *args, **kw: solved.append(1))
        with pytest.raises(ConfigurationError, match=f"z offset {offset}"):
            vertical_derivative_decay(setup_1d(), [0, offset], 4, 7)
        assert solved == []

    @pytest.mark.parametrize("n_samples", [0, -1])
    def test_fewer_than_one_sample_rejected(self, n_samples):
        with pytest.raises(ConfigurationError, match="n_samples"):
            vertical_derivative_decay(setup_1d(), [1, 4], n_samples, 7)

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
