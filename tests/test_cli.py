import json
import hashlib

import numpy as np
import pytest

from landscape_lab import cli, stats
from landscape_lab.cli import TABLES, _RUNNERS, _setup, run, validate_config, write_csv
from landscape_lab.disorder import law_from_dict
from landscape_lab.errors import ConfigurationError, SolverNonConvergenceError
from landscape_lab.percolation import choose_k

LAW = {"kind": "bernoulli", "q": 0.5}


def write_cfg(tmp_path, name, cfg):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return p


def files_match_manifest(out):
    """out's manifest, once its files are exactly out's other files and checksums match."""
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["files"]) == {p.name for p in out.iterdir()} - {"manifest.json"}
    for name, digest in manifest["files"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name
    return manifest


def green_cfg(**kw):
    cfg = {"d": 1, "L": 32, "m": 20, "law": LAW, "lambda": 1.0, "eta": 1e-4,
           "p": 1.0, "n_samples": 4, "master_seed": 3,
           "r_min": 1.0, "r_max": 10.0}
    cfg.update(kw)
    return cfg


class TestValidateConfig:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown key"):
            validate_config("green-decay", green_cfg(bogus=1))

    def test_missing_required_key_rejected(self):
        cfg = green_cfg()
        del cfg["n_samples"]
        with pytest.raises(ConfigurationError, match="missing required"):
            validate_config("green-decay", cfg)

    def test_type_mismatch_rejected(self):
        with pytest.raises(ConfigurationError, match="must be"):
            validate_config("green-decay", green_cfg(L="32"))

    def test_nonpositive_samples_rejected(self):
        with pytest.raises(ConfigurationError, match="n_samples"):
            validate_config("green-decay", green_cfg(n_samples=0))

    def test_rule_after_a_skipped_default(self):
        # the rejected margin stops r_min's default; r_max's rule must not read it
        cfg = green_cfg(margin=-1)
        del cfg["r_min"]
        with pytest.raises(ConfigurationError, match="margin"):
            validate_config("green-decay", cfg)

    def test_defaults_filled(self):
        out = validate_config("green-decay", green_cfg())
        assert out["workers"] == 1 and out["tol"] == 1e-9
        assert out["master_seed"] == 3   # explicit value kept

    def test_unknown_subcommand(self):
        with pytest.raises(ConfigurationError):
            validate_config("frobnicate", {})


class TestExitCodes:
    def test_selftest_passes(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", {})
        assert run("selftest", cfg, output_dir=tmp_path / "out") == 0

    def test_missing_config_file_is_validation_error(self, tmp_path):
        assert run("selftest", tmp_path / "nope.json",
                   output_dir=tmp_path / "out") == 2

    def test_malformed_json_is_validation_error(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert run("selftest", p, output_dir=tmp_path / "out") == 2

    def test_unknown_key_exits_2(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", green_cfg(bogus=1))
        assert run("green-decay", cfg, output_dir=tmp_path / "out") == 2

    def test_zero_samples_exits_2(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", green_cfg(n_samples=0))
        assert run("green-decay", cfg, output_dir=tmp_path / "out") == 2

    def test_bad_law_exits_2(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json",
                        green_cfg(law={"kind": "bernoulli", "q": 1.0}))
        assert run("green-decay", cfg, output_dir=tmp_path / "out") == 2

    def test_empty_fit_window_exits_4(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", green_cfg(r_min=9.0, r_max=10.0))
        out = tmp_path / "out"
        assert run("green-decay", cfg, output_dir=out) == 4
        # an ordinary FAIL: the curve filled before the fit, a verdict and a reason
        manifest = files_match_manifest(out)
        assert set(manifest["files"]) == {"curve.csv", "summary.txt"}
        assert manifest["verdict"] == "FAIL"
        assert manifest["details"] == {"reason": "only 2 usable bins in [9.0, 10.0]"}
        assert (out / "summary.txt").read_text() == "green-decay FAIL\n"

    def test_small_anchor_run_is_inconclusive(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json",
                        {"L": 64, "law": LAW, "gamma": 0.5, "n_samples": 10})
        assert run("anchor-1d", cfg, output_dir=tmp_path / "out") == 5

    def test_green_decay_passes(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", green_cfg(n_samples=8))
        assert run("green-decay", cfg, output_dir=tmp_path / "out") == 0


TINY_1D = {"d": 1, "L": 16, "m": 20, "law": LAW, "lambda": 1.0, "eta": 1e-3}

# one small valid config per subcommand
SMOKE_CONFIGS = {
    "solve-landscape": dict(TINY_1D),
    "green-decay": dict(TINY_1D, p=1.0, n_samples=2, margin=2,
                        r_min=1.0, r_max=5.0),
    "lambda-scaling": {"d": 1, "L": 16, "m": 20, "law": LAW, "lambdas": [0.5, 1.0],
                       "p": 1.0, "n_samples": 2, "margin": 2,
                       "r_min": 1.0, "r_max": 5.0},
    "covariance": dict(TINY_1D, observable="u", separations=[1, 2],
                       n_samples=3, margin=2),
    # a uniform law moves every resampled site, so the fit has its 4 bins
    "vertical-derivative": dict(TINY_1D, law={"kind": "uniform01"},
                                z_offsets=[1, 2, 3, 4], n_samples=2),
    "eta-convergence": {"d": 1, "L": 16, "m": 20, "law": LAW, "lambda": 1.0,
                        "etas": [1e-2, 1e-3, 1e-4], "n_samples": 1},
    "energy-check": dict(TINY_1D, n_samples=2),
    "agmon-check": dict(TINY_1D, n_samples=1),
    "rank-one-check": dict(TINY_1D, n_samples=1),
    "fpp-kesten": {"d": 1, "L": 65, "law": LAW, "gamma": 0.5, "k": 3,
                   "radii": [1, 2], "c_probe": 0.5, "n_samples": 2},
    "cluster-tail": {"d": 2, "L": 33, "law": LAW, "gamma": 0.5, "k": 3,
                     "n_samples": 2},
    "anchor-1d": {"L": 32, "law": LAW, "gamma": 0.5, "n_samples": 5},
    "selftest": {},
}


class TestEverySubcommand:
    def test_every_runner_has_a_config(self):
        assert set(SMOKE_CONFIGS) == set(_RUNNERS)

    @pytest.mark.parametrize("subcommand", sorted(SMOKE_CONFIGS))
    def test_runs_to_a_documented_exit_code(self, tmp_path, subcommand):
        cfg = write_cfg(tmp_path, "c.json", SMOKE_CONFIGS[subcommand])
        # a valid config ends in any documented code but a validation error
        assert run(subcommand, cfg, output_dir=tmp_path / "out") in (0, 3, 4, 5)

    def test_z_offset_outside_box_exits_2(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json",
                        dict(SMOKE_CONFIGS["vertical-derivative"], z_offsets=[1, 9]))
        assert run("vertical-derivative", cfg, output_dir=tmp_path / "out") == 2

    @pytest.mark.parametrize("tol", [0, -1])
    def test_nonpositive_tol_exits_2(self, tmp_path, tol):
        cfg = write_cfg(tmp_path, "c.json", green_cfg(tol=tol))
        assert run("green-decay", cfg, output_dir=tmp_path / "out") == 2

    @pytest.mark.parametrize("subcommand, key, value", [
        ("vertical-derivative", "z_offsets", [1, "a"]),
        ("vertical-derivative", "z_offsets", [1, 2.5]),
        ("lambda-scaling", "lambdas", [1.0, "a"]),
        ("covariance", "separations", [1, "a"]),
        ("agmon-check", "mus", [0.0, "a"]),
        ("eta-convergence", "etas", [1e-2, "a", 1e-4]),
        ("fpp-kesten", "radii", [1, "a"]),
        ("vertical-derivative", "z_offsets", []),
        ("covariance", "separations", []),
        ("fpp-kesten", "radii", []),
        ("lambda-scaling", "lambdas", []),
        ("green-decay", "margin", -3),
        ("green-decay", "margin", 8),           # = L/2: no cell left to bin
        ("green-decay", "lambda", -1.0),
        ("green-decay", "eta", -1.0),
        ("lambda-scaling", "lambdas", [-1.0, 1.0]),
        ("lambda-scaling", "lambdas", [0.0, 1.0]),
        ("eta-convergence", "etas", [1e-2, 1e-3, -1e-4]),
        ("green-decay", "workers", 0),
        ("green-decay", "workers", -2),
        ("cluster-tail", "k", 0),
        ("solve-landscape", "sample_index", -1),
        ("green-decay", "experiment", "x"),     # no longer a key
        ("cluster-tail", "diam_max", 1),        # below the default diam_min 2
        ("eta-convergence", "ratio_lo", 30.0),  # above the default ratio_hi 20
        ("green-decay", "law", {"kind": "bernoulli"}),
        ("green-decay", "law", {"kind": "bernoulli", "q": "a"}),
        ("green-decay", "law", {"kind": "discrete_atoms", "values": [0.0, 1.0]}),
        ("green-decay", "law", {"kind": "uniform01", "q": 0.3}),
        ("green-decay", "law", {"kind": "bernoulli", "q": 0.3, "values": [5]}),
    ])
    def test_bad_list_or_margin_exits_2(self, tmp_path, subcommand, key, value):
        cfg = write_cfg(tmp_path, "c.json",
                        dict(SMOKE_CONFIGS[subcommand], **{key: value}))
        assert run(subcommand, cfg, output_dir=tmp_path / "out") == 2

    @pytest.mark.parametrize("subcommand, window", [
        ("green-decay", {"r_min": 40.0, "r_max": 5.0}),
        ("lambda-scaling", {"r_min": 5.0, "r_max": 5.0}),
        ("vertical-derivative", {"r_min": 4.0}),     # computed r_max = max|z| = 4
    ])
    def test_empty_fit_window_exits_2_before_any_output(self, tmp_path, subcommand,
                                                        window):
        cfg = write_cfg(tmp_path, "c.json", dict(SMOKE_CONFIGS[subcommand], **window))
        assert run(subcommand, cfg, output_dir=tmp_path / "out") == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("workers", [0, -2])
    def test_nonpositive_workers_flag_exits_2(self, tmp_path, workers):
        cfg = write_cfg(tmp_path, "c.json", SMOKE_CONFIGS["green-decay"])
        assert run("green-decay", cfg, output_dir=tmp_path / "out", workers=workers) == 2

    @pytest.mark.parametrize("subcommand", ["green-decay", "lambda-scaling"])
    @pytest.mark.parametrize("p", [0, -1.0])
    def test_nonpositive_p_exits_2(self, tmp_path, subcommand, p):
        cfg = write_cfg(tmp_path, "c.json", dict(SMOKE_CONFIGS[subcommand], p=p))
        assert run(subcommand, cfg, output_dir=tmp_path / "out") == 2

    @pytest.mark.parametrize("offsets", [{"z_offset": 50}, {"z_offset": -9},
                                         {"x_offset": 8}, {"x_offset": -9}])
    def test_rank_one_offset_outside_box_exits_2(self, tmp_path, offsets):
        cfg = write_cfg(tmp_path, "c.json",
                        dict(SMOKE_CONFIGS["rank-one-check"], **offsets))
        assert run("rank-one-check", cfg, output_dir=tmp_path / "out") == 2


class TestOutputDirectory:
    """A run leaves no output directory (exits 2 and 3) or a complete one.

    Exit 3 is checked in TestFailurePolicy, where solves fail on purpose."""

    @pytest.mark.parametrize("subcommand, change, code", [
        ("selftest", {}, 0),
        ("cluster-tail", {}, 4),
        ("anchor-1d", {}, 5),
        # rejected only inside the library calls, after the table checks
        ("green-decay", {"d": 4}, 2),
        ("green-decay", {"m": 10}, 2),
        ("green-decay", {"law": {"kind": "bernoulli", "q": 1.5}}, 2),
        ("agmon-check", {"cutoff_inner": 0.1}, 2),
        ("covariance", {"n_samples": 1}, 2),
        ("covariance", {"observable": "v"}, 2),
        ("eta-convergence", {"etas": [1e-2, 1e-3]}, 2),
        ("fpp-kesten", {"radii": [2, 1]}, 2),
    ])
    def test_absent_or_complete(self, tmp_path, subcommand, change, code):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, "c.json", dict(SMOKE_CONFIGS[subcommand], **change))
        assert run(subcommand, cfg, output_dir=out) == code
        if code == 2:
            assert not out.exists()
        else:
            verdict = {0: "PASS", 4: "FAIL", 5: "INCONCLUSIVE"}[code]
            assert files_match_manifest(out)["verdict"] == verdict

    def test_second_run_lists_only_its_own_files(self, tmp_path):
        out, given = tmp_path / "out", SMOKE_CONFIGS["lambda-scaling"]
        assert run("lambda-scaling", write_cfg(tmp_path, "a.json", given), output_dir=out) == 0
        cfg = write_cfg(tmp_path, "b.json", dict(given, lambdas=[2.0]))
        assert run("lambda-scaling", cfg, output_dir=out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(manifest["files"]) == ["curve_lambda_2.csv", "fits.csv", "summary.txt"]
        for name, digest in manifest["files"].items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name

    @pytest.mark.parametrize("output", ["afile", "afile/sub"])
    def test_output_path_through_a_file_exits_2(self, tmp_path, output):
        (tmp_path / "afile").write_text("kept")
        cfg = write_cfg(tmp_path, "c.json", {})
        assert run("selftest", cfg, output_dir=tmp_path / output) == 2
        assert (tmp_path / "afile").read_text() == "kept"


class TestEffectiveConfig:
    @pytest.mark.parametrize("subcommand", sorted(SMOKE_CONFIGS))
    def test_manifest_holds_effective_config_and_replays(self, tmp_path, subcommand):
        given = SMOKE_CONFIGS[subcommand]
        a, b = tmp_path / "a", tmp_path / "b"
        code = run(subcommand, write_cfg(tmp_path, "c.json", given), output_dir=a)
        effective = json.loads((a / "manifest.json").read_text())["config"]
        table = TABLES[subcommand]
        assert set(effective) == set(table) - {"output_dir"}
        for key, spec in table.items():
            if key in given:
                assert effective[key] == given[key]
            elif key != "output_dir" and not callable(spec.default):
                assert effective[key] == spec.default
        assert run(subcommand, write_cfg(tmp_path, "e.json", effective), output_dir=b) == code
        names = sorted(p.name for p in a.iterdir() if p.name != "manifest.json")
        assert names == sorted(p.name for p in b.iterdir() if p.name != "manifest.json")
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_computed_defaults(self):
        agmon = validate_config("agmon-check", dict(TINY_1D, n_samples=1, **{"lambda": 4}))
        assert agmon["mus"] == [0.0, 0.2] and agmon["lambda"] == 4.0
        assert agmon["weight_cap"] == 4.0 and agmon["cutoff_outer"] == 7.0
        vert = validate_config("vertical-derivative",
                               dict(TINY_1D, z_offsets=[2, -5, 3], n_samples=1))
        assert vert["r_min"] == 1.0 and vert["r_max"] == 5.0
        fpp = {"d": 2, "L": 65, "law": {"kind": "uniform01"}, "radii": [1, 2],
               "c_probe": 0.5, "n_samples": 1}
        out = validate_config("fpp-kesten", fpp)
        law = law_from_dict(fpp["law"])
        assert out["gamma"] == law.upper_quantile() == 0.75
        assert out["k"] == choose_k(law, 0.75, 2)
        assert validate_config("fpp-kesten", dict(fpp, gamma=0.5, k=2))["k"] == 2


class TestManifest:
    def test_manifest_checksums_match_files(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", green_cfg())
        out = tmp_path / "out"
        assert run("green-decay", cfg, output_dir=out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["verdict"] == "PASS"
        assert manifest["subcommand"] == "green-decay"
        assert manifest["config"]["master_seed"] == 3
        assert set(manifest["files"]) >= {"curve.csv", "fit.csv", "summary.txt"}
        for name, digest in manifest["files"].items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest

    def test_summary_single_line(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", {})
        out = tmp_path / "out"
        run("selftest", cfg, output_dir=out)
        text = (out / "summary.txt").read_text()
        assert text == "selftest PASS\n"

    def test_seed_override_lands_in_manifest(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", green_cfg())
        out = tmp_path / "out"
        run("green-decay", cfg, output_dir=out, seed=99)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["master_seed"] == 99


class TestDeterminism:
    def test_rerun_byte_identical_csvs(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", green_cfg())
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("green-decay", cfg, output_dir=a) == 0
        assert run("green-decay", cfg, output_dir=b) == 0
        for name in ("curve.csv", "fit.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    @pytest.mark.parametrize("subcommand", sorted(SMOKE_CONFIGS))
    def test_worker_count_does_not_change_output(self, tmp_path, subcommand):
        cfg = write_cfg(tmp_path, "c.json", SMOKE_CONFIGS[subcommand])
        a, b = tmp_path / "w1", tmp_path / "w2"
        code = run(subcommand, cfg, output_dir=a, workers=1)
        assert run(subcommand, cfg, output_dir=b, workers=2) == code
        names = sorted(p.name for p in a.iterdir() if p.name != "manifest.json")
        assert "summary.txt" in names
        assert names == sorted(p.name for p in b.iterdir() if p.name != "manifest.json")
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_different_seed_changes_output(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", green_cfg())
        a, b = tmp_path / "s1", tmp_path / "s2"
        run("green-decay", cfg, output_dir=a, seed=1)
        run("green-decay", cfg, output_dir=b, seed=2)
        assert (a / "curve.csv").read_bytes() != (b / "curve.csv").read_bytes()


def fail_calls(monkeypatch, module, name, failing):
    """module.name raises a solver failure on the calls numbered in failing."""
    real, calls = getattr(module, name), []

    def solve(*args, **kwargs):
        calls.append(len(calls))
        if calls[-1] in failing:
            raise SolverNonConvergenceError("stalled")
        return real(*args, **kwargs)
    monkeypatch.setattr(module, name, solve)


# passes with all 20 samples and with sample 7 left out
COVARIANCE_20 = dict(TINY_1D, observable="u", separations=[0, 6], n_samples=20, margin=1)


class TestFailurePolicy:
    """Serial runs solve sample i in call i: 1 failure in 20 is skipped, 2 exit 3."""

    def test_covariance_skips_one_failed_sample(self, tmp_path, monkeypatch, caplog):
        setup = _setup(validate_config("covariance", COVARIANCE_20))
        center = setup.grid().center_node
        u = [stats.solve_landscape(setup.hamiltonian(0, i), tol=setup.tol).u.values[center]
             for i in range(20) if i != 7]
        fail_calls(monkeypatch, stats, "solve_landscape", {7})
        cfg = write_cfg(tmp_path, "c.json", COVARIANCE_20)
        assert run("covariance", cfg, output_dir=tmp_path / "out") == 0
        assert "sample 7 skipped: stalled" in caplog.text
        rows = (tmp_path / "out" / "covariance.csv").read_text().splitlines()
        assert float(rows[1].split(",")[1]) == pytest.approx(np.var(u, ddof=1), rel=1e-10)

    def test_agmon_check_skips_one_failed_sample(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path, "c.json", dict(TINY_1D, n_samples=20))
        assert run("agmon-check", cfg, output_dir=tmp_path / "all") == 0
        fail_calls(monkeypatch, cli, "green_column", {7})
        assert run("agmon-check", cfg, output_dir=tmp_path / "out") == 0
        rows = (tmp_path / "all" / "agmon.csv").read_text().splitlines()
        kept = [row for row in rows if not row.startswith("7,")]
        assert len(kept) == len(rows) - 2         # two mus per sample
        assert (tmp_path / "out" / "agmon.csv").read_text().splitlines() == kept

    @pytest.mark.parametrize("subcommand, given, module, name", [
        ("covariance", COVARIANCE_20, stats, "solve_landscape"),
        ("agmon-check", dict(TINY_1D, n_samples=20), cli, "green_column")])
    def test_two_failures_in_20_exit_3(self, tmp_path, monkeypatch, subcommand, given,
                                       module, name):
        fail_calls(monkeypatch, module, name, {7, 12})
        cfg = write_cfg(tmp_path, "c.json", given)
        assert run(subcommand, cfg, output_dir=tmp_path / "out") == 3
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("subcommand, given", [
        ("energy-check", dict(TINY_1D, n_samples=2, tol=1e-300)),
        # V = 0, eta = 1e-6: the true residual of a delta stays above tol 1e-9
        ("green-decay", dict(SMOKE_CONFIGS["green-decay"], L=128, bc="periodic",
                             eta=1e-6, **{"lambda": 0.0}))])
    def test_stalled_solves_exit_3(self, tmp_path, caplog, subcommand, given):
        cfg = write_cfg(tmp_path, "c.json", given)
        assert run(subcommand, cfg, output_dir=tmp_path / "out") == 3
        assert not (tmp_path / "out").exists()
        assert "sample 0 skipped: CG stopped above tol" in caplog.text


class TestWriteCsv:
    def test_full_precision_roundtrip(self, tmp_path):
        p = tmp_path / "x.csv"
        write_csv(p, ["a", "b"], [[0.1 + 0.2, True], [1, -1.5e-300]])
        lines = p.read_text().splitlines()
        assert lines[0] == "a,b"
        assert float(lines[1].split(",")[0]) == 0.1 + 0.2
        assert lines[1].split(",")[1] == "1"
        assert float(lines[2].split(",")[1]) == -1.5e-300
