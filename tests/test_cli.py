import gc
import json
import hashlib
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from landscape_lab import cli, green, samples, stats
from landscape_lab.cli import TABLES, _setup, law_from_dict, run, validate_config, write_csv
from landscape_lab.errors import ConfigurationError, SolverNonConvergenceError
from landscape_lab.green import agmon_inequality_check, green_column
from landscape_lab.landscape import solve_landscape
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

    @pytest.mark.parametrize("key", ["master_seed", "sample_index"])
    def test_seed_words_are_64_bit(self, key):
        top = validate_config("solve-landscape", dict(TINY_1D, **{key: 2 ** 64 - 1}))
        assert top[key] == 2 ** 64 - 1
        for bad in (-1, 2 ** 64):
            with pytest.raises(ConfigurationError, match=rf"{key} must be in \[0, 2\*\*64\)"):
                validate_config("solve-landscape", dict(TINY_1D, **{key: bad}))

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

    @pytest.mark.parametrize("unreadable", ["a directory", "not UTF-8"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, unreadable):
        p = tmp_path / "c.json"
        if unreadable == "a directory":
            p.mkdir()
        else:
            p.write_bytes(b'{"law": "\xe9"}')     # latin-1
        assert run("selftest", p, output_dir=tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"validation error: config {p}: ") and "Traceback" not in err
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("law, message", [
        ({"kind": "bernoulli", "q": 0.5, "p": 0.5}, "unknown law field 'p'"),
        ({"kind": "bernoulli"}, "missing required law field 'q'"),
        ({"kind": "bernoulli", "q": "a"}, "law field 'q' must be finite float"),
        ({"kind": "discrete_atoms", "values": [0.0, 1.0], "probs": [], "p": 1},
         "unknown law field 'p'; law field 'probs' must be a non-empty list of finite float")],
        ids=["unknown", "missing", "ill-typed", "unknown-and-ill-typed"])
    def test_law_field_error_exits_2(self, tmp_path, capsys, law, message):
        cfg = write_cfg(tmp_path, "c.json", green_cfg(law=law))
        assert run("green-decay", cfg, output_dir=tmp_path / "out") == 2
        assert capsys.readouterr().err == f"validation error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_indistinguishable_etas_exit_4(self, tmp_path, capsys):
        # below the resolution of the 2 m^2 = 800 diagonal every eta solves to the
        # same bits: both differences are 0, and 0 / 0 is no ratio in the corridor
        cfg = write_cfg(tmp_path, "c.json", dict(SMOKE_CONFIGS["eta-convergence"],
                                                 etas=[1e-20, 1e-21, 1e-22]))
        out = tmp_path / "out"
        assert run("eta-convergence", cfg, output_dir=out) == 4
        assert "Traceback" not in capsys.readouterr().err
        manifest = files_match_manifest(out)
        assert manifest["details"] == {"mean_ratio": None, "corridor": [5.0, 20.0]}
        rows = (out / "eta_table.csv").read_text().splitlines()[1:]
        assert [row.split(",")[2] for row in rows] == ["0", "0"]

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


# the header of every CSV each smoke config writes; the benchmark's gate
# compares headers exactly
CURVE, FIT = "distance,value,ci", "rate,log_prefactor,r_min,r_max,r_squared,n_points"
CSV_HEADERS = {
    "solve-landscape": {"u.csv": "node,x0,u,inv_u", "sup_cells.csv": "cell,sup_u"},
    "green-decay": {"curve.csv": CURVE, "fit.csv": FIT},
    "lambda-scaling": {"fits.csv": "lambda,rate,r_squared,ratio",
                       "curve_lambda_0.5.csv": CURVE, "curve_lambda_1.csv": CURVE},
    "covariance": {"covariance.csv": "separation,cov,ci,observable"},
    "vertical-derivative": {"curve.csv": CURVE, "fit.csv": FIT},
    "eta-convergence": {"eta_table.csv": "sample,eta,sup_diff,sup_grad_diff,ratio_to_eta"},
    "energy-check": {"energy.csv": "lhs,rhs,margin_sigma,passed"},
    "agmon-check": {"agmon.csv": "sample,mu,lhs,rhs,passed"},
    "rank-one-check": {"rank_one.csv": "sample,lhs,rhs,relative_error"},
    "fpp-kesten": {"kesten.csv": "radius,frequency,ci_low,ci_high,threshold"},
    "cluster-tail": {"diameter_tail.csv": "n,tail_prob,count"},
    "anchor-1d": {"anchor_moments.csv": "p,moment"},
    "selftest": {"selftest.csv": "check,value,passed"},
}


class TestEverySubcommand:
    def test_every_runner_has_a_config(self):
        assert set(SMOKE_CONFIGS) == set(TABLES)

    @pytest.mark.parametrize("subcommand", sorted(SMOKE_CONFIGS))
    def test_csv_headers(self, tmp_path, subcommand):
        out = tmp_path / "out"
        run(subcommand, write_cfg(tmp_path, "c.json", SMOKE_CONFIGS[subcommand]),
            output_dir=out)
        headers = {p.name: p.read_text().splitlines()[0] for p in out.glob("*.csv")}
        assert headers == CSV_HEADERS[subcommand]

    @pytest.mark.parametrize("subcommand", sorted(SMOKE_CONFIGS))
    def test_runner_reads_every_key(self, subcommand):
        # a key its runner never reads would be accepted, ignored and still
        # recorded in the manifest as the config that ran
        class Recorder(dict):
            def __init__(self, cfg):
                super().__init__(cfg)
                self.read = set()

            def __getitem__(self, key):
                self.read.add(key)
                return super().__getitem__(key)

        cfg = Recorder(validate_config(subcommand, dict(SMOKE_CONFIGS[subcommand], workers=1)))
        TABLES[subcommand][0](cfg, {})
        # one sample, or no sample loop: the workers key changes nothing there
        ignored = {"workers"} if subcommand in ("solve-landscape", "selftest") else set()
        assert set(cfg) - cfg.read == {"output_dir", *ignored}

    @pytest.mark.parametrize("subcommand", sorted(SMOKE_CONFIGS))
    def test_runs_to_a_documented_exit_code(self, tmp_path, subcommand):
        cfg = write_cfg(tmp_path, "c.json", SMOKE_CONFIGS[subcommand])
        # a valid config ends in any documented code but a validation error
        assert run(subcommand, cfg, output_dir=tmp_path / "out") in (0, 3, 4, 5)

    def test_solve_landscape_2d_table(self, tmp_path):
        given = dict(TINY_1D, d=2, L=4, m=20)
        out = tmp_path / "out"
        assert run("solve-landscape", write_cfg(tmp_path, "c.json", given), output_dir=out) == 0
        cfg = validate_config("solve-landscape", given)
        H = _setup(cfg).hamiltonian(cfg["master_seed"], cfg["sample_index"])
        u = solve_landscape(H, tol=cfg["tol"]).u.values
        lines = (out / "u.csv").read_text().splitlines()
        assert lines[0] == "node,x0,x1,u,inv_u"
        rows = [line.split(",") for line in lines[1:]]
        assert [int(row[0]) for row in rows] == list(range(H.grid.n_nodes))
        coords = H.grid.axis_coords
        for flat, row in enumerate(rows):   # C order: the last axis runs fastest
            i, j = np.unravel_index(flat, H.grid.shape)
            assert [float(x) for x in row[1:4]] == [coords[i], coords[j], u[i, j]]

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
        ("agmon-check", "mus", [0.0, 0.1]),     # no longer a key
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
        ("eta-convergence", "ratio_lo", 30.0),  # no longer a key
        ("green-decay", "law", {"kind": "bernoulli"}),
        ("green-decay", "law", {"kind": "bernoulli", "q": "a"}),
        ("green-decay", "law", {"kind": "discrete_atoms", "values": [0.0, 1.0]}),
        ("green-decay", "law", {"kind": "uniform01", "q": 0.3}),
        ("green-decay", "law", {"kind": "bernoulli", "q": 0.3, "values": [5]}),
        # JSON's Infinity and NaN, and an int past the float range, are not finite floats
        ("green-decay", "lambda", float("inf")),
        ("green-decay", "eta", float("inf")),
        ("green-decay", "r_max", float("inf")),
        ("green-decay", "p", float("inf")),
        ("green-decay", "tol", float("nan")),
        pytest.param("green-decay", "lambda", 10 ** 400, id="green-decay-lambda-10**400"),
        ("lambda-scaling", "lambdas", [1.0, float("inf")]),
        ("green-decay", "law", {"kind": "discrete_atoms", "values": [0.0, 0.5, 1.0],
                                "probs": [0.5, 0.5, float("nan")]}),
        # the percolation and anchor boxes: d in {1, 2, 3}, at most 2**24 sites
        ("fpp-kesten", "d", 0),
        ("fpp-kesten", "d", -1),
        ("fpp-kesten", "d", 10),
        ("cluster-tail", "d", 10),
        ("cluster-tail", "d", 10 ** 9),         # L**d must not be evaluated
        ("fpp-kesten", "L", (1 << 24) + 1),
        ("cluster-tail", "L", 4097),            # 4097**2 > 2**24
        ("anchor-1d", "L", 10 ** 11),
        # both set: 2d m^2 + lambda*max V + eta overflows to inf
        pytest.param("solve-landscape", "lambda,eta", 1e308,
                     id="solve-landscape-lambda,eta-1e308"),
        # both would name curve_lambda_1.csv
        ("lambda-scaling", "lambdas", [1.0, 1.0000001]),
        ("lambda-scaling", "lambdas", [2.0, 2.0]),
        # an int key or element is a JSON number too: past the float range it is no int
        pytest.param("green-decay", "L", 10 ** 400, id="green-decay-L-10**400"),
        pytest.param("vertical-derivative", "z_offsets", [1, 10 ** 400],
                     id="vertical-derivative-z_offsets-10**400"),
        # a coarse diameter lies in [0, L), and a coarse box needs 4 vertices per side
        ("cluster-tail", "diam_min", -1),
        ("cluster-tail", "diam_max", 34),       # > L = 33
        ("cluster-tail", "diam_max", 10 ** 10),
        ("cluster-tail", "k", 10 ** 18),
        ("fpp-kesten", "k", 10 ** 18),
    ])
    def test_bad_list_or_margin_exits_2(self, tmp_path, subcommand, key, value):
        given = dict(SMOKE_CONFIGS[subcommand], **dict.fromkeys(key.split(","), value))
        cfg = write_cfg(tmp_path, "c.json", given)
        assert run(subcommand, cfg, output_dir=tmp_path / "out") == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("subcommand, key, value", [
        ("eta-convergence", "ratio_lo", 5.0), ("eta-convergence", "ratio_hi", 20.0),
        ("rank-one-check", "max_rel_error", 1e-6), ("agmon-check", "mus", [0.0, 0.1]),
        ("agmon-check", "weight_cap", 4.0), ("agmon-check", "cutoff_inner", 1.0),
        ("agmon-check", "cutoff_outer", 7.0),
        *[(subcommand, "tol", 1e-3) for subcommand in (
            "eta-convergence", "rank-one-check", "fpp-kesten", "cluster-tail",
            "anchor-1d", "selftest")]])
    def test_removed_key_exits_2(self, tmp_path, capsys, subcommand, key, value):
        # verdict thresholds and Agmon weights are constants, not config keys, and
        # tol is a key only where a solve runs at it
        cfg = write_cfg(tmp_path, "c.json", dict(SMOKE_CONFIGS[subcommand], **{key: value}))
        assert run(subcommand, cfg, output_dir=tmp_path / "out") == 2
        assert f"unknown key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_agmon_rows_use_the_fixed_weights(self, tmp_path):
        # mu = 0 and 0.1 sqrt(lambda); weight cap L/4, cutoff from 1 to L/2 - 1
        given = dict(TINY_1D, n_samples=1, **{"lambda": 4.0})
        out = tmp_path / "out"
        assert run("agmon-check", write_cfg(tmp_path, "c.json", given), output_dir=out) == 0
        cfg = validate_config("agmon-check", given)
        H = _setup(cfg).hamiltonian(cfg["master_seed"], 0)
        G = green_column(H, H.grid.center_node, tol=cfg["tol"])
        rows = [line.split(",") for line in (out / "agmon.csv").read_text().splitlines()[1:]]
        assert len(rows) == 2
        for row, mu in zip(rows, (0.0, 0.2)):
            rep = agmon_inequality_check(G, mu, 4.0, 1.0, 7.0)
            assert [float(x) for x in row[1:4]] == [mu, rep.lhs, rep.rhs]

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

    @pytest.mark.parametrize("subcommand", ["green-decay", "covariance", "solve-landscape"])
    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_seed_flag_outside_64_bits_exits_2(self, tmp_path, capsys, subcommand, seed):
        cfg = write_cfg(tmp_path, "c.json", SMOKE_CONFIGS[subcommand])
        assert run(subcommand, cfg, output_dir=tmp_path / "out", seed=seed) == 2
        assert "master_seed must be in [0, 2**64)" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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
        ("agmon-check", {"cutoff_inner": 1.0}, 2),   # no longer a key
        ("covariance", {"n_samples": 1}, 2),
        ("covariance", {"observable": "v"}, 2),
        ("eta-convergence", {"etas": [1e-2, 1e-3]}, 2),
        ("fpp-kesten", {"radii": [2, 1]}, 2),
        ("fpp-kesten", {"radii": [-1, 1]}, 2),
        # periodic with lambda = 0 and eta = 0: singular for every omega
        ("solve-landscape", {"bc": "periodic", "lambda": 0.0, "eta": 0.0}, 2),
        ("energy-check", {"lambda": 0.0, "eta": 0.0}, 2),
        ("green-decay", {"bc": "periodic", "lambda": 0.0, "eta": 0.0}, 2),
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

    def test_no_subcritical_scale_exits_2(self, tmp_path, capsys):
        # P[w >= gamma] = 2^-53: closed edges stay supercritical up to k = 16
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, "c.json", {"d": 1, "L": 65, "law": {"kind": "uniform01"},
                                             "gamma": 0.9999999999999999, "n_samples": 1})
        assert run("cluster-tail", cfg, output_dir=out) == 2
        assert "no k <= 16 achieves subcritical closed edges" in capsys.readouterr().err
        assert not out.exists()

    def test_write_error_exits_2_without_traceback(self, tmp_path, monkeypatch, capsys):
        def deny(path, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(path))
        monkeypatch.setattr(Path, "mkdir", deny)
        cfg = write_cfg(tmp_path, "c.json", {})
        argv = ["selftest", "--config", str(cfg), "--output", str(tmp_path / "out")]
        try:
            assert cli.main(argv) == 2
        finally:
            gc.unfreeze()   # main froze this process's heap; later tests keep a normal collector
        err = capsys.readouterr().err
        assert err.startswith("output error: [Errno 13] Permission denied")
        assert err.count("\n") == 1 and "Traceback" not in err

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
        table = TABLES[subcommand][1]
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
        # diam_max <= L holds for its default too
        tail = {"d": 1, "L": 8, "law": LAW, "gamma": 0.5, "k": 1, "n_samples": 1}
        assert validate_config("cluster-tail", tail)["diam_max"] == 8
        assert validate_config("cluster-tail", dict(tail, L=33))["diam_max"] == 10


SRC = Path(__file__).resolve().parent.parent / "src"
# A selftest run in a fresh interpreter: sys.argv holds the config and output_dir.
SELFTEST = """
import sys
from landscape_lab import cli
assert cli.run("selftest", *sys.argv[1:]) == 0
"""
# The same with no builtin SHA-256 module; prints whether the CLI took hashlib's.
NO_BUILTIN_SHA256 = """
import sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
""" + SELFTEST + """
import hashlib
print(cli.sha256 is hashlib.sha256)
"""


def fresh_run(script, src, *args) -> str:
    """The last line script prints in a fresh interpreter with src on its path."""
    out = subprocess.run([sys.executable, "-c", script, *map(str, args)],
                         env=dict(os.environ, PYTHONPATH=str(src)), check=True,
                         capture_output=True, text=True).stdout
    return out.strip().rsplit("\n", 1)[-1]


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

    @pytest.mark.parametrize("subcommand, given, code, details, csv_text", [
        ("cluster-tail", SMOKE_CONFIGS["cluster-tail"], 4, {"slope": None}, None),
        ("energy-check", dict(TINY_1D, n_samples=1), 0, {"margin_sigma": None},
         ("energy.csv", ",inf,")),
        # no site reaches gamma, so every gap is censored
        ("anchor-1d", {"L": 32, "law": {"kind": "uniform01"}, "gamma": 0.9999999999999999,
                       "n_samples": 5}, 5,
         {"gap_mean": None, "gap_sem": None, "moments": [None] * 4},
         ("anchor_moments.csv", "1,nan\n")),
    ], ids=["cluster-tail", "energy-check", "anchor-1d"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")   # e.g. a mean of no gaps
    def test_non_finite_details_are_null(self, tmp_path, subcommand, given, code, details,
                                         csv_text):
        def refuse(constant):
            raise ValueError(f"{constant} is not strict JSON")

        out = tmp_path / "out"
        assert run(subcommand, write_cfg(tmp_path, "c.json", given), output_dir=out) == code
        manifest = json.loads((out / "manifest.json").read_text(), parse_constant=refuse)
        assert manifest["details"].items() >= details.items()
        if csv_text is not None:     # the CSVs keep nan and inf
            name, text = csv_text
            assert text in (out / name).read_text()

    def test_seed_override_lands_in_manifest(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", green_cfg())
        out = tmp_path / "out"
        run("green-decay", cfg, output_dir=out, seed=99)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["master_seed"] == 99

    def test_checksums_without_a_builtin_sha256(self, tmp_path):
        """An interpreter with neither _sha2 nor _sha256 checksums with hashlib."""
        out = tmp_path / "out"
        printed = fresh_run(NO_BUILTIN_SHA256, SRC, write_cfg(tmp_path, "c.json", {}), out)
        assert printed == "True"        # the CLI's sha256 is hashlib's
        files_match_manifest(out)

    def test_environment_block(self, tmp_path):
        out = tmp_path / "out"
        assert run("selftest", write_cfg(tmp_path, "c.json", {}), output_dir=out) == 0
        environment = json.loads((out / "manifest.json").read_text())["environment"]
        assert environment == {"python": platform.python_version(), "numpy": np.__version__,
                               "cpu_count": os.cpu_count(),
                               "git_commit": cli._git_commit(SRC.parent)}
        # the package run from a tree that is no git checkout: no commit
        tree = tmp_path / "tree"
        shutil.copytree(SRC / "landscape_lab", tree / "src" / "landscape_lab",
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = tmp_path / "copy-out"
        fresh_run(SELFTEST, tree / "src", tmp_path / "c.json", out)
        assert json.loads((out / "manifest.json").read_text())["environment"] == dict(
            environment, git_commit=None)

    @pytest.mark.parametrize("files, commit", [
        ({"HEAD": f"{'a' * 40}\n"}, "a" * 40),                                    # detached
        ({"HEAD": "ref: refs/heads/main\n", "refs/heads/main": f"{'b' * 40}\n"}, "b" * 40),
        ({"HEAD": "ref: refs/heads/main\n",
          "packed-refs": f"# pack-refs with: peeled\n{'c' * 40} refs/heads/mainline\n"
                         f"{'d' * 40} refs/heads/main\n^{'e' * 40}\n"}, "d" * 40),
        # a loose ref is newer than its packed copy
        ({"HEAD": "ref: refs/heads/main\n", "refs/heads/main": f"{'b' * 40}\n",
          "packed-refs": f"{'d' * 40} refs/heads/main\n"}, "b" * 40),
        ({"HEAD": "ref: refs/heads/unborn\n", "packed-refs": f"{'d' * 40} refs/heads/main\n"},
         None),
        ({"HEAD": "ref: refs/heads/unborn\n"}, None),
        ({}, None),                                                     # an empty .git
        (None, None),                                                   # no .git
        ("gitdir: /elsewhere\n", None),                                  # a .git file
    ], ids=["detached", "loose", "packed", "loose-over-packed", "unborn-packed", "unborn",
            "empty", "no-git", "git-file"])
    def test_git_commit_from_dot_git(self, tmp_path, files, commit):
        git = tmp_path / ".git"
        if isinstance(files, str):
            git.write_text(files)
        elif files is not None:
            git.mkdir()
            for name, text in files.items():
                (git / name).parent.mkdir(parents=True, exist_ok=True)
                (git / name).write_text(text)
        assert cli._git_commit(tmp_path) == commit


class TestDeterminism:
    def test_rerun_byte_identical_csvs(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", green_cfg())
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("green-decay", cfg, output_dir=a) == 0
        assert run("green-decay", cfg, output_dir=b) == 0
        for name in ("curve.csv", "fit.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    # every smoke config that solves is 1-d; a 2-d Dirichlet solve runs BLAS matmuls
    @pytest.mark.parametrize("subcommand, config", [
        *sorted(SMOKE_CONFIGS.items()),
        ("green-decay", dict(TINY_1D, d=2, L=8, p=1.0, n_samples=2, margin=0,
                             r_min=1.0, r_max=4.0))],
        ids=[*sorted(SMOKE_CONFIGS), "green-decay-2d"])
    def test_worker_count_does_not_change_output(self, tmp_path, subcommand, config):
        cfg = write_cfg(tmp_path, "c.json", config)
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


# Run in a fresh interpreter: green-decay through cli.run at 2 workers, then
# through cli.main at 1 and 2 workers; prints gc.get_freeze_count() after each.
FREEZE_PROBE = """
import gc, json, sys
from landscape_lab import cli
cfg, tmp = sys.argv[1:]
counts = []
for entry, workers in (("run", 2), ("main", 1), ("main", 2)):
    out = f"{tmp}/{entry}-w{workers}"
    if entry == "run":
        assert cli.run("green-decay", cfg, output_dir=out, workers=workers) == 0
    else:
        argv = ["green-decay", "--config", cfg, "--output", out, "--workers", str(workers)]
        assert cli.main(argv) == 0
    counts.append(gc.get_freeze_count())
print(json.dumps(counts))
"""


class TestMainFreeze:
    def test_main_freezes_the_heap_and_run_does_not(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", green_cfg())
        src = Path(__file__).resolve().parent.parent / "src"
        out = subprocess.run([sys.executable, "-c", FREEZE_PROBE, str(cfg), str(tmp_path)],
                             env=dict(os.environ, PYTHONPATH=str(src)), check=True,
                             capture_output=True, text=True).stdout
        after_run, after_main, _ = json.loads(out.strip().splitlines()[-1])
        assert after_run == 0 < after_main
        # frozen or not, serial or pooled: the same bytes
        runs = [tmp_path / name for name in ("run-w2", "main-w1", "main-w2")]
        names = sorted(p.name for p in runs[0].iterdir() if p.name != "manifest.json")
        assert "summary.txt" in names
        for other in runs[1:]:
            for name in names:
                assert (runs[0] / name).read_bytes() == (other / name).read_bytes(), name


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

    def test_covariance_skips_one_failed_sample(self, tmp_path, monkeypatch, capsys):
        setup = _setup(validate_config("covariance", COVARIANCE_20))
        center = setup.grid().center_node
        u = [stats.solve_landscape(setup.hamiltonian(0, i), tol=setup.tol).u.values[center]
             for i in range(20) if i != 7]
        fail_calls(monkeypatch, stats, "solve_landscape", {7})
        cfg = write_cfg(tmp_path, "c.json", COVARIANCE_20)
        assert run("covariance", cfg, output_dir=tmp_path / "out") == 0
        assert "sample 7 skipped: stalled\n" in capsys.readouterr().err
        rows = (tmp_path / "out" / "covariance.csv").read_text().splitlines()
        assert float(rows[1].split(",")[1]) == pytest.approx(np.var(u, ddof=1), rel=1e-10)

    def test_agmon_check_skips_one_failed_sample(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path, "c.json", dict(TINY_1D, n_samples=20))
        assert run("agmon-check", cfg, output_dir=tmp_path / "all") == 0
        fail_calls(monkeypatch, green, "green_column", {7})
        assert run("agmon-check", cfg, output_dir=tmp_path / "out") == 0
        rows = (tmp_path / "all" / "agmon.csv").read_text().splitlines()
        kept = [row for row in rows if not row.startswith("7,")]
        assert len(kept) == len(rows) - 2         # two mus per sample
        assert (tmp_path / "out" / "agmon.csv").read_text().splitlines() == kept

    @pytest.mark.parametrize("subcommand, given, module, name", [
        ("covariance", COVARIANCE_20, stats, "solve_landscape"),
        ("agmon-check", dict(TINY_1D, n_samples=20), green, "green_column")])
    def test_two_failures_in_20_exit_3(self, tmp_path, monkeypatch, subcommand, given,
                                       module, name):
        fail_calls(monkeypatch, module, name, {7, 12})
        cfg = write_cfg(tmp_path, "c.json", given)
        assert run(subcommand, cfg, output_dir=tmp_path / "out") == 3
        assert not (tmp_path / "out").exists()

    def test_dead_worker_exits_3_without_traceback(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(samples.os, "cpu_count", lambda: 2)   # forks on any machine
        monkeypatch.setattr(green, "green_column", lambda *args, **kwargs: os._exit(1))
        cfg = write_cfg(tmp_path, "c.json", dict(TINY_1D, n_samples=4))
        assert run("agmon-check", cfg, output_dir=tmp_path / "out", workers=2) == 3
        err = capsys.readouterr().err
        assert err == "solver failure: a sample worker ended without its results\n"
        assert not (tmp_path / "out").exists()

    def test_failed_fork_exits_3_without_traceback(self, tmp_path, monkeypatch, capsys):
        def no_fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(samples.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(samples.os, "fork", no_fork)
        cfg = write_cfg(tmp_path, "c.json", SMOKE_CONFIGS["green-decay"])
        assert run("green-decay", cfg, output_dir=tmp_path / "out", workers=2) == 3
        assert capsys.readouterr().err == ("solver failure: could not start a sample worker: "
                                           "[Errno 11] Resource temporarily unavailable\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("subcommand, given", [
        ("energy-check", dict(TINY_1D, n_samples=2, tol=1e-300)),
        # V = 0, eta = 1e-6: the true residual of a delta stays above tol 1e-9
        ("green-decay", dict(SMOKE_CONFIGS["green-decay"], L=128, bc="periodic",
                             eta=1e-6, **{"lambda": 0.0}))])
    def test_stalled_solves_exit_3(self, tmp_path, capsys, subcommand, given):
        cfg = write_cfg(tmp_path, "c.json", given)
        assert run(subcommand, cfg, output_dir=tmp_path / "out") == 3
        assert not (tmp_path / "out").exists()
        assert "sample 0 skipped: CG stopped above tol" in capsys.readouterr().err


class TestWriteCsv:
    def test_full_precision_roundtrip(self, tmp_path):
        p = tmp_path / "x.csv"
        write_csv(p, ["a", "b"], [[0.1 + 0.2, True], [1, -1.5e-300]])
        lines = p.read_text().splitlines()
        assert lines[0] == "a,b"
        assert float(lines[1].split(",")[0]) == 0.1 + 0.2
        assert lines[1].split(",")[1] == "1"
        assert float(lines[2].split(",")[1]) == -1.5e-300
