"""Reproducible experiment runner.

Every experiment is a subcommand taking a JSON config.  ``TABLES`` gives,
per subcommand, each key's type, its default (or that it is required) and
its range rule.  Validation rejects unknown keys, wrong types and values out
of range (n_samples, workers, k >= 1; tol, p, lambdas > 0; lambda, eta,
etas, sample_index >= 0; 0 <= margin < L/2; r_max > r_min; ratio_hi >=
ratio_lo; diam_max >= diam_min; rank-one-check's offsets inside the box; no
file at or above output_dir), also when the --seed/--workers/--output flags
set them, and fills in every default, so runners read ``cfg[key]`` only.
Samples run through ``stats._pool_map``: any worker count gives the same
bytes, and a failed solve skips its sample (more than 5 % skipped exits 3).
A runner fills ``tables`` (file name -> (header, rows)); once it returns,
``run`` alone writes output_dir: the tables, a one-line summary.txt, and a
manifest.json with the effective config (fed back as a config, it reproduces
the run) and the checksums of exactly those files.  A failed decay fit is a
FAIL with its reason in the manifest.  Exit codes: 0 ok/pass, 2 validation
error, 3 solver failure, 4 statistical FAIL, 5 inconclusive; 2 and 3 write
nothing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .disorder import law_from_dict, sample_omega
from .errors import (ConfigurationError, ExperimentError, FitError,
                     LawValidationError, PositivityError, SingularOperatorError,
                     SolverNonConvergenceError)
from .green import (agmon_inequality_check, all_cell_masses, green_column,
                    massive_domination_check, rank_one_identity_check)
from .landscape import (derived_fields, energy_estimate_check,
                        eta_convergence_study, solve_landscape)
from .lattice import (Grid, HamiltonianSpec, ScalarField, apply_hamiltonian,
                      cg_solve, dense_solve_oracle)
from .percolation import (anchoring_experiment_1d, choose_k, cluster_analysis,
                          coarse_grain, kesten_tail_experiment)
from .stats import (ExperimentSetup, _pool_map, covariance_suite,
                    fit_exponential_decay, green_decay_experiment,
                    lambda_scaling_curve, vertical_derivative_decay)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_FAIL = 4
EXIT_INCONCLUSIVE = 5


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (float, np.floating)):
        return "%.17g" % float(x)
    return str(x)


def write_csv(path: Path, header, rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


# ------------------------------------------------------------------ config tables

REQUIRED = object()


class Key(NamedTuple):
    """type: int, float, str, dict, or [t] for a non-empty list of t.
    default: REQUIRED, a value, or a function of the keys above it in the
    table.  rule: (text, predicate(value, cfg)), on the value or each element.
    """

    type: object
    default: object = REQUIRED
    rule: tuple | None = None


def _at_least(low):
    return (f">= {low}", lambda v, cfg: v >= low)


def _not_below(key):
    return (f">= {key}", lambda v, cfg: v >= cfg[key])


def _no_file_on(path, cfg):
    """No file stands where the output directory or one of its parents goes."""
    return path is None or next(p for p in (Path(path), *Path(path).parents)
                                if p.exists()).is_dir()


_POSITIVE = ("> 0", lambda v, cfg: v > 0)
_UPPER_QUANTILE = Key(float, lambda cfg: law_from_dict(cfg["law"]).upper_quantile())
_BASE = {"master_seed": Key(int, 0), "workers": Key(int, 1, _at_least(1)),
         "tol": Key(float, 1e-9, _POSITIVE),
         "output_dir": Key(str, None, ("a directory, not a file or under one",
                                       _no_file_on))}
_OPERATOR = {"d": Key(int), "L": Key(int), "m": Key(int),
             "bc": Key(str, "dirichlet"), "law": Key(dict),
             "lambda": Key(float, rule=_at_least(0)),
             "eta": Key(float, rule=_at_least(0))}
_N_SAMPLES = Key(int, rule=_at_least(1))
_P = Key(float, rule=_POSITIVE)
_MARGIN = Key(int, 5, ("in [0, L/2)", lambda v, cfg: 0 <= v < cfg["L"] / 2))
_K = Key(int, lambda cfg: choose_k(law_from_dict(cfg["law"]), cfg["gamma"], cfg["d"]),
         _at_least(1))
_ABOVE_R_MIN = ("> r_min", lambda v, cfg: v > cfg["r_min"])
_FIT_WINDOW = {"r_min": Key(float, 5.0), "r_max": Key(float, 40.0, _ABOVE_R_MIN)}


def _operator(*without):
    return {key: spec for key, spec in _OPERATOR.items() if key not in without}


TABLES = {name: {**_BASE, **keys} for name, keys in {
    "solve-landscape": {**_OPERATOR, "sample_index": Key(int, 0, _at_least(0))},
    "green-decay": {**_OPERATOR, "p": _P, "n_samples": _N_SAMPLES, "margin": _MARGIN,
                    **_FIT_WINDOW},
    "lambda-scaling": {**_operator("lambda", "eta"),
                       "lambdas": Key([float], rule=_POSITIVE), "p": _P,
                       "n_samples": _N_SAMPLES, "margin": _MARGIN, **_FIT_WINDOW},
    "covariance": {**_OPERATOR, "observable": Key(str), "separations": Key([int]),
                   "n_samples": _N_SAMPLES, "margin": _MARGIN},
    "vertical-derivative": {
        **_OPERATOR, "z_offsets": Key([int]), "n_samples": _N_SAMPLES,
        "r_min": Key(float, 1.0),
        "r_max": Key(float, lambda cfg: float(max(abs(z) for z in cfg["z_offsets"])),
                     _ABOVE_R_MIN)},
    "eta-convergence": {**_operator("eta"), "etas": Key([float], rule=_at_least(0)),
                        "n_samples": _N_SAMPLES, "ratio_lo": Key(float, 5.0),
                        "ratio_hi": Key(float, 20.0, _not_below("ratio_lo"))},
    "energy-check": {**_operator("bc"), "n_samples": _N_SAMPLES},
    "agmon-check": {
        **_operator("bc"),
        "mus": Key([float], lambda cfg: [0.0, 0.1 * float(np.sqrt(cfg["lambda"]))]),
        "weight_cap": Key(float, lambda cfg: cfg["L"] / 4.0),
        "cutoff_inner": Key(float, 1.0),
        "cutoff_outer": Key(float, lambda cfg: cfg["L"] / 2.0 - 1.0),
        "n_samples": _N_SAMPLES},
    "rank-one-check": {
        **_operator("bc"), "n_samples": _N_SAMPLES,
        "z_offset": Key(int, 2, ("inside the box",
                                 lambda v, cfg: 0 <= cfg["L"] // 2 + v < cfg["L"])),
        "x_offset": Key(int, -3, ("inside the box", lambda v, cfg: 0 <= (
            (cfg["L"] // 2 + v) * cfg["m"] + cfg["m"] // 2) < cfg["L"] * cfg["m"])),
        "max_rel_error": Key(float, 1e-6)},
    "fpp-kesten": {"d": Key(int), "L": Key(int), "law": Key(dict),
                   "gamma": _UPPER_QUANTILE, "k": _K, "radii": Key([int]),
                   "c_probe": Key(float), "n_samples": _N_SAMPLES},
    "cluster-tail": {"d": Key(int), "L": Key(int), "law": Key(dict),
                     "gamma": Key(float), "k": _K, "n_samples": _N_SAMPLES,
                     "diam_min": Key(int, 2),
                     "diam_max": Key(int, 10, _not_below("diam_min"))},
    "anchor-1d": {"L": Key(int), "law": Key(dict), "gamma": _UPPER_QUANTILE,
                  "n_samples": _N_SAMPLES},
    "selftest": {},
}.items()}


def _typed(val, want):
    """val as a `want`, or None if it is not one.

    JSON ints pass as floats (and become floats), bools pass as nothing,
    and [t] takes a non-empty list of t.
    """
    if isinstance(want, list):
        items = [_typed(v, want[0]) for v in val] if isinstance(val, list) else []
        return items if items and None not in items else None
    if isinstance(val, bool) or not isinstance(val, (int, float) if want is float else want):
        return None
    return float(val) if want is float else val


def validate_config(subcommand: str, cfg: dict) -> dict:
    """The effective config: cfg checked against its table, defaults filled in."""
    if subcommand not in TABLES:
        raise ConfigurationError(f"unknown subcommand {subcommand!r}")
    table = TABLES[subcommand]
    errors = [f"unknown key {key!r}" for key in cfg if key not in table]
    out = {}
    for key, spec in table.items():
        if key in cfg:
            out[key] = _typed(cfg[key], spec.type)
            if out[key] is None:
                name = (f"a non-empty list of {spec.type[0].__name__}"
                        if isinstance(spec.type, list) else spec.type.__name__)
                errors.append(f"key {key!r} must be {name}")
        elif spec.default is REQUIRED:
            errors.append(f"missing required key {key!r}")
    if errors:
        raise ConfigurationError("; ".join(errors))
    for key, spec in table.items():     # in table order, so defaults see the keys above
        if key not in out:
            if errors:  # a default may be computed from a rejected value; rules below read it
                break
            out[key] = spec.default(out) if callable(spec.default) else spec.default
        if spec.rule is not None:
            text, holds = spec.rule
            values = out[key] if isinstance(out[key], list) else [out[key]]
            if not all(holds(v, out) for v in values):
                errors.append(f"{key} must be {text}")
    if errors:
        raise ConfigurationError("; ".join(errors))
    return out


def _setup(cfg: dict, **fixed) -> ExperimentSetup:
    """fixed sets the fields the table lacks: lam/eta where swept, bc for energy-check."""
    keys = ("d", "L", "m", "bc", "lambda", "eta", "tol", "margin")
    fields = {"lam" if key == "lambda" else key: cfg[key] for key in keys if key in cfg}
    return ExperimentSetup(law=law_from_dict(cfg["law"]), **fields, **fixed)


# ------------------------------------------------------------------ runners

def _run_solve_landscape(cfg, tables):
    setup = _setup(cfg)
    H = setup.hamiltonian(cfg["master_seed"], cfg["sample_index"])
    sol = solve_landscape(H, tol=setup.tol)
    der = derived_fields(sol)
    grid = H.grid
    coords = grid.axis_coords
    rows = []
    for flat, val in enumerate(sol.u.values.ravel()):
        node = np.unravel_index(flat, grid.shape)
        rows.append([flat] + [coords[i] for i in node]
                    + [val, der["inv_u"].values[node]])
    tables["u.csv"] = (["node"] + [f"x{i}" for i in range(grid.d)] + ["u", "inv_u"], rows)
    tables["sup_cells.csv"] = (["cell", "sup_u"],
                               [[i, v] for i, v in enumerate(sol.sup_per_cell.ravel())])
    return True, {"min_u": float(sol.u.values.min()),
                  "max_u": float(sol.u.values.max())}


def _curve_table(curve):
    return ["distance", "value", "ci"], zip(curve.distances, curve.values, curve.ci)


def _fit(curve, cfg, tables):
    """The decay fit of curve; curve.csv is filled before the fit can fail."""
    tables["curve.csv"] = _curve_table(curve)
    fit = fit_exponential_decay(curve, cfg["r_min"], cfg["r_max"])
    tables["fit.csv"] = (["rate", "log_prefactor", "r_min", "r_max", "r_squared", "n_points"],
                         [[fit.rate, fit.log_prefactor, fit.r_min, fit.r_max,
                           fit.r_squared, fit.n_points]])
    return fit


def _run_green_decay(cfg, tables):
    curve = green_decay_experiment(_setup(cfg), cfg["p"], cfg["n_samples"],
                                   cfg["master_seed"], workers=cfg["workers"])
    fit = _fit(curve, cfg, tables)
    passed = fit.rate > 0.0 and fit.r_squared >= 0.9
    return passed, {"fit": asdict(fit)}


def _run_lambda_scaling(cfg, tables):
    res = lambda_scaling_curve(_setup(cfg, lam=None, eta=None), cfg["lambdas"],
                               cfg["p"], cfg["n_samples"], cfg["master_seed"],
                               r_min=cfg["r_min"], r_max=cfg["r_max"],
                               workers=cfg["workers"])
    rows = [[lam, f.rate, f.r_squared, res["ratios"][lam]]
            for lam, f in sorted(res["fits"].items())]
    tables["fits.csv"] = (["lambda", "rate", "r_squared", "ratio"], rows)
    for lam, curve in sorted(res["curves"].items()):
        tables[f"curve_lambda_{lam:g}.csv"] = _curve_table(curve)
    passed = all(f.rate > 0.0 for f in res["fits"].values())
    return passed, {"rates": {str(k): v.rate for k, v in res["fits"].items()}}


def _run_covariance(cfg, tables):
    pts = covariance_suite(_setup(cfg), [cfg["observable"]], cfg["separations"],
                           cfg["n_samples"], cfg["master_seed"],
                           workers=cfg["workers"])[cfg["observable"]]
    tables["covariance.csv"] = (["separation", "cov", "ci", "observable"],
                                [[p.separation, p.cov, p.ci, p.observable] for p in pts])
    near, far = pts[0], pts[-1]
    passed = (abs(far.cov) <= 0.1 * abs(near.cov)) or (abs(far.cov) <= 1.5 * far.ci)
    return passed, {"near": abs(near.cov), "far": abs(far.cov), "far_ci": far.ci}


def _run_vertical_derivative(cfg, tables):
    curve = vertical_derivative_decay(_setup(cfg), cfg["z_offsets"], cfg["n_samples"],
                                      cfg["master_seed"], workers=cfg["workers"])
    fit = _fit(curve, cfg, tables)
    return fit.rate > 0.0, {"fit": asdict(fit)}


def _eta_sample(i, setup, cfg):
    return eta_convergence_study(setup.omega(cfg["master_seed"], i), setup.bump,
                                 setup.grid(), setup.lam, cfg["etas"],
                                 tol=min(setup.tol, 1e-10))


def _run_eta_convergence(cfg, tables):
    studies = _pool_map(_eta_sample, cfg["n_samples"], cfg["workers"],
                        _setup(cfg, eta=None), cfg)
    tables["eta_table.csv"] = (["sample", "eta", "sup_diff", "sup_grad_diff", "ratio_to_eta"],
                               [[i, r.eta, r.sup_diff, r.sup_grad_diff, r.ratio_to_eta]
                                for i, rows in studies.items() for r in rows])
    mean_ratio = float(np.mean([rows[0].sup_diff / rows[1].sup_diff
                                for rows in studies.values()]))
    lo, hi = cfg["ratio_lo"], cfg["ratio_hi"]
    return lo <= mean_ratio <= hi, {"mean_ratio": mean_ratio, "corridor": [lo, hi]}


def _energy_sample(i, setup, cfg):
    return solve_landscape(setup.hamiltonian(cfg["master_seed"], i), tol=setup.tol)


def _run_energy_check(cfg, tables):
    sols = _pool_map(_energy_sample, cfg["n_samples"], cfg["workers"],
                     _setup(cfg, bc="periodic"), cfg)
    report = energy_estimate_check(list(sols.values()))
    tables["energy.csv"] = (["lhs", "rhs", "margin_sigma", "passed"],
                            [[report.lhs, report.rhs, report.margin_sigma, report.passed]])
    return report.passed, asdict(report)


def _agmon_sample(i, setup, cfg):
    H = setup.hamiltonian(cfg["master_seed"], i)
    G = green_column(H, H.grid.center_node, tol=setup.tol)
    return [agmon_inequality_check(G, mu, cfg["weight_cap"], cfg["cutoff_inner"],
                                   cfg["cutoff_outer"]) for mu in cfg["mus"]]


def _run_agmon_check(cfg, tables):
    reports = _pool_map(_agmon_sample, cfg["n_samples"], cfg["workers"], _setup(cfg), cfg)
    rows = [[i, mu, rep.lhs, rep.rhs, rep.passed]
            for i, reps in reports.items() for mu, rep in zip(cfg["mus"], reps)]
    tables["agmon.csv"] = (["sample", "mu", "lhs", "rhs", "passed"], rows)
    return all(row[-1] for row in rows), {"n_checks": len(rows)}


def _rank_one_sample(i, setup, cfg):
    grid = setup.grid()
    z = (grid.L // 2 + cfg["z_offset"],) * grid.d
    x = tuple(c + cfg["x_offset"] * grid.m for c in grid.center_node)
    return rank_one_identity_check(setup.omega(cfg["master_seed"], i), z, grid,
                                   setup.bump, setup.lam, setup.eta, x)


def _run_rank_one(cfg, tables):
    reports = _pool_map(_rank_one_sample, cfg["n_samples"], cfg["workers"], _setup(cfg), cfg)
    rows = [[i, rep.lhs, rep.rhs, rep.relative_error] for i, rep in reports.items()]
    tables["rank_one.csv"] = (["sample", "lhs", "rhs", "relative_error"], rows)
    worst = max([0.0] + [row[-1] for row in rows])
    return worst <= cfg["max_rel_error"], {"max_relative_error": worst}


def _run_fpp_kesten(cfg, tables):
    rows = kesten_tail_experiment(law_from_dict(cfg["law"]), cfg["d"], cfg["L"],
                                  cfg["gamma"], cfg["radii"], cfg["c_probe"],
                                  cfg["n_samples"], cfg["master_seed"], k=cfg["k"],
                                  workers=cfg["workers"])
    tables["kesten.csv"] = (["radius", "frequency", "ci_low", "ci_high", "threshold"],
                            [[r.radius, r.frequency, r.ci_low, r.ci_high, r.threshold]
                             for r in rows])
    ok = all(rows[j + 1].ci_low <= rows[j].ci_high for j in range(len(rows) - 1))
    return ok, {"frequencies": [r.frequency for r in rows]}


def _cluster_sample(i, law, cfg):
    omega = sample_omega(law, (cfg["L"],) * cfg["d"], cfg["master_seed"], i)
    return cluster_analysis(coarse_grain(omega, cfg["k"], cfg["gamma"])
                            ).closed_component_diameters


def _run_cluster_tail(cfg, tables):
    diameters = _pool_map(_cluster_sample, cfg["n_samples"], cfg["workers"],
                          law_from_dict(cfg["law"]), cfg)
    diams = np.asarray([x for sample in diameters.values() for x in sample])
    ns = np.arange(cfg["diam_min"], cfg["diam_max"] + 1)
    tail = np.asarray([(diams >= n).mean() if diams.size else 0.0 for n in ns])
    rows = [[n, t, int((diams >= n).sum())] for n, t in zip(ns, tail)]
    tables["diameter_tail.csv"] = (["n", "tail_prob", "count"], rows)
    usable = tail > 0
    if usable.sum() >= 3:
        slope = np.polyfit(ns[usable], np.log(tail[usable]), 1)[0]
    else:
        slope = np.nan
    ok = bool(np.isfinite(slope) and slope < 0.0)
    return ok, {"slope": float(slope), "n_components": int(diams.size)}


def _run_anchor_1d(cfg, tables):
    rep = anchoring_experiment_1d(law_from_dict(cfg["law"]), cfg["L"], cfg["gamma"],
                                  cfg["n_samples"], cfg["master_seed"],
                                  workers=cfg["workers"])
    tables["anchor_moments.csv"] = (["p", "moment"], zip(rep.p_values, rep.moments))
    if rep.status == "INCONCLUSIVE":
        return "inconclusive", asdict(rep)
    return rep.status == "PASS", asdict(rep)


def _run_selftest(cfg, tables):
    """Quick structural checks with a direct-factorization cross-check."""
    checks = []
    law = law_from_dict({"kind": "bernoulli", "q": 0.5})
    setup = ExperimentSetup(d=1, L=8, m=20, law=law, lam=1.0, eta=0.1)
    omega = setup.omega(cfg["master_seed"], 0)
    H = setup.operator(omega)
    grid = H.grid
    rhs = ScalarField.constant(grid, 1.0)
    u_cg = cg_solve(H, rhs, tol=1e-11)
    u_lu = dense_solve_oracle(H, rhs)
    err = float(np.abs(u_cg.values - u_lu.values).max()
                / np.abs(u_lu.values).max())
    checks.append(["cg_vs_direct", err, err <= 1e-8])

    per = Grid(d=1, L=8, m=20, bc="periodic")
    Hp = HamiltonianSpec(grid=per, potential=ScalarField.constant(per, 0.0),
                         lam=0.0, eta=0.5)
    out_f = apply_hamiltonian(Hp, ScalarField.constant(per, 2.0))
    checks.append(["stencil_constants", float(np.abs(out_f.values - 1.0).max()),
                   bool(np.allclose(out_f.values, 1.0))])

    sol = solve_landscape(H, tol=1e-11)
    checks.append(["landscape_positive", float(sol.u.values.min()),
                   bool(sol.u.values.min() > 0)])

    G = green_column(H, grid.center_node, tol=1e-11)
    dom = massive_domination_check(G)
    checks.append(["massive_domination", dom.max_violation, dom.passed])

    rep_sum = float(all_cell_masses(G).sum())
    u_at = float(sol.u.values[grid.center_node])
    rerr = abs(rep_sum - u_at) / u_at
    checks.append(["green_representation", rerr, rerr <= 1e-7])

    omega2 = setup.omega(cfg["master_seed"], 0)
    checks.append(["determinism", 0.0,
                   bool(np.array_equal(omega.values, omega2.values))])

    tables["selftest.csv"] = (["check", "value", "passed"], checks)
    return all(c[2] for c in checks), {"n_checks": len(checks)}


_RUNNERS = {
    "solve-landscape": _run_solve_landscape,
    "green-decay": _run_green_decay,
    "lambda-scaling": _run_lambda_scaling,
    "covariance": _run_covariance,
    "vertical-derivative": _run_vertical_derivative,
    "eta-convergence": _run_eta_convergence,
    "energy-check": _run_energy_check,
    "agmon-check": _run_agmon_check,
    "rank-one-check": _run_rank_one,
    "fpp-kesten": _run_fpp_kesten,
    "cluster-tail": _run_cluster_tail,
    "anchor-1d": _run_anchor_1d,
    "selftest": _run_selftest,
}


def run(subcommand: str, config_path, output_dir=None, workers=None,
        seed=None) -> int:
    """Execute one experiment; returns the process exit code."""
    flags = {"master_seed": seed, "workers": workers,
             "output_dir": None if output_dir is None else str(output_dir)}
    t0, tables = time.time(), {}
    try:
        raw = json.loads(Path(config_path).read_text())
        if not isinstance(raw, dict):
            raise ConfigurationError("config must be a JSON object")
        raw.update((key, val) for key, val in flags.items() if val is not None)
        cfg = validate_config(subcommand, raw)
        if cfg["output_dir"] is None:
            raise ConfigurationError("output_dir missing (config key or --output)")
        result, details = _RUNNERS[subcommand](cfg, tables)
    except (ConfigurationError, LawValidationError, json.JSONDecodeError,
            FileNotFoundError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (SolverNonConvergenceError, SingularOperatorError, PositivityError,
            ExperimentError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except FitError as exc:
        print(f"statistical failure: {exc}", file=sys.stderr)
        result, details = False, {"reason": str(exc)}
    wall = time.time() - t0

    if result == "inconclusive":
        verdict, code = "INCONCLUSIVE", EXIT_INCONCLUSIVE
    elif result:
        verdict, code = "PASS", EXIT_OK
    else:
        verdict, code = "FAIL", EXIT_FAIL

    out = Path(cfg["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    for name, (header, rows) in tables.items():
        write_csv(out / name, header, rows)
    summary = f"{subcommand} {verdict}\n"
    (out / "summary.txt").write_text(summary)
    manifest = {
        "subcommand": subcommand,
        "config": {k: v for k, v in cfg.items() if k != "output_dir"},
        "code_version": __version__,
        "seeding": "sample i uses (master_seed, sample_index=i) site-keyed streams",
        "verdict": verdict,
        "details": details,
        "wall_clock_seconds": wall,
        "files": {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                  for name in [*tables, "summary.txt"]},
    }
    (out / "manifest.json").write_text(json.dumps(
        manifest, indent=2, sort_keys=True, default=lambda v: v.tolist()))  # numpy values
    print(summary.strip())
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="landscape-lab",
        description="Monte Carlo experiments on the random landscape function")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--workers", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--output", default=None)
    args = parser.parse_args(argv)
    return run(args.subcommand, args.config, output_dir=args.output,
               workers=args.workers, seed=args.seed)


if __name__ == "__main__":
    sys.exit(main())
