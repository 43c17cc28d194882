"""Reproducible experiment runner.

Every experiment is a subcommand taking a JSON config (fail-closed: unknown
keys are errors).  Each run writes, under output_dir: the data CSVs, a
manifest.json with the config echo and file checksums, and a one-line
summary.txt.  Exit codes: 0 ok/pass, 2 validation error, 3 solver failure,
4 statistical FAIL, 5 inconclusive.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .disorder import (assemble_potential, default_bump, law_from_dict,
                       sample_omega)
from .errors import (ConfigurationError, ExperimentError, FitError,
                     LandscapeLabError, LawValidationError, PositivityError,
                     SingularOperatorError, SolverNonConvergenceError)
from .green import (agmon_inequality_check, all_cell_masses, green_column,
                    massive_domination_check, rank_one_identity_check)
from .landscape import (derived_fields, energy_estimate_check,
                        eta_convergence_study, solve_landscape)
from .lattice import (Grid, HamiltonianSpec, ScalarField, apply_hamiltonian,
                      cg_solve, dense_solve_oracle)
from .percolation import (anchoring_experiment_1d, choose_k, cluster_analysis,
                          coarse_grain, kesten_tail_experiment)
from .stats import (ExperimentSetup, covariance_experiment,
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


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ------------------------------------------------------------------ schemas

_BASE_KEYS = {
    "experiment": str, "output_dir": str, "master_seed": int, "workers": int,
    "tol": float,
}

SCHEMAS = {
    "solve-landscape": {"d": int, "L": int, "m": int, "bc": str, "law": dict,
                        "lambda": float, "eta": float, "sample_index": int},
    "green-decay": {"d": int, "L": int, "m": int, "bc": str, "law": dict,
                    "lambda": float, "eta": float, "p": float,
                    "n_samples": int, "margin": int,
                    "r_min": float, "r_max": float},
    "lambda-scaling": {"d": int, "L": int, "m": int, "bc": str, "law": dict,
                       "lambdas": [float], "p": float, "n_samples": int,
                       "margin": int, "r_min": float, "r_max": float},
    "covariance": {"d": int, "L": int, "m": int, "bc": str, "law": dict,
                   "lambda": float, "eta": float, "observable": str,
                   "separations": [int], "n_samples": int, "margin": int},
    "vertical-derivative": {"d": int, "L": int, "m": int, "bc": str, "law": dict,
                            "lambda": float, "eta": float, "z_offsets": [int],
                            "n_samples": int, "r_min": float, "r_max": float},
    "eta-convergence": {"d": int, "L": int, "m": int, "bc": str, "law": dict,
                        "lambda": float, "etas": [float], "n_samples": int,
                        "ratio_lo": float, "ratio_hi": float},
    "energy-check": {"d": int, "L": int, "m": int, "law": dict, "lambda": float,
                     "eta": float, "n_samples": int},
    "agmon-check": {"d": int, "L": int, "m": int, "law": dict, "lambda": float,
                    "eta": float, "mus": [float], "weight_cap": float,
                    "cutoff_inner": float, "cutoff_outer": float,
                    "n_samples": int},
    "rank-one-check": {"d": int, "L": int, "m": int, "law": dict, "lambda": float,
                       "eta": float, "n_samples": int, "z_offset": int,
                       "x_offset": int, "max_rel_error": float},
    "fpp-kesten": {"d": int, "L": int, "law": dict, "gamma": float, "k": int,
                   "radii": [int], "c_probe": float, "n_samples": int},
    "cluster-tail": {"d": int, "L": int, "law": dict, "gamma": float, "k": int,
                     "n_samples": int, "diam_min": int, "diam_max": int},
    "anchor-1d": {"L": int, "law": dict, "gamma": float, "n_samples": int},
    "selftest": {},
}

_REQUIRED = {
    "solve-landscape": {"d", "L", "m", "law", "lambda", "eta"},
    "green-decay": {"d", "L", "m", "law", "lambda", "eta", "p", "n_samples"},
    "lambda-scaling": {"d", "L", "m", "law", "lambdas", "p", "n_samples"},
    "covariance": {"d", "L", "m", "law", "lambda", "eta", "observable",
                   "separations", "n_samples"},
    "vertical-derivative": {"d", "L", "m", "law", "lambda", "eta", "z_offsets",
                            "n_samples"},
    "eta-convergence": {"d", "L", "m", "law", "lambda", "etas", "n_samples"},
    "energy-check": {"d", "L", "m", "law", "lambda", "eta", "n_samples"},
    "agmon-check": {"d", "L", "m", "law", "lambda", "eta", "n_samples"},
    "rank-one-check": {"d", "L", "m", "law", "lambda", "eta", "n_samples"},
    "fpp-kesten": {"d", "L", "law", "radii", "c_probe", "n_samples"},
    "cluster-tail": {"d", "L", "law", "gamma", "n_samples"},
    "anchor-1d": {"L", "law", "n_samples"},
    "selftest": set(),
}


def _is_type(val, want) -> bool:
    """JSON type check; ints pass as floats, bools pass as neither."""
    if isinstance(val, bool):
        return False
    if isinstance(want, list):    # [elem_type]: a non-empty list of that type
        return (isinstance(val, list) and len(val) > 0
                and all(_is_type(v, want[0]) for v in val))
    return isinstance(val, (int, float) if want is float else want)


def validate_config(subcommand: str, cfg: dict) -> dict:
    if subcommand not in SCHEMAS:
        raise ConfigurationError(f"unknown subcommand {subcommand!r}")
    allowed = dict(_BASE_KEYS)
    allowed.update(SCHEMAS[subcommand])
    errors = []
    for key in cfg:
        if key not in allowed:
            errors.append(f"unknown key {key!r}")
    for key in _REQUIRED[subcommand]:
        if key not in cfg:
            errors.append(f"missing required key {key!r}")
    for key, val in cfg.items():
        want = allowed.get(key)
        if want is not None and not _is_type(val, want):
            name = (f"a non-empty list of {want[0].__name__}"
                    if isinstance(want, list) else want.__name__)
            errors.append(f"key {key!r} must be {name}")
    for key, low in (("n_samples", 1), ("margin", 0)):
        if isinstance(cfg.get(key), int) and cfg[key] < low:
            errors.append(f"{key} must be >= {low}")
    for key in ("tol", "p"):
        if isinstance(cfg.get(key), (int, float)) and cfg[key] <= 0:
            errors.append(f"{key} must be > 0")
    if errors:
        raise ConfigurationError("; ".join(errors))
    out = dict(cfg)
    out.setdefault("master_seed", 0)
    out.setdefault("workers", 1)
    out.setdefault("tol", 1e-9)
    return out


def _setup_from_cfg(cfg: dict, bc_default: str = "dirichlet") -> ExperimentSetup:
    """lambda and eta stay None for the subcommands that sweep them."""
    lam, eta = (float(cfg[key]) if key in cfg else None for key in ("lambda", "eta"))
    return ExperimentSetup(
        d=cfg["d"], L=cfg["L"], m=cfg["m"], law=law_from_dict(cfg["law"]),
        lam=lam, eta=eta,
        bc=cfg.get("bc", bc_default), tol=float(cfg["tol"]),
        margin=int(cfg.get("margin", 5)))


# ------------------------------------------------------------------ runners

def _run_solve_landscape(cfg, out):
    setup = _setup_from_cfg(cfg)
    H = setup.hamiltonian(cfg["master_seed"], cfg.get("sample_index", 0))
    sol = solve_landscape(H, tol=setup.tol)
    der = derived_fields(sol)
    grid = H.grid
    coords = grid.axis_coords
    rows = []
    for flat, val in enumerate(sol.u.values.ravel()):
        node = np.unravel_index(flat, grid.shape)
        rows.append([flat] + [coords[i] for i in node]
                    + [val, der["inv_u"].values[node]])
    write_csv(out / "u.csv",
              ["node"] + [f"x{i}" for i in range(grid.d)] + ["u", "inv_u"], rows)
    write_csv(out / "sup_cells.csv", ["cell", "sup_u"],
              [[i, v] for i, v in enumerate(sol.sup_per_cell.ravel())])
    return True, {"min_u": float(sol.u.values.min()),
                  "max_u": float(sol.u.values.max())}


def _run_green_decay(cfg, out):
    setup = _setup_from_cfg(cfg)
    curve = green_decay_experiment(setup, float(cfg["p"]), cfg["n_samples"],
                                   cfg["master_seed"], workers=cfg["workers"])
    write_csv(out / "curve.csv", ["distance", "value", "ci"],
              zip(curve.distances, curve.values, curve.ci))
    r_min = float(cfg.get("r_min", 5.0))
    r_max = float(cfg.get("r_max", 40.0))
    fit = fit_exponential_decay(curve, r_min, r_max)
    write_csv(out / "fit.csv",
              ["rate", "log_prefactor", "r_min", "r_max", "r_squared", "n_points"],
              [[fit.rate, fit.log_prefactor, fit.r_min, fit.r_max,
                fit.r_squared, fit.n_points]])
    passed = fit.rate > 0.0 and fit.r_squared >= 0.9
    return passed, {"fit": asdict(fit)}


def _run_lambda_scaling(cfg, out):
    setup = _setup_from_cfg(cfg)
    res = lambda_scaling_curve(setup, cfg["lambdas"], float(cfg["p"]),
                               cfg["n_samples"], cfg["master_seed"],
                               r_min=float(cfg.get("r_min", 5.0)),
                               r_max=float(cfg.get("r_max", 40.0)),
                               workers=cfg["workers"])
    rows = [[lam, f.rate, f.r_squared, res["ratios"][lam]]
            for lam, f in sorted(res["fits"].items())]
    write_csv(out / "fits.csv", ["lambda", "rate", "r_squared", "ratio"], rows)
    for lam, curve in sorted(res["curves"].items()):
        write_csv(out / f"curve_lambda_{lam:g}.csv", ["distance", "value", "ci"],
                  zip(curve.distances, curve.values, curve.ci))
    passed = all(f.rate > 0.0 for f in res["fits"].values())
    return passed, {"rates": {str(k): v.rate for k, v in res["fits"].items()}}


def _run_covariance(cfg, out):
    setup = _setup_from_cfg(cfg)
    pts = covariance_experiment(setup, cfg["observable"], cfg["separations"],
                                cfg["n_samples"], cfg["master_seed"],
                                workers=cfg["workers"])
    write_csv(out / "covariance.csv", ["separation", "cov", "ci", "observable"],
              [[p.separation, p.cov, p.ci, p.observable] for p in pts])
    near, far = pts[0], pts[-1]
    passed = (abs(far.cov) <= 0.1 * abs(near.cov)) or (abs(far.cov) <= 1.5 * far.ci)
    return passed, {"near": abs(near.cov), "far": abs(far.cov), "far_ci": far.ci}


def _run_vertical_derivative(cfg, out):
    setup = _setup_from_cfg(cfg)
    curve = vertical_derivative_decay(setup, cfg["z_offsets"], cfg["n_samples"],
                                      cfg["master_seed"], workers=cfg["workers"])
    write_csv(out / "curve.csv", ["distance", "value", "ci"],
              zip(curve.distances, curve.values, curve.ci))
    fit = fit_exponential_decay(curve, float(cfg.get("r_min", 1.0)),
                                float(cfg.get("r_max", curve.distances.max())))
    write_csv(out / "fit.csv",
              ["rate", "log_prefactor", "r_min", "r_max", "r_squared", "n_points"],
              [[fit.rate, fit.log_prefactor, fit.r_min, fit.r_max,
                fit.r_squared, fit.n_points]])
    return fit.rate > 0.0, {"fit": asdict(fit)}


def _run_eta_convergence(cfg, out):
    setup = _setup_from_cfg(cfg)
    grid = setup.grid()
    bump = setup.bump
    rows_all = []
    ratios = []
    for i in range(cfg["n_samples"]):
        omega = sample_omega(setup.law, (setup.L,) * setup.d,
                             cfg["master_seed"], i)
        rows = eta_convergence_study(omega, bump, grid, setup.lam,
                                     cfg["etas"], tol=min(setup.tol, 1e-10))
        for r in rows:
            rows_all.append([i, r.eta, r.sup_diff, r.sup_grad_diff, r.ratio_to_eta])
        ratios.append(rows[0].sup_diff / rows[1].sup_diff)
    write_csv(out / "eta_table.csv",
              ["sample", "eta", "sup_diff", "sup_grad_diff", "ratio_to_eta"],
              rows_all)
    mean_ratio = float(np.mean(ratios))
    lo = float(cfg.get("ratio_lo", 5.0))
    hi = float(cfg.get("ratio_hi", 20.0))
    return lo <= mean_ratio <= hi, {"mean_ratio": mean_ratio, "corridor": [lo, hi]}


def _run_energy_check(cfg, out):
    setup = _setup_from_cfg(cfg, bc_default="periodic")
    setup = replace(setup, bc="periodic")
    sols = [solve_landscape(setup.hamiltonian(cfg["master_seed"], i), tol=setup.tol)
            for i in range(cfg["n_samples"])]
    report = energy_estimate_check(sols)
    write_csv(out / "energy.csv", ["lhs", "rhs", "margin_sigma", "passed"],
              [[report.lhs, report.rhs, report.margin_sigma, report.passed]])
    return report.passed, asdict(report)


def _run_agmon_check(cfg, out):
    setup = _setup_from_cfg(cfg)
    mus = [float(v) for v in cfg.get("mus", [0.0, 0.1 * np.sqrt(float(cfg["lambda"]))])]
    cap = float(cfg.get("weight_cap", setup.L / 4.0))
    a = float(cfg.get("cutoff_inner", 1.0))
    b = float(cfg.get("cutoff_outer", setup.L / 2.0 - 1.0))
    rows, ok = [], True
    for i in range(cfg["n_samples"]):
        H = setup.hamiltonian(cfg["master_seed"], i)
        G = green_column(H, H.grid.center_node, tol=setup.tol)
        for mu in mus:
            rep = agmon_inequality_check(G, mu, cap, a, b)
            rows.append([i, mu, rep.lhs, rep.rhs, rep.passed])
            ok = ok and rep.passed
    write_csv(out / "agmon.csv", ["sample", "mu", "lhs", "rhs", "passed"], rows)
    return ok, {"n_checks": len(rows)}


def _run_rank_one(cfg, out):
    setup = _setup_from_cfg(cfg)
    grid = setup.grid()
    bump = setup.bump
    z_off = int(cfg.get("z_offset", 2))
    x_off = int(cfg.get("x_offset", -3))
    max_err = float(cfg.get("max_rel_error", 1e-6))
    zc = grid.L // 2
    z = (zc + z_off,) * grid.d
    x = tuple(c + x_off * grid.m for c in grid.center_node)
    if not 0 <= z[0] < grid.L:
        raise ConfigurationError(f"z_offset {z_off} puts the site outside the box")
    if not 0 <= x[0] < grid.n_per_side:
        raise ConfigurationError(f"x_offset {x_off} puts the point outside the box")
    rows, worst = [], 0.0
    for i in range(cfg["n_samples"]):
        omega = sample_omega(setup.law, (setup.L,) * setup.d, cfg["master_seed"], i)
        rep = rank_one_identity_check(omega, z, grid, bump, setup.lam, setup.eta, x)
        rows.append([i, rep.lhs, rep.rhs, rep.relative_error])
        worst = max(worst, rep.relative_error)
    write_csv(out / "rank_one.csv", ["sample", "lhs", "rhs", "relative_error"], rows)
    return worst <= max_err, {"max_relative_error": worst}


def _run_fpp_kesten(cfg, out):
    law = law_from_dict(cfg["law"])
    gamma = float(cfg.get("gamma", law.upper_quantile()))
    rows = kesten_tail_experiment(law, cfg["d"], cfg["L"], gamma,
                                  cfg["radii"], float(cfg["c_probe"]),
                                  cfg["n_samples"], cfg["master_seed"],
                                  k=cfg.get("k"))
    write_csv(out / "kesten.csv",
              ["radius", "frequency", "ci_low", "ci_high", "threshold"],
              [[r.radius, r.frequency, r.ci_low, r.ci_high, r.threshold]
               for r in rows])
    ok = all(rows[j + 1].ci_low <= rows[j].ci_high for j in range(len(rows) - 1))
    return ok, {"frequencies": [r.frequency for r in rows]}


def _run_cluster_tail(cfg, out):
    law = law_from_dict(cfg["law"])
    gamma = float(cfg["gamma"])
    k = cfg.get("k") or choose_k(law, gamma, cfg["d"])
    n_min = int(cfg.get("diam_min", 2))
    n_max = int(cfg.get("diam_max", 10))
    diams = []
    for i in range(cfg["n_samples"]):
        omega = sample_omega(law, (cfg["L"],) * cfg["d"], cfg["master_seed"], i)
        rep = cluster_analysis(coarse_grain(omega, k, gamma))
        diams.extend(rep.closed_component_diameters)
    diams = np.asarray(diams)
    ns = np.arange(n_min, n_max + 1)
    tail = np.asarray([(diams >= n).mean() if diams.size else 0.0 for n in ns])
    write_csv(out / "diameter_tail.csv", ["n", "tail_prob", "count"],
              [[n, t, int((diams >= n).sum())] for n, t in zip(ns, tail)])
    usable = tail > 0
    if usable.sum() >= 3:
        slope = np.polyfit(ns[usable], np.log(tail[usable]), 1)[0]
    else:
        slope = np.nan
    ok = bool(np.isfinite(slope) and slope < 0.0)
    return ok, {"slope": float(slope), "n_components": int(diams.size)}


def _run_anchor_1d(cfg, out):
    law = law_from_dict(cfg["law"])
    gamma = float(cfg.get("gamma", law.upper_quantile()))
    rep = anchoring_experiment_1d(law, cfg["L"], gamma, cfg["n_samples"],
                                  cfg["master_seed"])
    write_csv(out / "anchor_moments.csv", ["p", "moment"],
              list(zip(rep.p_values, rep.moments)))
    if rep.status == "INCONCLUSIVE":
        return "inconclusive", asdict(rep)
    return rep.status == "PASS", asdict(rep)


def _run_selftest(cfg, out):
    """Quick structural checks with a direct-factorization cross-check."""
    checks = []
    law = law_from_dict({"kind": "bernoulli", "q": 0.5})
    grid = Grid(d=1, L=8, m=20, bc="dirichlet")
    omega = sample_omega(law, (8,), cfg["master_seed"], 0)
    V = assemble_potential(omega, default_bump(), grid)
    H = HamiltonianSpec(grid=grid, potential=V, lam=1.0, eta=0.1)
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

    omega2 = sample_omega(law, (8,), cfg["master_seed"], 0)
    checks.append(["determinism", 0.0,
                   bool(np.array_equal(omega.values, omega2.values))])

    write_csv(out / "selftest.csv", ["check", "value", "passed"], checks)
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
    try:
        raw = json.loads(Path(config_path).read_text())
        if not isinstance(raw, dict):
            raise ConfigurationError("config must be a JSON object")
        cfg = validate_config(subcommand, raw)
        if workers is not None:
            cfg["workers"] = int(workers)
        if seed is not None:
            cfg["master_seed"] = int(seed)
        if output_dir is not None:
            cfg["output_dir"] = str(output_dir)
        if "output_dir" not in cfg:
            raise ConfigurationError("output_dir missing (config key or --output)")
    except (ConfigurationError, LawValidationError, json.JSONDecodeError,
            FileNotFoundError, KeyError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    out = Path(cfg["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.time()
    try:
        result, details = _RUNNERS[subcommand](cfg, out)
    except (ConfigurationError, LawValidationError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (SolverNonConvergenceError, SingularOperatorError, PositivityError,
            ExperimentError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except FitError as exc:
        print(f"statistical failure: {exc}", file=sys.stderr)
        return EXIT_FAIL
    wall = time.time() - t0

    if result == "inconclusive":
        verdict, code = "INCONCLUSIVE", EXIT_INCONCLUSIVE
    elif result:
        verdict, code = "PASS", EXIT_OK
    else:
        verdict, code = "FAIL", EXIT_FAIL

    summary = f"{subcommand} {verdict}\n"
    (out / "summary.txt").write_text(summary)
    files = sorted(p.name for p in out.glob("*.csv")) + ["summary.txt"]
    manifest = {
        "subcommand": subcommand,
        "config": {k: v for k, v in cfg.items() if k != "output_dir"},
        "code_version": __version__,
        "seeding": "sample i uses (master_seed, sample_index=i) site-keyed streams",
        "verdict": verdict,
        "details": _jsonable(details),
        "wall_clock_seconds": wall,
        "files": {name: _sha256(out / name) for name in files},
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    print(summary.strip())
    return code


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


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
