"""Reproducible experiment runner.

Every experiment is a subcommand taking a JSON config.  ``TABLES`` gives,
per subcommand, its runner and each key's type, its default (or that it is
required) and its range rule.  Validation rejects unknown keys, wrong types,
numbers past the float range and values out of range, also when the
--seed/--workers/--output flags set them, and fills in every default, so
runners read ``cfg[key]`` only.  Verdict thresholds are constants in the
runners.  ``tol`` is a key only of the seven tables whose solves run at it:
fpp-kesten, cluster-tail and anchor-1d never solve, and eta-convergence,
rank-one-check and selftest solve at fixed tolerances (the library's
defaults, selftest's own).  Samples run through ``samples._pool_map``: any
worker count gives the same bytes, and a failed solve skips its sample
(more than 5 % skipped exits 3).  Modules every run loads are imported here;
each runner imports from the others (lattice, green, landscape, stats,
percolation) the functions it drives, so a percolation run loads no solver
module and a solver run no ``percolation``.  The checksums use the
interpreter's builtin SHA-256, not ``hashlib``, whose import maps OpenSSL's
libcrypto into the process; no run loads it or ``numpy.random``.
A runner fills ``tables`` (file name -> (header, rows)); once it returns,
``run`` alone writes output_dir: the tables, a one-line summary.txt, and a
manifest.json (strict JSON: non-finite values are null) with the effective
config (fed back as a config, it reproduces the run), the environment (the
python and numpy versions, the core count, and the git commit read from the
checkout's .git, null outside one) and the checksums of exactly those
files.  A failed decay fit is a FAIL with its reason in the
manifest.  Exit codes: 0 ok/pass, 2 validation error (a ConfigurationError,
also from the library), 3 solver failure, 4 statistical FAIL, 5
inconclusive; 2 and 3 write nothing, except that an OSError while writing
output_dir also exits 2 (with a one-line "output error" message) and may
leave the files written before it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import DEFAULT_TOL, MAX_NODES, __version__, asdict
from .disorder import DisorderLaw, UndrawnOmega, bernoulli, discrete_atoms, uniform01
from .errors import (ConfigurationError, ExperimentError, FitError, LawValidationError,
                     SolverFailure)
from .samples import _pool_map

# The builtin modules hashlib itself falls back to (+0.0 MB resident, against
# +3.5 MB for hashlib's libcrypto); hashlib only where the build has neither.
try:
    from _sha2 import sha256            # CPython >= 3.12
except ImportError:
    try:
        from _sha256 import sha256      # CPython 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

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


def _no_file_on(path, cfg):
    """No file stands where the output directory or one of its parents goes."""
    return path is None or next(p for p in (Path(path), *Path(path).parents)
                                if p.exists()).is_dir()


# Defaults that only solver or only percolation tables take, read from their
# owners when validation fills them in
def _default_bc(cfg):
    from .lattice import Grid
    return Grid.bc


def _default_margin(cfg):
    from .stats import ExperimentSetup
    return ExperimentSetup.margin


def _default_k(cfg):
    from .percolation import choose_k
    return choose_k(law_from_dict(cfg["law"]), cfg["gamma"], cfg["d"])


_POSITIVE = ("> 0", lambda v, cfg: v > 0)
_WORD = ("in [0, 2**64)", lambda v, cfg: 0 <= v < 2 ** 64)   # a word of the site hash
_UPPER_QUANTILE = Key(float, lambda cfg: law_from_dict(cfg["law"]).upper_quantile())
_BASE = {"master_seed": Key(int, 0, _WORD), "workers": Key(int, 1, _at_least(1)),
         "output_dir": Key(str, None, ("a directory, not a file or under one",
                                       _no_file_on))}
_OPERATOR = {"d": Key(int), "L": Key(int), "m": Key(int),
             "bc": Key(str, _default_bc), "law": Key(dict),
             "lambda": Key(float, rule=_at_least(0)),
             "eta": Key(float, rule=_at_least(0)),
             "tol": Key(float, DEFAULT_TOL, _POSITIVE)}
_N_SAMPLES = Key(int, rule=_at_least(1))
_P = Key(float, rule=_POSITIVE)
_MARGIN = Key(int, _default_margin, ("in [0, L/2)", lambda v, cfg: 0 <= v < cfg["L"] / 2))
_K = Key(int, _default_k, _at_least(1))
# each lambda names its curve file by its :g form: two that print alike would share one
_DISTINCT_LAMBDAS = ("positive and distinct under :g", lambda v, cfg: v > 0 and [
    f"{x:g}" for x in cfg["lambdas"]].count(f"{v:g}") == 1)
_ABOVE_R_MIN = ("> r_min", lambda v, cfg: v > cfg["r_min"])
_FIT_WINDOW = {"r_min": Key(float, 5.0), "r_max": Key(float, 40.0, _ABOVE_R_MIN)}
# the percolation site box; the 1-d anchoring box has no d, and L**d is not
# evaluated when d is out of range
_LATTICE = {"d": Key(int, rule=("in {1, 2, 3}", lambda v, cfg: v in (1, 2, 3))),
            "L": Key(int, rule=(f"such that L**d <= {MAX_NODES}",
                                lambda v, cfg: cfg.get("d", 1) not in (1, 2, 3)
                                or v ** cfg.get("d", 1) <= MAX_NODES))}


def _operator(*without):
    return {key: spec for key, spec in _OPERATOR.items() if key not in without}


def _type_name(want) -> str:
    name = f"a non-empty list of {want[0].__name__}" if isinstance(want, list) else want.__name__
    return (name.replace("float", "finite float")
            .replace("int", "int in the float range"))


def _typed(val, want):
    """val as a `want`, or None if it is not one.

    JSON ints pass as floats (and become floats), bools pass as nothing, a
    number, int or float, must lie within the float range (JSON's NaN and
    Infinity fail, so do ints past it), and [t] takes a non-empty list of t.
    """
    if isinstance(want, list):
        items = [_typed(v, want[0]) for v in val] if isinstance(val, list) else []
        return items if items and None not in items else None
    if isinstance(val, bool) or not isinstance(val, (int, float) if want is float else want):
        return None
    if want in (int, float) and not abs(val) <= sys.float_info.max:
        return None
    return float(val) if want is float else val


def _checked(table: dict, cfg: dict, what: str, error) -> dict:
    """cfg checked against table, defaults filled in; each message names a
    `what` ("key", "law field"), and all of them are raised as one error."""
    errors = [f"unknown {what} {key!r}" for key in cfg if key not in table]
    out = {}
    for key, spec in table.items():
        if key in cfg:
            out[key] = _typed(cfg[key], spec.type)
            if out[key] is None:
                errors.append(f"{what} {key!r} must be {_type_name(spec.type)}")
        elif spec.default is REQUIRED:
            errors.append(f"missing required {what} {key!r}")
    if errors:
        raise error("; ".join(errors))
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
        raise error("; ".join(errors))
    return out


def validate_config(subcommand: str, cfg: dict) -> dict:
    """The effective config: cfg checked against its table, defaults filled in."""
    if subcommand not in TABLES:
        raise ConfigurationError(f"unknown subcommand {subcommand!r}")
    return _checked(TABLES[subcommand][1], cfg, "key", ConfigurationError)


# per law kind: its factory and the table of the keyword fields it takes
_LAWS = {"bernoulli": (bernoulli, {"q": Key(float)}), "uniform01": (uniform01, {}),
         "discrete_atoms": (discrete_atoms, {"values": Key([float]), "probs": Key([float])})}


def law_from_dict(d: dict) -> DisorderLaw:
    """A law from its config mapping, e.g. {'kind': 'bernoulli', 'q': 0.5};
    the fields besides kind are checked against the kind's table like config
    keys (LawValidationError)."""
    kind = d.get("kind")
    if not isinstance(kind, str) or kind not in _LAWS:
        raise LawValidationError(f"unknown law kind {kind!r}")
    factory, table = _LAWS[kind]
    fields = {key: val for key, val in d.items() if key != "kind"}
    return factory(**_checked(table, fields, "law field", LawValidationError))


def _setup(cfg: dict, **fixed):
    """The run's ExperimentSetup; fixed sets the fields the table lacks:
    lam/eta where swept, periodic bc."""
    from .stats import ExperimentSetup

    keys = ("d", "L", "m", "bc", "lambda", "eta", "tol", "margin")
    fields = {"lam" if key == "lambda" else key: cfg[key] for key in keys if key in cfg}
    return ExperimentSetup(law=law_from_dict(cfg["law"]), **fields, **fixed)


# ------------------------------------------------------------------ runners

def _run_solve_landscape(cfg, tables):
    from .landscape import derived_fields, solve_landscape
    from .lattice import cell_reduce

    setup = _setup(cfg)
    H = setup.hamiltonian(cfg["master_seed"], cfg["sample_index"])
    sol = solve_landscape(H, tol=setup.tol)
    der = derived_fields(sol)
    grid = H.grid
    xs = grid.axis_coords[np.indices(grid.shape).reshape(grid.d, -1)]   # per node, C order
    tables["u.csv"] = (["node"] + [f"x{i}" for i in range(grid.d)] + ["u", "inv_u"],
                       zip(range(grid.n_nodes), *xs, sol.u.values.ravel(),
                           der["inv_u"].values.ravel()))
    sup = cell_reduce(sol.u.values, grid, np.maximum)     # per unit cell
    tables["sup_cells.csv"] = (["cell", "sup_u"],
                               [[i, v] for i, v in enumerate(sup.ravel())])
    return True, {"min_u": float(sol.u.values.min()),
                  "max_u": float(sol.u.values.max())}


def _curve_table(curve):
    return ["distance", "value", "ci"], zip(curve.distances, curve.values, curve.ci)


def _fit(curve, cfg, tables):
    """The decay fit of curve; curve.csv is filled before the fit can fail."""
    from .stats import fit_exponential_decay

    tables["curve.csv"] = _curve_table(curve)
    fit = fit_exponential_decay(curve, cfg["r_min"], cfg["r_max"])
    tables["fit.csv"] = (["rate", "log_prefactor", "r_min", "r_max", "r_squared", "n_points"],
                         [[fit.rate, fit.log_prefactor, fit.r_min, fit.r_max,
                           fit.r_squared, fit.n_points]])
    return fit


def _run_green_decay(cfg, tables):
    from .stats import green_decay_experiment

    curve = green_decay_experiment(_setup(cfg), cfg["p"], cfg["n_samples"],
                                   cfg["master_seed"], workers=cfg["workers"])
    fit = _fit(curve, cfg, tables)
    passed = fit.rate > 0.0 and fit.r_squared >= 0.9
    return passed, {"fit": asdict(fit)}


def _run_lambda_scaling(cfg, tables):
    from .stats import lambda_scaling_curve

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
    from .stats import covariance_suite

    pts = covariance_suite(_setup(cfg), [cfg["observable"]], cfg["separations"],
                           cfg["n_samples"], cfg["master_seed"],
                           workers=cfg["workers"])[cfg["observable"]]
    tables["covariance.csv"] = (["separation", "cov", "ci", "observable"],
                                [[p.separation, p.cov, p.ci, p.observable] for p in pts])
    near, far = pts[0], pts[-1]
    passed = (abs(far.cov) <= 0.1 * abs(near.cov)) or (abs(far.cov) <= 1.5 * far.ci)
    return passed, {"near": abs(near.cov), "far": abs(far.cov), "far_ci": far.ci}


def _run_vertical_derivative(cfg, tables):
    from .stats import vertical_derivative_decay

    curve = vertical_derivative_decay(_setup(cfg), cfg["z_offsets"], cfg["n_samples"],
                                      cfg["master_seed"], workers=cfg["workers"])
    fit = _fit(curve, cfg, tables)
    return fit.rate > 0.0, {"fit": asdict(fit)}


def _eta_sample(i, setup, cfg):
    from .landscape import eta_convergence_study

    return eta_convergence_study(setup.omega(cfg["master_seed"], i), setup.grid(),
                                 setup.lam, cfg["etas"])


def _run_eta_convergence(cfg, tables):
    studies = _pool_map(_eta_sample, cfg["n_samples"], cfg["workers"],
                        _setup(cfg, eta=None), cfg)
    tables["eta_table.csv"] = (["sample", "eta", "sup_diff", "sup_grad_diff", "ratio_to_eta"],
                               [[i, r.eta, r.sup_diff, r.sup_grad_diff, r.ratio_to_eta]
                                for i, rows in studies.items() for r in rows])
    diffs = np.array([[rows[0].sup_diff, rows[1].sup_diff] for rows in studies.values()])
    with np.errstate(divide="ignore", invalid="ignore"):   # etas too close: 0 / 0, a FAIL
        mean_ratio = float(np.mean(diffs[:, 0] / diffs[:, 1]))
    lo, hi = 5.0, 20.0   # etas a decade apart: sup_diff linear in eta gives about 10
    return lo <= mean_ratio <= hi, {"mean_ratio": mean_ratio, "corridor": [lo, hi]}


def _energy_sample(i, setup, cfg):
    """The sample's two cell averages; the solution stays in the worker."""
    from .landscape import energy_terms, solve_landscape

    return energy_terms(solve_landscape(setup.hamiltonian(cfg["master_seed"], i),
                                        tol=setup.tol))


def _run_energy_check(cfg, tables):
    from .landscape import energy_report

    terms = _pool_map(_energy_sample, cfg["n_samples"], cfg["workers"],
                      _setup(cfg, bc="periodic"), cfg)
    report = energy_report(list(terms.values()))
    tables["energy.csv"] = (["lhs", "rhs", "margin_sigma", "passed"],
                            [[report.lhs, report.rhs, report.margin_sigma, report.passed]])
    return report.passed, asdict(report)


def _agmon_sample(i, setup, cfg):
    """(mu, report) for mu = 0 and 0.1 sqrt(lambda)."""
    from .green import agmon_inequality_check, green_column

    H = setup.hamiltonian(cfg["master_seed"], i)
    G = green_column(H, H.grid.center_node, tol=setup.tol)
    return [(mu, agmon_inequality_check(G, mu))
            for mu in (0.0, 0.1 * float(np.sqrt(setup.lam)))]


def _run_agmon_check(cfg, tables):
    reports = _pool_map(_agmon_sample, cfg["n_samples"], cfg["workers"], _setup(cfg), cfg)
    rows = [[i, mu, rep.lhs, rep.rhs, rep.passed]
            for i, pairs in reports.items() for mu, rep in pairs]
    tables["agmon.csv"] = (["sample", "mu", "lhs", "rhs", "passed"], rows)
    return all(row[-1] for row in rows), {"n_checks": len(rows)}


def _rank_one_sample(i, setup, cfg):
    from .green import rank_one_identity_check

    grid = setup.grid()
    z = tuple(c + cfg["z_offset"] for c in grid.center_cell)
    x = tuple(c + cfg["x_offset"] * grid.m for c in grid.center_node)
    return rank_one_identity_check(setup.omega(cfg["master_seed"], i), z, grid,
                                   setup.lam, setup.eta, x)


def _run_rank_one(cfg, tables):
    reports = _pool_map(_rank_one_sample, cfg["n_samples"], cfg["workers"], _setup(cfg), cfg)
    rows = [[i, rep.lhs, rep.rhs, rep.relative_error] for i, rep in reports.items()]
    tables["rank_one.csv"] = (["sample", "lhs", "rhs", "relative_error"], rows)
    worst = max([0.0] + [row[-1] for row in rows])
    return worst <= 1e-6, {"max_relative_error": worst}


def _run_fpp_kesten(cfg, tables):
    from .percolation import kesten_tail_experiment

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
    from .percolation import cluster_analysis, coarse_grain

    omega = UndrawnOmega((cfg["L"],) * cfg["d"], law, cfg["master_seed"], i)
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
    slope = _log_tail_slope(ns, tail)
    ok = bool(np.isfinite(slope) and slope < 0.0)
    return ok, {"slope": slope, "n_components": int(diams.size)}


def _log_tail_slope(ns, tail) -> float:
    """Least-squares slope of log(tail) on n over the positive tail values, in
    closed form (np.polyfit's LAPACK call maps 1.3 MB of OpenBLAS); NaN with
    fewer than 3 of them."""
    usable = tail > 0
    if usable.sum() < 3:
        return np.nan
    x, y = ns[usable], np.log(tail[usable])
    dx = x - x.mean()
    return float(np.sum(dx * (y - y.mean())) / np.sum(dx * dx))


def _run_anchor_1d(cfg, tables):
    from .percolation import anchoring_experiment_1d

    rep = anchoring_experiment_1d(law_from_dict(cfg["law"]), cfg["L"], cfg["gamma"],
                                  cfg["n_samples"], cfg["master_seed"],
                                  workers=cfg["workers"])
    tables["anchor_moments.csv"] = (["p", "moment"], zip(rep.p_values, rep.moments))
    if rep.status == "INCONCLUSIVE":
        return "inconclusive", asdict(rep)
    return rep.status == "PASS", asdict(rep)


def _run_selftest(cfg, tables):
    """Quick structural checks with a direct-factorization cross-check."""
    from .green import all_cell_masses, green_column, massive_domination_check
    from .landscape import solve_landscape
    from .lattice import Grid, HamiltonianSpec, ScalarField, apply_hamiltonian, cg_solve
    from .stats import ExperimentSetup

    checks = []
    setup = ExperimentSetup(d=1, L=8, m=20, law=bernoulli(0.5), lam=1.0, eta=0.1)
    omega = setup.omega(cfg["master_seed"], 0)
    H = setup.operator(omega)
    grid = H.grid
    rhs = ScalarField.constant(grid, 1.0)
    u_cg = cg_solve(H, rhs, tol=1e-11)
    # the dense tridiagonal matrix, assembled apart from the stencil code
    n, m2 = grid.n_per_side, float(grid.m ** 2)
    A = np.diag(2.0 * m2 + H.lam * H.potential.values + H.eta)
    A -= m2 * (np.eye(n, k=1) + np.eye(n, k=-1))
    u_lu = np.linalg.solve(A, rhs.values)
    err = float(np.abs(u_cg.values - u_lu).max() / np.abs(u_lu).max())
    checks.append(["cg_vs_direct", err, err <= 1e-8])

    per = Grid(d=1, L=8, m=20, bc="periodic")
    Hp = HamiltonianSpec(grid=per, potential=ScalarField.constant(per, 0.0),
                         lam=0.0, eta=0.5)
    out = apply_hamiltonian(Hp, np.full(per.shape, 2.0))
    checks.append(["stencil_constants", float(np.abs(out - 1.0).max()),
                   bool(np.allclose(out, 1.0))])

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


# ------------------------------------------------------------------ subcommands

TABLES = {name: (runner, {**_BASE, **keys}) for name, (runner, keys) in {
    "solve-landscape": (_run_solve_landscape,
                        {**_OPERATOR, "sample_index": Key(int, 0, _WORD)}),
    "green-decay": (_run_green_decay, {**_OPERATOR, "p": _P, "n_samples": _N_SAMPLES,
                                       "margin": _MARGIN, **_FIT_WINDOW}),
    "lambda-scaling": (_run_lambda_scaling, {
        **_operator("lambda", "eta"), "lambdas": Key([float], rule=_DISTINCT_LAMBDAS), "p": _P,
        "n_samples": _N_SAMPLES, "margin": _MARGIN, **_FIT_WINDOW}),
    "covariance": (_run_covariance, {**_OPERATOR, "observable": Key(str),
                                     "separations": Key([int]), "n_samples": _N_SAMPLES,
                                     "margin": _MARGIN}),
    "vertical-derivative": (_run_vertical_derivative, {
        **_OPERATOR, "z_offsets": Key([int]), "n_samples": _N_SAMPLES,
        "r_min": Key(float, 1.0),
        "r_max": Key(float, lambda cfg: float(max(abs(z) for z in cfg["z_offsets"])),
                     _ABOVE_R_MIN)}),
    "eta-convergence": (_run_eta_convergence, {
        **_operator("eta", "tol"), "n_samples": _N_SAMPLES,
        "etas": Key([float], rule=_at_least(0))}),
    "energy-check": (_run_energy_check, {**_operator("bc"), "n_samples": _N_SAMPLES}),
    "agmon-check": (_run_agmon_check, {**_operator("bc"), "n_samples": _N_SAMPLES}),
    "rank-one-check": (_run_rank_one, {
        **_operator("bc", "tol"), "n_samples": _N_SAMPLES,
        "z_offset": Key(int, 2), "x_offset": Key(int, -3)}),
    "fpp-kesten": (_run_fpp_kesten, {**_LATTICE, "law": Key(dict),
                                     "gamma": _UPPER_QUANTILE, "k": _K, "radii": Key([int]),
                                     "c_probe": Key(float), "n_samples": _N_SAMPLES}),
    "cluster-tail": (_run_cluster_tail, {
        **_LATTICE, "law": Key(dict), "gamma": Key(float), "k": _K, "n_samples": _N_SAMPLES,
        # a closed component's coarse diameter is below nc <= L
        "diam_min": Key(int, 2, _at_least(0)),
        "diam_max": Key(int, lambda cfg: min(10, cfg["L"]), (
            "in [diam_min, L]", lambda v, cfg: cfg["diam_min"] <= v <= cfg["L"]))}),
    "anchor-1d": (_run_anchor_1d, {"L": _LATTICE["L"], "law": Key(dict),
                                   "gamma": _UPPER_QUANTILE, "n_samples": _N_SAMPLES}),
    "selftest": (_run_selftest, {}),
}.items()}


def _git_commit(checkout: Path):
    """The commit checked out at checkout, read from its .git directory without
    spawning git: HEAD, or the loose or packed ref HEAD names.  None where
    there is no .git directory or it names no commit."""
    git = checkout / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head or None                 # a detached HEAD holds the commit
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        packed = (git / "packed-refs").read_text().splitlines()
    except (OSError, UnicodeDecodeError):
        return None
    return next((sha for sha, _, name in (line.partition(" ") for line in packed)
                 if name == ref), None)


def run(subcommand: str, config_path, output_dir=None, workers=None,
        seed=None) -> int:
    """Execute one experiment; returns the process exit code."""
    flags = {"master_seed": seed, "workers": workers,
             "output_dir": None if output_dir is None else str(output_dir)}
    t0, tables = time.time(), {}
    try:
        try:    # missing, a directory, not UTF-8 or not JSON
            raw = json.loads(Path(config_path).read_text())
        except (OSError, ValueError) as exc:
            raise ConfigurationError(f"config {config_path}: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigurationError("config must be a JSON object")
        raw.update((key, val) for key, val in flags.items() if val is not None)
        cfg = validate_config(subcommand, raw)
        if cfg["output_dir"] is None:
            raise ConfigurationError("output_dir missing (config key or --output)")
        result, details = TABLES[subcommand][0](cfg, tables)
    except ConfigurationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (SolverFailure, ExperimentError) as exc:
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

    out, summary = Path(cfg["output_dir"]), f"{subcommand} {verdict}\n"
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, (header, rows) in tables.items():
            write_csv(out / name, header, rows)
        (out / "summary.txt").write_text(summary)
        manifest = {
            "subcommand": subcommand,
            "config": {k: v for k, v in cfg.items() if k != "output_dir"},
            "code_version": __version__,
            "seeding": "sample i uses (master_seed, sample_index=i) site-keyed streams",
            "verdict": verdict,
            "details": details,
            "wall_clock_seconds": wall,
            "environment": {"python": platform.python_version(), "numpy": np.__version__,
                            "cpu_count": os.cpu_count(),
                            # the checkout holds src/landscape_lab/cli.py
                            "git_commit": _git_commit(Path(__file__).resolve().parents[2])},
            "files": {name: sha256((out / name).read_bytes()).hexdigest()
                      for name in [*tables, "summary.txt"]},
        }
        # numpy values become lists, and non-finite floats null
        plain = json.loads(json.dumps(manifest, default=lambda v: v.tolist()),
                           parse_constant=lambda name: None)
        (out / "manifest.json").write_text(json.dumps(plain, indent=2, sort_keys=True,
                                                      allow_nan=False))
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    print(summary.strip())
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="landscape-lab",
        description="Monte Carlo experiments on the random landscape function")
    parser.add_argument("subcommand", choices=TABLES)
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--output", default=None)
    args = parser.parse_args(argv)
    # The import-time heap lives until exit: frozen, no later collection scans
    # it, at interpreter shutdown or in the sample workers forked from here.
    gc.freeze()
    code = run(args.subcommand, args.config, output_dir=args.output,
               workers=args.workers, seed=args.seed)
    gc.freeze()     # the modules the runner imported live until exit too
    return code


if __name__ == "__main__":
    sys.exit(main())
