"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion at its pinned
configuration and prints a single pass/fail line.  The suite is slower than
the unit tests but bounded; the heaviest item is the covariance decay run.
"""

import json

import numpy as np
import pytest

from landscape_lab.cli import run as cli_run
from landscape_lab.disorder import (assemble_potential, bernoulli,
                                    sample_omega, uniform01)
from landscape_lab.green import (agmon_inequality_check, all_cell_masses,
                                 delta_rhs, green_column,
                                 massive_domination_check, massive_reference,
                                 rank_one_identity_check)
from landscape_lab.landscape import (energy_estimate_check,
                                     eta_convergence_study, solve_landscape)
from landscape_lab.lattice import (Grid, HamiltonianSpec, ScalarField,
                                   cg_solve, dense_solve_oracle)
from landscape_lab.percolation import (CoarseGraph, anchoring_experiment_1d,
                                       chemical_distance, cluster_analysis,
                                       coarse_grain, kesten_tail_experiment)
from landscape_lab.stats import (ExperimentSetup, covariance_suite,
                                 fit_exponential_decay, green_decay_experiment,
                                 vertical_derivative_decay,
                                 lambda_scaling_curve)

LAW = bernoulli(0.5)


def report(num, label, ok, detail=""):
    line = f"[criterion {num:>2}] {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def rate_standard_error(curve, r_min, r_max):
    """Weighted-least-squares slope standard error on the log curve."""
    mask = ((curve.distances >= r_min) & (curve.distances <= r_max)
            & (curve.values > 0))
    r = curve.distances[mask]
    sig = np.maximum(curve.ci[mask] / curve.values[mask], 1e-9)
    w = 1.0 / sig ** 2
    rbar = np.dot(w, r) / w.sum()
    return float(np.sqrt(1.0 / np.dot(w, (r - rbar) ** 2)))


# --------------------------------------------------------------- criterion 1

def _oracle_cases():
    rng = np.random.default_rng(2026)
    specs = []
    for d, L, m, bc in ((1, 16, 20, "dirichlet"), (1, 128, 20, "dirichlet"),
                        (1, 32, 20, "periodic"), (2, 4, 20, "dirichlet"),
                        (2, 8, 11, "dirichlet"), (2, 8, 11, "periodic"),
                        (3, 4, 5, "dirichlet")):
        grid = Grid(d=d, L=L, m=m, bc=bc)
        V = ScalarField(grid=grid, values=rng.uniform(size=grid.shape))
        specs.append(HamiltonianSpec(grid=grid, potential=V, lam=1.0, eta=1e-3))
    return specs


def test_criterion_01_oracle_equivalence():
    worst = 0.0
    for H in _oracle_cases():
        assert H.grid.n_nodes <= 10_000
        for rhs in (ScalarField.constant(H.grid, 1.0),
                    delta_rhs(H.grid, H.grid.center_node)):
            x = cg_solve(H, rhs, tol=1e-10)
            y = dense_solve_oracle(H, rhs)
            rel = np.abs(x.values - y.values).max() / np.abs(y.values).max()
            worst = max(worst, rel)
    report(1, "iterative solver vs direct oracle", worst <= 1e-8,
           f"max rel error {worst:.2e} over {2 * len(_oracle_cases())} solves")


# --------------------------------------------------------------- criterion 2

def test_criterion_02_exact_structure_checks():
    n_samples = 50
    tol = 1e-10
    grid = Grid(d=1, L=64, m=20)
    lam, eta = 1.0, 1e-4
    a_src = grid.center_node
    b_src = (grid.center_node[0] + 10 * grid.m,)
    rank_z = (grid.L // 2 + 3,)
    rank_x = (grid.center_node[0] - 5 * grid.m,)
    fails = []
    for i in range(n_samples):
        omega = sample_omega(LAW, (grid.L,), 101, i)
        V = assemble_potential(omega, grid)
        H = HamiltonianSpec(grid=grid, potential=V, lam=lam, eta=eta)
        sol = solve_landscape(H, tol=tol)
        G = green_column(H, a_src, tol=tol)
        scale = G.field.values.max()
        if sol.u.values.min() <= 0.0 or G.field.values.min() < -10 * tol * scale:
            fails.append((i, "positivity"))
        Gb = green_column(H, b_src, tol=tol)
        sym = abs(G.field.values[b_src] - Gb.field.values[a_src]) / G.field.values[b_src]
        if sym > 1e-8:
            fails.append((i, "symmetry"))
        H2 = HamiltonianSpec(grid=grid, potential=V, lam=2 * lam, eta=eta)
        G2 = green_column(H2, a_src, tol=tol)
        if np.any(G2.field.values > G.field.values + 2 * tol * scale):
            fails.append((i, "domination lambda"))
        if not massive_domination_check(G).passed:
            fails.append((i, "domination massive"))
        rep = rank_one_identity_check(omega, rank_z, grid, lam, eta, rank_x)
        if rep.relative_error > 1e-6:
            fails.append((i, "rank-one"))
        for mu in (0.0, 0.1 * np.sqrt(lam)):
            ag = agmon_inequality_check(G, mu)
            if not ag.passed:
                fails.append((i, f"agmon mu={mu}"))
        x = grid.center_node
        rep_err = abs(all_cell_masses(G).sum() - sol.u.values[x]) / sol.u.values[x]
        if rep_err > 1e-7:
            fails.append((i, "representation"))
    report(2, "per-sample structure checks", not fails,
           f"{n_samples} samples, failures: {fails[:5]}")


# --------------------------------------------------------------- criterion 3

def test_criterion_03_energy_estimate():
    setup = ExperimentSetup(d=1, L=256, m=20, law=LAW, lam=1.0, eta=1e-3,
                            bc="periodic")
    sols = [solve_landscape(setup.hamiltonian(301, i), tol=setup.tol)
            for i in range(100)]
    rep = energy_estimate_check(sols)
    ok = rep.passed and rep.margin_sigma >= 3.0
    report(3, "gradient energy below mass integral", ok,
           f"lhs {rep.lhs:.4g} <= rhs {rep.rhs:.4g}, margin {rep.margin_sigma:.1f} sigma")


# --------------------------------------------------------------- criterion 4

def test_criterion_04_eta_convergence():
    grid = Grid(d=1, L=32, m=20)
    ratios = []
    for i in range(20):
        omega = sample_omega(LAW, (32,), 401, i)
        rows = eta_convergence_study(omega, grid, 1.0,
                                     [1e-2, 1e-3, 1e-4], tol=1e-11)
        ratios.append(rows[0].sup_diff / rows[1].sup_diff)
    mean_ratio = float(np.mean(ratios))
    ok = 5.0 <= mean_ratio <= 20.0
    report(4, "linear small-mass convergence", ok,
           f"mean ratio {mean_ratio:.2f} in [5, 20]")


# --------------------------------------------------------------- criterion 5

@pytest.fixture(scope="module")
def green_p1():
    setup = ExperimentSetup(d=1, L=128, m=20, law=LAW, lam=1.0, eta=1e-6)
    curve = green_decay_experiment(setup, 1.0, 200, 501)
    fit = fit_exponential_decay(curve, 5.0, 40.0)
    return setup, curve, fit


def test_criterion_05_green_decay(green_p1):
    setup, curve1, fit1 = green_p1
    ok1 = fit1.rate > 0.0 and fit1.r_squared >= 0.9
    curve2 = green_decay_experiment(setup, 2.0, 200, 501)
    fit2 = fit_exponential_decay(curve2, 5.0, 40.0)
    se = rate_standard_error(curve2, 5.0, 40.0)
    ok2 = fit2.rate >= fit1.rate / 2.0 - 1.96 * se
    report(5, "exponential decay of cube masses", ok1 and ok2,
           f"rate(p=1) {fit1.rate:.4f} r2 {fit1.r_squared:.3f}, "
           f"rate(p=2) {fit2.rate:.4f} >= {fit1.rate / 2:.4f} - {1.96 * se:.4f}")


# --------------------------------------------------------------- criterion 6

def test_criterion_06_lambda_scaling():
    setup = ExperimentSetup(d=1, L=128, m=20, law=LAW, lam=1.0, eta=1e-6)
    weak = lambda_scaling_curve(setup, [0.01, 0.04, 0.16], 1.0, 200, 601,
                                r_min=5.0, r_max=40.0)
    # strong disorder decays through rare empty corridors, so the annealed
    # rate is only visible at separations whose corridor probability 2^-r is
    # actually sampled at N = 200
    strong = lambda_scaling_curve(setup, [10.0, 100.0], 1.0, 200, 601,
                                  r_min=2.0, r_max=8.0)
    rate = {lam: f.rate for lam, f in (weak["fits"] | strong["fits"]).items()}
    doubling = [rate[0.04] / rate[0.01], rate[0.16] / rate[0.04]]
    saturation = rate[100.0] / rate[10.0]
    ok = (all(1.4 <= r <= 2.8 for r in doubling)
          and 0.7 <= saturation <= 1.4
          and all(v > 0 for v in rate.values()))
    report(6, "rate scales like sqrt(lambda) then saturates", ok,
           f"doubling ratios {[round(r, 2) for r in doubling]}, "
           f"saturation {saturation:.2f}")


# --------------------------------------------------------------- criterion 7

def test_criterion_07_covariance_decay():
    setup = ExperimentSetup(d=1, L=256, m=20, law=LAW, lam=1.0, eta=1e-4)
    suite = covariance_suite(setup, ["u", "inv_u", "grad_log_u"], [3, 30],
                             2000, 701)
    details, ok = [], True
    for obs, pts in suite.items():
        near, far = pts
        sigma = far.ci / 1.96
        this = abs(far.cov) <= 0.1 * abs(near.cov) or abs(far.cov) <= 3.0 * sigma
        ok = ok and this
        details.append(f"{obs}: |cov30|/|cov3| = {abs(far.cov) / abs(near.cov):.3g}")
    report(7, "covariance decays across separations", ok, "; ".join(details))


# --------------------------------------------------------------- criterion 8

def test_criterion_08_vertical_derivative(green_p1):
    setup, _curve, fit1 = green_p1
    curve = vertical_derivative_decay(setup, [2, 4, 8, 12, 16, 20], 100, 801)
    fit = fit_exponential_decay(curve, 2.0, 20.0)
    ok = fit.rate > 0.0 and fit1.rate / 2.0 <= fit.rate <= 2.0 * fit1.rate
    report(8, "single-site influence decays at the field rate", ok,
           f"rate {fit.rate:.4f} vs reference {fit1.rate:.4f}")


# --------------------------------------------------------------- criterion 9

def bellman_ford(g, origin):
    shape = (g.nc,) * g.d
    dist = np.full(shape, np.inf)
    dist[origin] = 0.0
    edges = []
    for ax in range(g.d):
        for idx, open_ in np.ndenumerate(g.xi[ax]):
            up = tuple(idx[j] + (1 if j == ax else 0) for j in range(g.d))
            edges.append((idx, up, 1.0 if open_ else 0.0))
    for _ in range(g.n_vertices - 1):
        changed = False
        for a, b, w in edges:
            if dist[a] + w < dist[b]:
                dist[b] = dist[a] + w
                changed = True
            if dist[b] + w < dist[a]:
                dist[a] = dist[b] + w
                changed = True
        if not changed:
            break
    return dist.astype(int)


def test_criterion_09a_chemical_distance_oracle():
    rng = np.random.default_rng(901)
    nc = 5
    for trial in range(200):
        xi = tuple(rng.uniform(size=tuple(nc - 1 if j == ax else nc
                                          for j in range(2))) < 0.5
                   for ax in range(2))
        g = CoarseGraph(k=1, gamma=0.5, nc=nc, d=2, xi=xi)
        origin = (int(rng.integers(nc)), int(rng.integers(nc)))
        got = chemical_distance(g, origin).dist
        want = bellman_ford(g, origin)
        assert np.array_equal(got, want), f"trial {trial}"
    report(9, "a: passage times match reference shortest paths", True,
           "200 random 5x5 graphs")


def test_criterion_09b_kesten_tail():
    rows = kesten_tail_experiment(uniform01(), 2, 513, 0.875, [8, 16, 32],
                                  0.25, 120, 902, k=3)
    ok = all(rows[j + 1].ci_low <= rows[j].ci_high for j in range(len(rows) - 1))
    freqs = [round(r.frequency, 3) for r in rows]
    report(9, "b: short-path frequency non-increasing in radius", ok,
           f"frequencies {freqs}")


def test_criterion_09c_cluster_diameter_tail():
    law, gamma, k = uniform01(), 0.92, 3
    diams = []
    for i in range(100):
        omega = sample_omega(law, (257,) * 2, 903, i)
        rep = cluster_analysis(coarse_grain(omega, k, gamma))
        diams.extend(rep.closed_component_diameters)
    diams = np.asarray(diams)
    ns = np.arange(0, 11)
    tail = np.asarray([(diams >= n).mean() for n in ns])
    usable = tail > 0
    slope = np.polyfit(ns[usable], np.log(tail[usable]), 1)[0]
    ok = usable.sum() >= 3 and slope < 0.0
    report(9, "c: closed-cluster diameter tail is log-linear decreasing", ok,
           f"slope {slope:.3f} over {int(usable.sum())} bins, "
           f"{diams.size} components")


def test_criterion_09d_gap_moments():
    q = 0.5
    rep = anchoring_experiment_1d(bernoulli(q), 200, 0.5, 10_000, 904)
    expect = 2.0 / q
    z = abs(rep.gap_mean - expect) / rep.gap_sem
    ok = rep.status == "PASS" and z <= 3.0 and rep.censored_fraction == 0.0
    report(9, "d: 1d gap matches the geometric closed form", ok,
           f"mean {rep.gap_mean:.3f} vs {expect} ({z:.2f} sigma), "
           f"moment growth {rep.status}")


# -------------------------------------------------------------- criterion 10

def test_criterion_10_determinism(tmp_path):
    cfg = {"d": 1, "L": 32, "m": 20, "law": {"kind": "bernoulli", "q": 0.5},
           "lambda": 1.0, "eta": 1e-4, "p": 1.0, "n_samples": 6,
           "master_seed": 10, "r_min": 1.0, "r_max": 10.0}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = [tmp_path / n for n in ("a", "b", "w2")]
    assert cli_run("green-decay", cfg_path, output_dir=outs[0], workers=1) == 0
    assert cli_run("green-decay", cfg_path, output_dir=outs[1], workers=1) == 0
    assert cli_run("green-decay", cfg_path, output_dir=outs[2], workers=2) == 0
    ok = all((outs[0] / n).read_bytes() == (o / n).read_bytes()
             for o in outs[1:] for n in ("curve.csv", "fit.csv"))
    omega = sample_omega(uniform01(), (65,) * 2, 10, 0)
    d1 = chemical_distance(coarse_grain(omega, 3, 0.9), (4, 4)).dist
    d2 = chemical_distance(coarse_grain(omega, 3, 0.9), (4, 4)).dist
    ok = ok and np.array_equal(d1, d2)
    report(10, "byte-identical reruns across worker counts", ok)
