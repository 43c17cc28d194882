"""Checks of the benchmark's own machinery: the correctness gate, the span
accounting and the agreement of BENCHMARK.json with what run.py prints."""

import copy
import json
import sys
import time

import gate
import run
import spans
from workloads import ROOT, Invocation, Workload, write_config

TINY = Workload("tiny", (Invocation("green-decay", {
    "d": 1, "L": 32, "m": 20, "law": {"kind": "bernoulli", "q": 0.5},
    "lambda": 1.0, "eta": 1e-4, "p": 1.0, "n_samples": 4,
    "r_min": 1.0, "r_max": 10.0}, workers=1),))
SEED = 3


def _reference(tmp_path):
    """Run the tiny workload once through the CLI and snapshot it."""
    inv = TINY.invocations[0]
    out = tmp_path / "ref"
    res = run.invoke(inv, SEED, write_config(inv, tmp_path / "ref.json"), out)
    return {str(SEED): [gate.snapshot(res.exit_code, out)]}


def _scale_first_value(refs, factor):
    refs = copy.deepcopy(refs)
    rows = refs[str(SEED)][0]["csv"]["curve.csv"]
    rows[1][1] = repr(float(rows[1][1]) * factor)
    return refs


def test_matching_reference_passes(tmp_path):
    refs = _reference(tmp_path)
    assert refs[str(SEED)][0]["exit_code"] == 0
    unit = run.run_unit(TINY, SEED, refs, tmp_path)
    assert (unit.attempted, unit.failed, unit.problems) == (1, 0, [])
    assert unit.samples == 4 and unit.wall_s > 0 and unit.cpu_s > 0


def test_perturbed_reference_counts_as_failed(tmp_path):
    refs = _scale_first_value(_reference(tmp_path), 1.01)
    unit = run.run_unit(TINY, SEED, refs, tmp_path)
    assert (unit.attempted, unit.failed, unit.samples) == (1, 1, 0)
    assert any("curve.csv row 1 value" in p for p in unit.problems)


def test_solver_tolerance_level_differences_pass(tmp_path):
    refs = _reference(tmp_path)
    got = refs[str(SEED)][0]
    assert gate.compare(got, _scale_first_value(refs, 1 + 1e-5)[str(SEED)][0]) == []
    assert gate.compare(got, _scale_first_value(refs, 1 + 1e-2)[str(SEED)][0]) != []


def test_exit_code_verdict_and_files_are_checked():
    want = {"exit_code": 0, "summary": "green-decay PASS",
            "csv": {"fit.csv": [["rate", "n_points"], ["0.25", "36"]]}}
    for change in ({"exit_code": 4}, {"summary": "green-decay FAIL"},
                   {"csv": {}},
                   {"csv": {"fit.csv": [["rate", "n_points"], ["0.25", "35"]]}},
                   {"csv": {"fit.csv": [["rate", "n_points"], ["nan", "36"]]}}):
        assert gate.compare({**want, **change}, want), change
    assert gate.compare(copy.deepcopy(want), want) == []


def test_traced_pass_accounts_for_the_wall_and_repeats(tmp_path, monkeypatch):
    for key in run.BLAS_ENV:        # _import_package sets them; restore after
        monkeypatch.setenv(key, run.BLAS_ENV[key])
    monkeypatch.setattr(sys, "path", list(sys.path))
    modules = run._import_package()
    cfg = write_config(TINY.invocations[0], tmp_path / "cfg.json")
    counts = []
    for i in range(2):
        tracer = spans.Tracer()
        with tracer.installed(modules):
            t0 = time.perf_counter()
            code = modules["cli"].run("green-decay", cfg, output_dir=tmp_path / f"o{i}",
                                      workers=1, seed=SEED)
            wall = time.perf_counter() - t0
        assert code == 0
        assert tracer.accounting_problems(wall) == []
        totals = tracer.totals()
        counts.append({k: (v["calls"], v["failed"], v["work"]) for k, v in totals.items()})
        assert totals["cli.run"]["calls"] == 1
        assert totals["lattice.cg_solve"]["calls"] == 4      # one Green solve per sample
        assert totals["lattice.cg_solve"]["work"] == 4 * 32 * 20
        assert totals["stats.green_decay_experiment"]["calls"] == 1
    assert counts[0] == counts[1]
    # the wrappers are gone again
    assert modules["stats"].green_column is modules["green"].green_column
    assert not hasattr(modules["green"].green_column, "__wrapped__")


def test_benchmark_json_matches_the_metrics_run_prints():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == list(run.PER_LAYER)
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(run.WORKLOADS)
