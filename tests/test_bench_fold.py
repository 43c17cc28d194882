"""tools/bench_fold.py: pairs runs by directory and judges them by BENCHMARK.json."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_fold.py"
spec = importlib.util.spec_from_file_location("bench_fold", TOOL)
bench_fold = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_fold)


def write_run(out_dir, name, rate, failed=0):
    run = out_dir / name
    run.mkdir(parents=True)
    metrics = {"samples_per_s": rate, "cpu_s": 1.0 / rate, "peak_rss_mb": 70.0,
               "setup_s": 0.5}
    (run / "result.json").write_text(json.dumps({
        "environment": {"python": "3", "workload": "w", "seed": 0, "trace": 0},
        "attempted": 4, "failed": failed, "metrics": metrics}))


def test_fold_pairs_and_judges(tmp_path):
    parent, change = tmp_path / "p", tmp_path / "c"
    for seed in range(10):
        write_run(parent, f"influence-2d-seed{seed}-trace0", 0.18 + 0.001 * seed)
        write_run(change, f"influence-2d-seed{seed}-trace0", 1.1 + 0.01 * seed)
    write_run(change, "influence-2d-seed99-trace0", 5.0)   # unpaired: left out
    write_run(parent, "decay-1d-seed1-trace1", 50.0)
    write_run(change, "decay-1d-seed1-trace1", 55.0)
    log = tmp_path / "acc.log"
    log.write_text("8.10s call     tests/test_acceptance.py::test_a\n"
                   "0.20s setup    tests/test_acceptance.py::test_a\n"
                   "======= 13 passed in 8.51s =======\n")
    out = bench_fold.fold(1, parent, change, acceptance=[log, log], tier1=[log, log])
    infl = out["workloads"]["influence-2d"]
    assert infl["seeds"] == list(range(10)) and infl["failed"] == {"parent": 0, "change": 0}
    rate = infl["end_to_end"]["samples_per_s"]
    assert rate["change_won"] == "10/10" and rate["gain"]
    assert rate["change_over_parent_median"] == pytest.approx(1.145 / 0.1845)
    assert infl["end_to_end"]["cpu_s"]["worse_frac"] < 0 and not out["workloads"][
        "influence-2d"]["end_to_end"]["peak_rss_mb"]["gain"]
    assert out["workloads"]["decay-1d"]["per_layer"]["seed1"]["samples_per_s"] == {
        "parent": 50.0, "change": 55.0}
    assert out["acceptance"]["change"] == {
        "total_s": 8.51, "tests": {"tests/test_acceptance.py::test_a": 8.3}}
    assert out["tier1"]["parent"] == {"passed": 13, "wall_s": 8.51}
    assert "workload" not in out["environment"]
