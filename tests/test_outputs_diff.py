"""tools/outputs_diff.py: the cases it runs and how it compares two output directories."""

import importlib.util
import json
from pathlib import Path

from test_cli import SMOKE_CONFIGS

TOOL = Path(__file__).resolve().parent.parent / "tools" / "outputs_diff.py"
spec = importlib.util.spec_from_file_location("outputs_diff", TOOL)
outputs_diff = importlib.util.module_from_spec(spec)
spec.loader.exec_module(outputs_diff)


def write_output(out, files, **manifest):
    out.mkdir(parents=True)
    for name, text in files.items():
        (out / name).write_text(text)
    manifest = dict({"wall_clock_seconds": 1.0}, **manifest)
    (out / "manifest.json").write_text(json.dumps(manifest))


FILES = {"curve.csv": "distance,value,ci\n0,1.5,0.25\n1,0.5,nan\n",
         "summary.txt": "green-decay PASS\n"}


def test_cases_are_the_smoke_configs_and_the_benchmark_invocations():
    cases = outputs_diff.cases()
    assert [(name, sub) for name, sub, _ in cases] == [(sub, sub) for sub in SMOKE_CONFIGS] + [
        ("decay-1d-green-decay", "green-decay"),
        ("influence-2d-vertical-derivative", "vertical-derivative"),
        ("percolation-2d-fpp-kesten", "fpp-kesten"),
        ("percolation-2d-cluster-tail", "cluster-tail"),
        ("covariance-grad-log-u-2d", "covariance"), ("covariance-inv-u", "covariance"),
        ("cluster-tail-atoms", "cluster-tail"), ("anchor-1d-atoms", "anchor-1d"),
        ("energy-check-2d", "energy-check"), ("rank-one-check-2d", "rank-one-check"),
        ("agmon-check-2d", "agmon-check"), ("eta-convergence-2d", "eta-convergence"),
        ("fpp-kesten-3d", "fpp-kesten"), ("cluster-tail-k4", "cluster-tail"),
        ("solve-landscape-odd-2d", "solve-landscape"), ("rank-one-check-3d", "rank-one-check")]
    assert [cfg for _, _, cfg in cases[:len(SMOKE_CONFIGS)]] == list(SMOKE_CONFIGS.values())
    # the derived-field observables, which no smoke config or workload takes
    assert [(cfg["observable"], cfg["d"]) for _, _, cfg in cases[-12:-10]] == [
        ("grad_log_u", 2), ("inv_u", 1)]
    assert all(cfg.get("observable", "u") == "u" for _, _, cfg in cases[:-12])
    # the third law kind, its atoms out of value order
    assert [cfg["law"] for _, _, cfg in cases[-10:-8]] == [outputs_diff.ATOMS] * 2
    assert outputs_diff.ATOMS["kind"] == "discrete_atoms"
    assert outputs_diff.ATOMS["values"] != sorted(outputs_diff.ATOMS["values"])
    # a periodic solve, a rank-one check, an Agmon check and an eta study in
    # 2-d, which no smoke config or workload makes
    planar = ("energy-check", "rank-one-check", "agmon-check", "eta-convergence")
    assert [(sub, cfg["d"]) for _, sub, cfg in cases[-8:-4]] == [(sub, 2) for sub in planar]
    assert not any(sub in planar and cfg["d"] > 1 for _, sub, cfg in cases[:-8])
    # coarse graining on a 3-d box, which no smoke config or workload makes,
    # and with k = 4's 7-site window
    (_, _, kesten), (_, _, tail) = cases[-4:-2]
    assert kesten["d"] == 3 and not any(cfg.get("d") == 3 for _, _, cfg in cases[:-4])
    assert tail["k"] == 4
    # a solve on a 2-d Dirichlet grid of odd side: the folded transform's middle row
    (_, _, odd), = cases[-2:-1]
    assert odd["d"] == 2 and odd.get("bc", "dirichlet") == "dirichlet"
    assert odd["L"] * odd["m"] % 2 == 1
    # a 3-d Dirichlet solve, which no smoke config or workload makes
    (_, sub, box), = cases[-1:]
    assert (sub, box["d"], box.get("bc", "dirichlet")) == ("rank-one-check", 3, "dirichlet")


def test_same_data_files_do_not_differ(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    write_output(a, FILES, details={"slope": float("nan")}, verdict="PASS")
    write_output(b, FILES, details={"slope": float("nan")}, verdict="PASS",
                 wall_clock_seconds=2.0)
    assert outputs_diff.differences(a, b) == []
    assert outputs_diff.manifest_notes(a, b) == []          # NaN equals NaN; time aside
    assert outputs_diff.differences(tmp_path / "none", tmp_path / "neither") == []


def test_differences_name_the_file_and_line(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    write_output(a, FILES, details={"slope": float("nan"), "moments": [1.0, 2.0]})
    changed = dict(FILES, **{"curve.csv": FILES["curve.csv"].replace("0.5,", "0.50001,"),
                             "summary.txt": "green-decay FAIL\n"})
    write_output(b, changed, details={"slope": None, "moments": [1.0, 3.0]})
    assert outputs_diff.differences(a, b) == ["curve.csv differs from line 3",
                                              "summary.txt differs from line 1"]
    assert outputs_diff.manifest_notes(a, b) == ["details.moments[1]: 2.0 -> 3.0",
                                                 "details.slope: nan -> None"]


def test_missing_files_and_directories_differ(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    write_output(a, FILES)
    write_output(b, {"summary.txt": FILES["summary.txt"]})
    assert outputs_diff.differences(a, b) == [
        "files ['curve.csv', 'summary.txt'] vs ['summary.txt']"]
    assert outputs_diff.differences(a, tmp_path / "absent") == [
        "files ['curve.csv', 'summary.txt'] vs []"]
    (b / "summary.txt").write_bytes(b"green-decay PASS\r\n")
    assert outputs_diff.differences(a, b)[1:] == ["summary.txt differs from line 1"]
