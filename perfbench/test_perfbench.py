"""
The benchmark's own tests: smoke-scale runs of every workload check the
result schema against BENCHMARK.json and the correctness checks, never
timings. Run with `python3 -m pytest perfbench`.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("table-cli", "table-lib", "voter-cli")


def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(run_py, *args):
    return subprocess.run(
        [sys.executable, run_py, *map(str, args)],
        capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_reports_every_metric(trace):
    bench = _bench()
    assert {w["name"] for w in bench["workloads"]} <= set(WORKLOADS)
    proc = _run(
        os.path.join(HERE, "run.py"),
        "--workload", "all", "--seed", 5, "--seconds", 1, "--scale", "smoke", "--trace", trace,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    expected = bench["per_layer"] if trace else bench["end_to_end"]
    for workload in WORKLOADS:
        for metric in expected:
            got = result["metrics"][f"{workload}/{metric['name']}"]
            assert got["unit"] == metric["unit"]
            assert np.isfinite(got["value"])
            if not trace:
                assert got["value"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(
        tmp_path / "perfbench" / "run.py",
        "--workload", "table-lib", "--seed", 1, "--seconds", 1, "--scale", "smoke",
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_traced_calls_cover_the_metric_spans():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        names = set()
        for layer, owner, attr in spans.traced_calls():
            owner_name = getattr(owner, "__name__", "").rsplit(".", 1)[-1]
            names.add(f"{layer}.{attr}")
            names.add(f"{layer}.{owner_name}.{attr}")
    finally:
        sys.path.remove(os.path.join(ROOT, "src"))
    assert spans.METRIC_SPANS <= names, spans.METRIC_SPANS - names


def test_self_time_subtracts_children():
    s = [
        {"id": "a", "name": "cli.main", "start": 0, "end": 10_000_000_000, "parent": None},
        {"id": "b", "name": "ingest.parse_table", "start": 1, "end": 4_000_000_001, "parent": "a"},
        {"id": "c", "name": "raking.rake", "start": 5, "end": 1_000_000_005, "parent": "a"},
    ]
    selfs = spans.self_times(s)
    assert selfs["a"] == pytest.approx(5.0)
    m = spans.layer_metrics(s)
    assert m["cli.self_s"] == pytest.approx(5.0)
    assert m["ingest.parse_table_s"] == pytest.approx(4.0)


def test_checks_reject_bad_outputs(tmp_path):
    csv_path = tmp_path / "x.csv"
    csv_path.write_text("surname,geoid,count\nS1,g1,1.5\nS2,g1,nan\n")
    assert checks.finite_csv(csv_path)
    json_path = tmp_path / "x.json"
    json_path.write_text('{"a": NaN}')
    assert checks.strict_json(json_path)[1]

    class Map:
        matrix = np.array([[0.9, 0.0], [0.0, 1.0]])
        source = np.array([0.5, 0.5])
        objective = 0.1

    assert checks.calibration_map(Map, np.array([0.5, 0.5]), np.array([0.5, 0.5]))

    # feasible and column-stochastic, and it states an objective below the
    # rank-one benchmark (1.08), but the matrix is 1.65 from the identity
    class Far:
        matrix = np.array([[0.0, 0.6], [1.0, 0.4]])
        source = np.array([0.5, 0.5])
        objective = 0.5

    u, v = np.array([0.5, 0.5]), np.array([0.3, 0.7])
    errors = checks.calibration_map(Far, u, v)
    assert any("exceeds rank-one" in e for e in errors), errors
    assert not any("column-stochastic" in e or "misses v" in e for e in errors), errors
