"""Smoke tests of the benchmark on tiny instances of each workload.

Run from the repository root:

    python3 -m pytest -q solvebench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import bench  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    name: dataclasses.replace(bench.WORKLOADS[name], instance=instance)
    for name, instance in {
        "l1_bregman": dict(kind="aug_l1", m=20, n=60, k=3),
        "mc_svt": dict(kind="matrix_completion", rows=8, cols=8, rank=1, p=0.8),
        "rpca_pair": dict(kind="rpca", rows=8, cols=8, rank=1, k=1, lam=0.5),
    }.items()
}

COUNTS = (
    "numerics.svd.calls",
    "prox.svt.calls",
    "numerics.power_iteration.iters",
    "linop.apply.calls",
    "linop.adjoint.calls",
    "linop.point.constructions",
    "solver.iterations",
)


@pytest.fixture(autouse=True)
def spans_to_tmp(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "OUT_DIR", tmp_path)


def test_workloads_match_benchmark_json():
    assert SPEC["workloads"] == [{"name": w.name, "why": w.why} for w in bench.WORKLOADS.values()]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(TINY))
def test_every_metric_printed_with_unit(name, trace, capsys):
    argv = ["--workload", name, "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    assert bench.main(argv, workloads=TINY) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    rows = {line.split()[0]: line.split()[-1] for line in lines[:-1] if line.startswith("  ")}
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert rows[m["name"]] == m["unit"]
    if not trace:
        for m in expected:
            assert result["metrics"][m["name"]]["value"] > 0


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(TINY))
def test_forced_nonconvergence_is_a_counted_failure(name, trace):
    w = dataclasses.replace(TINY[name], max_iter=1)
    result, details, failures = bench.run(w, seed=0, seconds=1, trace=trace, solves=2)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == (6 if trace else 2)
    assert failures == ["termination max_iter"]
    if not trace:
        assert details["failed_frac"][0] == 1.0


def test_unrecovered_solves_are_counted_not_dropped():
    w = dataclasses.replace(TINY["mc_svt"], recovery_rtol=1e-12)
    result, details, _ = bench.run(w, seed=0, seconds=1, trace=False, solves=2)
    assert result["correct"] is True
    assert details["solves"][0] == 2
    assert details["unrecovered_frac"][0] == 1.0


@pytest.mark.parametrize("name", list(TINY))
def test_rerun_prints_same_counts(name):
    first, details, _ = bench.run(TINY[name], seed=1, seconds=1, trace=True, solves=1)
    second, _, _ = bench.run(TINY[name], seed=1, seconds=1, trace=True, solves=1)
    assert details["self_check"][0] == "ok"
    for key in COUNTS:
        assert first["metrics"][key] == second["metrics"][key]


def test_svd_layers_absent_from_l1():
    result, _, _ = bench.run(TINY["l1_bregman"], seed=0, seconds=1, trace=True, solves=1)
    assert result["metrics"]["numerics.svd.calls"]["value"] == 0
    assert result["metrics"]["linop.apply.calls"]["value"] > 0


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "l1_bregman",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
