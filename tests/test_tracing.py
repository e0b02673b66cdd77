"""The benchmark (solvebench/) still works against the package: its span
wrappers find, wrap and restore every name they patch, so a traced run
records each layer, and its set-up, solve and checks run on each workload."""

import dataclasses
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from augdual import linop
from augdual.cli import InstanceSpec, generate_instance
from augdual.models import build_problem, tau_heuristic
from augdual.solver import SolveConfig, solve

BENCH_DIR = Path(__file__).resolve().parents[1] / "solvebench"
# The sizes of the benchmark's own smoke tests (solvebench/tests/test_smoke.py).
TINY = {
    "l1_bregman": dict(kind="aug_l1", m=20, n=60, k=3),
    "mc_svt": dict(kind="matrix_completion", rows=8, cols=8, rank=1, p=0.8),
    "rpca_pair": dict(kind="rpca", rows=8, cols=8, rank=1, k=1, lam=0.5),
}


def _load_tracing():
    spec = importlib.util.spec_from_file_location("solvebench_tracing", BENCH_DIR / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_bench(monkeypatch):
    # bench.py imports its sibling tracing.py by module name, and its
    # dataclasses look their module up in sys.modules.
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    spec = importlib.util.spec_from_file_location("solvebench_bench", BENCH_DIR / "bench.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _problem(spec: dict):
    model, truth = generate_instance(InstanceSpec(**spec))
    magnitude = float(np.max(np.abs(truth.data))) if spec["kind"] == "aug_l1" else None
    return build_problem(dataclasses.replace(model, tau=tau_heuristic(model, magnitude)))


def test_traced_solves_record_every_patched_layer():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    apply = linop.LinearOperator.__dict__["apply"]
    problems = [
        _problem(dict(kind="aug_l1", seed=1, m=10, n=30, k=2)),
        _problem(dict(kind="rpca", seed=1, rows=5, cols=4, rank=1, k=2, lam=0.5)),
    ]
    with tracing.patched(tracer):
        for p in problems:
            _, _, trace = solve(p, SolveConfig(primal_tol=1e-8, accelerated=True))
            assert trace.termination == "feasibility_tol"
    assert linop.LinearOperator.__dict__["apply"] is apply
    recorded = {tracer.names[i] for i in tracer.name}
    assert {
        "linop.apply",
        "linop.adjoint",
        "linop.point",
        "solver.regularizer_prox",
        "prox.svt",
        "numerics.svd",
        "numerics.norm_estimate",
    } <= recorded
    # Every forward map, BlockSum's included, has its byte count.
    applies = [sid for sid, n in enumerate(tracer.name)
               if tracer.names[n] == "linop.apply"]
    assert all(tracer.attrs[sid]["bytes"] > 0 for sid in applies)


@pytest.mark.parametrize("name", TINY)
def test_benchmark_solves_a_tiny_instance_of_each_workload(name, monkeypatch):
    bench = _load_bench(monkeypatch)
    workload = dataclasses.replace(bench.WORKLOADS[name], instance=TINY[name])
    out = bench.solve_one(workload, seed=0, index=0)
    assert not out.failed, out.error
    assert math.isfinite(out.kkt) and math.isfinite(out.rel_error)
