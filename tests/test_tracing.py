"""The benchmark's span wrappers (solvebench/tracing.py) still find, wrap and
restore every name they patch, so a traced benchmark run records each layer."""

import dataclasses
import importlib.util
from pathlib import Path

import numpy as np

from augdual import linop
from augdual.cli import InstanceSpec, generate_instance
from augdual.models import build_problem, tau_heuristic
from augdual.solver import SolveConfig, solve

TRACING = Path(__file__).resolve().parents[1] / "solvebench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("solvebench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
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
