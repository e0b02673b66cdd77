import dataclasses
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from augdual.cli import InstanceSpec, generate_instance
from augdual.linop import SPARSE_APPLY_FRACTION, Dense, LinearOperator, Point
from augdual.models import build_problem, tau_heuristic
from augdual.prox import NormSpec, soft_threshold
from augdual.solver import (
    PLAIN_STEP,
    ConfigurationError,
    ProblemSpec,
    SolveConfig,
    primal_from_dual,
    solve,
    step_size,
)

from reference import dual_gradient, dual_objective, step


def _l1_problem(seed=7, n=8, m=4, k=2):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n)) / np.sqrt(m)
    x0 = np.zeros(n)
    support = rng.choice(n, size=k, replace=False)
    x0[support] = rng.choice([-1.0, 1.0], size=k) * rng.uniform(0.5, 1.0, size=k)
    b = a @ x0
    tau = 10.0 * float(np.max(np.abs(x0)))
    return ProblemSpec(Dense(a), Point.vector(b), NormSpec("l1"), tau), x0


def test_hand_iteration_scalar():
    # A = I (1x1), b = (5), tau = 1, h = 1:
    # x1 = 0, y1 = 5; x2 = shrink(5) = 4, y2 = 6
    p = ProblemSpec(Dense(np.eye(1)), Point.vector([5.0]), NormSpec("l1"), 1.0)
    y1, x1 = step(p, np.zeros(1), 1.0)
    assert x1[0] == 0.0
    assert y1[0] == 5.0
    y2, x2 = step(p, y1, 1.0)
    assert x2[0] == 4.0
    assert y2[0] == 6.0


def test_step_size_interval():
    # The paper's interval (0, 2/L) with L = ||A||^2 = 4; by default
    # PLAIN_STEP/L on the given bound, and 1/L when accelerated.
    p, _ = _l1_problem()
    upper = 2.0 / 2.0**2
    assert step_size(p, SolveConfig(), 2.0) == (2.0, PLAIN_STEP / 2.0**2, "given")
    assert step_size(p, SolveConfig(accelerated=True), 2.0) == (2.0, 1.0 / 2.0**2, "given")
    assert step_size(p, SolveConfig(h=0.5 * upper), 2.0) == (2.0, 0.5 * upper, "given")
    for bad in (0.0, -1.0, upper, 1.5 * upper, 10**5000):
        with pytest.raises(ConfigurationError, match="outside the admissible open interval"):
            step_size(p, SolveConfig(h=bad), 2.0)


def test_accelerated_step_cap():
    p, _ = _l1_problem()
    cap = 1.0 / 2.0**2
    assert step_size(p, SolveConfig(h=cap, accelerated=True), 2.0) == (2.0, cap, "given")
    with pytest.raises(ConfigurationError, match="the 1/L bound"):
        step_size(p, SolveConfig(h=1.5 * cap, accelerated=True), 2.0)


@pytest.mark.parametrize("spec", [
    dict(kind="aug_l1", m=40, n=200, k=4),
    dict(kind="matrix_completion", rows=24, cols=12, rank=1, p=0.9),
    dict(kind="rpca", rows=24, cols=8, rank=1, k=2, lam=0.35),
], ids=lambda spec: spec["kind"])
def test_accelerated_solves_take_fewer_iterations_than_plain(spec):
    # Each accelerated solve (h = 1/b^2) reaches the tolerance in fewer
    # iterations than the plain solve at its default h = PLAIN_STEP/b^2.
    for seed in range(5):
        p = _small_problem(dict(spec, seed=seed))
        _, _, plain = solve(p, SolveConfig())
        _, _, accelerated = solve(p, SolveConfig(accelerated=True))
        assert plain.termination == accelerated.termination == "feasibility_tol"
        assert len(accelerated.records) < len(plain.records), seed
        assert plain.restarts == 0


@pytest.mark.parametrize("bound", [np.nan, np.inf, 0.0, -1.0, True, 10**400,
                                   pytest.param(10**5000, id="10**5000")])
def test_norm_bound_must_be_finite_and_positive(bound):
    p, _ = _l1_problem()
    with pytest.raises(ConfigurationError, match="norm_bound"):
        step_size(p, SolveConfig(), bound)
    with pytest.raises(ConfigurationError, match="norm_bound"):
        solve(p, SolveConfig(), norm_bound=bound)


def test_a_bound_whose_square_over_or_underflows_is_a_configuration_error():
    # 1e-170 squares to 0, which would divide by zero, and 1e200 to inf; a
    # Gram bound near 1e-157 squares to a subnormal whose reciprocal is inf;
    # entries of 1e-170 square to 0, so the Gram matrix and the norm are 0.
    # A 10x60 Dense takes the Gram path.
    p, _ = _l1_problem()
    for bound in (1e-170, 1e200):
        with pytest.raises(ConfigurationError,
                           match=re.escape(f"norm_bound {bound!r} (given)") + ".*rescale"):
            step_size(p, SolveConfig(), bound)
    a = np.random.default_rng(0).standard_normal((10, 60))
    for scale, message in ((1e-158, r"norm_bound \S+e-157 \(gram\).*rescale"),
                           (1e-170, "operator is zero, or its squared entries underflow")):
        tiny = ProblemSpec(Dense(a * scale), Point.vector(np.zeros(10)), NormSpec("l1"), 1.0)
        with pytest.raises(ConfigurationError, match=message):
            step_size(tiny, SolveConfig())


@pytest.mark.parametrize("tol", [np.nan, 0.0, -1.0, True, 10**400,
                                 pytest.param(10**5000, id="10**5000")])
def test_primal_tol_must_be_finite_and_positive(tol):
    with pytest.raises(ConfigurationError, match="primal_tol must be finite and positive"):
        SolveConfig(primal_tol=tol)


def test_solve_config_rejects_a_budget_below_one():
    for max_iter in (0, -3, -10**5000):
        with pytest.raises(ConfigurationError, match="max_iter"):
            SolveConfig(max_iter=max_iter)


def test_warm_start_must_be_a_point_of_the_codomain_shape():
    p, _ = _l1_problem()
    with pytest.raises(ConfigurationError, match="y0 must be a Point"):
        SolveConfig(y0=np.zeros(4))
    with pytest.raises(ValueError, match="y0 shape does not match"):
        solve(p, SolveConfig(y0=Point.vector(np.zeros(5))))


def test_problem_spec_rejects_a_rhs_of_the_wrong_shape():
    with pytest.raises(ValueError, match="b shape does not match"):
        ProblemSpec(Dense(np.eye(3)), Point.vector(np.ones(2)), NormSpec("l1"), 1.0)


def test_problem_spec_stores_tau_as_a_float():
    p = ProblemSpec(Dense(np.eye(1)), Point.vector([1.0]), NormSpec("l1"), np.int64(3))
    assert p.tau == 3.0 and type(p.tau) is float


def test_gradient_of_dual_objective():
    p, _ = _l1_problem()
    rng = np.random.default_rng(1)
    for _ in range(5):
        y = rng.standard_normal(4)
        g = dual_gradient(p, y)
        eps = 1e-6
        fd = np.zeros(4)
        for i in range(4):
            e = np.zeros(4)
            e[i] = eps
            fd[i] = (dual_objective(p, y + e) - dual_objective(p, y - e)) / (2 * eps)
        assert np.max(np.abs(fd - g)) <= 1e-6 * (1 + np.linalg.norm(g))


def test_solve_reaches_feasibility():
    p, _ = _l1_problem()
    x, y, trace = solve(p, SolveConfig(primal_tol=1e-10))
    assert trace.termination == "feasibility_tol"
    r = (p.b - p.op.apply(x)).norm()
    assert r <= 1e-10 * max(1.0, p.b.norm())
    # returned pair is consistent: x is the prox image of the returned y
    x_check = primal_from_dual(p, y.data)
    assert np.linalg.norm(x.data - x_check) == 0.0
    assert len(trace.records) == trace.records[-1].k


def test_dual_objective_monotone_descent():
    p, _ = _l1_problem()
    _, _, trace = solve(p, SolveConfig(primal_tol=1e-10))
    vals = [rec.dual_objective for rec in trace.records]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_accelerated_matches_plain_limit():
    p, _ = _l1_problem()
    x_plain, _, tr_plain = solve(p, SolveConfig(primal_tol=1e-10))
    x_acc, _, tr_acc = solve(p, SolveConfig(primal_tol=1e-10, accelerated=True))
    assert tr_acc.termination == "feasibility_tol"
    assert len(tr_acc.records) <= len(tr_plain.records)
    assert (x_plain - x_acc).norm() <= 1e-6 * (1 + x_plain.norm())


def test_warm_start_resumes():
    p, _ = _l1_problem()
    x1, y1, tr1 = solve(p, SolveConfig(max_iter=50, primal_tol=1e-10))
    assert tr1.termination == "max_iter"
    x2, y2, tr2 = solve(p, SolveConfig(primal_tol=1e-10, y0=y1))
    assert tr2.termination == "feasibility_tol"
    cold_total = len(solve(p, SolveConfig(primal_tol=1e-10))[2].records)
    assert 50 + len(tr2.records) <= cold_total + 2


def test_trace_records_bound_and_step():
    p, _ = _l1_problem()
    _, _, trace = solve(p, SolveConfig(primal_tol=1e-10))
    assert (trace.norm_bound, trace.h, trace.norm_method) == step_size(p, SolveConfig())
    h = 0.5 / 2.0**2
    for accelerated in (False, True):
        _, _, trace = solve(p, SolveConfig(h=h, max_iter=5, accelerated=accelerated),
                            norm_bound=2.0)
        assert (trace.norm_bound, trace.h, trace.norm_method) == (2.0, h, "given")


def test_inconsistent_system_flags_suspected_infeasible():
    a = np.array([[1.0], [1.0]])
    p = ProblemSpec(Dense(a), Point.vector([1.0, 2.0]), NormSpec("l1"), 5.0)
    for accelerated in (False, True):
        x, y, trace = solve(p, SolveConfig(max_iter=50_000, primal_tol=1e-10,
                                           accelerated=accelerated))
        assert trace.termination == "suspected_infeasible"
        assert len(trace.records) <= 20


def _rank_deficient_system(noise):
    # A wide 20x60 Dense of rank 12; b = A x0 plus noise, which leaves range(A).
    rng = np.random.default_rng(4)
    a = rng.standard_normal((20, 12)) @ rng.standard_normal((12, 60)) / np.sqrt(20)
    x0 = np.zeros(60)
    x0[rng.choice(60, 5, replace=False)] = rng.standard_normal(5)
    b = a @ x0 + noise * rng.standard_normal(20)
    return ProblemSpec(Dense(a), Point.vector(b), NormSpec("l1"), 1.0), a, b


@pytest.mark.parametrize("accelerated", [False, True])
def test_noisy_rank_deficient_system_flags_suspected_infeasible(accelerated):
    # A 100-iteration stall window let the accelerated solve run to max_iter.
    p, a, b = _rank_deficient_system(noise=1e-2)
    x, _, trace = solve(p, SolveConfig(max_iter=10_000, accelerated=accelerated))
    assert trace.termination == "suspected_infeasible"
    # The residual has settled at the part of b outside range(A).
    b_perp = b - a @ np.linalg.lstsq(a, b, rcond=None)[0]
    r = b - a @ x.data
    assert np.linalg.norm(r) == pytest.approx(np.linalg.norm(b_perp), rel=1e-8)
    assert b @ r > 0.0


@pytest.mark.parametrize("accelerated", [False, True])
def test_consistent_rank_deficient_system_is_not_flagged(accelerated):
    p, _, _ = _rank_deficient_system(noise=0.0)
    _, _, trace = solve(p, SolveConfig(accelerated=accelerated))
    assert trace.termination == "feasibility_tol"


def test_zero_rhs_terminates_immediately():
    p = ProblemSpec(Dense(np.eye(3)), Point.vector(np.zeros(3)), NormSpec("l1"), 1.0)
    x, y, trace = solve(p, SolveConfig())
    assert trace.termination == "feasibility_tol"
    assert len(trace.records) == 1
    assert x.norm() == 0.0
    assert trace.records[0].primal_residual == 0.0


@pytest.mark.parametrize("accelerated", [False, True])
def test_bound_below_norm_ends_in_numerical_failure(accelerated):
    # 0.05 is far below ||A||, so the step is too long and the iterates
    # diverge until a norm overflows.
    p, _ = _l1_problem(seed=0, n=8, m=5)
    x, y, trace = solve(p, SolveConfig(accelerated=accelerated), norm_bound=0.05)
    assert trace.termination == "numerical_failure"
    assert len(trace.records) < 1000
    assert np.all(np.isfinite(x.data)) and np.all(np.isfinite(y.data))
    x_check = primal_from_dual(p, y.data)
    assert np.linalg.norm(x.data - x_check) == 0.0
    last = trace.records[-1]
    assert not all(
        np.isfinite(v) for v in (last.primal_residual, last.x_change, last.y_change)
    )


class _FullProductMap(LinearOperator):
    """Reference maps of a matrix: the full matrix-vector product for every
    x, and A*Ax as the adjoint of Ax."""

    def __init__(self, matrix):
        self.matrix = matrix
        self.domain_shape, self.codomain_shape = (matrix.shape[1],), (matrix.shape[0],)

    def _apply(self, x):
        return self.matrix @ x

    def _adjoint(self, y):
        return self.matrix.T @ y


class _InfiniteForwardMap(_FullProductMap):
    """A forward map that overflows to inf once x is nonzero."""

    def _apply(self, x):
        ax = super()._apply(x)
        return np.full_like(ax, np.inf) if x.any() else ax


@pytest.mark.parametrize("accelerated", [False, True])
def test_non_finite_forward_map_ends_in_numerical_failure(accelerated):
    # Ax is inf from the first nonzero x on. The bound is given, so the
    # norm estimate never meets the non-finite map.
    p, _ = _l1_problem(seed=0, n=8, m=5)
    p = dataclasses.replace(p, op=_InfiniteForwardMap(p.op.matrix))
    x, y, trace = solve(p, SolveConfig(accelerated=accelerated),
                        norm_bound=1.01 * np.linalg.norm(p.op.matrix, 2))
    assert trace.termination == "numerical_failure"
    residuals = [rec.primal_residual for rec in trace.records]
    assert not np.isfinite(residuals[-1]) and np.all(np.isfinite(residuals[:-1]))
    assert np.all(np.isfinite(x.data)) and np.all(np.isfinite(y.data))
    assert x.data.tobytes() == primal_from_dual(p, y.data).tobytes()


def test_overflowing_rhs_is_rejected():
    with pytest.raises(ValueError, match="rescale"):
        ProblemSpec(Dense(np.eye(1)), Point.vector([1e300]), NormSpec("l1"), 1.0)


def test_trace_records_are_a_read_only_view():
    p, _ = _l1_problem()
    _, _, trace = solve(p, SolveConfig(primal_tol=1e-10, accelerated=True))
    recs = trace.records
    assert not hasattr(recs, "append")
    assert [r.k for r in recs] == list(range(1, len(recs) + 1))
    assert recs[-1] == recs[len(recs) - 1]
    assert recs[0].x_change == list(recs)[0].x_change
    with pytest.raises(IndexError):
        recs[len(recs)]


def test_sparse_forward_map_keeps_the_iterates():
    # A 300x1400 linearized-Bregman solve whose iterates keep about 30
    # nonzeros, so every forward map after the first takes the sparse path.
    model, truth = generate_instance(
        InstanceSpec(kind="aug_l1", seed=5, m=300, n=1400, k=30)
    )
    tau = tau_heuristic(model, magnitude=float(np.max(np.abs(truth.data))))
    p = build_problem(dataclasses.replace(model, tau=tau))
    ref = dataclasses.replace(p, op=_FullProductMap(p.op.matrix))
    config = SolveConfig(primal_tol=1e-6)
    x, _, trace = solve(p, config)
    # The reference map has no certified bound: it takes the Dense's.
    x_ref, _, trace_ref = solve(ref, config, norm_bound=trace.norm_bound)
    assert trace.h == trace_ref.h
    assert trace.termination == trace_ref.termination == "feasibility_tol"
    assert len(trace.records) == len(trace_ref.records)
    assert (x - x_ref).norm() <= 1e-12 * x_ref.norm()
    assert np.count_nonzero(x.data) <= SPARSE_APPLY_FRACTION * x.data.size


def _sparse_l1(op, rng, k):
    n = op.domain_shape[0]
    x0 = np.zeros(n)
    x0[rng.choice(n, size=k, replace=False)] = rng.choice([-1.0, 1.0], size=k)
    return ProblemSpec(op, Point.vector(op.matrix @ x0), NormSpec("l1"), 10.0)


def test_solve_reads_a_mutated_matrix_afresh():
    # Dense keeps only its matrix, a view of the caller's array, and each
    # solve builds its own normal map: after the caller scales the array,
    # the forward map and a warm-started re-solve see the new entries.
    rng = np.random.default_rng(23)
    a = rng.standard_normal((40, 200)) / np.sqrt(40)
    p = _sparse_l1(Dense(a), rng, 5)
    assert list(vars(p.op)) == ["matrix"]
    x, y, trace = solve(p, SolveConfig(primal_tol=1e-8))
    assert trace.termination == "feasibility_tol"
    assert list(vars(p.op)) == ["matrix"]
    a *= 1.5
    # x is sparse, so the forward map takes its support-column path.
    assert np.count_nonzero(x.data) <= SPARSE_APPLY_FRACTION * x.data.size
    want = a @ x.data
    assert np.linalg.norm(p.op.apply(x).data - want) <= 1e-14 * np.linalg.norm(want)
    config = SolveConfig(primal_tol=1e-8, y0=y, max_iter=5000)
    fresh = ProblemSpec(Dense(a.copy()), p.b, p.regularizer, p.tau)
    x_warm, y_warm, trace_warm = solve(p, config)
    x_fresh, y_fresh, trace_fresh = solve(fresh, config)
    assert trace_fresh.termination == "feasibility_tol"
    assert x_warm.data.tobytes() == x_fresh.data.tobytes()
    assert y_warm.data.tobytes() == y_fresh.data.tobytes()
    assert list(trace_warm.records) == list(trace_fresh.records)


def test_threads_sharing_one_dense_get_the_sequential_bits():
    # Four solves with different right-hand sides, hence different supports,
    # share one Dense; a short switch interval interleaves their iterations.
    rng = np.random.default_rng(29)
    a = rng.standard_normal((60, 250)) / np.sqrt(60)
    op = Dense(a)
    problems = [_sparse_l1(op, rng, 6) for _ in range(4)]
    config = SolveConfig(primal_tol=1e-8)

    def bits(p):
        x, y, trace = solve(p, config)
        assert trace.termination == "feasibility_tol"
        return x.data.tobytes(), y.data.tobytes()

    want = [bits(p) for p in problems]
    got = [None] * len(problems)

    def work(i):
        got[i] = bits(problems[i])

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(problems))]
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert got == want


_SMALL_SPECS = [
    dict(kind="aug_l1", seed=3, m=10, n=30, k=2),
    dict(kind="matrix_completion", seed=3, rows=6, cols=5, rank=1, p=0.8),
    dict(kind="rpca", seed=3, rows=5, cols=4, rank=1, k=2, lam=0.5),
]


def _small_problem(spec):
    model, truth = generate_instance(InstanceSpec(**spec))
    magnitude = float(np.max(np.abs(truth.data))) if spec["kind"] == "aug_l1" else None
    return build_problem(dataclasses.replace(model, tau=tau_heuristic(model, magnitude)))


@pytest.mark.parametrize("accelerated", [False, True], ids=["plain", "accelerated"])
@pytest.mark.parametrize("spec", _SMALL_SPECS, ids=lambda spec: spec["kind"])
def test_solve_builds_a_fixed_number_of_points(spec, accelerated, monkeypatch):
    # The loop runs on arrays through the normal map and _adjoint; the only
    # Points a solve builds, whatever its iteration count, are the returned
    # pair (x, y).
    p = _small_problem(spec)
    bound, _, _ = step_size(p, SolveConfig())
    built = 0
    post_init = Point.__post_init__

    def counting_post_init(self):
        nonlocal built
        built += 1
        post_init(self)

    monkeypatch.setattr(Point, "__post_init__", counting_post_init)
    _, _, trace = solve(p, SolveConfig(primal_tol=1e-8, accelerated=accelerated),
                        norm_bound=bound)
    assert trace.termination == "feasibility_tol"
    assert len(trace.records) >= 20
    assert built == 2


class _DuckL1:
    # A regularizer is any object with prox(v, scale) and polar_project(v).
    def prox(self, v, scale):
        return soft_threshold(v, scale)

    def polar_project(self, v):
        return np.clip(v, -1.0, 1.0)


@pytest.mark.parametrize("accelerated", [False, True], ids=["plain", "accelerated"])
def test_duck_typed_regularizer_matches_the_catalog_l1(accelerated):
    p = _small_problem(_SMALL_SPECS[0])
    duck = ProblemSpec(p.op, p.b, _DuckL1(), p.tau)
    config = SolveConfig(primal_tol=1e-8, accelerated=accelerated)
    x, y, trace = solve(p, config)
    x_duck, y_duck, trace_duck = solve(duck, config)
    assert trace.termination == trace_duck.termination == "feasibility_tol"
    assert x_duck.data.tobytes() == x.data.tobytes()
    assert y_duck.data.tobytes() == y.data.tobytes()
    assert list(trace_duck.records) == list(trace.records)


def _run_python(script: str) -> None:
    """Run ``script`` in a fresh interpreter on this package's source."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


# The 10x40 aug_l1 instance takes the Gram-matrix norm, the 10x30 one Lanczos.
_SCIPY_FREE_SPECS = _SMALL_SPECS + [dict(kind="aug_l1", seed=3, m=10, n=40, k=2)]


def test_solve_path_imports_no_scipy():
    # numpy alone carries generate -> tau -> build -> solve; scipy would add
    # tens of MB to every solving process. A fresh interpreter shows what the
    # path imports.
    _run_python(f"""
import dataclasses, sys
from augdual.cli import InstanceSpec, generate_instance
from augdual.models import build_problem, tau_heuristic
from augdual.solver import SolveConfig, solve
for spec in {_SCIPY_FREE_SPECS!r}:
    model, truth = generate_instance(InstanceSpec(**spec))
    magnitude = max(abs(truth.data.ravel())) if spec["kind"] == "aug_l1" else None
    p = build_problem(dataclasses.replace(model, tau=tau_heuristic(model, magnitude)))
    for accelerated in (False, True):
        solve(p, SolveConfig(max_iter=50, accelerated=accelerated))
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
if loaded:
    sys.exit(f"the solve path imported {{loaded}}")
""")


def test_cli_runs_without_scipy(tmp_path):
    # numpy is the only runtime dependency: with scipy's import blocked,
    # gen, solve and check exit 0 on every kind, plain and accelerated.
    _run_python(f"""
import json, sys
from pathlib import Path
sys.modules["scipy"] = None
from augdual.cli import main
for i, spec in enumerate({_SCIPY_FREE_SPECS!r}):
    for accelerated in (False, True):
        out = Path({str(tmp_path)!r}) / f"{{i}}{{accelerated}}"
        out.mkdir()
        (out / "spec.json").write_text(json.dumps(spec))
        (out / "config.json").write_text(json.dumps({{
            "instance_path": "inst/instance.json", "tau": {{"rule": "heuristic"}},
            "solve": {{"accelerated": accelerated}}, "output": {{"solution": "solution.json"}},
        }}))
        for argv in (["gen", "--spec", out / "spec.json", "--out", out / "inst"],
                     ["solve", "--config", out / "config.json"],
                     ["check", "--problem", out / "inst" / "instance.json",
                      "--solution", out / "solution.json"]):
            code = main([str(arg) for arg in argv])
            if code != 0:
                sys.exit(f"{{argv}} exited {{code}}")
""")


@pytest.mark.parametrize("spec", _SMALL_SPECS[1:], ids=lambda spec: spec["kind"])
def test_carried_adjoint_keeps_the_textbook_iterates(spec):
    # For the sampling and block-sum operators, carrying A*y through the
    # loop gives the same bits as taking the adjoint of every iterate.
    p = _small_problem(spec)
    bound, h, _ = step_size(p, SolveConfig())
    iterations = 30
    x, y, trace = solve(p, SolveConfig(max_iter=iterations, primal_tol=1e-14),
                        norm_bound=bound)
    assert trace.termination == "max_iter"
    y_ref = np.zeros(p.op.codomain_shape)
    for _ in range(iterations):
        y_ref, _ = step(p, y_ref, h)
    assert y.data.tobytes() == y_ref.tobytes()
    assert x.data.tobytes() == step(p, y_ref, h)[1].tobytes()


@pytest.mark.parametrize("spec", _SMALL_SPECS[1:], ids=lambda spec: spec["kind"])
def test_carried_adjoint_keeps_the_accelerated_iterates(spec):
    # The same with momentum of coefficient 1 and restart, against the
    # accelerated iteration written out with one adjoint per gradient.
    p = _small_problem(spec)
    bound, h, _ = step_size(p, SolveConfig(accelerated=True))
    iterations = 40
    x, y, trace = solve(p, SolveConfig(max_iter=iterations, primal_tol=1e-14,
                                       accelerated=True), norm_bound=bound)
    assert trace.termination == "max_iter"
    y_ref = w = np.zeros(p.op.codomain_shape)
    restarts = 0
    for _ in range(iterations):
        r = -dual_gradient(p, w)
        y_next = w + r * h
        dy = y_next - y_ref
        if float(r.ravel() @ dy.ravel()) < 0.0:
            w = y_next
            restarts += 1
        else:
            w = y_next + dy
        y_ref = y_next
    assert restarts > 0
    assert trace.restarts == restarts
    assert y.data.tobytes() == y_ref.tobytes()
    assert x.data.tobytes() == primal_from_dual(p, y_ref).tobytes()
