import numpy as np
import pytest

from augdual.gauge import NormGauge
from augdual.linop import Dense, Point
from augdual.prox import NormSpec
from augdual.solver import (
    ConfigurationError,
    DualState,
    ProblemSpec,
    SolveConfig,
    default_step_size,
    dual_gradient,
    dual_objective,
    primal_from_dual,
    solve,
    step,
    step_size_bound,
    validate_config,
)


def _l1_problem(seed=7, n=8, m=4, k=2, mu=1.0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n)) / np.sqrt(m)
    x0 = np.zeros(n)
    support = rng.choice(n, size=k, replace=False)
    x0[support] = rng.choice([-1.0, 1.0], size=k) * rng.uniform(0.5, 1.0, size=k)
    b = a @ x0
    tau = 10.0 * float(np.max(np.abs(x0)))
    return ProblemSpec(Dense(a), Point.vector(b), NormSpec("l1"), tau, mu), x0


def test_hand_iteration_scalar():
    # A = I (1x1), b = (5), tau = mu = 1, h = 1:
    # x1 = 0, y1 = 5; x2 = shrink(5) = 4, y2 = 6
    p = ProblemSpec(Dense(np.eye(1)), Point.vector([5.0]), NormSpec("l1"), 1.0, 1.0)
    s0 = DualState(k=0, y=Point.zeros(("vector", 1)), x=Point.zeros(("vector", 1)))
    s1 = step(p, s0, 1.0)
    assert s1.x.as_vector()[0] == 0.0
    assert s1.y.as_vector()[0] == 5.0
    s2 = step(p, s1, 1.0)
    assert s2.x.as_vector()[0] == 4.0
    assert s2.y.as_vector()[0] == 6.0


def test_step_size_interval():
    p, _ = _l1_problem()
    bound = step_size_bound(p, 2.0)
    assert bound == pytest.approx(2.0 * p.mu / (p.tau * 4.0))
    validate_config(p, SolveConfig(h=0.5 * bound), 2.0)
    for bad in (0.0, -1.0, bound, 1.5 * bound):
        with pytest.raises(ConfigurationError):
            validate_config(p, SolveConfig(h=bad), 2.0)


def test_accelerated_step_cap():
    p, _ = _l1_problem()
    cap = default_step_size(p, 2.0)
    validate_config(p, SolveConfig(h=cap, accelerated=True), 2.0)
    with pytest.raises(ConfigurationError):
        validate_config(p, SolveConfig(h=1.5 * cap, accelerated=True), 2.0)


def test_warm_start_needs_flag():
    p, _ = _l1_problem()
    y0 = Point.vector(np.ones(4))
    with pytest.raises(ConfigurationError):
        validate_config(p, SolveConfig(y0=y0), 2.0)
    validate_config(p, SolveConfig(y0=y0, warm_start=True), 2.0)


def test_gradient_of_dual_objective():
    p, _ = _l1_problem()
    rng = np.random.default_rng(1)
    for _ in range(5):
        y = Point.vector(rng.standard_normal(4))
        g = dual_gradient(p, y)
        eps = 1e-6
        fd = np.zeros(4)
        for i in range(4):
            e = np.zeros(4)
            e[i] = eps
            fd[i] = (
                dual_objective(p, y + Point.vector(e))
                - dual_objective(p, y - Point.vector(e))
            ) / (2 * eps)
        assert np.max(np.abs(fd - g.as_vector())) <= 1e-6 * (1 + g.norm())


def test_solve_reaches_feasibility():
    p, _ = _l1_problem()
    x, y, trace = solve(p, SolveConfig(primal_tol=1e-10))
    assert trace.termination == "feasibility_tol"
    r = (p.b - p.op.apply(x)).norm()
    assert r <= 1e-10 * max(1.0, p.b.norm())
    # returned pair is consistent: x is the prox image of the returned y
    x_check, _ = primal_from_dual(p, y)
    assert (x - x_check).norm() == 0.0
    assert len(trace.records) == trace.records[-1].k


def test_dual_objective_monotone_descent():
    p, _ = _l1_problem()
    _, _, trace = solve(p, SolveConfig(primal_tol=1e-10))
    vals = [rec.dual_objective for rec in trace.records]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_mu_is_redundant_to_the_solution():
    pa, _ = _l1_problem(mu=1.0)
    pb, _ = _l1_problem(mu=7.0)
    xa, _, _ = solve(pa, SolveConfig(primal_tol=1e-12))
    xb, _, _ = solve(pb, SolveConfig(primal_tol=1e-12))
    assert (xa - xb).norm() <= 1e-8 * (1 + xa.norm())


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
    x2, y2, tr2 = solve(
        p, SolveConfig(primal_tol=1e-10, y0=y1, warm_start=True)
    )
    assert tr2.termination == "feasibility_tol"
    cold_total = len(solve(p, SolveConfig(primal_tol=1e-10))[2].records)
    assert 50 + len(tr2.records) <= cold_total + 2


def test_inconsistent_system_flags_suspected_infeasible():
    a = np.array([[1.0], [1.0]])
    p = ProblemSpec(Dense(a), Point.vector([1.0, 2.0]), NormSpec("l1"), 5.0, 1.0)
    x, y, trace = solve(p, SolveConfig(max_iter=50_000, primal_tol=1e-10))
    assert trace.termination == "suspected_infeasible"
    assert len(trace.records) < 50_000


def test_gauge_problems_require_mu_equal_tau():
    a = np.eye(2)
    g = NormGauge(NormSpec("l1"))
    with pytest.raises(ValueError):
        ProblemSpec(Dense(a), Point.vector([1.0, 1.0]), g, 2.0, 1.0)
    ProblemSpec(Dense(a), Point.vector([1.0, 1.0]), g, 2.0, 2.0)


def test_zero_rhs_terminates_immediately():
    p = ProblemSpec(Dense(np.eye(3)), Point.zeros(("vector", 3)), NormSpec("l1"), 1.0, 1.0)
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
    x_check, _ = primal_from_dual(p, y)
    assert (x - x_check).norm() == 0.0
    last = trace.records[-1]
    assert not all(
        np.isfinite(v) for v in (last.primal_residual, last.x_change, last.y_change)
    )


def test_overflowing_rhs_is_rejected():
    with pytest.raises(ValueError, match="rescale"):
        ProblemSpec(Dense(np.eye(1)), Point.vector([1e300]), NormSpec("l1"), 1.0, 1.0)


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
