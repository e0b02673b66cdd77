import numpy as np
import pytest
import scipy.optimize

from augdual.linop import Point
from augdual.models import AugL1Model, build_problem
from augdual.oracle import kkt_residual
from augdual.solver import SolveConfig, solve

from reference import InfeasibleModelError, l1_exact_solve, prox_bruteforce


def test_identity_instance_is_shrinkage():
    # A = I, b = v: the exact solution is tau/(tau+1)-scaled soft shrinkage
    # at 1 of v (stationarity x = tau*shrink(x/tau + y), y = b - x ... ),
    # verified here against the iterative solver instead of a closed form.
    b = np.array([3.0, -0.5, 0.0])
    tau = 5.0
    x = l1_exact_solve(np.eye(3), b, tau)
    p = build_problem(AugL1Model(np.eye(3), b, tau=tau))
    xs, _, _ = solve(p, SolveConfig(primal_tol=1e-12))
    assert (x - xs).norm() <= 1e-8
    # with A = I feasibility forces x = b exactly
    assert np.allclose(x.data, b, atol=1e-9)


def test_exact_solver_matches_iterative_on_random_instances():
    rng = np.random.default_rng(41)
    for _ in range(5):
        n, m, k = 6, 3, 2
        a = rng.standard_normal((m, n)) / np.sqrt(m)
        x0 = np.zeros(n)
        idx = rng.choice(n, size=k, replace=False)
        x0[idx] = rng.choice([-1.0, 1.0], size=k) * rng.uniform(0.5, 1.0, size=k)
        b = a @ x0
        tau = 10.0 * float(np.max(np.abs(x0)))
        exact = l1_exact_solve(a, b, tau)
        p = build_problem(AugL1Model(a, b, tau=tau))
        xs, _, _ = solve(p, SolveConfig(primal_tol=1e-12))
        assert (exact - xs).norm() <= 1e-6 * (1.0 + exact.norm())


def test_exact_solver_reaches_its_linear_program(monkeypatch):
    # On this instance the least-squares dual fails for some sign pattern,
    # so the exact solver decides it by the LP; the result still matches
    # the accelerated iterative solve.
    calls = []
    linprog = scipy.optimize.linprog

    def counted(*args, **kwargs):
        calls.append(args)
        return linprog(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linprog", counted)
    rng = np.random.default_rng(0)
    a, b, tau = rng.standard_normal((3, 8)), rng.standard_normal(3), 1.0
    exact = l1_exact_solve(a, b, tau)
    assert calls
    p = build_problem(AugL1Model(a, b, tau=tau))
    xs, _, _ = solve(p, SolveConfig(primal_tol=1e-12, accelerated=True))
    assert (exact - xs).norm() <= 1e-6 * exact.norm()


def test_exact_solver_rejects_large_n():
    with pytest.raises(ValueError):
        l1_exact_solve(np.zeros((2, 13)), np.zeros(2), 1.0)


def test_exact_solver_flags_infeasible():
    a = np.array([[1.0], [1.0]])
    with pytest.raises(InfeasibleModelError):
        l1_exact_solve(a, np.array([1.0, 2.0]), 5.0)


def test_kkt_report_zero_at_optimum():
    rng = np.random.default_rng(43)
    a = rng.standard_normal((3, 6)) / np.sqrt(3)
    x0 = np.zeros(6)
    x0[[1, 4]] = [0.8, -0.6]
    b = a @ x0
    p = build_problem(AugL1Model(a, b, tau=8.0))
    x, y, _ = solve(p, SolveConfig(primal_tol=1e-11))
    rep = kkt_residual(p, x, y)
    assert rep.stationarity == 0.0  # returned pair is consistent by design
    assert rep.feasibility <= 1e-10
    assert rep.max_violation == rep.feasibility


def test_kkt_report_detects_violations():
    p = build_problem(AugL1Model(np.eye(2), np.array([1.0, 1.0]), tau=2.0))
    bad_x = Point.vector([5.0, 5.0])
    bad_y = Point.vector([0.0, 0.0])
    rep = kkt_residual(p, bad_x, bad_y)
    assert rep.feasibility > 1.0
    assert rep.stationarity > 1.0


def test_bruteforce_prox_matches_soft_threshold():
    got = prox_bruteforce(
        lambda x: np.sum(np.abs(x), axis=1), np.array([2.0, -0.4]),
        grid_half_width=3.0, grid_points=201,
    )
    assert np.max(np.abs(got - [1.0, 0.0])) <= 0.031


def test_bruteforce_prox_caps():
    with pytest.raises(ValueError):
        prox_bruteforce(lambda x: np.zeros(len(x)), np.zeros(4), 1.0, 11)
    with pytest.raises(ValueError):
        prox_bruteforce(lambda x: np.zeros(len(x)), np.zeros(2), 1.0, 501)
