import math

import numpy as np
import pytest

from augdual.linop import BlockSum, Dense, Point, SamplingMask
from augdual.models import (
    AugL1Model,
    AugNuclearModel,
    GaugeModel,
    MatrixCompletionModel,
    RpcaModel,
    RpcaRegularizer,
    build_problem,
    tau_heuristic,
)
from augdual.gauge import NormGauge
from augdual import numerics
from augdual.numerics import svd
from augdual.prox import NormSpec, prox_norm, soft_threshold, svt
from augdual.solver import SolveConfig, solve


def test_tau_rule_aug_l1():
    model = AugL1Model(np.eye(2), np.ones(2))
    assert tau_heuristic(model, magnitude=2.0) == pytest.approx(20.0)
    with pytest.raises(ValueError):
        tau_heuristic(model)


def test_tau_rule_matrix_completion():
    # p = 0.5, ||P_Omega(M)||_F = 3 -> 24
    omega = tuple((i, j) for i in range(2) for j in range(2))[:2]
    vals = np.array([3.0, 0.0])
    model = MatrixCompletionModel((2, 2), omega, vals)
    assert model.sample_ratio == 0.5
    assert tau_heuristic(model) == pytest.approx(24.0)


def test_tau_rule_rpca():
    # ||D||_F = 3, lam = 1 -> 8*sqrt(15) ~ 30.9839
    d = np.diag([3.0, 0.0])
    model = RpcaModel(d, lam=1.0)
    assert tau_heuristic(model) == pytest.approx(8.0 * math.sqrt(15.0))
    assert tau_heuristic(model) == pytest.approx(30.9839, abs=5e-4)


def test_tau_rule_aug_nuclear():
    model = AugNuclearModel(Dense(np.eye(2)), Point.vector([1.0, 0.0]))
    assert tau_heuristic(model, magnitude=1.5) == pytest.approx(15.0)


def test_build_aug_l1():
    p = build_problem(AugL1Model(np.eye(3), np.ones(3), tau=5.0))
    assert isinstance(p.op, Dense)
    assert p.regularizer.kind == "l1"
    assert p.mu == p.tau == 5.0


def test_build_requires_tau():
    with pytest.raises(ValueError):
        build_problem(AugL1Model(np.eye(3), np.ones(3)))
    with pytest.raises(ValueError):
        build_problem(AugL1Model(np.eye(3), np.ones(3), tau=-1.0))


def test_build_matrix_completion():
    model = MatrixCompletionModel((2, 3), ((0, 0), (1, 2)), np.array([1.0, 2.0]), tau=4.0)
    p = build_problem(model)
    assert isinstance(p.op, SamplingMask)
    assert p.regularizer.kind == "nuclear"
    assert np.array_equal(p.b.as_vector(), [1.0, 2.0])


def test_build_rpca_and_gauge():
    p = build_problem(RpcaModel(np.eye(2), lam=0.5, tau=3.0))
    assert isinstance(p.op, BlockSum)
    assert isinstance(p.regularizer, RpcaRegularizer)
    g = GaugeModel(NormGauge(NormSpec("l2")), Dense(np.eye(2)), Point.vector([1.0, 0.0]), tau=2.0)
    pg = build_problem(g)
    assert pg.mu == pg.tau == 2.0


def test_rpca_regularizer_prox_blocks():
    reg = RpcaRegularizer(lam=0.5)
    rng = np.random.default_rng(31)
    l = rng.standard_normal((4, 4))
    s = rng.standard_normal((4, 4))
    out = reg.prox(Point.pair(l, s), 0.7)
    lo, so = out.as_pair()
    res = svd(l)
    expect_l = (res.u * np.maximum(res.s - 0.7, 0.0)) @ res.v.T
    assert np.max(np.abs(lo - expect_l)) <= 1e-12
    assert np.array_equal(so, soft_threshold(s, 0.35))


def test_rpca_polar_project_clamps():
    reg = RpcaRegularizer(lam=0.5)
    l = np.diag([3.0, 0.2])
    s = np.array([[2.0, -0.1], [0.0, -4.0]])
    lo, so = reg.polar_project(Point.pair(l, s)).as_pair()
    assert np.allclose(np.sort(svd(lo).s)[::-1], [1.0, 0.2], atol=1e-12)
    assert np.max(np.abs(so)) <= 0.5 + 1e-15


def test_rpca_polar_project_uses_numerics_svd(monkeypatch):
    def failing_svd(m):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(numerics, "svd", failing_svd)
    reg = RpcaRegularizer(lam=0.5)
    with pytest.raises(np.linalg.LinAlgError):
        reg.polar_project(Point.pair(np.eye(2), np.eye(2)))


def test_svt_iteration_is_nuclear_prox():
    # the matrix shrink used by the model equals the nuclear-norm prox
    rng = np.random.default_rng(32)
    m = rng.standard_normal((5, 3))
    a = svt(m, 0.9)
    b = prox_norm(NormSpec("nuclear"), Point.matrix(m), 0.9).as_matrix()
    assert np.max(np.abs(a - b)) <= 1e-14


def test_small_matrix_completion_recovers_rank_one():
    rng = np.random.default_rng(33)
    u = rng.standard_normal(5)
    v = rng.standard_normal(5)
    m = np.outer(u, v)
    omega = tuple(
        (i, j) for i in range(5) for j in range(5) if rng.uniform() < 0.8
    )
    vals = np.array([m[i, j] for i, j in omega])
    model = MatrixCompletionModel((5, 5), omega, vals)
    tau = tau_heuristic(model)
    p = build_problem(
        MatrixCompletionModel((5, 5), omega, vals, tau=tau)
    )
    x, _, trace = solve(
        p, SolveConfig(primal_tol=1e-10, max_iter=200_000, accelerated=True)
    )
    assert trace.termination == "feasibility_tol"
    got = x.as_matrix()
    for (i, j), val in zip(omega, vals):
        assert got[i, j] == pytest.approx(val, abs=1e-8)


def test_rpca_splits_low_rank_plus_sparse():
    rng = np.random.default_rng(34)
    l0 = np.outer(rng.standard_normal(6), rng.standard_normal(6))
    s0 = np.zeros((6, 6))
    s0[1, 2] = 3.0
    s0[4, 0] = -2.0
    d = l0 + s0
    model = RpcaModel(d, lam=0.25)
    p = build_problem(RpcaModel(d, lam=0.25, tau=tau_heuristic(model)))
    x, _, trace = solve(
        p, SolveConfig(primal_tol=1e-9, max_iter=200_000, accelerated=True)
    )
    assert trace.termination == "feasibility_tol"
    lhat, shat = x.as_pair()
    gap = np.linalg.norm(d - lhat - shat, "fro")
    assert gap <= 1e-8 * np.linalg.norm(d, "fro")
