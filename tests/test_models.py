import dataclasses
import math

import numpy as np
import pytest

from augdual.cli import InstanceSpec, generate_instance
from augdual.linop import BlockSum, Dense, Point, SamplingMask
from augdual.models import (
    AugL1Model,
    MatrixCompletionModel,
    RpcaModel,
    RpcaRegularizer,
    build_problem,
    tau_heuristic,
)
from augdual import numerics
from augdual.numerics import svd
from augdual.prox import NormSpec, prox_norm, soft_threshold, svt
from augdual.solver import ProblemSpec, SolveConfig, solve


def test_tau_rule_aug_l1():
    model = AugL1Model(np.eye(2), np.ones(2))
    assert tau_heuristic(model, magnitude=2.0) == pytest.approx(20.0)
    with pytest.raises(ValueError):
        tau_heuristic(model)


def test_tau_rule_matrix_completion():
    # p = 0.5, ||P_Omega(M)||_F = 3 -> 24
    omega = tuple((i, j) for i in range(2) for j in range(2))[:2]
    vals = np.array([3.0, 0.0])
    model = MatrixCompletionModel(SamplingMask((2, 2), omega), vals)
    assert tau_heuristic(model) == pytest.approx(24.0)


def test_completion_model_keeps_omega_as_the_mask_does():
    mask = SamplingMask((2, 3), ((0, 1), (1, 2)))
    model = MatrixCompletionModel(mask, [1.0, 2.0])
    assert model.mask is mask
    assert np.array_equal(model.sampled_values, [1.0, 2.0])
    # One sampled value per index of omega, and omega comes as a mask.
    for values in ([1.0], [1.0, 2.0, 3.0]):
        with pytest.raises(ValueError):
            MatrixCompletionModel(mask, values)
    with pytest.raises(TypeError):
        MatrixCompletionModel(((0, 1), (1, 2)), [1.0, 2.0])


def test_tau_rule_rpca():
    # ||D||_F = 3, lam = 1 -> 8*sqrt(15) ~ 30.9839
    d = np.diag([3.0, 0.0])
    model = RpcaModel(d, lam=1.0)
    assert tau_heuristic(model) == pytest.approx(8.0 * math.sqrt(15.0))
    assert tau_heuristic(model) == pytest.approx(30.9839, abs=5e-4)


@pytest.mark.parametrize("lam", [math.nan, math.inf, 0.0, -1.0, True, "0.5", 10**400,
                                 pytest.param(10**5000, id="10**5000")])
def test_rpca_model_rejects_a_lam_that_is_not_finite_and_positive(lam):
    with pytest.raises(ValueError, match="lam must be finite and positive"):
        RpcaModel(np.eye(2), lam=lam)


def test_build_aug_l1():
    p = build_problem(AugL1Model(np.eye(3), np.ones(3), tau=5.0))
    assert isinstance(p.op, Dense)
    assert p.regularizer.kind == "l1"
    assert p.tau == 5.0


def test_build_requires_tau():
    with pytest.raises(ValueError, match="no tau"):
        build_problem(AugL1Model(np.eye(3), np.ones(3)))
    # ProblemSpec is the one check that tau is finite and positive.
    for tau in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="tau must be finite and positive"):
            build_problem(AugL1Model(np.eye(3), np.ones(3), tau=tau))
    # A bool is not a number: neither the model nor ProblemSpec coerces it.
    with pytest.raises(ValueError, match="tau must be finite and positive, got True"):
        build_problem(AugL1Model(np.eye(3), np.ones(3), tau=True))
    with pytest.raises(ValueError, match="tau must be finite and positive, got True"):
        ProblemSpec(Dense(np.eye(3)), Point.vector(np.ones(3)), NormSpec("l1"), True)


def test_tau_rule_names_all_zero_data():
    mask = SamplingMask((2, 2), ((0, 0), (1, 1)))
    cases = [
        (AugL1Model(np.eye(2), np.zeros(2)), 0.0, "magnitude of x0"),
        (MatrixCompletionModel(mask, [0.0, 0.0]), None, "sampled_values"),
        (RpcaModel(np.zeros((3, 2)), lam=0.5), None, "D"),
    ]
    for model, magnitude, data in cases:
        with pytest.raises(ValueError, match=f"tau = 0: .*{data}.* is zero"):
            tau_heuristic(model, magnitude=magnitude)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_models_reject_non_finite_data(bad):
    with pytest.raises(ValueError, match="b must be finite"):
        AugL1Model(np.eye(2), [bad, 1.0], tau=1.0)
    mask = SamplingMask((2, 2), ((0, 0), (1, 1)))
    with pytest.raises(ValueError, match="sampled_values must be finite"):
        MatrixCompletionModel(mask, [bad, 1.0])
    d = np.eye(2)
    d[1, 0] = bad
    with pytest.raises(ValueError, match="D must be finite"):
        RpcaModel(d, lam=0.5)


def test_build_matrix_completion():
    mask = SamplingMask((2, 3), ((0, 0), (1, 2)))
    model = MatrixCompletionModel(mask, np.array([1.0, 2.0]), tau=4.0)
    p = build_problem(model)
    assert isinstance(p.op, SamplingMask)
    assert p.regularizer.kind == "nuclear"
    assert np.array_equal(p.b.data, [1.0, 2.0])


def test_build_matrix_completion_reuses_the_checked_mask(monkeypatch):
    # generate -> tau_heuristic -> replace -> build_problem: the mask built
    # with the instance is the operator, and nothing checks omega again.
    built = 0
    post_init = SamplingMask.__post_init__

    def counting_post_init(self):
        nonlocal built
        built += 1
        post_init(self)

    monkeypatch.setattr(SamplingMask, "__post_init__", counting_post_init)
    model, _ = generate_instance(
        InstanceSpec(kind="matrix_completion", seed=1, rows=24, cols=12, rank=1, p=0.9)
    )
    p = build_problem(dataclasses.replace(model, tau=tau_heuristic(model)))
    assert built == 1
    assert p.op is model.mask


def test_build_rpca():
    p = build_problem(RpcaModel(np.eye(2), lam=0.5, tau=3.0))
    assert isinstance(p.op, BlockSum)
    assert isinstance(p.regularizer, RpcaRegularizer)


def test_rpca_regularizer_prox_blocks():
    reg = RpcaRegularizer(lam=0.5)
    rng = np.random.default_rng(31)
    l = rng.standard_normal((4, 4))
    s = rng.standard_normal((4, 4))
    lo, so = reg.prox(np.stack((l, s)), 0.7)
    res = svd(l)
    expect_l = (res.u * np.maximum(res.s - 0.7, 0.0)) @ res.v.T
    assert np.max(np.abs(lo - expect_l)) <= 1e-12
    assert np.array_equal(so, soft_threshold(s, 0.35))


def test_rpca_polar_project_clamps():
    reg = RpcaRegularizer(lam=0.5)
    l = np.diag([3.0, 0.2])
    s = np.array([[2.0, -0.1], [0.0, -4.0]])
    lo, so = reg.polar_project(np.stack((l, s)))
    assert np.allclose(np.sort(svd(lo).s)[::-1], [1.0, 0.2], atol=1e-12)
    assert np.max(np.abs(so)) <= 0.5 + 1e-15


def test_rpca_polar_project_uses_numerics_svd(monkeypatch):
    def failing_svd(m):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(numerics, "svd", failing_svd)
    reg = RpcaRegularizer(lam=0.5)
    with pytest.raises(np.linalg.LinAlgError):
        reg.polar_project(np.stack((np.eye(2), np.eye(2))))


def test_svt_iteration_is_nuclear_prox():
    # the matrix shrink used by the model equals the nuclear-norm prox
    rng = np.random.default_rng(32)
    m = rng.standard_normal((5, 3))
    a = svt(m, 0.9)
    b = prox_norm(NormSpec("nuclear"), m, 0.9)
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
    model = MatrixCompletionModel(SamplingMask((5, 5), omega), vals)
    p = build_problem(dataclasses.replace(model, tau=tau_heuristic(model)))
    x, _, trace = solve(
        p, SolveConfig(primal_tol=1e-10, max_iter=200_000, accelerated=True)
    )
    assert trace.termination == "feasibility_tol"
    got = x.data
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
    lhat, shat = x.data
    gap = np.linalg.norm(d - lhat - shat, "fro")
    assert gap <= 1e-8 * np.linalg.norm(d, "fro")
