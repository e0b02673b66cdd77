import numpy as np
import pytest

from augdual.cli import InstanceSpec, generate_instance
from augdual.linop import BlockSum, Dense, Point, SamplingMask
from augdual.numerics import lanczos_norm, operator_norm_estimate, power_iteration, svd
from augdual.prox import NormSpec
from augdual.solver import ConfigurationError, ProblemSpec, SolveConfig, solve


def test_identity_svd():
    res = svd(np.eye(3))
    assert np.allclose(res.s, [1, 1, 1])
    assert np.allclose(res.u @ res.v.T, np.eye(3))


def test_diagonal_singular_values():
    res = svd(np.diag([3.0, 0.4]))
    assert np.allclose(res.s, [3.0, 0.4])


def test_random_reconstruction():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((5, 4))
    res = svd(m)
    assert np.linalg.norm(res.reconstruct() - m, "fro") <= 1e-9 * np.linalg.norm(m, "fro")


@pytest.mark.parametrize("shape", [(3, 7), (7, 3), (20, 20), (50, 50), (1, 4)])
def test_svd_invariants(shape):
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    m = 3.0 * rng.standard_normal(shape)
    res = svd(m)
    k = min(shape)
    assert np.max(np.abs(res.u.T @ res.u - np.eye(k))) <= 1e-10
    assert np.max(np.abs(res.v.T @ res.v - np.eye(k))) <= 1e-10
    assert np.all(np.diff(res.s) <= 0)
    assert np.all(res.s >= 0)
    assert np.linalg.norm(res.reconstruct() - m, "fro") <= 1e-9 * (
        1 + np.linalg.norm(m, "fro")
    )


def test_rank_deficient_and_zero():
    u = np.array([[1.0], [2.0], [2.0]]) / 3.0
    m = u @ u.T  # rank one
    res = svd(m)
    assert np.count_nonzero(res.s) == 1
    assert np.max(np.abs(res.u.T @ res.u - np.eye(3))) <= 1e-10
    zero = svd(np.zeros((3, 2)))
    assert np.all(zero.s == 0)
    assert np.max(np.abs(zero.u.T @ zero.u - np.eye(2))) <= 1e-12


def test_svd_rejects_nonfinite():
    with pytest.raises(ValueError):
        svd(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_svd_deterministic():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((8, 6))
    a = svd(m)
    b = svd(m.copy())
    assert np.array_equal(a.u, b.u)
    assert np.array_equal(a.s, b.s)
    assert np.array_equal(a.v, b.v)


def test_operator_norm_identity_and_diag():
    assert operator_norm_estimate(Dense(np.eye(5))) == pytest.approx(1.0, abs=1e-8)
    assert operator_norm_estimate(Dense(np.diag([2.0, 1.0]))) == pytest.approx(
        2.0, abs=1e-8
    )


def test_operator_norm_sampling_mask_is_one():
    op = SamplingMask((3, 3), ((0, 0), (1, 2), (2, 1)))
    est = operator_norm_estimate(op)
    assert est == pytest.approx(1.0, abs=1e-8)
    # crosscheck against the svd of the dense form of the projection
    dense = np.zeros((3, 9))
    for row, (i, j) in enumerate(op.indices):
        dense[row, 3 * i + j] = 1.0
    assert svd(dense).s[0] == pytest.approx(est, abs=1e-8)


def test_operator_norm_matches_svd_on_dense():
    rng = np.random.default_rng(9)
    for _ in range(5):
        mat = rng.standard_normal((7, 5))
        est = operator_norm_estimate(Dense(mat), tol=1e-14, max_iter=20000)
        top = svd(mat).s[0]
        assert abs(est - top) <= 1e-6 * top
        assert est <= top * (1 + 1e-12)


def test_operator_norm_blocksum_is_sqrt2():
    assert operator_norm_estimate(BlockSum((4, 3))) == pytest.approx(
        np.sqrt(2.0), abs=1e-6
    )


def test_power_iteration_unconverged_flag():
    rng = np.random.default_rng(2)
    op = Dense(rng.standard_normal((10, 10)))
    value, converged, iters = power_iteration(op, tol=1e-16, max_iter=2, seed=0)
    assert not converged
    assert iters == 2
    assert value >= 0
    with pytest.warns(RuntimeWarning):
        operator_norm_estimate(op, tol=1e-16, max_iter=2)


@pytest.mark.parametrize(
    "op, expected",
    [(SamplingMask((3, 4), ((0, 0), (1, 2), (2, 1), (2, 3))), 1.0),
     (BlockSum((4, 3)), np.sqrt(2.0))],
)
def test_lanczos_closed_form_norms_in_one_step(op, expected):
    # A A* is I for a mask and 2I for a block sum: the first Krylov space is
    # invariant.
    value, converged, steps = lanczos_norm(op, tol=1e-12, max_iter=5000, seed=0)
    assert converged and steps == 1
    assert abs(value - expected) <= 1e-15 * expected


@pytest.mark.parametrize("shape", [(40, 90), (90, 40), (30, 200), (200, 30)])
def test_lanczos_matches_svd_on_dense(shape):
    mat = np.random.default_rng(shape[0] + 7 * shape[1]).standard_normal(shape)
    value, converged, steps = lanczos_norm(Dense(mat), tol=1e-12, max_iter=5000, seed=0)
    top = svd(mat).s[0]
    assert converged and steps <= min(shape)
    assert abs(value - top) <= 1e-12 * top
    assert value <= top * (1 + 1e-12)


def test_lanczos_rank_one_and_repeated_top_value():
    u, v = np.array([1.0, 2.0, 2.0]), np.array([3.0, 0.0, -4.0, 0.0, 12.0])
    value, converged, _ = lanczos_norm(Dense(np.outer(u, v)), 1e-12, 5000, 0)
    assert converged and value == pytest.approx(3.0 * 13.0, rel=1e-14)
    value, converged, _ = lanczos_norm(Dense(np.diag([2.0, 2.0, 1.0])), 1e-12, 5000, 0)
    assert converged and value == pytest.approx(2.0, rel=1e-14)


def test_lanczos_zero_operator_is_a_configuration_error():
    op = Dense(np.zeros((3, 4)))
    assert lanczos_norm(op, 1e-12, 5000, 0) == (0.0, True, 1)
    p = ProblemSpec(op, Point.zeros(("vector", 3)), NormSpec("l1"), 1.0, 1.0)
    with pytest.raises(ConfigurationError):
        solve(p, SolveConfig())


def test_lanczos_step_cap():
    op = Dense(np.random.default_rng(2).standard_normal((10, 12)))
    value, converged, steps = lanczos_norm(op, tol=1e-16, max_iter=2, seed=0)
    assert not converged and steps == 2
    assert 0 < value <= svd(op.matrix).s[0]
    with pytest.warns(RuntimeWarning, match="operator norm power iteration did not reach"):
        operator_norm_estimate(op, tol=1e-16, max_iter=2)


def test_lanczos_needs_far_fewer_steps_than_power_iteration():
    model, _ = generate_instance(InstanceSpec(seed=1, kind="aug_l1", m=300, n=1400, k=30))
    op = Dense(model.A)
    value, converged, steps = lanczos_norm(op, 1e-12, 5000, 0)
    power_value, power_converged, power_steps = power_iteration(op, 1e-12, 5000, 0)
    assert converged and power_converged
    assert steps <= 100 and power_steps >= 300
    top = svd(op.matrix).s[0]
    assert abs(value - top) <= 1e-12 * top
    assert abs(value - power_value) <= 1e-9 * top
