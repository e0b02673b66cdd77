import numpy as np
import pytest

from augdual.numerics import svd
from augdual.prox import (
    NormSpec,
    dual_ball_project,
    dual_norm_value,
    norm_value,
    project_l1_ball,
    prox_norm,
    soft_threshold,
)

from reference import moreau_residual, prox_bruteforce

VECTOR_KINDS = ["l1", "l2", "linf"]


def _random_array(kind, rng, scale=3.0):
    if kind == "nuclear":
        return scale * rng.standard_normal((4, 3))
    return scale * rng.standard_normal(6)


def test_soft_threshold_values():
    v = np.array([3.0, -0.5, 0.0, 1.5])
    out = soft_threshold(v, 1.0)
    assert np.array_equal(out, [2.0, 0.0, 0.0, 0.5])


def test_l1_prox_example():
    # componentwise shrink of (3, -1, 0.2) by 0.5
    spec = NormSpec("l1")
    out = prox_norm(spec, np.array([3.0, -1.0, 0.2]), 0.5)
    assert np.allclose(out, [2.5, -0.5, 0.0])


def test_l2_prox_example():
    spec = NormSpec("l2")
    v = np.array([3.0, 4.0])
    out = prox_norm(spec, v, 1.0)
    assert np.allclose(out, [3.0 * 0.8, 4.0 * 0.8])
    # inside the threshold radius everything maps to zero
    inside = prox_norm(spec, np.array([0.3, 0.4]), 1.0)
    assert np.array_equal(inside, [0.0, 0.0])


def test_linf_prox_against_bruteforce():
    spec = NormSpec("linf")
    rng = np.random.default_rng(3)
    for _ in range(5):
        v = 2.0 * rng.standard_normal(3)
        got = prox_norm(spec, v, 0.7)
        ref = prox_bruteforce(
            lambda x: 0.7 * np.max(np.abs(x), axis=1), v,
            grid_half_width=3.0, grid_points=41,
        )
        assert np.max(np.abs(got - ref)) <= 0.12


def test_l1_prox_against_bruteforce():
    spec = NormSpec("l1")
    rng = np.random.default_rng(4)
    for _ in range(5):
        v = 2.0 * rng.standard_normal(3)
        got = prox_norm(spec, v, 0.9)
        ref = prox_bruteforce(
            lambda x: 0.9 * np.sum(np.abs(x), axis=1), v,
            grid_half_width=3.0, grid_points=41,
        )
        assert np.max(np.abs(got - ref)) <= 0.12


def test_weighted_l1():
    spec = NormSpec("l1", weights=np.array([1.0, 2.0, 0.5]))
    v = np.array([3.0, 3.0, 3.0])
    assert norm_value(spec, v) == pytest.approx(3.0 + 6.0 + 1.5)
    out = prox_norm(spec, v, 1.0)
    assert np.allclose(out, [2.0, 1.0, 2.5])
    # dual of a weighted l1 norm is a weighted linf norm
    assert dual_norm_value(spec, v) == pytest.approx(6.0)


def test_weights_validation():
    with pytest.raises(ValueError):
        NormSpec("l1", weights=np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        NormSpec("l2", weights=np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        NormSpec("huber")


def test_project_l1_ball_known_values():
    assert np.allclose(project_l1_ball(np.array([2.0, 2.0]), 1.0), [0.5, 0.5])
    v = np.array([0.3, -0.2])
    assert np.array_equal(project_l1_ball(v, 1.0), v)


def test_nuclear_prox_is_singular_value_shrink():
    spec = NormSpec("nuclear")
    rng = np.random.default_rng(8)
    m = rng.standard_normal((5, 4))
    out = prox_norm(spec, m, 0.6)
    res = svd(m)
    expect = (res.u * np.maximum(res.s - 0.6, 0.0)) @ res.v.T
    assert np.max(np.abs(out - expect)) <= 1e-12


@pytest.mark.parametrize("kind", VECTOR_KINDS + ["nuclear"])
def test_moreau_decomposition(kind):
    spec = NormSpec(kind)
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(200):
        v = _random_array(kind, rng)
        worst = max(worst, moreau_residual(spec, v, scale=1.0))
    assert worst <= 1e-10


@pytest.mark.parametrize("kind", VECTOR_KINDS + ["nuclear"])
def test_prox_scaling_identity(kind):
    # prox of the scaled input: prox_{sJ}(s v) = s prox_J(v) for s > 0
    spec = NormSpec(kind)
    rng = np.random.default_rng(12)
    for _ in range(100):
        v = _random_array(kind, rng)
        s = float(rng.uniform(0.1, 10.0))
        lhs = prox_norm(spec, s * v, s)
        rhs = s * prox_norm(spec, v, 1.0)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * (1.0 + np.linalg.norm(v))


@pytest.mark.parametrize("kind", VECTOR_KINDS + ["nuclear"])
def test_prox_firm_nonexpansive(kind):
    spec = NormSpec(kind)
    rng = np.random.default_rng(13)
    for _ in range(200):
        v = _random_array(kind, rng)
        w = _random_array(kind, rng)
        pv = prox_norm(spec, v, 1.0)
        pw = prox_norm(spec, w, 1.0)
        diff = pv - pw
        assert np.vdot(diff, v - w) >= np.vdot(diff, diff) - 1e-10
        assert np.linalg.norm(diff) <= np.linalg.norm(v - w) + 1e-10


@pytest.mark.parametrize("kind", VECTOR_KINDS + ["nuclear"])
def test_dual_ball_projection_properties(kind):
    spec = NormSpec(kind)
    rng = np.random.default_rng(14)
    for _ in range(100):
        v = _random_array(kind, rng)
        p = dual_ball_project(spec, v)
        assert dual_norm_value(spec, p) <= 1.0 + 1e-10
        # idempotent
        assert np.linalg.norm(dual_ball_project(spec, p) - p) <= 1e-10


@pytest.mark.parametrize("kind", VECTOR_KINDS + ["nuclear"])
def test_norm_dual_norm_pairing(kind):
    # Cauchy-Schwarz style pairing <v, w> <= ||v|| ||w||_dual
    spec = NormSpec(kind)
    rng = np.random.default_rng(15)
    for _ in range(100):
        v = _random_array(kind, rng)
        w = _random_array(kind, rng)
        assert np.vdot(v, w) <= norm_value(spec, v) * dual_norm_value(spec, w) + 1e-10


def test_prox_rejects_nonpositive_scale():
    spec = NormSpec("l1")
    v = np.array([1.0, -2.0])
    with pytest.raises(ValueError):
        prox_norm(spec, v, 0.0)
    with pytest.raises(ValueError):
        prox_norm(spec, v, -1.0)
