import numpy as np
import pytest

from augdual.gauge import (
    DiagWeighted,
    NormGauge,
    PolyhedralPolar,
    gauge_eval,
    gauge_prox,
    polar_project,
)
from augdual.prox import NormSpec, dual_norm_value, norm_value, prox_norm

CROSS = PolyhedralPolar(np.vstack([np.eye(3), -np.eye(3)]))  # C° = l1 ball in R^3


def test_norm_gauge_matches_norm():
    g = NormGauge(NormSpec("l1"))
    v = np.array([1.0, -2.0, 0.5])
    assert gauge_eval(g, v) == norm_value(NormSpec("l1"), v)


def test_diag_weighted_values():
    g = DiagWeighted(np.array([1.0, 2.0]))
    v = np.array([3.0, -1.0])
    assert gauge_eval(g, v) == pytest.approx(5.0)
    assert dual_norm_value(g.norm, v) == pytest.approx(3.0)
    out = gauge_prox(g, v, 1.0)
    assert np.allclose(out, [2.0, 0.0])


def test_diag_weighted_rejects_bad_weights():
    with pytest.raises(ValueError):
        DiagWeighted(np.array([1.0, 0.0]))


def test_segment_polar_gauge():
    # C° = conv{0, e1} in R^2: the gauge is its support function, max(0, x_1)
    g = PolyhedralPolar(np.array([[1.0, 0.0]]))
    assert gauge_eval(g, np.array([2.0, 5.0])) == pytest.approx(2.0)
    assert gauge_eval(g, np.array([-2.0, 5.0])) == 0.0


def test_cross_polytope_gauge_is_linf():
    rng = np.random.default_rng(22)
    for _ in range(20):
        v = 2.0 * rng.standard_normal(3)
        assert gauge_eval(CROSS, v) == pytest.approx(float(np.max(np.abs(v))))


def test_polar_project_cross_polytope_matches_l1_ball():
    # projecting onto conv{0, ±e_i} is projection onto the l1 ball
    from augdual.prox import dual_ball_project

    mirror = NormSpec("linf")  # dual ball of linf is the l1 ball
    rng = np.random.default_rng(23)
    for _ in range(20):
        v = 2.0 * rng.standard_normal(3)
        got = polar_project(CROSS, v)
        ref = dual_ball_project(mirror, v)
        assert np.linalg.norm(got - ref) <= 1e-8
    spot = polar_project(CROSS, np.array([2.0, 2.0, 0.0]))
    assert np.allclose(spot, [0.5, 0.5, 0.0], atol=1e-10)


@pytest.mark.parametrize(
    "g",
    [
        NormGauge(NormSpec("l1")),
        NormGauge(NormSpec("l2")),
        NormGauge(NormSpec("linf")),
        DiagWeighted(np.array([0.5, 1.0, 2.0])),
        CROSS,
    ],
    ids=["l1", "l2", "linf", "diag", "polyhedral"],
)
def test_generalized_moreau(g):
    rng = np.random.default_rng(24)
    for _ in range(50):
        v = 2.0 * rng.standard_normal(3)
        split = gauge_prox(g, v, 1.0) + polar_project(g, v)
        assert np.linalg.norm(split - v) <= 1e-8 * (1.0 + np.linalg.norm(v))


@pytest.mark.parametrize(
    "g",
    [
        NormGauge(NormSpec("l2")),
        DiagWeighted(np.array([0.5, 1.0, 2.0])),
    ],
    ids=["l2", "diag"],
)
def test_polar_inequality(g):
    rng = np.random.default_rng(25)
    for _ in range(50):
        x = 2.0 * rng.standard_normal(3)
        u = 2.0 * rng.standard_normal(3)
        assert x @ u <= gauge_eval(g, x) * dual_norm_value(g.norm, u) + 1e-8


@pytest.mark.parametrize("kind", ["l1", "l2", "linf"])
def test_norm_gauge_prox_matches_prox_norm(kind):
    spec = NormSpec(kind)
    g = NormGauge(spec)
    rng = np.random.default_rng(26)
    for _ in range(50):
        v = 3.0 * rng.standard_normal(5)
        s = float(rng.uniform(0.2, 4.0))
        a = gauge_prox(g, v, s)
        b = prox_norm(spec, v, s)
        assert np.linalg.norm(a - b) <= 1e-14 * (1.0 + np.linalg.norm(v))


def test_polyhedral_gauge_prox_optimality():
    # check first-order optimality of prox via function values on a grid
    rng = np.random.default_rng(27)
    g = PolyhedralPolar(np.array([[1.0, 0.5], [-0.5, 1.0], [0.0, -1.0]]))
    for _ in range(10):
        v = 2.0 * rng.standard_normal(2)
        s = 0.8
        p = gauge_prox(g, v, s)

        def value(pt):
            return s * gauge_eval(g, pt) + 0.5 * (pt - v) @ (pt - v)

        base = value(p)
        for _ in range(40):
            trial = p + 0.05 * rng.standard_normal(2)
            assert value(trial) >= base - 1e-8


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        gauge_eval(CROSS, np.array([1.0, 2.0]))
