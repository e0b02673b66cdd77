import numpy as np
import pytest

from augdual.gauge import (
    DEFAULT_TOL,
    DiagWeighted,
    NormGauge,
    PolyhedralPolar,
    PolytopeProjectionError,
    _min_norm_point,
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


def _random_polytope(seed, scale):
    """Points of conv(V + {0}) - v, the polar set and v, for 12 Gaussian
    vertices in R^5 and a v outside, all at ``scale``."""
    rng = np.random.default_rng(seed)
    g = PolyhedralPolar(scale * rng.standard_normal((12, 5)))
    v = 2.0 * scale * rng.standard_normal(5)
    return g.polytope() - v, g, v


@pytest.mark.parametrize("scale", [1.0, 1e2, 1e4, 1e6])
def test_polar_project_is_certified_at_every_scale(scale):
    # The certificate <x, x - p> <= tol scales with max ||p||^2, the size of
    # its rounding: against an absolute tol, rounding stalled 38 of these 80
    # at 1e4 and 1e6 short of it. A stall now raises, so each must certify.
    for seed in range(40):
        points, g, v = _random_polytope(seed, scale)
        x = polar_project(g, v) - v
        gap = x @ x - np.min(points @ x)
        assert gap <= DEFAULT_TOL * max(1.0, np.max(np.sum(points**2, axis=1)))


def test_min_norm_point_raises_at_its_cap():
    # The projection of (2, 2, 2) onto the l1 ball is the centre of a
    # triangle: one iteration reaches only an edge of it.
    points = CROSS.polytope() - 2.0
    with pytest.raises(PolytopeProjectionError, match="stopped at certificate") as caught:
        _min_norm_point(points, DEFAULT_TOL, max_iter=1)
    err = caught.value
    assert err.requested == DEFAULT_TOL * np.max(np.sum(points**2, axis=1))
    assert err.achieved > err.requested
    best = err.best
    assert err.achieved == pytest.approx(best @ best - np.min(points @ best))
    assert np.allclose(_min_norm_point(points, DEFAULT_TOL), -np.full(3, 5.0 / 3.0))
    # The iterate that the last iteration reaches is checked before the cap:
    # here one iteration reaches the projection, an edge of the triangle.
    edge = CROSS.polytope() - np.array([2.0, 1.5, 0.3])
    assert np.allclose(_min_norm_point(edge, DEFAULT_TOL, max_iter=1), [-1.25, -1.25, -0.3])


def test_min_norm_point_raises_when_rounding_stalls_it():
    # Far below the rounding of these points, no step improves the best
    # point, and it falls short of the certificate.
    points, _, _ = _random_polytope(1, 1e6)
    with pytest.raises(PolytopeProjectionError) as caught:
        _min_norm_point(points, 1e-22)
    assert caught.value.achieved > caught.value.requested


def test_polyhedral_polar_rejects_an_empty_or_non_finite_vertex_list():
    with pytest.raises(ValueError, match="vertex list must be a nonempty"):
        PolyhedralPolar(np.zeros((0, 3)))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="vertices must be finite"):
            PolyhedralPolar(np.array([[1.0, 0.0], [0.0, bad]]))


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        gauge_eval(CROSS, np.array([1.0, 2.0]))
