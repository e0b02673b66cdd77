"""Gauges and their polar sets.

A gauge is described by one of two variants:

* NormGauge: a catalog norm viewed as the gauge of its unit ball;
  DiagWeighted(w), x -> sum w_i |x_i| with strictly positive weights, is
  the NormGauge of the weighted l1 norm. A NormGauge's polar gauge is its
  dual norm, prox.dual_norm_value;
* PolyhedralPolar: the polar set is given directly as conv(V + {0}) for a
  finite vertex list V. The gauge itself is then the support function of
  that polytope, and projections onto it run a Wolfe-type min-norm-point
  active-set iteration over the vertices.

The generalized Moreau decomposition v = gauge_prox(v) + polar_project(v)
turns the polar projection into a prox for arbitrary gauges. Each variant
is a Gauge, whose prox and polar_project methods are the solver's
regularizer protocol: a gauge model is ProblemSpec(op, b, gauge, tau), with
dual objective D(y) = -<y, b> + (tau^2/2) * dist(A*y/tau, C°)^2. Every
function takes and returns numpy arrays; a gauge of dimension d acts on the
d entries of an array of any shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .linop import _finite
from .prox import NormSpec, dual_ball_project, norm_value

DEFAULT_TOL = 1e-10
MAX_MNP_ITER = 10_000


class PolytopeProjectionError(RuntimeError):
    """Raised when the min-norm-point iteration stops before its certificate
    meets the tolerance: at its iteration cap, or stalled by rounding.

    Carries the best iterate, the certificate achieved and the one requested.
    """

    def __init__(self, best: np.ndarray, achieved: float, requested: float):
        super().__init__(
            f"polytope projection stopped at certificate "
            f"{achieved:.3e} (requested {requested:.3e})"
        )
        self.best = best
        self.achieved = achieved
        self.requested = requested


class Gauge:
    """Regularizer protocol of the gauge variants: prox via the generalized
    Moreau decomposition and projection onto the polar set."""

    def prox(self, v: np.ndarray, scale: float) -> np.ndarray:
        return gauge_prox(self, v, scale)

    def polar_project(self, v: np.ndarray) -> np.ndarray:
        return polar_project(self, v)


@dataclass(frozen=True, eq=False)
class NormGauge(Gauge):
    norm: NormSpec


def DiagWeighted(weights) -> NormGauge:
    """The gauge x -> sum w_i |x_i|: the weighted l1 norm."""
    return NormGauge(NormSpec("l1", weights))


@dataclass(frozen=True, eq=False)
class PolyhedralPolar(Gauge):
    """Polar set C° = conv(vertices + {0}); vertices is a (k, d) array.

    The origin is always adjoined, matching a gauge generated by a closed
    convex set containing the origin.
    """

    vertices: np.ndarray

    def __post_init__(self):
        v = _finite("vertices", self.vertices)
        if v.ndim != 2 or v.shape[0] == 0:
            raise ValueError("vertex list must be a nonempty (k, d) array")
        object.__setattr__(self, "vertices", v)

    def polytope(self, scale: float = 1.0) -> np.ndarray:
        return np.vstack([scale * self.vertices, np.zeros((1, self.vertices.shape[1]))])


GaugeSpec = Union[NormGauge, PolyhedralPolar]


def _check_dim(g, v: np.ndarray, dim: int):
    if v.size != dim:
        raise ValueError(f"point dimension {v.size} does not match gauge ({dim})")


def gauge_eval(g: GaugeSpec, x: np.ndarray) -> float:
    """Value of the gauge at x (support function of C° for the polyhedral
    variant)."""
    if isinstance(g, NormGauge):
        return norm_value(g.norm, x)
    _check_dim(g, x, g.vertices.shape[1])
    return max(0.0, float(np.max(g.vertices @ x.ravel())))


def _affine_minimizer(pts: np.ndarray):
    """Min-norm point over the affine hull of the rows of pts; returns the
    affine coefficients and the point."""
    s = pts.shape[0]
    gram = pts @ pts.T
    system = np.zeros((s + 1, s + 1))
    system[:s, :s] = gram
    system[:s, s] = 1.0
    system[s, :s] = 1.0
    rhs = np.zeros(s + 1)
    rhs[s] = 1.0
    try:
        sol = np.linalg.solve(system, rhs)
        if not np.all(np.isfinite(sol)):
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        sol = np.linalg.lstsq(system, rhs, rcond=None)[0]
    alpha = sol[:s]
    return alpha, alpha @ pts


def _min_norm_point(points: np.ndarray, tol: float, max_iter: int = MAX_MNP_ITER):
    """Wolfe's algorithm for the minimum-norm point of conv(points).

    Terminates when <x, x - p> <= tol * max(1, max ||p||^2) for every point
    p (the variational inequality certificate at z = x, relative to the
    points: rounding alone leaves about eps * max ||p||^2). Raises
    PolytopeProjectionError when the iteration stops short of it.
    """
    norms2 = np.einsum("ij,ij->i", points, points)
    tol = tol * max(1.0, float(norms2.max()))
    start = int(np.argmin(norms2))
    active = [start]
    coeffs = np.array([1.0])
    x = points[start].copy()
    for k in range(max_iter + 1):
        dots = points @ x
        candidate = int(np.argmin(dots))
        achieved = float(x @ x) - float(dots[candidate])
        if achieved <= tol:
            return x
        if candidate in active or k == max_iter:
            # Stalled (no further progress is possible in floating point),
            # or the iterations are spent.
            raise PolytopeProjectionError(best=x, achieved=achieved, requested=tol)
        active.append(candidate)
        coeffs = np.append(coeffs, 0.0)
        for _ in range(max_iter):
            alpha, y = _affine_minimizer(points[active])
            if np.all(alpha >= -1e-12):
                coeffs = np.clip(alpha, 0.0, None)
                x = y
                break
            neg = alpha < -1e-12
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = coeffs[neg] / (coeffs[neg] - alpha[neg])
            theta = float(np.min(ratios))
            coeffs = coeffs + theta * (alpha - coeffs)
            keep = coeffs > 1e-13
            if not np.any(keep):
                keep[int(np.argmax(coeffs))] = True
            active = [a for a, k in zip(active, keep) if k]
            coeffs = coeffs[keep]
            coeffs = coeffs / coeffs.sum()
            x = coeffs @ points[active]


def polar_project(g: GaugeSpec, v: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """Euclidean projection of v onto scale * C°."""
    if isinstance(g, NormGauge):
        return dual_ball_project(g.norm, v, radius=scale)
    _check_dim(g, v, g.vertices.shape[1])
    shifted = g.polytope(scale) - v.ravel()
    x = _min_norm_point(shifted, DEFAULT_TOL)
    return v + x.reshape(v.shape)


def gauge_prox(g: GaugeSpec, v: np.ndarray, scale: float) -> np.ndarray:
    """prox of scale * gauge at v via the generalized Moreau decomposition:
    v minus the projection onto scale * C°."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    z = polar_project(g, v, scale=scale)
    return v - z
