"""Proximal operators and dual-ball projections for the norm catalog.

Catalog: l1 (optionally weighted), l2, linf, nuclear. The Moreau
decomposition v = prox(v) + projection-onto-dual-ball(v) is exposed as an
executable identity (moreau_residual), and singular value thresholding is
provided both as the nuclear prox and as a standalone matrix operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import numerics
from .linop import Point

KINDS = ("l1", "l2", "linf", "nuclear")


@dataclass(frozen=True, eq=False)
class NormSpec:
    """A catalog norm; ``weights`` (strictly positive) apply to l1 only."""

    kind: str
    weights: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown norm kind {self.kind!r}")
        if self.weights is not None:
            if self.kind != "l1":
                raise ValueError("weights are supported for the l1 norm only")
            w = np.asarray(self.weights, dtype=float).ravel()
            if w.size == 0 or np.any(w <= 0) or not np.all(np.isfinite(w)):
                raise ValueError("weights must be strictly positive and finite")
            object.__setattr__(self, "weights", w)

    def prox(self, v: Point, scale: float) -> Point:
        return prox_norm(self, v, scale)

    def polar_project(self, v: Point) -> Point:
        return dual_ball_project(self, v)


def _weights(norm: NormSpec, size: int) -> np.ndarray:
    if norm.weights is None:
        return np.ones(size)
    if norm.weights.size != size:
        raise ValueError(
            f"weight length {norm.weights.size} does not match dimension {size}"
        )
    return norm.weights


def _require_matrix(norm: NormSpec, v: Point) -> np.ndarray:
    if v.tag[0] != "matrix":
        raise ValueError(f"{norm.kind} norm needs a matrix point, got {v.tag!r}")
    return v.as_matrix()


def norm_value(norm: NormSpec, v: Point) -> float:
    if norm.kind == "l1":
        return float(_weights(norm, v.data.size) @ np.abs(v.data))
    if norm.kind == "l2":
        return v.norm()
    if norm.kind == "linf":
        return float(np.max(np.abs(v.data))) if v.data.size else 0.0
    return float(np.sum(numerics.svd(_require_matrix(norm, v)).s))


def dual_norm_value(norm: NormSpec, v: Point) -> float:
    if norm.kind == "l1":
        w = _weights(norm, v.data.size)
        return float(np.max(np.abs(v.data) / w)) if v.data.size else 0.0
    if norm.kind == "l2":
        return v.norm()
    if norm.kind == "linf":
        return float(np.sum(np.abs(v.data)))
    return float(numerics.svd(_require_matrix(norm, v)).s[0])


def soft_threshold(values: np.ndarray, threshold) -> np.ndarray:
    """Entrywise shrink; entries with |v| <= threshold map to exactly 0."""
    return np.sign(values) * np.maximum(np.abs(values) - threshold, 0.0)


def project_l1_ball(values: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection onto the l1 ball of the given radius (sort-based)."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    a = np.abs(values)
    if a.sum() <= radius:
        return values.copy()
    u = np.sort(a)[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, a.size + 1)
    rho = np.max(np.nonzero(u * ks > css - radius)[0]) + 1
    theta = (css[rho - 1] - radius) / rho
    return soft_threshold(values, theta)


def prox_norm(norm: NormSpec, v: Point, scale: float) -> Point:
    """Exact minimizer of scale*||x|| + 0.5*||x - v||_2^2."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    if norm.kind == "l1":
        w = _weights(norm, v.data.size)
        return v.with_data(soft_threshold(v.data, scale * w))
    if norm.kind == "l2":
        nrm = v.norm()
        if nrm <= scale:
            return v.with_data(np.zeros_like(v.data))
        return v * (1.0 - scale / nrm)
    if norm.kind == "linf":
        # Moreau: prox of scale*||.||_inf is v minus projection onto the
        # l1 ball of radius scale.
        return v.with_data(v.data - project_l1_ball(v.data, scale))
    mat = _require_matrix(norm, v)
    return Point.matrix(svt(mat, scale))


def dual_ball_project(norm: NormSpec, v: Point, radius: float = 1.0) -> Point:
    """Euclidean projection onto {z : dual-norm(z) <= radius}."""
    if norm.kind == "l1":
        w = _weights(norm, v.data.size)
        bound = radius * w
        return v.with_data(np.clip(v.data, -bound, bound))
    if norm.kind == "l2":
        nrm = v.norm()
        if nrm <= radius:
            return v
        return v * (radius / nrm)
    if norm.kind == "linf":
        return v.with_data(project_l1_ball(v.data, radius))
    mat = _require_matrix(norm, v)
    res = numerics.svd(mat)
    return Point.matrix((res.u * np.minimum(res.s, radius)) @ res.v.T)


def moreau_residual(norm: NormSpec, v: Point, scale: float = 1.0) -> float:
    """||v - prox_{scale*norm}(v) - proj_{scale*dual-ball}(v)||_2."""
    p = prox_norm(norm, v, scale)
    z = dual_ball_project(norm, v, radius=scale)
    return (v - p - z).norm()


def svt(m, threshold: float) -> np.ndarray:
    """Singular value thresholding: soft-shrink the singular values of m."""
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    res = numerics.svd(m)
    return (res.u * np.maximum(res.s - threshold, 0.0)) @ res.v.T
