"""Proximal operators and dual-ball projections for the norm catalog.

Catalog: l1 (optionally weighted), l2, linf, nuclear. Every function takes
and returns numpy arrays: the vector norms act on all entries of an array of
any shape, and the nuclear norm needs a 2-D array. The prox and the
dual-ball projection obey the Moreau decomposition
v = prox(v) + projection-onto-dual-ball(v), which the tests check through
``moreau_residual`` in tests/reference.py. Singular value thresholding is
provided both as the nuclear prox and as a standalone matrix operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import numerics

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

    def prox(self, v: np.ndarray, scale: float) -> np.ndarray:
        return prox_norm(self, v, scale)

    def polar_project(self, v: np.ndarray) -> np.ndarray:
        return dual_ball_project(self, v)


def _weights(norm: NormSpec, v: np.ndarray):
    """The l1 weights in the shape of v, or the scalar 1.0 when unweighted
    (no array of ones on every prox, projection and dual norm)."""
    if norm.weights is None:
        return 1.0
    if norm.weights.size != v.size:
        raise ValueError(
            f"weight length {norm.weights.size} does not match dimension {v.size}"
        )
    return norm.weights.reshape(v.shape)


def _require_matrix(norm: NormSpec, v: np.ndarray) -> np.ndarray:
    if v.ndim != 2:
        raise ValueError(f"{norm.kind} norm needs a matrix, got shape {v.shape}")
    return v


def norm_value(norm: NormSpec, v: np.ndarray) -> float:
    if norm.kind == "l1":
        return float(np.sum(_weights(norm, v) * np.abs(v)))
    if norm.kind == "l2":
        return float(np.linalg.norm(v))
    if norm.kind == "linf":
        return float(np.max(np.abs(v))) if v.size else 0.0
    return float(np.sum(numerics.svd(_require_matrix(norm, v)).s))


def dual_norm_value(norm: NormSpec, v: np.ndarray) -> float:
    if norm.kind == "l1":
        return float(np.max(np.abs(v) / _weights(norm, v))) if v.size else 0.0
    if norm.kind == "l2":
        return float(np.linalg.norm(v))
    if norm.kind == "linf":
        return float(np.sum(np.abs(v)))
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
    u = np.sort(a, axis=None)[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, a.size + 1)
    rho = np.max(np.nonzero(u * ks > css - radius)[0]) + 1
    theta = (css[rho - 1] - radius) / rho
    return soft_threshold(values, theta)


def prox_norm(norm: NormSpec, v: np.ndarray, scale: float) -> np.ndarray:
    """Exact minimizer of scale*||x|| + 0.5*||x - v||_2^2."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    if norm.kind == "l1":
        return soft_threshold(v, scale * _weights(norm, v))
    if norm.kind == "l2":
        nrm = float(np.linalg.norm(v))
        if nrm <= scale:
            return np.zeros_like(v)
        return v * (1.0 - scale / nrm)
    if norm.kind == "linf":
        # Moreau: prox of scale*||.||_inf is v minus projection onto the
        # l1 ball of radius scale.
        return v - project_l1_ball(v, scale)
    return svt(_require_matrix(norm, v), scale)


def dual_ball_project(norm: NormSpec, v: np.ndarray, radius: float = 1.0) -> np.ndarray:
    """Euclidean projection onto {z : dual-norm(z) <= radius}."""
    if norm.kind == "l1":
        bound = radius * _weights(norm, v)
        return np.clip(v, -bound, bound)
    if norm.kind == "l2":
        nrm = float(np.linalg.norm(v))
        if nrm <= radius:
            return v
        return v * (radius / nrm)
    if norm.kind == "linf":
        return project_l1_ball(v, radius)
    res = numerics.svd(_require_matrix(norm, v))
    return (res.u * np.minimum(res.s, radius)) @ res.v.T


def svt(m, threshold: float) -> np.ndarray:
    """Singular value thresholding: soft-shrink the singular values of m.

    One ``numerics.svd`` call, which returns only the singular values above
    the threshold and their vectors."""
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    res = numerics.svd(m, floor=threshold)
    return (res.u * (res.s - threshold)) @ res.v.T
