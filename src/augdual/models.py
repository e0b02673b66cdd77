"""Builders mapping the concrete recovery models onto ProblemSpec, plus the
tau-selection heuristics.

Models: augmented l1 (sparse vectors), strongly convex matrix completion
and strongly convex RPCA (low-rank plus sparse). Each is an instance of
min J(x) + (1/2 tau)||x||^2 s.t. Ax = b, whose dual objective is
D(y) = -<y, b> + (tau^2/2) * dist(A*y/tau, K)^2 with K the polar set of J.
A general nuclear-norm or gauge model needs no builder: it is
ProblemSpec(op, b, NormSpec("nuclear"), tau) or ProblemSpec(op, b, gauge, tau).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linop import BlockSum, Dense, Point, SamplingMask, _finite, _positive
# svt is patched by name in solvebench/tracing.py; kept until ROADMAP item 1 moves the spans.
from .prox import NormSpec, dual_ball_project, soft_threshold, svt
from .solver import ProblemSpec


@dataclass(frozen=True, eq=False)
class AugL1Model:
    """min ||x||_1 + (1/2 tau)||x||_2^2 s.t. Ax = b."""

    A: np.ndarray
    b: np.ndarray
    tau: Optional[float] = None

    def __post_init__(self):
        # b is kept as a flat float array; Dense checks A when the problem is built.
        object.__setattr__(self, "b", _finite("b", self.b).ravel())


@dataclass(frozen=True, eq=False)
class MatrixCompletionModel:
    """Nuclear-norm completion from samples of M at the index set omega.

    ``mask`` holds the matrix shape and omega (checked once, when the mask
    is built); ``build_problem`` uses it as the operator.
    """

    mask: SamplingMask
    sampled_values: np.ndarray
    tau: Optional[float] = None

    def __post_init__(self):
        if not isinstance(self.mask, SamplingMask):
            raise TypeError("mask must be a SamplingMask")
        vals = _finite("sampled_values", self.sampled_values).ravel()
        if vals.size != len(self.mask.indices):
            raise ValueError("sampled values must match omega")
        object.__setattr__(self, "sampled_values", vals)


@dataclass(frozen=True, eq=False)
class RpcaModel:
    """min ||L||_* + lam||S||_1 + (1/2 tau)(||L||_F^2 + ||S||_F^2)
    s.t. D = L + S."""

    D: np.ndarray
    lam: float
    tau: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "lam", _positive("lam", self.lam))
        object.__setattr__(self, "D", _finite("D", self.D))


@dataclass(frozen=True, eq=False)
class RpcaRegularizer:
    """Separable block regularizer ||L||_* + lam||S||_1 on (2, r, c) pairs
    v = (L, S) = (v[0], v[1]).

    The prox applies nuclear-norm shrinkage to L and soft thresholding at
    lam * scale to S; the polar projection clamps singular values at 1 and
    entries at lam.
    """

    lam: float

    def prox(self, v: np.ndarray, scale: float) -> np.ndarray:
        return np.array((svt(v[0], scale), soft_threshold(v[1], scale * self.lam)))

    def polar_project(self, v: np.ndarray) -> np.ndarray:
        clamped = dual_ball_project(NormSpec("nuclear"), v[0])
        return np.array((clamped, np.clip(v[1], -self.lam, self.lam)))


def build_problem(model) -> ProblemSpec:
    """Map a model description onto a solver ProblemSpec, which is the one
    check of tau's value."""
    if isinstance(model, AugL1Model):
        parts = Dense(model.A), Point.vector(model.b), NormSpec("l1")
    elif isinstance(model, MatrixCompletionModel):
        parts = model.mask, Point.vector(model.sampled_values), NormSpec("nuclear")
    elif isinstance(model, RpcaModel):
        parts = BlockSum(model.D.shape), Point.matrix(model.D), RpcaRegularizer(model.lam)
    else:
        raise TypeError(f"unknown model type {type(model).__name__}")
    if model.tau is None:
        raise ValueError("model has no tau; set it explicitly or via tau_heuristic")
    return ProblemSpec(*parts, model.tau)


def tau_heuristic(model, magnitude: Optional[float] = None) -> float:
    """Cited lower bounds on tau for each model kind.

    The l1 bound needs a ground-truth magnitude surrogate (the max-abs
    entry of the target); with real data the caller supplies one and the
    bound loses its cited justification. The completion and RPCA bounds are
    computable from the observed data. Every bound scales with the data, so
    all-zero data get no tau: a ValueError names them.
    """
    if isinstance(model, AugL1Model):
        if magnitude is None:
            raise ValueError("aug_l1 tau rule needs the max-abs magnitude of x0")
        data, tau = "the max-abs magnitude of x0", 10.0 * magnitude
    elif isinstance(model, MatrixCompletionModel):
        rows, cols = model.mask.shape
        sample_ratio = len(model.mask.indices) / (rows * cols)
        data = "||sampled_values||"
        tau = (4.0 / sample_ratio) * float(np.linalg.norm(model.sampled_values))
    elif isinstance(model, RpcaModel):
        data = "||D||_F"
        tau = 8.0 * math.sqrt(15.0) * float(np.linalg.norm(model.D, "fro")) / (
            3.0 * model.lam
        )
    else:
        raise ValueError(f"no tau rule for {type(model).__name__}")
    if tau == 0.0:
        raise ValueError(f"tau rule gives tau = 0: {data} is zero")
    return tau
