"""Builders mapping the concrete recovery models onto ProblemSpec, plus the
tau-selection heuristics.

Models: augmented l1 (sparse vectors), augmented nuclear norm, strongly
convex matrix completion, strongly convex RPCA (low-rank plus sparse), and
a generic gauge model. mu defaults to tau everywhere; the l1 and nuclear
builders accept an independent mu to exercise the general iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import numerics
from .gauge import GaugeSpec
from .linop import BlockSum, Dense, LinearOperator, Point, SamplingMask
from .prox import NormSpec, soft_threshold, svt
from .solver import ProblemSpec


@dataclass(frozen=True, eq=False)
class AugL1Model:
    """min ||x||_1 + (1/2 tau)||x||_2^2 s.t. Ax = b."""

    A: np.ndarray
    b: np.ndarray
    tau: Optional[float] = None
    mu: Optional[float] = None  # defaults to tau


@dataclass(frozen=True, eq=False)
class AugNuclearModel:
    """min ||X||_* + (1/2 tau)||X||_F^2 s.t. op(X) = b."""

    op: LinearOperator
    b: Point
    tau: Optional[float] = None
    mu: Optional[float] = None


@dataclass(frozen=True, eq=False)
class MatrixCompletionModel:
    """Nuclear-norm completion from samples of M at the index set omega."""

    shape: Tuple[int, int]
    omega: Tuple[Tuple[int, int], ...]
    sampled_values: np.ndarray
    tau: Optional[float] = None

    def __post_init__(self):
        if len(self.omega) == 0:
            raise ValueError("omega must be nonempty")
        vals = np.asarray(self.sampled_values, dtype=float).ravel()
        if vals.size != len(self.omega):
            raise ValueError("sampled values must match omega")
        object.__setattr__(self, "sampled_values", vals)

    @property
    def sample_ratio(self) -> float:
        return len(self.omega) / (self.shape[0] * self.shape[1])


@dataclass(frozen=True, eq=False)
class RpcaModel:
    """min ||L||_* + lam||S||_1 + (1/2 tau)(||L||_F^2 + ||S||_F^2)
    s.t. D = L + S."""

    D: np.ndarray
    lam: float
    tau: Optional[float] = None

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lam must be positive")


@dataclass(frozen=True, eq=False)
class GaugeModel:
    """min gauge(x) + (1/2 tau)||x||_2^2 s.t. op(x) = b."""

    gauge: GaugeSpec
    op: LinearOperator
    b: Point
    tau: Optional[float] = None


@dataclass(frozen=True, eq=False)
class RpcaRegularizer:
    """Separable block regularizer ||L||_* + lam||S||_1 on pair points.

    The prox applies nuclear-norm shrinkage to L and soft thresholding at
    lam * scale to S; the polar projection clamps singular values at 1 and
    entries at lam.
    """

    lam: float

    def prox(self, v: Point, scale: float) -> Point:
        left, right = v.as_pair()
        return Point.pair(svt(left, scale), soft_threshold(right, scale * self.lam))

    def polar_project(self, v: Point) -> Point:
        left, right = v.as_pair()
        res = numerics.svd(left)
        clamped = (res.u * np.minimum(res.s, 1.0)) @ res.v.T
        return Point.pair(clamped, np.clip(right, -self.lam, self.lam))


def build_problem(model) -> ProblemSpec:
    """Map a model description onto a solver ProblemSpec."""
    if isinstance(model, AugL1Model):
        tau = _require_tau(model)
        mu = model.mu if model.mu is not None else tau
        return ProblemSpec(
            op=Dense(model.A),
            b=Point.vector(model.b),
            regularizer=NormSpec("l1"),
            tau=tau,
            mu=mu,
        )
    if isinstance(model, AugNuclearModel):
        tau = _require_tau(model)
        mu = model.mu if model.mu is not None else tau
        return ProblemSpec(
            op=model.op,
            b=model.b,
            regularizer=NormSpec("nuclear"),
            tau=tau,
            mu=mu,
        )
    if isinstance(model, MatrixCompletionModel):
        tau = _require_tau(model)
        return ProblemSpec(
            op=SamplingMask(model.shape, model.omega),
            b=Point.vector(model.sampled_values),
            regularizer=NormSpec("nuclear"),
            tau=tau,
            mu=tau,
        )
    if isinstance(model, RpcaModel):
        tau = _require_tau(model)
        d = np.asarray(model.D, dtype=float)
        return ProblemSpec(
            op=BlockSum(d.shape),
            b=Point.matrix(d),
            regularizer=RpcaRegularizer(model.lam),
            tau=tau,
            mu=tau,
        )
    if isinstance(model, GaugeModel):
        tau = _require_tau(model)
        return ProblemSpec(
            op=model.op, b=model.b, regularizer=model.gauge, tau=tau, mu=tau
        )
    raise TypeError(f"unknown model type {type(model).__name__}")


def _require_tau(model) -> float:
    if model.tau is None:
        raise ValueError("model has no tau; set it explicitly or via tau_heuristic")
    if model.tau <= 0:
        raise ValueError("tau must be positive")
    return float(model.tau)


def tau_heuristic(model, magnitude: Optional[float] = None) -> float:
    """Cited lower bounds on tau for each model kind.

    The l1 and nuclear bounds need a ground-truth magnitude surrogate
    (max-abs entry, resp. spectral norm, of the target); with real data the
    caller supplies one and the bound loses its cited justification. The
    completion and RPCA bounds are computable from the observed data.
    """
    if isinstance(model, AugL1Model):
        if magnitude is None:
            raise ValueError("aug_l1 tau rule needs the max-abs magnitude of x0")
        return 10.0 * magnitude
    if isinstance(model, AugNuclearModel):
        if magnitude is None:
            raise ValueError("aug_nuclear tau rule needs the spectral norm of X0")
        return 10.0 * magnitude
    if isinstance(model, MatrixCompletionModel):
        return (4.0 / model.sample_ratio) * float(
            np.linalg.norm(model.sampled_values)
        )
    if isinstance(model, RpcaModel):
        return 8.0 * math.sqrt(15.0) * float(np.linalg.norm(model.D, "fro")) / (
            3.0 * model.lam
        )
    raise ValueError(f"no tau rule for {type(model).__name__}")
