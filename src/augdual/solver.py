"""Dual gradient iteration for the augmented recovery models.

The dual objective D(y) = -<y, b> + (tau*mu/2) * dist(A*y/mu, K)^2 is
smooth (K is the dual-norm ball, or the polar set for gauge problems); its
gradient is -b + A(tau * prox(A*y/mu)). Plain gradient descent on D in
primal-dual form is the linearized Bregman iteration for the l1 model and
singular value thresholding for matrix completion. The accelerated variant
adds Nesterov momentum with adaptive restart; both run in one loop.
"""

from __future__ import annotations

import math
from array import array
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

import numpy as np

from . import numerics
from .linop import LinearOperator, Point

# Stagnation window for suspected-infeasible detection: the feasibility
# residual must move by less than this relative amount over the window
# while still above tolerance.
_STALL_WINDOW = 100
_STALL_RTOL = 1e-12


class ConfigurationError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """One augmented model instance (operator, data, regularizer, tau, mu).

    The regularizer is any object exposing prox(point, scale) and
    polar_project(point): a NormSpec, a gauge, or the RPCA block
    regularizer. Gauge problems (``fixes_mu``) fix mu = tau, which makes the
    gauge iteration and the norm iteration share one code path.
    """

    op: LinearOperator
    b: Point
    regularizer: object
    tau: float
    mu: float

    def __post_init__(self):
        if self.b.tag != self.op.codomain_tag:
            raise ValueError("b shape does not match operator codomain")
        with np.errstate(over="ignore"):
            b_norm = self.b.norm()
        if not math.isfinite(b_norm):
            raise ValueError("||b|| overflows to inf; rescale the data")
        if not (np.isfinite(self.tau) and self.tau > 0):
            raise ValueError("tau must be finite and positive")
        if not (np.isfinite(self.mu) and self.mu > 0):
            raise ValueError("mu must be finite and positive")
        if getattr(self.regularizer, "fixes_mu", False) and self.mu != self.tau:
            raise ValueError("gauge problems fix mu = tau")


@dataclass(frozen=True)
class SolveConfig:
    """Step size, budget, and tolerances for one solve.

    ``h = None`` picks mu / (tau * bound^2) with bound the inflated Lanczos
    estimate of ||A|| (``estimated_bound``). A nonzero y0 needs
    warm_start=True.
    """

    h: Optional[float] = None
    max_iter: int = 100_000
    primal_tol: float = 1e-8
    y0: Optional[Point] = None
    accelerated: bool = False
    restart: bool = True
    warm_start: bool = False

    def __post_init__(self):
        if self.primal_tol <= 0:
            raise ConfigurationError("primal_tol must be positive")
        if self.max_iter < 1:
            raise ConfigurationError("max_iter must be >= 1")


@dataclass(frozen=True)
class DualState:
    """Iterate of the primal-dual iteration: x = tau*prox(A*y_prev/mu)."""

    k: int
    y: Point
    x: Point


@dataclass(slots=True)
class TraceRecord:
    k: int
    primal_residual: float
    dual_objective: float
    x_change: float
    y_change: float


class SolveTrace:
    """Per-iteration trace and termination reason.

    The columns live in typed buffers (40 bytes per iteration); ``records``
    is a read-only sequence that builds a TraceRecord per row on access.
    """

    def __init__(self, records: Iterable[TraceRecord] = (), termination: str = "max_iter"):
        self.termination = termination
        # One buffer per TraceRecord field, in field order.
        self._columns = (array("q"),) + tuple(array("d") for _ in range(4))
        for rec in records:
            self.append(rec.k, rec.primal_residual, rec.dual_objective, rec.x_change,
                        rec.y_change)

    def append(self, k: int, primal_residual: float, dual_objective: float,
               x_change: float, y_change: float) -> None:
        row = (k, primal_residual, dual_objective, x_change, y_change)
        for col, value in zip(self._columns, row):
            col.append(value)

    @property
    def records(self) -> "Sequence[TraceRecord]":
        return _TraceRows(self._columns)


class _TraceRows(Sequence):
    def __init__(self, columns: tuple):
        self._columns = columns

    def __len__(self) -> int:
        return len(self._columns[0])

    def __getitem__(self, i: int) -> TraceRecord:
        i = range(len(self))[i]  # integer index only; raises IndexError
        return TraceRecord(*(col[i] for col in self._columns))

    def __iter__(self):
        return map(TraceRecord, *self._columns)


def regularizer_prox(reg, v: Point, scale: float) -> Point:
    return reg.prox(v, scale)


def primal_from_dual(p: ProblemSpec, y: Point) -> Tuple[Point, Point]:
    """x = tau*prox(A*y/mu), and w = A*y/mu itself."""
    w = p.op.adjoint(y) * (1.0 / p.mu)
    return p.tau * regularizer_prox(p.regularizer, w, 1.0), w


def dual_objective(p: ProblemSpec, y: Point) -> float:
    """D(y) = -<y, b> + (tau*mu/2) * ||A*y/mu - z||^2 with z the projection
    of A*y/mu onto the dual ball / polar set."""
    w = p.op.adjoint(y) * (1.0 / p.mu)
    z = p.regularizer.polar_project(w)
    return -y.dot(p.b) + 0.5 * p.tau * p.mu * (w - z).dot(w - z)


def dual_gradient(p: ProblemSpec, y: Point) -> Point:
    """grad D(y) = -b + A(tau * prox(A*y/mu))."""
    x, _ = primal_from_dual(p, y)
    return p.op.apply(x) - p.b


def step_size_bound(p: ProblemSpec, norm_bound: float) -> float:
    """Upper end of the admissible open step interval for a given bound on
    ||A||."""
    return 2.0 * p.mu / (p.tau * norm_bound**2)


def default_step_size(p: ProblemSpec, norm_bound: float) -> float:
    """Midpoint-safe 1/L choice: half the open-interval bound."""
    return p.mu / (p.tau * norm_bound**2)


def validate_config(p: ProblemSpec, c: SolveConfig, norm_bound: float) -> None:
    """Reject step sizes outside the open interval (0, 2mu/(tau*||A||^2))
    and nonzero warm starts without the explicit flag."""
    if norm_bound <= 0:
        raise ConfigurationError("norm_bound must be positive")
    if c.h is not None:
        upper = step_size_bound(p, norm_bound)
        if not (0.0 < c.h < upper):
            raise ConfigurationError(
                f"step size h={c.h!r} outside the admissible open interval "
                f"(0, {upper!r})"
            )
        if c.accelerated and c.h > default_step_size(p, norm_bound):
            raise ConfigurationError(
                f"accelerated solve needs h <= {default_step_size(p, norm_bound)!r} "
                f"(the 1/L bound); got {c.h!r}"
            )
    if c.y0 is not None and c.y0.norm() > 0 and not c.warm_start:
        raise ConfigurationError("nonzero y0 requires warm_start=True")


def _initial_state(p: ProblemSpec, c: SolveConfig) -> Point:
    if c.y0 is not None:
        if c.y0.tag != p.op.codomain_tag:
            raise ValueError("y0 shape does not match operator codomain")
        return c.y0
    return Point.zeros(p.op.codomain_tag)


def step(p: ProblemSpec, s: DualState, h: float) -> DualState:
    """One primal-dual iteration: x = tau*prox(A*y/mu); y += h(b - Ax)."""
    x, _ = primal_from_dual(p, s.y)
    return DualState(k=s.k + 1, y=s.y + h * (p.b - p.op.apply(x)), x=x)


def _norm(v: np.ndarray) -> float:
    return float(np.linalg.norm(v))


def _trace_objective(p: ProblemSpec, y: np.ndarray, x: np.ndarray) -> float:
    # D(y) via the Moreau identity ||w - z|| = ||x|| / tau; avoids a second
    # projection (and a second SVD) per iteration.
    return -float(y @ p.b.data) + 0.5 * (p.mu / p.tau) * float(x @ x)


def _stalled(residuals: "deque[float]", adjoints: "deque[np.ndarray]") -> bool:
    # Inconsistent data makes both the residual norm and A*y settle (y keeps
    # growing along a direction in the null space of A*). The residual alone
    # is not enough: it is exactly constant while the prox output sits at
    # zero on feasible problems too, but A*y still moves there.
    if len(residuals) <= _STALL_WINDOW:
        return False
    new = residuals[-1]
    old = residuals[0]
    if abs(old - new) > _STALL_RTOL * max(new, 1e-300):
        return False
    w_new = adjoints[-1]
    w_old = adjoints[0]
    return _norm(w_new - w_old) <= _STALL_RTOL * (1.0 + _norm(w_new))


def solve(
    p: ProblemSpec, c: SolveConfig, norm_bound: Optional[float] = None
) -> Tuple[Point, Point, SolveTrace]:
    """Dual gradient descent until primal feasibility, stall, a non-finite
    iterate, or budget.

    Each iteration takes a gradient step from w. Plain descent has w = y.
    With ``c.accelerated``, w extrapolates the last two iterates (Nesterov
    momentum), and with ``c.restart`` the momentum resets whenever
    <grad D(w), y_next - y> > 0, i.e. when it stops being a descent
    direction; the first step equals a plain one.

    Returns the last consistent primal-dual pair (x, y) with
    x = tau*prox(A*y/mu), and the per-iteration trace. Termination is
    feasibility_tol, suspected_infeasible, max_iter, or numerical_failure
    (the residual, x change or y change is not finite; the returned pair is
    the finite one that produced it).
    """
    if norm_bound is None:
        norm_bound = estimated_bound(p)
    validate_config(p, c, norm_bound)
    h = float(c.h if c.h is not None else default_step_size(p, norm_bound))

    tag = p.op.codomain_tag
    b = p.b.data
    y = _initial_state(p, c).data
    w = y
    t = 1.0
    x_prev: Optional[np.ndarray] = None
    tol = c.primal_tol * max(1.0, p.b.norm())
    trace = SolveTrace()
    residuals: deque = deque(maxlen=_STALL_WINDOW + 1)
    adjoints: deque = deque(maxlen=_STALL_WINDOW + 1)
    # A diverging solve overflows in norms and products before the
    # finiteness check below ends it; the termination reports that, so
    # numpy's overflow warnings would only be noise.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, c.max_iter + 1):
            w_point = Point(w, tag)
            x_point, wadj = primal_from_dual(p, w_point)
            x = x_point.data
            r = b - p.op.apply(x_point).data  # -grad D(w)
            rnorm = _norm(r)
            residuals.append(rnorm)
            adjoints.append(wadj.data)
            x_change = _norm(x - x_prev) if x_prev is not None else _norm(x)
            feasible = rnorm <= tol
            y_next = w if feasible else w + r * h
            dy = y_next - y
            y_change = _norm(dy)
            trace.append(k, rnorm, _trace_objective(p, w, x), x_change, y_change)
            # The finiteness check of the iteration: a norm overflows once an
            # entry passes ~1e154, long before r, x, y_next or w can hold an inf.
            if not (math.isfinite(rnorm) and math.isfinite(x_change)
                    and math.isfinite(y_change)):
                trace.termination = "numerical_failure"
                return x_point, w_point, trace
            if feasible:
                trace.termination = "feasibility_tol"
                return x_point, w_point, trace
            if _stalled(residuals, adjoints):
                trace.termination = "suspected_infeasible"
                return x_point, w_point, trace
            if c.accelerated and not (c.restart and float((-r) @ dy) > 0.0):
                t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
                w = y_next + dy * float((t - 1.0) / t_next)
                t = t_next
            else:
                w = y_next
                t = 1.0
            y = y_next
            x_prev = x
    y_point = Point(y, tag)
    x_point, _ = primal_from_dual(p, y_point)
    trace.termination = "max_iter"
    return x_point, y_point, trace


def estimated_bound(p: ProblemSpec) -> float:
    """Default bound on ||A||: the Lanczos estimate inflated by 1%.

    The estimate is resolved through the numerics module at call time, so a
    patched numerics.operator_norm_estimate is seen here too.
    """
    return numerics.operator_norm_estimate(p.op) * 1.01
