"""Dual gradient iteration for the augmented recovery models.

The dual objective D(y) = -<y, b> + (tau*mu/2) * dist(A*y/mu, K)^2 is
smooth (K is the dual-norm ball, or the polar set for gauge problems); its
gradient is -b + A(tau * prox(A*y/mu)). Plain gradient descent on D in
primal-dual form is the linearized Bregman iteration for the l1 model and
singular value thresholding for matrix completion. An accelerated variant
adds Nesterov momentum with adaptive restart.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from . import gauge as gauge_mod
from . import numerics
from . import prox as prox_mod
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

    The regularizer is a NormSpec, a GaugeSpec, or any object exposing
    prox(point, scale) and polar_project(point) (the RPCA block regularizer
    does). Gauge problems fix mu = tau, which makes the gauge iteration and
    the norm iteration share one code path.
    """

    op: LinearOperator
    b: Point
    regularizer: object
    tau: float
    mu: float

    def __post_init__(self):
        if self.b.tag != self.op.codomain_tag:
            raise ValueError("b shape does not match operator codomain")
        if not (np.isfinite(self.tau) and self.tau > 0):
            raise ValueError("tau must be finite and positive")
        if not (np.isfinite(self.mu) and self.mu > 0):
            raise ValueError("mu must be finite and positive")
        if isinstance(self.regularizer, gauge_mod.PolyhedralPolar) or isinstance(
            self.regularizer, (gauge_mod.NormGauge, gauge_mod.DiagWeighted)
        ):
            if self.mu != self.tau:
                raise ValueError("gauge problems fix mu = tau")


@dataclass(frozen=True)
class SolveConfig:
    """Step size, budget, and tolerances for one solve.

    ``h = None`` picks mu / (tau * bound^2) with bound the inflated power
    iteration estimate of ||A||. A nonzero y0 needs warm_start=True.
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
    """Iterate of the primal-dual iteration: x = tau*prox(A*y_prev/mu) and
    z the matching dual-ball/polar point."""

    k: int
    y: Point
    x: Point
    z: Point


@dataclass(slots=True)
class TraceRecord:
    k: int
    primal_residual: float
    dual_objective: float
    x_change: float
    y_change: float


@dataclass
class SolveTrace:
    records: List[TraceRecord] = field(default_factory=list)
    termination: str = "max_iter"


def regularizer_prox(reg, v: Point, scale: float) -> Point:
    if isinstance(reg, prox_mod.NormSpec):
        return prox_mod.prox_norm(reg, v, scale)
    if isinstance(reg, (gauge_mod.NormGauge, gauge_mod.DiagWeighted, gauge_mod.PolyhedralPolar)):
        return gauge_mod.gauge_prox(reg, v, scale)
    return reg.prox(v, scale)


def regularizer_polar_project(reg, v: Point) -> Point:
    if isinstance(reg, prox_mod.NormSpec):
        return prox_mod.dual_ball_project(reg, v)
    if isinstance(reg, (gauge_mod.NormGauge, gauge_mod.DiagWeighted, gauge_mod.PolyhedralPolar)):
        return gauge_mod.polar_project(reg, v)
    return reg.polar_project(v)


def dual_objective(p: ProblemSpec, y: Point) -> float:
    """D(y) = -<y, b> + (tau*mu/2) * ||A*y/mu - z||^2 with z the projection
    of A*y/mu onto the dual ball / polar set."""
    w = p.op.adjoint(y) * (1.0 / p.mu)
    z = regularizer_polar_project(p.regularizer, w)
    return -y.dot(p.b) + 0.5 * p.tau * p.mu * (w - z).dot(w - z)


def dual_gradient(p: ProblemSpec, y: Point) -> Point:
    """grad D(y) = -b + A(tau * prox(A*y/mu))."""
    w = p.op.adjoint(y) * (1.0 / p.mu)
    x = p.tau * regularizer_prox(p.regularizer, w, 1.0)
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


def _primal_from_dual(p: ProblemSpec, y: Point) -> Tuple[Point, Point, Point]:
    """x = tau*prox(A*y/mu), the matching z with x = (tau/mu)(A*y - mu z),
    and w = A*y/mu itself."""
    w = p.op.adjoint(y) * (1.0 / p.mu)
    x = p.tau * regularizer_prox(p.regularizer, w, 1.0)
    z = w - (1.0 / p.tau) * x
    return x, z, w


def step(p: ProblemSpec, s: DualState, h: float) -> DualState:
    """One primal-dual iteration: x = tau*prox(A*y/mu); y += h(b - Ax)."""
    x, z, _ = _primal_from_dual(p, s.y)
    y_next = s.y + h * (p.b - p.op.apply(x))
    return DualState(k=s.k + 1, y=y_next, x=x, z=z)


def _trace_objective(p: ProblemSpec, y: Point, x: Point) -> float:
    # D(y) via the Moreau identity ||w - z|| = ||x|| / tau; avoids a second
    # projection (and a second SVD) per iteration.
    return -y.dot(p.b) + 0.5 * (p.mu / p.tau) * x.dot(x)


def _stalled(residuals: "deque[float]", adjoints: "deque[Point]") -> bool:
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
    return (w_new - w_old).norm() <= _STALL_RTOL * (1.0 + w_new.norm())


def solve(
    p: ProblemSpec, c: SolveConfig, norm_bound: Optional[float] = None
) -> Tuple[Point, Point, SolveTrace]:
    """Plain dual gradient descent until primal feasibility or budget.

    Returns the last consistent primal-dual pair (x, y) with
    x = tau*prox(A*y/mu), and the per-iteration trace.
    """
    if c.accelerated:
        return solve_accelerated(p, c, norm_bound)
    if norm_bound is None:
        norm_bound = estimated_bound(p)
    validate_config(p, c, norm_bound)
    h = c.h if c.h is not None else default_step_size(p, norm_bound)

    y = _initial_state(p, c)
    x_prev: Optional[Point] = None
    b_norm = p.b.norm()
    tol = c.primal_tol * max(1.0, b_norm)
    trace = SolveTrace()
    residuals: deque = deque(maxlen=_STALL_WINDOW + 1)
    adjoints: deque = deque(maxlen=_STALL_WINDOW + 1)
    for k in range(1, c.max_iter + 1):
        x, _, wadj = _primal_from_dual(p, y)
        r = p.b - p.op.apply(x)
        rnorm = r.norm()
        residuals.append(rnorm)
        adjoints.append(wadj)
        x_change = (x - x_prev).norm() if x_prev is not None else x.norm()
        feasible = rnorm <= tol
        y_next = y if feasible else y + h * r
        trace.records.append(
            TraceRecord(
                k=k,
                primal_residual=rnorm,
                dual_objective=_trace_objective(p, y, x),
                x_change=x_change,
                y_change=(y_next - y).norm(),
            )
        )
        if feasible:
            trace.termination = "feasibility_tol"
            return x, y, trace
        if _stalled(residuals, adjoints):
            trace.termination = "suspected_infeasible"
            return x, y, trace
        y = y_next
        x_prev = x
    x, _, _ = _primal_from_dual(p, y)
    trace.termination = "max_iter"
    return x, y, trace


def solve_accelerated(
    p: ProblemSpec, c: SolveConfig, norm_bound: Optional[float] = None
) -> Tuple[Point, Point, SolveTrace]:
    """Nesterov-accelerated dual descent with adaptive restart.

    Restart resets the momentum whenever <grad D(w), y_next - y> > 0, i.e.
    when momentum stops being a descent direction. The first step equals a
    plain gradient step.
    """
    if norm_bound is None:
        norm_bound = estimated_bound(p)
    validate_config(p, c, norm_bound)
    h = c.h if c.h is not None else default_step_size(p, norm_bound)

    y = _initial_state(p, c)
    w = y
    t = 1.0
    x_prev: Optional[Point] = None
    tol = c.primal_tol * max(1.0, p.b.norm())
    trace = SolveTrace()
    residuals: deque = deque(maxlen=_STALL_WINDOW + 1)
    adjoints: deque = deque(maxlen=_STALL_WINDOW + 1)
    for k in range(1, c.max_iter + 1):
        x, _, wadj = _primal_from_dual(p, w)
        r = p.b - p.op.apply(x)  # -grad D(w)
        rnorm = r.norm()
        residuals.append(rnorm)
        adjoints.append(wadj)
        x_change = (x - x_prev).norm() if x_prev is not None else x.norm()
        feasible = rnorm <= tol
        y_next = w if feasible else w + h * r
        trace.records.append(
            TraceRecord(
                k=k,
                primal_residual=rnorm,
                dual_objective=_trace_objective(p, w, x),
                x_change=x_change,
                y_change=(y_next - y).norm(),
            )
        )
        if feasible:
            trace.termination = "feasibility_tol"
            return x, w, trace
        if _stalled(residuals, adjoints):
            trace.termination = "suspected_infeasible"
            return x, w, trace
        if c.restart and (-r).dot(y_next - y) > 0.0:
            t_next = 1.0
            w = y_next
        else:
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            w = y_next + ((t - 1.0) / t_next) * (y_next - y)
        y = y_next
        t = t_next
        x_prev = x
    x, _, _ = _primal_from_dual(p, y)
    trace.termination = "max_iter"
    return x, y, trace


def estimated_bound(p: ProblemSpec) -> float:
    """Default bound on ||A||: the power-iteration estimate inflated by 1%.

    The estimate is resolved through the numerics module at call time, so a
    patched numerics.operator_norm_estimate is seen here too.
    """
    return numerics.operator_norm_estimate(p.op) * 1.01
