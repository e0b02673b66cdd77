"""Dual gradient iteration for the augmented recovery models.

The dual objective D(y) = -<y, b> + (tau^2/2) * dist(A*y/tau, K)^2 is
smooth (K is the dual-norm ball, or the polar set for gauge problems); its
gradient is -b + A(tau * prox(A*y/tau)). Plain gradient descent on D in
primal-dual form is the linearized Bregman iteration for the l1 model and
singular value thresholding for matrix completion. The accelerated variant
adds momentum of coefficient 1 with gradient restart (see ``solve``); both
run in one loop. When b is outside the range of A, D is unbounded below and
the residual r of the step y+ - w = h*r tends to a Farkas certificate,
A*r -> 0 with <b, r> > 0; the loop stops on it (``suspected_infeasible``).

The step y+ = w + h(b - Ax) is linear in the dual variable, so the loop
carries z = A*y alongside y: A*y+ = A*w + h(A*b - A*Ax), with A*b computed
once and (Ax, A*Ax) from the map that ``op.normal_map()`` returns once per
solve, and the momentum step applies to z the elementwise operations it
applies to y. An iteration then needs no adjoint of its own; on a sparse
l1 iterate the normal map of a Dense forms A*Ax from Gram rows it keeps for
that solve. The loop runs on arrays, through that map and ``_adjoint``, and
wraps only the returned pair in Points; its own finiteness check stands in
for the one a Point makes. For the sampling and block-sum operators the
carried z has the same bits as the adjoint that the reference iteration
(``step`` in tests/reference.py) takes of every iterate. Elsewhere it
drifts by rounding, so before every stop the loop recomputes A*w exactly
(and, where the bits differ, x and the residual from it): every returned x
is tau*prox(A*w/tau) of the exact adjoint, and a feasibility stop rests on
the exact residual.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import numerics
from .linop import LinearOperator, Point, _is_integer, _is_number, _positive, _shown

# Relative size of A*r, against ||A||*||r||, below which the residual r
# certifies b outside range(A). About sqrt(u), u the double-precision unit
# roundoff: on consistent data the ratio stays far above it.
_FARKAS_RTOL = 1e-8
# A plain solve on an upper bound b on ||A|| takes h = PLAIN_STEP / b^2 by
# default, about half the iterations of 1/b^2. Plain descent converges for
# every h in (0, 2/L), L = ||A||^2. The worst-case rate factor h(2 - hL) is
# 0.19/L at 1.9/L, against 1/L at 1/L and 0.0199/L at 1.99/L, which saves
# only two more points of iterations.
PLAIN_STEP = 1.9


class ConfigurationError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """One augmented model instance min J(x) + (1/2 tau)||x||^2 s.t. Ax = b
    (operator, data, regularizer J, tau).

    The regularizer is any object exposing prox(v, scale) and
    polar_project(v) on arrays shaped like the operator's domain: a
    NormSpec, a gauge, or the RPCA block regularizer. This is the one check
    that tau is finite and positive; it is stored as a float.
    """

    op: LinearOperator
    b: Point
    regularizer: object
    tau: float

    def __post_init__(self):
        if self.b.data.shape != self.op.codomain_shape:
            raise ValueError("b shape does not match operator codomain")
        with np.errstate(over="ignore"):
            b_norm = self.b.norm()
        if not math.isfinite(b_norm):
            raise ValueError("||b|| overflows to inf; rescale the data")
        object.__setattr__(self, "tau", _positive("tau", self.tau))


@dataclass(frozen=True)
class SolveConfig:
    """Step size, budget, tolerance, starting point and variant of one solve.

    ``step_size`` turns ``h`` into the step of a solve: PLAIN_STEP / bound^2
    (plain, on an upper bound on ||A||) or 1 / bound^2 (accelerated, or on a
    Lanczos estimate) when h is None, else h checked against the bound on
    ||A||. ``y0`` warm-starts the dual iterate (zero when None).
    ``accelerated`` adds momentum of coefficient 1 with gradient restart.
    """

    h: Optional[float] = None
    max_iter: int = 100_000
    primal_tol: float = 1e-8
    y0: Optional[Point] = None
    accelerated: bool = False

    def __post_init__(self):
        if not (self.h is None or _is_number(self.h)):
            raise ConfigurationError(f"h must be a number or None, got {_shown(self.h)}")
        if not (_is_integer(self.max_iter) and self.max_iter >= 1):
            raise ConfigurationError(
                f"max_iter must be an integer >= 1, got {_shown(self.max_iter)}"
            )
        _positive("primal_tol", self.primal_tol, ConfigurationError)
        if not (self.y0 is None or isinstance(self.y0, Point)):
            raise ConfigurationError("y0 must be a Point or None")
        if not isinstance(self.accelerated, bool):
            raise ConfigurationError(
                f"accelerated must be true or false, got {_shown(self.accelerated)}"
            )


@dataclass(slots=True)
class TraceRecord:
    k: int
    primal_residual: float
    dual_objective: float
    x_change: float
    y_change: float


class SolveTrace:
    """Per-iteration trace, termination reason, the bound on ||A||, its
    method, the step h the solve used, and ``restarts``, the number of
    momentum resets (0 on a plain solve); the last five are None on a trace
    read back from CSV.

    ``append`` fills typed buffers (40 bytes per iteration); ``records`` is
    a read-only sequence that builds a TraceRecord per row on access.
    """

    def __init__(self):
        self.termination: Optional[str] = None
        self.norm_bound: Optional[float] = None
        self.norm_method: Optional[str] = None
        self.h: Optional[float] = None
        self.restarts: Optional[int] = None
        # One buffer per TraceRecord field, in field order.
        self._columns = (array("q"),) + tuple(array("d") for _ in range(4))

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


# Patched by name in solvebench/tracing.py; kept until ROADMAP item 1 moves the spans.
def regularizer_prox(reg, v: np.ndarray, scale: float) -> np.ndarray:
    return reg.prox(v, scale)


def primal_from_dual(p: ProblemSpec, y: np.ndarray) -> np.ndarray:
    """x = tau*prox(A*y/tau), on arrays."""
    if y.shape != p.op.codomain_shape:
        raise ValueError(f"codomain mismatch: {y.shape} vs {p.op.codomain_shape}")
    return _primal(p, p.op._adjoint(y))


def _primal(p: ProblemSpec, z: np.ndarray) -> np.ndarray:
    # x = tau*prox(z/tau), for z = A*y.
    return p.tau * regularizer_prox(p.regularizer, z * (1.0 / p.tau), 1.0)


def _dot(u: np.ndarray, v: np.ndarray) -> float:
    return float(u.ravel() @ v.ravel())


def step_size(p: ProblemSpec, c: SolveConfig,
              norm_bound: Optional[float] = None) -> Tuple[float, float, str]:
    """(bound, h, method): the bound on ||A||, the step of a solve of p under
    c, and how the bound was found.

    ``norm_bound`` None takes ``numerics.operator_norm_estimate`` (looked up
    at call time, so a patch is seen) and its method: an "exact" or "gram"
    value is an upper bound and is used as is, and a "lanczos" estimate,
    which is not, is taken times 1.01; a zero value admits no step. A given
    ``norm_bound`` has method "given" and must be an upper bound on ||A||.
    A bound whose square over- or underflows (outside about [1e-154, 1e154])
    admits no finite positive step either; both are ConfigurationErrors.
    grad D is Lipschitz with L = bound^2. When c.h is None, h is
    PLAIN_STEP/L for a plain solve on an upper bound, and 1/L for an
    accelerated solve or a Lanczos estimate; a given c.h must lie in
    (0, 2/L), and be at most 1/L for an accelerated solve. Neither uses tau.
    """
    if norm_bound is None:
        estimate, method = numerics.operator_norm_estimate(p.op)
        if estimate == 0.0:
            raise ConfigurationError(
                "the operator is zero, or its squared entries underflow: "
                "its estimated norm is 0"
            )
        norm_bound = estimate * 1.01 if method == "lanczos" else estimate
    else:
        method = "given"
    bound = _positive("norm_bound", norm_bound, ConfigurationError)
    lipschitz = bound * bound
    upper = 2.0 / lipschitz if lipschitz > 0.0 else math.inf
    if not (0.0 < upper < math.inf):
        raise ConfigurationError(
            f"norm_bound {bound!r} ({method}) admits no step: 1/norm_bound^2 "
            f"over- or underflows; rescale the operator and the data"
        )
    if c.h is None:
        scale = 1.0 if c.accelerated or method == "lanczos" else PLAIN_STEP
        return bound, scale / lipschitz, method
    cap = 1.0 / lipschitz
    if not (0.0 < c.h < upper):
        raise ConfigurationError(
            f"step size h={_shown(c.h)} outside the admissible open interval "
            f"(0, {upper!r})"
        )
    if c.accelerated and c.h > cap:
        raise ConfigurationError(
            f"accelerated solve needs h <= {cap!r} (the 1/L bound); got {_shown(c.h)}"
        )
    return bound, float(c.h), method


def _initial_state(p: ProblemSpec, c: SolveConfig) -> np.ndarray:
    if c.y0 is not None:
        if c.y0.data.shape != p.op.codomain_shape:
            raise ValueError("y0 shape does not match operator codomain")
        return c.y0.data
    return np.zeros(p.op.codomain_shape)


def _norm(v: np.ndarray) -> float:
    # np.linalg.norm's arithmetic (the square root of the dot product in
    # memory order), without its dispatch: a third of its time on small arrays.
    u = v.ravel(order="K")
    return math.sqrt(u.dot(u))


def _trace_objective(p: ProblemSpec, y: np.ndarray, x: np.ndarray) -> float:
    # D(y) via the Moreau identity ||w - z|| = ||x|| / tau; avoids a second
    # projection (and a second SVD) per iteration.
    return -_dot(y, p.b.data) + 0.5 * _dot(x, x)


def solve(
    p: ProblemSpec, c: SolveConfig, norm_bound: Optional[float] = None
) -> Tuple[Point, Point, SolveTrace]:
    """Dual gradient descent until primal feasibility, an infeasibility
    certificate, a non-finite iterate, or budget.

    Each iteration takes a gradient step from w. Plain descent has w = y.
    With ``c.accelerated``, w = y_next + (y_next - y), a momentum
    coefficient of 1 (the greedy FISTA of Liang, Luo and Schoenlieb, SIAM
    J. Sci. Comput. 2022), and the momentum resets, w = y_next, whenever
    <grad D(w), y_next - y> > 0, i.e. when it stops being a descent
    direction (the gradient restart of O'Donoghue and Candes, Found.
    Comput. Math. 2015); ``trace.restarts`` counts the resets. The first
    step equals a plain one. No O(1/k^2) rate is claimed: Nesterov's bound
    holds for his coefficient sequence run without restarts, and a restarted
    scheme, with that sequence or with coefficient 1, does not inherit it.
    The step stays at most 1/L: at 1.6/L, both coefficient rules ran to the
    iteration cap on nearly every completion instance tried, and Liang et
    al. pair larger steps with a step-size safeguard that this loop does not
    have. ``step_size`` gives the bound on ||A|| (``norm_bound``, which must
    be an upper bound on ||A||; from ``numerics.operator_norm_estimate``
    when None), its method and the step h.

    Returns the last consistent primal-dual pair (x, y) with
    x = tau*prox(A*y/tau), and the per-iteration trace, which records
    norm_bound, norm_method, h and restarts. Termination is feasibility_tol,
    suspected_infeasible (||A*r|| <= 1e-8 * norm_bound * ||r|| and
    <b, r> > 0: r certifies b outside range(A)), max_iter, or
    numerical_failure (the residual, x change or y change is not finite;
    the returned pair is the finite one that produced it).
    """
    norm_bound, h, norm_method = step_size(p, c, norm_bound)

    op = p.op
    b = p.b.data
    y = _initial_state(p, c)
    w = y
    # z_y = A*y and z_w = A*w, carried by the operations applied to y and w.
    z_y = np.zeros(op.domain_shape) if c.y0 is None else op._adjoint(y)
    z_w = z_y
    atb = op._adjoint(b)
    normal = op.normal_map()

    def evaluate(z):
        # From z = A*w: x = tau*prox(z/tau), the residual b - Ax, and A*Ax.
        x = _primal(p, z)
        ax, atax = normal(x)
        return x, b - ax, atax

    x_prev: Optional[np.ndarray] = None
    tol = c.primal_tol * max(1.0, p.b.norm())
    trace = SolveTrace()
    trace.norm_bound = norm_bound
    trace.norm_method = norm_method
    trace.h = h
    trace.restarts = 0
    # A diverging solve overflows in norms and products before the
    # finiteness check below ends it; the termination reports that, so
    # numpy's overflow warnings would only be noise.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, c.max_iter + 1):
            x, r, atax = evaluate(z_w)  # r = -grad D(w)
            rnorm = _norm(r)
            if rnorm <= tol:
                # z_w drifts from A*w by rounding: stop on the exact residual.
                z = op._adjoint(w)
                if not np.array_equal(z, z_w):
                    z_w = z
                    x, r, atax = evaluate(z_w)
                    rnorm = _norm(r)
            x_change = _norm(x - x_prev) if x_prev is not None else _norm(x)
            feasible = rnorm <= tol
            y_next = w if feasible else w + r * h
            dy = y_next - y
            y_change = _norm(dy)
            trace.append(k, rnorm, _trace_objective(p, w, x), x_change, y_change)
            # The finiteness check of the iteration, the only one in the loop
            # (it builds no Point): a non-finite Ax shows in the residual
            # norm, and a norm overflows once an entry passes ~1e154, long
            # before r, x, y_next or w can hold an inf.
            if not (math.isfinite(rnorm) and math.isfinite(x_change)
                    and math.isfinite(y_change)):
                trace.termination = "numerical_failure"
                break
            if feasible:
                trace.termination = "feasibility_tol"
                break
            g = atb - atax  # A*r
            if _norm(g) <= _FARKAS_RTOL * norm_bound * rnorm and _dot(b, r) > 0.0:
                trace.termination = "suspected_infeasible"
                break
            z_next = z_w + g * h
            w = y_next
            z_w = z_next
            if c.accelerated:
                # Restart once y_next - y stops being a descent direction;
                # otherwise extrapolate with momentum coefficient 1.
                if _dot(r, dy) < 0.0:
                    trace.restarts += 1
                else:
                    w = y_next + dy
                    z_w = z_next + (z_next - z_y)
            y = y_next
            z_y = z_next
            x_prev = x
        else:
            trace.termination = "max_iter"
            w = y
        # A feasibility stop returns its own x; every other stop returns the
        # last finite dual iterate and the x of its exact adjoint.
        if trace.termination != "feasibility_tol":
            x = primal_from_dual(p, w)
    return Point(x), Point(w), trace

