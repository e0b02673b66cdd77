"""Independent verification: an exact small-instance solver for the
augmented l1 model, a KKT residual certificate, and a brute-force prox.

The exact solver enumerates sign patterns in {-, 0, +}^n in a fixed
canonical order (support size ascending, then lexicographic), solves the
equality-constrained stationarity system per pattern, and keeps the first
pattern whose KKT conditions verify. Uniqueness of the augmented-model
minimizer makes the order irrelevant to the returned value.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .linop import Point
from .solver import ProblemSpec, primal_from_dual

_SOLVE_RTOL = 1e-9
_SIGN_TOL = 1e-12
_DUAL_SLACK = 1e-9

MAX_ENUM_DIM = 12


class InfeasibleModelError(RuntimeError):
    """No sign pattern verified: the constraint system is inconsistent."""


@dataclass(frozen=True)
class KktReport:
    feasibility: float
    stationarity: float

    @property
    def max_violation(self) -> float:
        return max(self.feasibility, self.stationarity)


def kkt_residual(p: ProblemSpec, x: Point, y: Point) -> KktReport:
    """feasibility = ||Ax - b||; stationarity = ||x - tau*prox(A*y/mu)||.

    The stationarity term is the fixed-point membership test for the dual
    solution set and subsumes the subdifferential inclusion.
    """
    feas = (p.op.apply(x) - p.b).norm()
    stat = (x - primal_from_dual(p, y)[0]).norm()
    return KktReport(feasibility=feas, stationarity=stat)


def _sign_patterns(n: int):
    """Supports by ascending size, lexicographic; signs in {+1, -1}^|F|."""
    for size in range(n + 1):
        for support in itertools.combinations(range(n), size):
            for signs in itertools.product((1.0, -1.0), repeat=size):
                yield support, np.array(signs)


def _dual_feasible(A: np.ndarray, support, c: np.ndarray, mu: float) -> bool:
    """Does some y satisfy A_F^T y = c with |A_i^T y| <= mu off support?

    Tried first with the least-squares y; if that fails, an LP searches the
    whole affine solution set.
    """
    free = [i for i in range(A.shape[1]) if i not in support]
    if not free:
        return True
    AF = A[:, list(support)]
    y, *_ = np.linalg.lstsq(AF.T, c, rcond=None)
    if np.linalg.norm(AF.T @ y - c) > _SOLVE_RTOL * (1.0 + np.linalg.norm(c)):
        return False
    if np.max(np.abs(A[:, free].T @ y)) <= mu + _DUAL_SLACK:
        return True
    from scipy.optimize import linprog

    m = A.shape[0]
    nfree = len(free)
    # Variables (y, t): minimize t subject to A_F^T y = c and
    # +-(A_i^T y) <= t for the off-support columns.
    c_obj = np.zeros(m + 1)
    c_obj[m] = 1.0
    Gf = A[:, free].T
    A_ub = np.vstack([np.hstack([Gf, -np.ones((nfree, 1))]),
                      np.hstack([-Gf, -np.ones((nfree, 1))])])
    b_ub = np.zeros(2 * nfree)
    A_eq = np.hstack([AF.T, np.zeros((len(support), 1))])
    res = linprog(
        c_obj,
        A_ub=A_ub,
        b_ub=b_ub,
        A_eq=A_eq,
        b_eq=c,
        bounds=[(None, None)] * m + [(0.0, None)],
        method="highs",
    )
    return bool(res.success) and res.x[m] <= mu + _DUAL_SLACK


def l1_exact_solve(A, b, tau: float, mu: float = 1.0) -> Point:
    """Exact minimizer of mu||x||_1 + (mu/2 tau)||x||_2^2 s.t. Ax = b
    for n <= 12 by sign-pattern enumeration with KKT verification."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).ravel()
    if A.ndim != 2 or A.shape[0] != b.size:
        raise ValueError("A and b shapes do not match")
    m, n = A.shape
    if n > MAX_ENUM_DIM:
        raise ValueError(f"enumeration capped at n <= {MAX_ENUM_DIM}, got n = {n}")
    if tau <= 0 or mu <= 0:
        raise ValueError("tau and mu must be positive")
    bnorm = np.linalg.norm(b)
    scale = 1.0 + bnorm

    for support, signs in _sign_patterns(n):
        f = len(support)
        if f == 0:
            if bnorm <= _SOLVE_RTOL * scale:
                return Point.vector(np.zeros(n))
            continue
        AF = A[:, list(support)]
        # Stationarity on the support: (mu/tau) x_F - A_F^T y = -mu*s,
        # feasibility: A_F x_F = b.
        system = np.zeros((f + m, f + m))
        system[:f, :f] = (mu / tau) * np.eye(f)
        system[:f, f:] = -AF.T
        system[f:, :f] = AF
        rhs = np.concatenate([-mu * signs, b])
        sol, *_ = np.linalg.lstsq(system, rhs, rcond=None)
        if np.linalg.norm(system @ sol - rhs) > _SOLVE_RTOL * scale:
            continue
        xF = sol[:f]
        if np.any(signs * xF <= _SIGN_TOL):
            continue
        c = mu * signs + (mu / tau) * xF
        if not _dual_feasible(A, support, c, mu):
            continue
        x = np.zeros(n)
        x[list(support)] = xF
        return Point.vector(x)
    raise InfeasibleModelError("no sign pattern verified; Ax = b appears inconsistent")


def prox_bruteforce(objective, v, grid_half_width: float, grid_points: int):
    """Grid minimizer of objective(x) + 0.5||x - v||^2 over a box around v.

    Dimension <= 3, <= 201 points per axis; accuracy is one grid cell.
    Accepts a Point or a flat array and returns the same kind.
    """
    is_point = isinstance(v, Point)
    center = v.data if is_point else np.asarray(v, dtype=float).ravel()
    d = center.size
    if d > 3:
        raise ValueError("brute-force prox is capped at dimension 3")
    if grid_points > 201:
        raise ValueError("grid capped at 201 points per axis")
    axes = [
        np.linspace(c - grid_half_width, c + grid_half_width, grid_points)
        for c in center
    ]
    best_val = np.inf
    best = center.copy()
    for combo in itertools.product(*axes):
        x = np.asarray(combo)
        val = objective(x) + 0.5 * float(np.sum((x - center) ** 2))
        if val < best_val:
            best_val = val
            best = x
    if is_point:
        return v.with_data(best)
    return best
