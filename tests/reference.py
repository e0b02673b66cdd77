"""References that the tests check the package against. The package never
imports this module.

The reference iteration (``step``, ``dual_gradient``, ``dual_objective``)
writes the method out as the paper states it, on arrays: one adjoint per
iterate and no carried state. ``solver.solve`` is tested against it. The
dual objective is D(y) = -<y, b> + (tau^2/2) * dist(A*y/tau, K)^2, with K the
dual-norm ball or polar set of the regularizer.

The exact solver enumerates sign patterns in {-, 0, +}^n in a fixed
canonical order (support size ascending, then lexicographic), solves the
equality-constrained stationarity system per pattern, and keeps the first
pattern whose KKT conditions verify. Uniqueness of the augmented-model
minimizer makes the order irrelevant to the returned value. Its linear
program needs scipy.

``prox_bruteforce`` minimizes a prox objective over a grid,
``moreau_residual`` evaluates the Moreau identity and
``adjoint_consistency_check`` tests <Ax, y> = <x, A*y> at seeded points.
"""

from __future__ import annotations

import itertools
from typing import Tuple

import numpy as np

from augdual.linop import LinearOperator, Point
from augdual.prox import NormSpec, dual_ball_project, prox_norm
from augdual.solver import ProblemSpec, primal_from_dual

_SOLVE_RTOL = 1e-9
_SIGN_TOL = 1e-12
_DUAL_SLACK = 1e-9

MAX_ENUM_DIM = 12


class InfeasibleModelError(RuntimeError):
    """No sign pattern verified: the constraint system is inconsistent."""


def step(p: ProblemSpec, y: np.ndarray, h: float) -> Tuple[np.ndarray, np.ndarray]:
    """One primal-dual iteration: x = tau*prox(A*y/tau); y+ = y + h(b - Ax).
    Returns (y+, x)."""
    x = primal_from_dual(p, y)
    return y + (p.b.data - p.op._apply(x)) * h, x


def dual_gradient(p: ProblemSpec, y: np.ndarray) -> np.ndarray:
    """grad D(y) = -b + A(tau * prox(A*y/tau))."""
    return p.op._apply(primal_from_dual(p, y)) - p.b.data


def dual_objective(p: ProblemSpec, y: np.ndarray) -> float:
    """D(y) = -<y, b> + (tau^2/2) * ||A*y/tau - z||^2 with z the projection
    of A*y/tau onto the dual ball / polar set."""
    w = p.op._adjoint(y) * (1.0 / p.tau)
    gap = (w - p.regularizer.polar_project(w)).ravel()
    return -float(y.ravel() @ p.b.data.ravel()) + 0.5 * p.tau * p.tau * float(gap @ gap)


def _sign_patterns(n: int):
    """Supports by ascending size, lexicographic; signs in {+1, -1}^|F|."""
    for size in range(n + 1):
        for support in itertools.combinations(range(n), size):
            for signs in itertools.product((1.0, -1.0), repeat=size):
                yield support, np.array(signs)


def _dual_feasible(A: np.ndarray, support, c: np.ndarray) -> bool:
    """Does some y satisfy A_F^T y = c with |A_i^T y| <= 1 off support?

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
    if np.max(np.abs(A[:, free].T @ y)) <= 1.0 + _DUAL_SLACK:
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
    return bool(res.success) and res.x[m] <= 1.0 + _DUAL_SLACK


def l1_exact_solve(A, b, tau: float) -> Point:
    """Exact minimizer of ||x||_1 + (1/2 tau)||x||_2^2 s.t. Ax = b
    for n <= 12 by sign-pattern enumeration with KKT verification."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).ravel()
    if A.ndim != 2 or A.shape[0] != b.size:
        raise ValueError("A and b shapes do not match")
    m, n = A.shape
    if n > MAX_ENUM_DIM:
        raise ValueError(f"enumeration capped at n <= {MAX_ENUM_DIM}, got n = {n}")
    if tau <= 0:
        raise ValueError("tau must be positive")
    bnorm = np.linalg.norm(b)
    scale = 1.0 + bnorm

    for support, signs in _sign_patterns(n):
        f = len(support)
        if f == 0:
            if bnorm <= _SOLVE_RTOL * scale:
                return Point.vector(np.zeros(n))
            continue
        AF = A[:, list(support)]
        # Stationarity on the support: x_F / tau - A_F^T y = -s,
        # feasibility: A_F x_F = b.
        system = np.zeros((f + m, f + m))
        system[:f, :f] = (1.0 / tau) * np.eye(f)
        system[:f, f:] = -AF.T
        system[f:, :f] = AF
        rhs = np.concatenate([-signs, b])
        sol, *_ = np.linalg.lstsq(system, rhs, rcond=None)
        if np.linalg.norm(system @ sol - rhs) > _SOLVE_RTOL * scale:
            continue
        xF = sol[:f]
        if np.any(signs * xF <= _SIGN_TOL):
            continue
        c = signs + (1.0 / tau) * xF
        if not _dual_feasible(A, support, c):
            continue
        x = np.zeros(n)
        x[list(support)] = xF
        return Point.vector(x)
    raise InfeasibleModelError("no sign pattern verified; Ax = b appears inconsistent")


def prox_bruteforce(objective, v, grid_half_width: float, grid_points: int) -> np.ndarray:
    """Grid minimizer of objective(x) + 0.5||x - v||^2 over a box around v.

    ``objective`` maps an (N, d) array of points to their N values. Dimension
    <= 3, <= 201 points per axis; accuracy is one grid cell; the first minimum
    in ``itertools.product`` order of the axes wins. Returns a flat array.
    """
    center = np.asarray(v, dtype=float).ravel()
    d = center.size
    if d > 3:
        raise ValueError("brute-force prox is capped at dimension 3")
    if grid_points > 201:
        raise ValueError("grid capped at 201 points per axis")
    axes = [np.linspace(c - grid_half_width, c + grid_half_width, grid_points) for c in center]
    best_val, best = np.inf, center.copy()
    # One slab per point of the first axis: at most 201^2 points at a time.
    for first in axes[0]:
        slab = np.meshgrid([first], *axes[1:], indexing="ij")
        points = np.stack(slab, axis=-1).reshape(-1, d)
        vals = objective(points) + 0.5 * np.sum((points - center) ** 2, axis=1)
        i = np.argmin(vals)
        if vals[i] < best_val:
            best_val, best = vals[i], points[i]
    return best


def random_point(shape, rng: np.random.Generator) -> Point:
    return Point(rng.standard_normal(shape))


def adjoint_consistency_check(op: LinearOperator, trials: int, seed: int) -> float:
    """Max relative gap of <Ax, y> - <x, A*y> over seeded random (x, y)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        x = random_point(op.domain_shape, rng).data
        y = random_point(op.codomain_shape, rng).data
        lhs = float(op._apply(x).ravel() @ y.ravel())
        rhs = float(x.ravel() @ op._adjoint(y).ravel())
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
    return worst


def moreau_residual(norm: NormSpec, v: np.ndarray, scale: float = 1.0) -> float:
    """||v - prox_{scale*norm}(v) - proj_{scale*dual-ball}(v)||_2."""
    p = prox_norm(norm, v, scale)
    z = dual_ball_project(norm, v, radius=scale)
    return float(np.linalg.norm(v - p - z))
