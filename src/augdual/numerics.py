"""Dense linear-algebra kernels: thin SVD and operator-norm estimation.

The SVD is LAPACK's divide-and-conquer routine (``np.linalg.svd``) plus a
relative clamp of negligible singular values, so rank decisions in the
singular-value thresholding loop are stable.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .linop import LinearOperator, random_point

# Singular values below this fraction of the largest are clamped to zero to
# stabilize rank decisions.
RANK_CLAMP = 1e-12


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD m = u @ diag(s) @ v.T with orthonormal u, v columns and
    s sorted nonincreasing."""

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.s) @ self.v.T


def svd(m) -> SvdResult:
    """Thin SVD of a dense matrix via LAPACK.

    For an r-by-c input, u is r-by-k and v is c-by-k with k = min(r, c).
    Singular values below RANK_CLAMP times the largest are set to zero.
    Raises ValueError on non-finite input and np.linalg.LinAlgError (a
    ValueError subclass) when LAPACK does not converge.
    """
    mat = np.asarray(m, dtype=float)
    if mat.ndim != 2:
        raise ValueError("svd needs a 2-D matrix")
    if not np.all(np.isfinite(mat)):
        raise ValueError("svd input must be finite")
    u, s, vt = np.linalg.svd(mat, full_matrices=False)
    if s[0] > 0:
        s = np.where(s < RANK_CLAMP * s[0], 0.0, s)
    return SvdResult(u=u, s=s, v=vt.T)


def power_iteration(
    op: LinearOperator, tol: float, max_iter: int, seed: int
) -> tuple[float, bool, int]:
    """Power iteration on A*A from a seeded random start.

    Returns (estimate of ||A||, converged flag, iterations). Convergence is
    relative change of the Rayleigh quotient <= tol. The estimate never
    exceeds the true norm, so callers inflate it by a small safety factor.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    rng = np.random.default_rng(seed)
    x = random_point(op.domain_tag, rng)
    nrm = x.norm()
    if nrm == 0:
        return 0.0, True, 0
    x = x * (1.0 / nrm)
    rho_prev = -1.0
    for it in range(1, max_iter + 1):
        z = op.adjoint(op.apply(x))
        rho = x.dot(z)
        if rho <= 0:
            return 0.0, True, it
        if rho_prev >= 0 and abs(rho - rho_prev) <= tol * rho:
            return float(np.sqrt(rho)), True, it
        rho_prev = rho
        znrm = z.norm()
        if znrm == 0:
            return 0.0, True, it
        x = z * (1.0 / znrm)
    return float(np.sqrt(max(rho_prev, 0.0))), False, max_iter


def operator_norm_estimate(
    op: LinearOperator, tol: float = 1e-12, max_iter: int = 5000, seed: int = 0
) -> float:
    """Largest-singular-value estimate of ``op`` by power iteration.

    The value is a lower bound on ||A||. ``tol`` bounds the relative change
    of the Rayleigh quotient between consecutive iterations, not the error
    of the estimate, which can be larger than ``tol`` when the top singular
    values are close. A RuntimeWarning flags a run that hit ``max_iter``.
    """
    value, converged, _ = power_iteration(op, tol, max_iter, seed)
    if not converged:
        warnings.warn(
            "operator norm power iteration did not reach tolerance; "
            "returning the best estimate",
            RuntimeWarning,
            stacklevel=2,
        )
    return value
