"""Dense linear-algebra kernels: thin SVD and operator-norm estimation.

The SVD is LAPACK's divide-and-conquer routine (``np.linalg.svd``) plus a
relative clamp of negligible singular values, so rank decisions in the
singular-value thresholding loop are stable. The operator norm ||A|| is
estimated by a seeded Lanczos process on the smaller of A A* and A* A,
which needs only the operator's forward and adjoint maps.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .linop import LinearOperator, Point

# Singular values below this fraction of the largest are clamped to zero to
# stabilize rank decisions.
RANK_CLAMP = 1e-12
# A Lanczos residual norm beta_j at or below this fraction of the Ritz value
# means the Krylov space is invariant (exact up to rounding) and the Ritz
# value is an eigenvalue.
_INVARIANT_RTOL = 1e-12


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
    if not np.isfinite(mat).all():
        raise ValueError("svd input must be finite")
    u, s, vt = np.linalg.svd(mat, full_matrices=False)
    if s[0] > 0:
        s = np.where(s < RANK_CLAMP * s[0], 0.0, s)
    return SvdResult(u=u, s=s, v=vt.T)


# Patched by name in solvebench/tracing.py; kept until ROADMAP item 1 moves the spans.
def power_iteration(
    op: LinearOperator, tol: float, max_iter: int, seed: int
) -> tuple[float, bool, int]:
    """Power iteration on A*A from a seeded random start.

    Returns (estimate of ||A||, converged flag, iterations). Convergence is
    relative change of the Rayleigh quotient <= tol. The estimate never
    exceeds the true norm. The package estimates norms with
    ``lanczos_norm``; this is kept as the slower reference.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    x = np.random.default_rng(seed).standard_normal(op.domain_shape)
    nrm = float(np.linalg.norm(x))
    if nrm == 0:
        return 0.0, True, 0
    x = x * (1.0 / nrm)
    rho_prev = -1.0
    for it in range(1, max_iter + 1):
        z = op._adjoint(op._apply(x))
        rho = float(x.ravel() @ z.ravel())
        if rho <= 0:
            return 0.0, True, it
        if rho_prev >= 0 and abs(rho - rho_prev) <= tol * rho:
            return float(np.sqrt(rho)), True, it
        rho_prev = rho
        znrm = float(np.linalg.norm(z))
        if znrm == 0:
            return 0.0, True, it
        x = z * (1.0 / znrm)
    return float(np.sqrt(max(rho_prev, 0.0))), False, max_iter


def lanczos_norm(
    op: LinearOperator, tol: float, max_iter: int, seed: int
) -> tuple[float, bool, int]:
    """Lanczos estimate of ||A|| from a seeded random start.

    Runs on the smaller Gram operator, A A* when the codomain is smaller and
    A* A otherwise, with full reorthogonalization (two Gram-Schmidt passes)
    of each new vector against the stored basis. The estimate is the square
    root of the top eigenvalue of the tridiagonal T_j, which never exceeds
    ||A||^2 up to rounding. Stops when that Ritz value changes by at most
    ``tol`` relative, or when beta_j vanishes (an invariant Krylov space), or
    after min(max_iter, dim) steps. Returns (estimate, converged, steps).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    first, second, shape = op.apply, op.adjoint, op.domain_shape
    if math.prod(op.codomain_shape) < math.prod(shape):
        first, second, shape = op.adjoint, op.apply, op.codomain_shape
    # The basis holds flat vectors; the operators see them in their shape.
    q = np.random.default_rng(seed).standard_normal(math.prod(shape))
    q = q / np.linalg.norm(q)
    cap = min(max_iter, q.size)
    # Basis rows q_1..q_j, grown by doubling so a short run allocates little.
    basis = np.empty((min(cap, 32), q.size))
    alphas: list = []
    betas: list = []
    theta_prev = -1.0
    for j in range(cap):
        if j == basis.shape[0]:
            grown = np.empty((min(2 * j, cap), q.size))
            grown[:j] = basis
            basis = grown
        basis[j] = q
        w = second(first(Point(q.reshape(shape)))).data.ravel()
        alphas.append(float(q @ w))
        stored = basis[: j + 1]
        for _ in range(2):
            w = w - stored.T @ (stored @ w)
        beta = float(np.linalg.norm(w))
        theta = float(
            np.linalg.eigvalsh(np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1))[-1]
        )
        if beta <= _INVARIANT_RTOL * theta or (
            theta_prev >= 0 and abs(theta - theta_prev) <= tol * theta
        ):
            return float(np.sqrt(max(theta, 0.0))), True, j + 1
        theta_prev = theta
        betas.append(beta)
        q = w / beta
    return float(np.sqrt(max(theta_prev, 0.0))), False, cap


def operator_norm_estimate(
    op: LinearOperator, tol: float = 1e-12, max_iter: int = 5000, seed: int = 0
) -> float:
    """Largest-singular-value estimate of ``op`` by Lanczos (``lanczos_norm``).

    The value is a lower bound on ||A|| up to rounding. ``tol`` bounds the
    relative change of the Ritz value of ||A||^2 between consecutive steps,
    not the error of the estimate. A RuntimeWarning flags a run that hit
    ``max_iter``; its text predates Lanczos and ``solvebench`` matches it.
    """
    value, converged, _ = lanczos_norm(op, tol, max_iter, seed)
    if not converged:
        warnings.warn(
            "operator norm power iteration did not reach tolerance; "
            "returning the best estimate",
            RuntimeWarning,
            stacklevel=2,
        )
    return value
