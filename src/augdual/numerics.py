"""Dense linear-algebra kernels: thin SVD and operator-norm estimation.

The full SVD is LAPACK's divide-and-conquer routine (``np.linalg.svd``) plus
a relative clamp of negligible singular values, so rank decisions are
stable. With a floor t, ``svd(m, floor=t)`` returns only the k triplets
whose singular value is above t (singular value thresholding needs no
others), from one LAPACK ``eigh`` of the small Gram matrix of m, unless m
is too large against t for that to be accurate. ``operator_norm_estimate``
gives ||A|| and how it was found: exactly for a sampling mask (1) and a
block sum (sqrt 2); for a wide or tall Dense, as a certified upper bound from
the top eigenvalue of its explicit smaller Gram matrix (LAPACK) and that
eigenvalue's rounding error; for every other operator, as a Lanczos estimate
on the smaller of A A* and A* A, which needs only the forward and adjoint
maps. None takes options: Lanczos starts from seed 0 and stops at a
relative change of 1e-12 or after 5000 steps.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .linop import BlockSum, Dense, LinearOperator, Point, SamplingMask

# Singular values below this fraction of the largest are clamped to zero to
# stabilize rank decisions.
RANK_CLAMP = 1e-12
# A Lanczos residual norm beta_j at or below this fraction of the Ritz value
# means the Krylov space is invariant (exact up to rounding) and the Ritz
# value is an eigenvalue.
_INVARIANT_RTOL = 1e-12
# The norm of a Dense comes from its explicit smaller Gram matrix when that
# matrix takes at most this fraction of the Dense's memory.
GRAM_MEMORY_FRACTION = 0.25
# Lanczos stops when its Ritz value of ||A||^2 changes by at most this
# fraction between consecutive steps, or after this many steps.
_LANCZOS_RTOL = 1e-12
_LANCZOS_MAX_STEPS = 5000


# svd(m, floor=t) takes the Gram route only while s_max^2 / t^2 is at most
# this (see svd for the error bound it gives); larger ratios get LAPACK.
GRAM_SVD_RATIO = 1e4


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD triplets: u is r-by-k and v is c-by-k with orthonormal
    columns, and s holds k values sorted nonincreasing. From the full SVD,
    k = min(r, c) and m = u @ diag(s) @ v.T; from ``svd(m, floor=t)``, k is
    the kept count and the triplets are those of m with s > t."""

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.s) @ self.v.T


def svd(m, floor: float | None = None) -> SvdResult:
    """Thin SVD of a dense matrix, or only its triplets above ``floor``.

    Without a floor: LAPACK's SVD; for an r-by-c input, u is r-by-k and v is
    c-by-k with k = min(r, c), and singular values below RANK_CLAMP times
    the largest are set to zero.

    With ``floor=t`` (t > 0): only the k triplets with s > t, k from 0 to
    min(r, c). Let a be m/t or m.T/t, whichever is tall, and G = a.T @ a.
    One LAPACK ``eigh`` of G gives them: s = t*sqrt(lambda) for the
    eigenvalues lambda > 1, v their eigenvectors and u = a v / sqrt(lambda)
    (u and v swap for a wide m). This holds while R = lambda_max(G) =
    s_max^2 / t^2 is at most GRAM_SVD_RATIO. The computed eigenvalues are
    those of G up to c*eps*R, c a low-degree polynomial in the dimensions
    (the Gram product's rounding and eigh's backward error), so each kept s
    is within c*eps*sqrt(R)/2 * s_max of the true value, and the columns of
    u are orthonormal within c*eps*R (about c * 2.2e-12 at the cap). Every
    kept s is above s_max / sqrt(R), so RANK_CLAMP never applies. For a
    larger R the triplets above t come from the LAPACK SVD unchanged; an
    entry of m above sqrt(GRAM_SVD_RATIO) * t (s_max is at least every
    |m_ij|) sends m there before G is formed, so G never overflows.

    Raises ValueError on non-finite input or a floor that is not positive,
    and np.linalg.LinAlgError (a ValueError subclass) when LAPACK does not
    converge.
    """
    mat = np.asarray(m, dtype=float)
    if mat.ndim != 2:
        raise ValueError("svd needs a 2-D matrix")
    if floor is not None and not floor > 0:
        raise ValueError(f"svd floor must be positive, got {floor!r}")
    # The largest |m_ij|; NaN when one is NaN.
    peak = np.abs(mat).max(initial=0.0)
    if not peak < math.inf:
        raise ValueError("svd input must be finite")
    if floor is not None and peak <= math.sqrt(GRAM_SVD_RATIO) * floor:
        # Scaled by 1/t, G cannot underflow where it matters: a kept
        # eigenvalue is above 1.
        wide = mat.shape[0] < mat.shape[1]
        a = (mat.T if wide else mat) / floor
        lam, vecs = np.linalg.eigh(a.T @ a)
        if lam[-1] <= GRAM_SVD_RATIO:
            root = np.sqrt(lam[lam.searchsorted(1.0, side="right"):][::-1])
            v = vecs[:, vecs.shape[1] - root.size:][:, ::-1]
            u = (a @ v) / root
            s = root * floor
            return SvdResult(u=v, s=s, v=u) if wide else SvdResult(u=u, s=s, v=v)
    u, s, vt = np.linalg.svd(mat, full_matrices=False)
    if s[0] > 0:
        s = np.where(s < RANK_CLAMP * s[0], 0.0, s)
    k = s.size if floor is None else np.count_nonzero(s > floor)
    return SvdResult(u=u[:, :k], s=s[:k], v=vt[:k].T)


# Patched by name in solvebench/tracing.py; kept until ROADMAP item 1 moves the spans.
def power_iteration(
    op: LinearOperator, tol: float, max_iter: int, seed: int
) -> tuple[float, bool, int]:
    """Power iteration on A*A from a seeded random start.

    Returns (estimate of ||A||, converged flag, iterations). Convergence is
    relative change of the Rayleigh quotient <= tol. The estimate never
    exceeds the true norm. The package estimates norms with
    ``operator_norm_estimate``; this is kept as the slower reference.
    """
    if tol <= 0:
        raise ValueError(f"tol must be > 0, got {tol!r}")
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


def _small_gram(op: LinearOperator):
    """The smaller Gram matrix of a wide or tall Dense, or None.

    A A* when the codomain is smaller and A* A otherwise, formed by one
    symmetric BLAS-3 product (numpy runs syrk for ``a @ a.T``), when it takes
    at most GRAM_MEMORY_FRACTION of A's memory and is finite. G is a
    transient of min(m, n)^2 floats (0.72 MB for 300x1400). Every other
    operator and a square-ish Dense get None. Dense cannot be subclassed, so
    its maps are those of its matrix.
    """
    if not isinstance(op, Dense):
        return None
    a = op.matrix
    m, n = a.shape
    if min(m, n) ** 2 > GRAM_MEMORY_FRACTION * m * n:
        return None
    gram = a @ a.T if m < n else a.T @ a
    return gram if np.isfinite(gram).all() else None


def _grown(arr: np.ndarray, shape) -> np.ndarray:
    """A zero array of ``shape`` with ``arr`` copied into its leading corner."""
    out = np.zeros(shape)
    out[tuple(slice(k) for k in arr.shape)] = arr
    return out


def lanczos_norm(op: LinearOperator) -> tuple[float, bool, int]:
    """Lanczos estimate of ||A|| from a random start of seed 0.

    Runs on the smaller Gram operator, A A* when the codomain is smaller and
    A* A otherwise, through the operator's ``apply`` and ``adjoint``, with
    full reorthogonalization (two Gram-Schmidt passes) of each new vector
    against the stored basis. Stops when the top eigenvalue theta of the
    tridiagonal T_j changes by at most _LANCZOS_RTOL relative, or when
    beta_j vanishes (an invariant Krylov space), or after
    min(_LANCZOS_MAX_STEPS, dim) steps. Returns (sqrt(theta), converged,
    steps); the estimate never exceeds ||A|| up to rounding.
    """
    first, second, shape = op.apply, op.adjoint, op.domain_shape
    if math.prod(op.codomain_shape) < math.prod(shape):
        first, second, shape = op.adjoint, op.apply, op.codomain_shape
    # The basis holds flat vectors; the operators see them in their shape.
    q = np.random.default_rng(0).standard_normal(math.prod(shape))
    q = q / np.linalg.norm(q)
    cap = min(_LANCZOS_MAX_STEPS, q.size)
    # Basis rows q_1..q_j and the tridiagonal T, grown together by doubling
    # so a short run allocates little.
    size = min(cap, 32)
    basis = np.empty((size, q.size))
    tri = np.zeros((size, size))
    theta, steps, converged = -1.0, cap, False
    for j in range(cap):
        if j == size:
            size = min(2 * j, cap)
            basis, tri = _grown(basis, (size, q.size)), _grown(tri, (size, size))
        if j:
            tri[j, j - 1] = tri[j - 1, j] = beta
        basis[j] = q
        w = second(first(Point(q.reshape(shape)))).data.ravel()
        tri[j, j] = q @ w
        stored = basis[: j + 1]
        for _ in range(2):
            w = w - stored.T @ (stored @ w)
        beta = float(np.linalg.norm(w))
        theta_prev, theta = theta, float(np.linalg.eigvalsh(tri[: j + 1, : j + 1])[-1])
        if beta <= _INVARIANT_RTOL * theta or (
            theta_prev >= 0 and abs(theta - theta_prev) <= _LANCZOS_RTOL * theta
        ):
            steps, converged = j + 1, True
            break
        q = w / beta
    return float(np.sqrt(max(theta, 0.0))), converged, steps


def _gram_bound(gram: np.ndarray, inner: int) -> float:
    """A certified upper bound on ||A|| = sqrt(lambda_max(G)) from the
    computed Gram matrix Ĝ of A, G = A A* or A* A of size m, with n =
    ``inner`` the length of each of its dot products.

    With u = eps/2 the unit roundoff and gamma_n = n u / (1 - n u),
    |Ĝ - G| <= gamma_n |A||A|* entrywise (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., sec. 3.5) and ||(|A||A|*)||_2 <=
    ||A||_F^2 <= tr(Ĝ) / (1 - gamma_n), so by Weyl's inequality
    lambda_max(G) is within gamma_n tr(Ĝ) / (1 - gamma_n) of
    lambda_max(Ĝ). LAPACK computes lambda_max(Ĝ) within p(m) EPS ||Ĝ||_2
    (LAPACK Users' Guide, sec. 4.7.1), where EPS is u; here p(m) = m and
    eps stands for EPS. With lambda the computed top eigenvalue, delta =
    m eps lambda + gamma_n tr(Ĝ) / (1 - gamma_n), and the value is
    sqrt(lambda + delta) moved one double up by ``np.nextafter``: the sum
    and root round low by at most 1.5u of the root, the move gains at least
    u back, and the m u lambda that eps = 2 EPS adds covers the rest. The
    bounds assume that forming Ĝ does not underflow, which holds unless
    lambda is near the smallest normal double. A zero Ĝ gives 0.0.
    """
    lam = float(np.linalg.eigvalsh(gram)[-1])
    if lam <= 0.0:
        return 0.0
    eps = float(np.finfo(float).eps)
    nu = inner * eps / 2.0
    gamma = nu / (1.0 - nu)
    delta = gram.shape[0] * eps * lam + gamma * float(np.trace(gram)) / (1.0 - gamma)
    return float(np.nextafter(math.sqrt(lam + delta), math.inf))


def operator_norm_estimate(op: LinearOperator) -> tuple[float, str]:
    """(value, method): ||A|| of ``op`` and how it was found.

    * ``"exact"``: a SamplingMask gives 1.0 (its indices are distinct and
      nonempty, so P P* = I) and a BlockSum gives ``math.sqrt(2.0)``, which
      lies above sqrt 2. Subclasses, whose maps may differ, are not exact.
    * ``"gram"``: a Dense whose smaller Gram matrix G takes at most a quarter
      of its memory (``_small_gram``) gives the certified upper bound of
      ``_gram_bound``, above the true norm by about 1e-11 relative at
      300x1400.
    * ``"lanczos"``: every other operator gets the Lanczos estimate
      (``lanczos_norm``), a lower bound on ||A|| up to rounding; its
      tolerance bounds the relative change of the Ritz value of ||A||^2
      between consecutive steps, not the error of the estimate. A
      RuntimeWarning flags a run that hit its step cap; its text predates
      Lanczos and ``solvebench`` matches it.
    """
    if type(op) is SamplingMask:
        return 1.0, "exact"
    if type(op) is BlockSum:
        return math.sqrt(2.0), "exact"
    gram = _small_gram(op)
    if gram is not None:
        return _gram_bound(gram, max(op.matrix.shape)), "gram"
    value, converged, _ = lanczos_norm(op)
    if not converged:
        warnings.warn(
            "operator norm power iteration did not reach tolerance; "
            "returning the best estimate",
            RuntimeWarning,
            stacklevel=2,
        )
    return value, "lanczos"
