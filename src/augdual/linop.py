"""Points and the linear operators of the recovery models.

A Point is an immutable finite array whose numpy shape says what it is: (n,)
for a vector, (r, c) for a matrix, and (2, r, c) for a pair of equally shaped
matrices (the low-rank and sparse blocks of RPCA). One solver loop handles
sparse-vector, matrix-completion, and low-rank-plus-sparse problems.

Points are boundary values: problem data, the truth of a generated
instance, and the pair a solve returns. All arithmetic runs on their
``.data`` arrays.

Each operator declares numpy ``domain_shape``/``codomain_shape`` and maps
arrays to arrays in ``_apply``/``_adjoint``; ``normal_map()`` returns the map
x -> (Ax, A*Ax) that one solve applies to its iterates. The solver loop runs
on these maps; ``apply``/``adjoint`` are their checked forms, which check a
Point's shape and wrap the result. Three operator variants are supported:

* Dense: an explicit matrix, final and its only state. On a sparse x (fewer
  than m nonzeros, and at most SPARSE_APPLY_FRACTION of x) the forward map
  reads only the support columns, and the normal map of a solve keeps them
  and the Gram rows of the support, which give A*Ax;
* SamplingMask: element selection at an index set Omega, mapping a matrix
  to the compact vector of sampled entries (adjoint zero-fills);
* BlockSum: (L, S) -> L + S, whose adjoint duplicates.

The package's input rules are stated here once, beside ``_positive_shape``:
``_is_number``, ``_is_integer``, ``_positive`` and ``_finite``. An integer too
large for a float fails a rule with its own error; ``_shown`` echoes a value.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

# Dense works on the support of x when fewer than m and at most this
# fraction of x is nonzero. Gathering the support columns costs O(m * nnz(x))
# and breaks even with the full product near n/9 to n/8 (300x1400 and
# 1400x300, one BLAS thread); linearized-Bregman iterates are far sparser.
SPARSE_APPLY_FRACTION = 0.08


# Each rule tests the exact builtin type first: an ABC isinstance check is
# several times slower, and an instance spec runs one per field.
def _is_number(value) -> bool:
    """A real number and not a bool (JSON true/false are not numbers)."""
    return type(value) in (float, int) or (
        isinstance(value, numbers.Real) and not isinstance(value, bool))


def _is_integer(value) -> bool:
    """An integer and not a bool (numpy integers included)."""
    return type(value) is int or (
        isinstance(value, numbers.Integral) and not isinstance(value, bool))


def _shown(value) -> str:
    """An integer of 40 or more digits as its digit count, from its bit length
    (Python converts at most 4300 digits to text); else ``repr(value)`` cut
    to 40 characters."""
    size = abs(int(value)) if _is_integer(value) else 0
    if size >= 10**39:
        digits = int(size.bit_length() * math.log10(2)) + 1
        digits -= size < 10 ** (digits - 1)
        return f"{'a negative' if value < 0 else 'an'} integer of {digits} digits"
    text = repr(value)
    return text if len(text) <= 40 else text[:37] + "..."


def _positive(name: str, value, error=ValueError) -> float:
    """``value`` as a float; an ``error`` naming ``name`` unless it is a
    number, finite and positive (an integer too large for a float is not)."""
    try:
        number = float(value) if _is_number(value) else math.nan
    except OverflowError:
        number = math.inf
    if not (math.isfinite(number) and number > 0):
        raise error(f"{name} must be finite and positive, got {_shown(value)}")
    return number


def _finite(name: str, values) -> np.ndarray:
    """``values`` as a float array, not copied when it is one; a ValueError
    naming ``name`` unless every entry is finite (an integer too large for a
    float is not)."""
    try:
        arr = np.asarray(values, dtype=float)
    except OverflowError:
        arr = np.array(math.inf)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    return arr


def _positive_shape(shape, kind: str) -> Tuple[int, int]:
    """``shape`` as a pair of Python ints; a ValueError naming ``kind``
    unless it is two positive integers (no floats, bools or other lengths)
    whose product numpy can index."""
    dims = tuple(shape) if np.iterable(shape) else ()
    if len(dims) == 2 and all(_is_integer(d) and d > 0 for d in dims):
        rows, cols = int(dims[0]), int(dims[1])
        # numpy's intp is Py_ssize_t, whose maximum sys.maxsize reads faster
        # than np.iinfo.
        if rows * cols <= sys.maxsize:
            return (rows, cols)
        problem = "has more elements than numpy can index"
    else:
        problem = "is not two positive integers"
    if isinstance(shape, (tuple, list)):  # each entry echoed on its own
        shown = f"({', '.join(map(_shown, dims))}{',' * (len(dims) == 1)})"
    else:
        shown = _shown(shape)
    raise ValueError(f"{kind} shape {shown} {problem}")


@dataclass(frozen=True, eq=False)
class Point:
    """Immutable finite array of shape (n,), (r, c) or (2, r, c)."""

    data: np.ndarray

    def __post_init__(self):
        # A copy: later writes to the caller's array (left writable) cannot reach it.
        arr = np.array(_finite("point entries", self.data), order="C")
        if not (arr.ndim in (1, 2) or (arr.ndim == 3 and arr.shape[0] == 2)):
            raise ValueError(f"point shape {arr.shape} is not (n,), (r, c) or (2, r, c)")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @staticmethod
    def vector(values) -> "Point":
        return Point(np.asarray(values, dtype=float).ravel())

    @staticmethod
    def matrix(values) -> "Point":
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 2:
            raise ValueError("matrix point needs a 2-D array")
        return Point(arr)

    @staticmethod
    def pair(first, second) -> "Point":
        a = np.asarray(first, dtype=float)
        b = np.asarray(second, dtype=float)
        if a.shape != b.shape or a.ndim != 2:
            raise ValueError("pair point needs two equally shaped 2-D arrays")
        return Point(np.array((a, b)))

    def __sub__(self, other: "Point") -> "Point":
        if self.data.shape != other.data.shape:
            raise ValueError(f"shape mismatch: {self.data.shape} vs {other.data.shape}")
        return Point(self.data - other.data)

    def norm(self) -> float:
        return float(np.linalg.norm(self.data))


class LinearOperator:
    """Base for the operator variants; exposes forward and adjoint maps.

    ``apply`` and ``adjoint`` are the one place that checks a Point's shape
    and wraps the array a subclass's ``_apply``/``_adjoint`` returns.
    """

    domain_shape: Tuple[int, ...]
    codomain_shape: Tuple[int, ...]

    def apply(self, x: Point) -> Point:
        if x.data.shape != self.domain_shape:
            raise ValueError(f"domain mismatch: {x.data.shape} vs {self.domain_shape}")
        return Point(self._apply(x.data))

    def adjoint(self, y: Point) -> Point:
        if y.data.shape != self.codomain_shape:
            raise ValueError(f"codomain mismatch: {y.data.shape} vs {self.codomain_shape}")
        return Point(self._adjoint(y.data))

    def _apply(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _adjoint(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def normal_map(self) -> Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]:
        """The map x -> (Ax, A*Ax) of one solve, which calls this once, so an
        override may keep state for that solve; by default _apply, _adjoint."""
        def normal(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
            ax = self._apply(x)
            return ax, self._adjoint(ax)
        return normal


def _sparse_support(x: np.ndarray, m: int) -> Optional[np.ndarray]:
    """The sorted support of x when x is sparse for an m-row Dense: fewer than
    m nonzeros and at most SPARSE_APPLY_FRACTION of x; else None. Searching
    the boolean x != 0 finds the same support (-0.0 and NaN included) in
    about half the time of searching x itself."""
    nz = np.flatnonzero(x != 0)
    return nz if nz.size < m and nz.size <= SPARSE_APPLY_FRACTION * x.size else None


class _SupportBlocks:
    """The normal map of a Dense for one solve. On a sparse x with support S,
    Ax comes from the columns A[:, S] and A*Ax from the Gram rows (A*A)[S]:
    O(n * nnz(x)) against O(m * n) for the adjoint. Both blocks are kept
    until a call brings another support. A new Gram block takes the rows it
    shares with the old one by index and computes each other row A*a_j by
    one matrix-vector product, so a row's bits never depend on which
    supports came before."""

    def __init__(self, op: Dense):
        self._op = op
        self._support = np.zeros(0, dtype=np.intp)
        self._columns = op.matrix[:, self._support]
        self._gram = np.zeros((0, op.matrix.shape[1]))

    def __call__(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        matrix = self._op.matrix
        nz = _sparse_support(x, matrix.shape[0])
        if nz is None:
            ax = matrix @ x
            return ax, self._op._adjoint(ax)
        if nz.tobytes() != self._support.tobytes():
            # The old columns go before the new block is built, and each new
            # row goes straight into it: both keep the peak memory down.
            self._columns = matrix[:, nz]
            kept = dict(zip(self._support.tolist(), self._gram))
            gram = np.empty((nz.size, matrix.shape[1]))
            for i, j in enumerate(nz.tolist()):
                gram[i] = kept[j] if j in kept else matrix.T @ matrix[:, j]
            self._support, self._gram = nz, gram
        x_nz = x[nz]
        return self._columns @ x_nz, x_nz @ self._gram


@dataclass(frozen=True, eq=False)
class Dense(LinearOperator):
    """Explicit m-by-n matrix (m, n >= 1) acting on vectors; final, so that
    its maps, the Gram rows of its normal map and the Gram norm in
    ``numerics`` all read ``matrix`` (another map subclasses LinearOperator).

    ``matrix`` is a read-only view of the caller's array and the operator's
    only state: every product reads the array as it is at the call.
    """

    matrix: np.ndarray

    def __init_subclass__(cls, **kwargs):
        raise TypeError("Dense cannot be subclassed; another map subclasses LinearOperator")

    def __post_init__(self):
        mat = _finite("dense operator entries", self.matrix).view()
        _positive_shape(mat.shape, "dense")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def domain_shape(self) -> Tuple[int]:
        return (self.matrix.shape[1],)

    @property
    def codomain_shape(self) -> Tuple[int]:
        return (self.matrix.shape[0],)

    def _apply(self, x: np.ndarray) -> np.ndarray:
        """Ax; on a sparse x, from the columns on the support only."""
        nz = _sparse_support(x, self.matrix.shape[0])
        if nz is None:
            return self.matrix @ x
        return self.matrix[:, nz] @ x[nz]

    def _adjoint(self, y: np.ndarray) -> np.ndarray:
        return self.matrix.T @ y

    def normal_map(self) -> _SupportBlocks:
        return _SupportBlocks(self)


@dataclass(frozen=True, eq=False)
class SamplingMask(LinearOperator):
    """Element selection P_Omega onto the compact vector of samples; the one
    check of the shape (two positive integers) and of Omega, kept in
    ``indices`` as a read-only integer (k, 2) copy."""

    shape: Tuple[int, int]
    indices: np.ndarray

    def __post_init__(self):
        shape = _positive_shape(self.shape, "sampling")
        idx = np.asarray(self.indices)
        if idx.dtype.kind not in "iu" or idx.ndim != 2 or idx.shape[1] != 2 or not idx.size:
            raise ValueError("sampling indices must be a nonempty integer (k, 2) array")
        if idx.min() < 0 or (idx.max(axis=0) >= shape).any():
            raise ValueError(f"sampling indices outside shape {shape}")
        idx = np.array(idx, dtype=np.intp)
        idx.setflags(write=False)
        flat = idx[:, 0] * shape[1] + idx[:, 1]  # row-major positions
        if (np.diff(np.sort(flat)) == 0).any():
            raise ValueError("sampling indices must be distinct")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "_flat", flat)

    @property
    def domain_shape(self) -> Tuple[int, int]:
        return self.shape

    @property
    def codomain_shape(self) -> Tuple[int]:
        return (len(self.indices),)

    def _apply(self, x: np.ndarray) -> np.ndarray:
        return x.take(self._flat)

    def _adjoint(self, y: np.ndarray) -> np.ndarray:
        out = np.zeros(self.shape)
        out.ravel()[self._flat] = y  # ravel is a view of the new array
        return out


@dataclass(frozen=True, eq=False)
class BlockSum(LinearOperator):
    """(L, S) -> L + S, realizing the constraint D = L + S; the shape is
    checked as ``SamplingMask`` checks its own."""

    shape: Tuple[int, int]

    def __post_init__(self):
        object.__setattr__(self, "shape", _positive_shape(self.shape, "block-sum"))

    @property
    def domain_shape(self) -> Tuple[int, int, int]:
        return (2,) + self.shape

    @property
    def codomain_shape(self) -> Tuple[int, int]:
        return self.shape

    def _apply(self, x: np.ndarray) -> np.ndarray:
        return x[0] + x[1]

    def _adjoint(self, y: np.ndarray) -> np.ndarray:
        return np.array((y, y))
