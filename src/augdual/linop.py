"""Shape-tagged points and the linear operators of the recovery models.

A Point is a flat array plus a shape tag (vector, matrix, or a pair of
equally shaped matrices), so one solver loop handles sparse-vector,
matrix-completion, and low-rank-plus-sparse problems uniformly.

Three operator variants are supported:

* Dense: an explicit matrix acting on vectors (the forward map reads only
  the columns on the support of a sparse x);
* SamplingMask: element selection at an index set Omega, mapping a matrix
  to the compact vector of sampled entries (adjoint zero-fills);
* BlockSum: (L, S) -> L + S, whose adjoint duplicates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple, Union

import numpy as np

VectorTag = Tuple[str, int]
ShapeTag = Union[Tuple[str, int], Tuple[str, Tuple[int, int]]]

# Dense.apply multiplies only the columns on the support of x when at most
# this fraction of x is nonzero. Gathering those columns costs O(m * nnz(x))
# and breaks even with the full product near n/9 to n/8 (300x1400 and
# 1400x300, one BLAS thread); linearized-Bregman iterates are far sparser.
SPARSE_APPLY_FRACTION = 0.08


@dataclass(frozen=True, eq=False)
class Point:
    """Immutable flat array with a shape tag.

    Tags: ("vector", n), ("matrix", (r, c)), ("pair", (r, c)) where a pair
    holds two stacked r-by-c matrices.
    """

    data: np.ndarray
    tag: ShapeTag

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.data, dtype=float).ravel())
        if not np.isfinite(arr).all():
            raise ValueError("point entries must be finite")
        if arr.size != self.size:
            raise ValueError(f"data size {arr.size} does not match tag {self.tag}")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def size(self) -> int:
        return _tag_size(self.tag)

    @staticmethod
    def vector(values) -> "Point":
        arr = np.asarray(values, dtype=float).ravel()
        return Point(arr, ("vector", arr.size))

    @staticmethod
    def matrix(values) -> "Point":
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 2:
            raise ValueError("matrix point needs a 2-D array")
        return Point(arr.ravel(), ("matrix", (arr.shape[0], arr.shape[1])))

    @staticmethod
    def pair(first, second) -> "Point":
        a = np.asarray(first, dtype=float)
        b = np.asarray(second, dtype=float)
        if a.shape != b.shape or a.ndim != 2:
            raise ValueError("pair point needs two equally shaped 2-D arrays")
        return Point(np.concatenate([a.ravel(), b.ravel()]), ("pair", a.shape))

    @staticmethod
    def zeros(tag: ShapeTag) -> "Point":
        p = Point(np.zeros(_tag_size(tag)), tag)
        return p

    def as_vector(self) -> np.ndarray:
        if self.tag[0] != "vector":
            raise ValueError(f"not a vector point: {self.tag!r}")
        return self.data

    def as_matrix(self) -> np.ndarray:
        if self.tag[0] != "matrix":
            raise ValueError(f"not a matrix point: {self.tag!r}")
        r, c = self.tag[1]
        return self.data.reshape(r, c)

    def as_pair(self) -> Tuple[np.ndarray, np.ndarray]:
        if self.tag[0] != "pair":
            raise ValueError(f"not a pair point: {self.tag!r}")
        r, c = self.tag[1]
        half = r * c
        return self.data[:half].reshape(r, c), self.data[half:].reshape(r, c)

    def with_data(self, data: np.ndarray) -> "Point":
        return Point(np.asarray(data, dtype=float).ravel(), self.tag)

    def __add__(self, other: "Point") -> "Point":
        self._check(other)
        return Point(self.data + other.data, self.tag)

    def __sub__(self, other: "Point") -> "Point":
        self._check(other)
        return Point(self.data - other.data, self.tag)

    def __mul__(self, scalar: float) -> "Point":
        return Point(self.data * float(scalar), self.tag)

    __rmul__ = __mul__

    def __neg__(self) -> "Point":
        return Point(-self.data, self.tag)

    def dot(self, other: "Point") -> float:
        self._check(other)
        return float(self.data @ other.data)

    def norm(self) -> float:
        return float(np.linalg.norm(self.data))

    def _check(self, other: "Point"):
        if self.tag != other.tag:
            raise ValueError(f"shape mismatch: {self.tag!r} vs {other.tag!r}")


def _tag_size(tag: ShapeTag) -> int:
    kind, shp = tag
    if kind == "vector":
        return int(shp)
    if kind == "matrix":
        return int(shp[0] * shp[1])
    if kind == "pair":
        return int(2 * shp[0] * shp[1])
    raise ValueError(f"unknown shape tag {tag!r}")


class LinearOperator:
    """Base for the operator variants; exposes forward and adjoint maps."""

    domain_tag: ShapeTag
    codomain_tag: ShapeTag

    def apply(self, x: Point) -> Point:
        if x.tag != self.domain_tag:
            raise ValueError(f"domain mismatch: {x.tag!r} vs {self.domain_tag!r}")
        return self._apply(x)

    def adjoint(self, y: Point) -> Point:
        if y.tag != self.codomain_tag:
            raise ValueError(f"codomain mismatch: {y.tag!r} vs {self.codomain_tag!r}")
        return self._adjoint(y)

    def _apply(self, x: Point) -> Point:
        raise NotImplementedError

    def _adjoint(self, y: Point) -> Point:
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class Dense(LinearOperator):
    """Explicit m-by-n matrix acting on vector points."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=float)
        if mat.ndim != 2:
            raise ValueError("dense operator needs a 2-D matrix")
        if not np.isfinite(mat).all():
            raise ValueError("dense operator entries must be finite")
        object.__setattr__(self, "matrix", mat)

    @property
    def domain_tag(self) -> ShapeTag:
        return ("vector", self.matrix.shape[1])

    @property
    def codomain_tag(self) -> ShapeTag:
        return ("vector", self.matrix.shape[0])

    def _apply(self, x: Point) -> Point:
        v = x.as_vector()
        nz = np.flatnonzero(v)
        if nz.size <= SPARSE_APPLY_FRACTION * v.size:
            return Point.vector(self.matrix[:, nz] @ v[nz])
        return Point.vector(self.matrix @ v)

    def _adjoint(self, y: Point) -> Point:
        return Point.vector(self.matrix.T @ y.as_vector())


@dataclass(frozen=True, eq=False)
class SamplingMask(LinearOperator):
    """Element selection P_Omega; codomain is the compact vector of samples."""

    shape: Tuple[int, int]
    indices: Tuple[Tuple[int, int], ...]

    def __post_init__(self):
        shape = (int(self.shape[0]), int(self.shape[1]))
        idx = tuple((int(i), int(j)) for i, j in self.indices)
        if len(set(idx)) != len(idx):
            raise ValueError("sampling indices must be distinct")
        if not idx:
            raise ValueError("sampling index set must be nonempty")
        for i, j in idx:
            if not (0 <= i < shape[0] and 0 <= j < shape[1]):
                raise ValueError(f"index {(i, j)} outside shape {shape}")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "_rows", np.array([i for i, _ in idx]))
        object.__setattr__(self, "_cols", np.array([j for _, j in idx]))

    @property
    def domain_tag(self) -> ShapeTag:
        return ("matrix", self.shape)

    @property
    def codomain_tag(self) -> ShapeTag:
        return ("vector", len(self.indices))

    def _apply(self, x: Point) -> Point:
        return Point.vector(x.as_matrix()[self._rows, self._cols])

    def _adjoint(self, y: Point) -> Point:
        out = np.zeros(self.shape)
        out[self._rows, self._cols] = y.as_vector()
        return Point.matrix(out)


@dataclass(frozen=True, eq=False)
class BlockSum(LinearOperator):
    """(L, S) -> L + S, realizing the constraint D = L + S."""

    shape: Tuple[int, int]

    def __post_init__(self):
        object.__setattr__(self, "shape", (int(self.shape[0]), int(self.shape[1])))

    @property
    def domain_tag(self) -> ShapeTag:
        return ("pair", self.shape)

    @property
    def codomain_tag(self) -> ShapeTag:
        return ("matrix", self.shape)

    def _apply(self, x: Point) -> Point:
        left, right = x.as_pair()
        return Point.matrix(left + right)

    def _adjoint(self, y: Point) -> Point:
        mat = y.as_matrix()
        return Point.pair(mat, mat)


def random_point(tag: ShapeTag, rng: np.random.Generator) -> Point:
    return Point(rng.standard_normal(_tag_size(tag)), tag)


def adjoint_consistency_check(op: LinearOperator, trials: int, seed: int) -> float:
    """Max relative gap of <Ax, y> - <x, A*y> over seeded random (x, y)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        x = random_point(op.domain_tag, rng)
        y = random_point(op.codomain_tag, rng)
        lhs = op.apply(x).dot(y)
        rhs = x.dot(op.adjoint(y))
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
    return worst
