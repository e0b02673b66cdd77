"""The KKT residual certificate of a primal-dual pair.

``augdual check`` and the benchmark measure a returned (x, y) by it. The
test references (the reference iteration, the exact l1 solver and the
brute-force prox) live in the test suite, not in the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linop import Point
from .solver import ProblemSpec, primal_from_dual


@dataclass(frozen=True)
class KktReport:
    feasibility: float
    stationarity: float

    @property
    def max_violation(self) -> float:
        return max(self.feasibility, self.stationarity)


def kkt_residual(p: ProblemSpec, x: Point, y: Point) -> KktReport:
    """feasibility = ||Ax - b||; stationarity = ||x - tau*prox(A*y/tau)||.

    The stationarity term is the fixed-point membership test for the dual
    solution set and subsumes the subdifferential inclusion.
    """
    if x.data.shape != p.op.domain_shape:
        raise ValueError(f"domain mismatch: {x.data.shape} vs {p.op.domain_shape}")
    feas = float(np.linalg.norm(p.op._apply(x.data) - p.b.data))
    stat = float(np.linalg.norm(x.data - primal_from_dual(p, y.data)))
    return KktReport(feasibility=feas, stationarity=stat)
