"""Dual gradient solver for augmented norm- and gauge-regularized recovery
models, including linearized Bregman, singular value thresholding, and
strongly convex RPCA as instances."""

from .linop import BlockSum, Dense, Point, SamplingMask
from .prox import NormSpec
from .solver import ProblemSpec, SolveConfig, solve, solve_accelerated

# Kept for callers that record the build: the package has no compiled code.
KERNEL_COMPILED = False

__all__ = [
    "KERNEL_COMPILED",
    "BlockSum",
    "Dense",
    "Point",
    "SamplingMask",
    "NormSpec",
    "ProblemSpec",
    "SolveConfig",
    "solve",
    "solve_accelerated",
]

__version__ = "0.1.0"
