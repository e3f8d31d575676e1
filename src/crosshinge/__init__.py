"""Pareto-optimal synthesis of compliant cross-hinge mechanisms."""

from .geometry import (
    DesignVector,
    HingeGeometry,
    OutOfRange,
    build_hinge,
    check_feasibility,
    sample_random,
)
from .kinetostatics import Evaluation, evaluate_objectives

__version__ = "0.1.0"

__all__ = [
    "DesignVector",
    "Evaluation",
    "HingeGeometry",
    "OutOfRange",
    "build_hinge",
    "check_feasibility",
    "evaluate_objectives",
    "sample_random",
    "__version__",
]
