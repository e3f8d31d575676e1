"""Reference implementations that only the tests call: a dense view of
the banded tangent, dominance of one objective vector over another, and
the design variables read back from realized geometry."""

import numpy as np

from crosshinge import beam_fem, pareto
from crosshinge.geometry import DesignVector, HingeGeometry


def banded_to_dense(ab: np.ndarray) -> np.ndarray:
    """Dense matrix of a tangent in BeamModel.assemble's band storage."""
    band = beam_fem._BAND
    n = ab.shape[1]
    dense = np.zeros((n, n))
    for d in range(-band, band + 1):
        j = np.arange(max(0, -d), min(n, n - d))
        dense[j + d, j] = ab[band + d, j]
    return dense


def residual_tangent(model: beam_fem.BeamModel, z: np.ndarray):
    """Residual and dense tangent of the model at the reduced state z."""
    residual, ab = model.assemble(z)
    return residual, banded_to_dense(ab)


def dominates(y: np.ndarray, y_other: np.ndarray) -> bool:
    """Pareto dominance of one objective vector over another."""
    return bool(pareto.dominance(np.atleast_2d(y), np.atleast_2d(y_other))[0, 0])


def design_parameters(geometry: HingeGeometry) -> DesignVector:
    """Read the 13 design variables back from realized geometry."""
    f1, f2 = geometry.flexures
    return DesignVector(
        *(float(c) for c in f1.coeffs),
        *(float(c) for c in f2.coeffs),
        alpha=f2.length / f1.length,
        beta1=f1.length / f1.height,
        beta2=f2.length / f2.height,
        gamma=f2.width / f1.width,
        delta=float(f2.base[0]) / f1.length,
    )
