"""Kinetostatic performance measures of a swept cross-hinge.

Three dimensionless objectives, all to be minimized:

* r_bar: circumradius of the fixed centrode (smallest circle enclosing
  the instantaneous centers of rotation), a kinematic-accuracy measure;
* c_bar: largest principal translational compliance of the moving body
  over the action space;
* k_bar: largest rotational stiffness (difference quotient of the
  reaction moment) over the action space.

With the internal normalization l1 = w1 = E = 1, raw values coincide
with their dimensionless counterparts.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass

import numpy as np

from . import beam_fem, geometry
from .pareto import DegenerateInput

logger = logging.getLogger(__name__)

# violation magnitudes used to rank infeasible designs
SELF_INTERSECTION_VIOLATION = 1.0
SINGULAR_VIOLATION = 1.0


class NotPositiveDefinite(ValueError):
    """Condensed stiffness matrix is not positive definite."""


@dataclass(frozen=True)
class Evaluation:
    """Outcome of one evaluation under constraint handling.

    y holds the objectives of a feasible design (None when infeasible);
    infeasible outcomes carry a violation magnitude and a failure class.
    Scalarized problems put their scalar in y.
    """

    y: np.ndarray | float | None
    feasible: bool
    violation: float = 0.0
    failure: str = ""

    @property
    def r_bar(self) -> float | None:
        return None if self.y is None else float(self.y[0])

    @property
    def c_bar(self) -> float | None:
        return None if self.y is None else float(self.y[1])

    @property
    def k_bar(self) -> float | None:
        return None if self.y is None else float(self.y[2])

    def as_array(self) -> np.ndarray:
        if not self.feasible:
            raise ValueError("infeasible design has no objective values")
        return np.array(self.y)


def _infeasible(violation: float, failure: str) -> Evaluation:
    return Evaluation(y=None, feasible=False, violation=violation, failure=failure)


def centrode(tip_trajectory: np.ndarray, delta_phi: float) -> np.ndarray:
    """Instantaneous centers of rotation from a sampled tip trajectory.

    For each consecutive pair of tip positions the center is approximated
    by the midpoint-centered difference quotient

        x_c = x_bar + e_z x (dx / dphi),

    which is second-order accurate in delta_phi. Returns one point per
    trajectory interval.
    """
    tip = np.asarray(tip_trajectory, dtype=float)
    if tip.ndim != 2 or tip.shape[0] < 2 or tip.shape[1] != 2:
        raise DegenerateInput("need at least two planar trajectory points")
    if delta_phi <= 0.0:
        raise DegenerateInput("delta_phi must be positive")
    mid = 0.5 * (tip[1:] + tip[:-1])
    rate = (tip[1:] - tip[:-1]) / delta_phi
    return mid + np.stack([-rate[:, 1], rate[:, 0]], axis=1)


def _circle_two(p, q):
    center = 0.5 * (p + q)
    return center, float(np.linalg.norm(p - center))


def _circle_three(p, q, r):
    """Circumcircle; falls back to the widest diametral circle if collinear."""
    d = 2.0 * (p[0] * (q[1] - r[1]) + q[0] * (r[1] - p[1]) + r[0] * (p[1] - q[1]))
    if abs(d) < 1e-14 * max(1.0, *(abs(v) for v in (*p, *q, *r))) ** 2:
        pairs = [(p, q), (p, r), (q, r)]
        return max((_circle_two(a, b) for a, b in pairs), key=lambda cr: cr[1])
    p2, q2, r2 = (v @ v for v in (p, q, r))
    ux = (p2 * (q[1] - r[1]) + q2 * (r[1] - p[1]) + r2 * (p[1] - q[1])) / d
    uy = (p2 * (r[0] - q[0]) + q2 * (p[0] - r[0]) + r2 * (q[0] - p[0])) / d
    center = np.array([ux, uy])
    return center, float(np.linalg.norm(p - center))


def _circle_of_support(support):
    if not support:
        return np.zeros(2), 0.0
    if len(support) == 1:
        return support[0].copy(), 0.0
    if len(support) == 2:
        return _circle_two(support[0], support[1])
    return _circle_three(support[0], support[1], support[2])


def min_enclosing_circle(points: np.ndarray, seed: int | None = None):
    """Smallest circle containing all points (Welzl, move-to-front).

    The randomized permutation is seeded from the point count by default,
    so results are deterministic for a fixed input.

    Returns:
        (center, radius)
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0 or pts.shape[1] != 2:
        raise DegenerateInput("need a non-empty set of planar points")
    order = list(range(len(pts)))
    random.Random(len(pts) if seed is None else seed).shuffle(order)
    shuffled = pts[order]

    center, radius = _circle_of_support([])
    tol = 1e-12 * max(1.0, float(np.max(np.abs(pts))))
    for i in range(len(shuffled)):
        if np.linalg.norm(shuffled[i] - center) <= radius + tol:
            continue
        center, radius = _circle_of_support([shuffled[i]])
        for j in range(i):
            if np.linalg.norm(shuffled[j] - center) <= radius + tol:
                continue
            center, radius = _circle_two(shuffled[i], shuffled[j])
            for k in range(j):
                if np.linalg.norm(shuffled[k] - center) <= radius + tol:
                    continue
                center, radius = _circle_three(shuffled[i], shuffled[j], shuffled[k])
    return center, radius


def principal_compliances(stiffness: np.ndarray) -> tuple[float, float]:
    """Inverse eigenvalues of the 2x2 condensed stiffness, ascending.

    Raises:
        NotPositiveDefinite: if the matrix has a non-positive eigenvalue.
    """
    k = np.asarray(stiffness, dtype=float)
    eigvals = np.linalg.eigvalsh(0.5 * (k + k.T))
    if eigvals[0] <= 0.0:
        raise NotPositiveDefinite(f"eigenvalues {eigvals} not positive")
    return float(1.0 / eigvals[1]), float(1.0 / eigvals[0])


def rotational_stiffness_profile(moments: np.ndarray, delta_phi: float) -> np.ndarray:
    """Difference quotients dM/dphi at the step midpoints."""
    m = np.asarray(moments, dtype=float)
    if m.ndim != 1 or m.size < 2:
        raise DegenerateInput("need at least two moment samples")
    if delta_phi <= 0.0:
        raise DegenerateInput("delta_phi must be positive")
    return np.diff(m) / delta_phi


def objectives_from_sweep(sweep: beam_fem.SweepResult) -> Evaluation:
    """Reduce a completed sweep (uniform rotation steps) to the three objectives."""
    delta_phi = sweep.records[1].phi - sweep.records[0].phi
    _, radius = min_enclosing_circle(centrode(sweep.tip_positions, delta_phi))
    compliances = [principal_compliances(k) for k in sweep.stiffnesses]
    c_max = max(max(pair) for pair in compliances)
    k_max = float(np.max(rotational_stiffness_profile(sweep.moments, delta_phi)))
    return Evaluation(y=np.array([radius, c_max, k_max], dtype=float), feasible=True)


def evaluate_with_sweep(design: geometry.DesignVector,
                        n_elements: int = beam_fem.DEFAULT_ELEMENTS,
                        n_steps: int = beam_fem.DEFAULT_STEPS):
    """Evaluation pipeline that also returns the sweep and model.

    Returns:
        (Evaluation, SweepResult | None, BeamModel | None); the sweep
        and model are None when the geometry is rejected before analysis.

    Raises:
        ValueError: fewer than two elements per flexure or fewer than one
            sweep step, whatever the design.
    """
    if n_elements < 2:
        raise ValueError("need at least two elements per flexure")
    if n_steps < 1:
        raise ValueError("need at least one sweep step")
    hinge = geometry.build_hinge(design)
    report = geometry.check_feasibility(hinge)
    if not report.feasible:
        return _infeasible(SELF_INTERSECTION_VIOLATION, "self-intersection"), None, None

    model = beam_fem.assemble_model(hinge, n_elements=n_elements)
    sweep = beam_fem.run_sweep(model, n_steps=n_steps)
    if not sweep.converged:
        if sweep.failure == "strain":
            return (_infeasible(sweep.max_strain - beam_fem.STRAIN_LIMIT, "strain"),
                    sweep, model)
        reached = sweep.records[-1].phi if sweep.records else 0.0
        return (_infeasible(1.0 + (1.0 - reached / beam_fem.SWEEP_ANGLE),
                            "nonconvergence"), sweep, model)

    if np.any(sweep.moments[1:] <= 0.0):
        logger.warning("non-positive reaction moment within the action space "
                       "(possible snap-through)")
    try:
        return objectives_from_sweep(sweep), sweep, model
    except NotPositiveDefinite:
        return _infeasible(SINGULAR_VIOLATION, "indefinite-stiffness"), sweep, model


def evaluate_objectives(design: geometry.DesignVector,
                        n_elements: int = beam_fem.DEFAULT_ELEMENTS,
                        n_steps: int = beam_fem.DEFAULT_STEPS) -> Evaluation:
    """Full evaluation pipeline: geometry, feasibility, sweep, objectives.

    Infeasibility is reported, never raised: self-intersecting geometry
    carries a fixed violation of 1, a strain-limit hit carries the excess
    over the limit, and non-convergence carries 1 plus the unreached
    fraction of the action space. Out-of-range design variables and
    element or step counts are caller errors and do raise (OutOfRange,
    ValueError).
    """
    report, _, _ = evaluate_with_sweep(design, n_elements=n_elements, n_steps=n_steps)
    return report
