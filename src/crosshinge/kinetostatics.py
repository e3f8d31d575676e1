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
import math
import random
from dataclasses import dataclass, field

import numpy as np

from . import beam_fem, geometry
from .pareto import DegenerateInput

logger = logging.getLogger(__name__)

# violation magnitudes used to rank infeasible designs
SELF_INTERSECTION_VIOLATION = 1.0
SINGULAR_VIOLATION = 1.0


@dataclass(frozen=True)
class Evaluation:
    """Outcome of one evaluation under constraint handling.

    y holds the objectives of a feasible design (None when infeasible);
    infeasible outcomes carry a violation magnitude and a failure class.
    """

    y: np.ndarray | None
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


def min_enclosing_circle(points: np.ndarray):
    """Smallest circle containing all points (Welzl, move-to-front).

    The randomized permutation is seeded from the point count, so results
    are deterministic for a fixed input.

    Returns:
        (center, radius)
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0 or pts.shape[1] != 2:
        raise DegenerateInput("need a non-empty set of planar points")
    order = list(range(len(pts)))
    random.Random(len(pts)).shuffle(order)
    shuffled = pts[order]
    xy = shuffled.tolist()  # containment checks on Python floats

    center, radius = np.zeros(2), 0.0
    cx = cy = 0.0
    tol = 1e-12 * max(1.0, float(np.max(np.abs(pts))))
    for i, (xi, yi) in enumerate(xy):
        if math.sqrt((xi - cx) ** 2 + (yi - cy) ** 2) <= radius + tol:
            continue
        center, radius = shuffled[i].copy(), 0.0
        cx, cy = xi, yi
        for j, (xj, yj) in enumerate(xy[:i]):
            if math.sqrt((xj - cx) ** 2 + (yj - cy) ** 2) <= radius + tol:
                continue
            center, radius = _circle_two(shuffled[i], shuffled[j])
            cx, cy = center.tolist()
            for k, (xk, yk) in enumerate(xy[:j]):
                if math.sqrt((xk - cx) ** 2 + (yk - cy) ** 2) <= radius + tol:
                    continue
                center, radius = _circle_three(shuffled[i], shuffled[j], shuffled[k])
                cx, cy = center.tolist()
    return center, radius


def rotational_stiffness_profile(moments: np.ndarray, delta_phi: float) -> np.ndarray:
    """Difference quotients dM/dphi at the step midpoints."""
    m = np.asarray(moments, dtype=float)
    if m.ndim != 1 or m.size < 2:
        raise DegenerateInput("need at least two moment samples")
    if delta_phi <= 0.0:
        raise DegenerateInput("delta_phi must be positive")
    return np.diff(m) / delta_phi


def objectives_from_sweep(sweep: beam_fem.SweepResult) -> Evaluation:
    """Reduce a completed sweep (uniform rotation steps) to the three objectives.

    c_bar, the largest principal compliance over the steps, is the inverse
    of the smallest eigenvalue of the symmetrized condensed stiffnesses. A
    non-positive one makes the design infeasible (indefinite stiffness).
    """
    delta_phi = sweep.phi[1] - sweep.phi[0]
    _, radius = min_enclosing_circle(centrode(sweep.tip_positions, delta_phi))
    k = sweep.stiffnesses
    lowest = float(np.linalg.eigvalsh(0.5 * (k + k.transpose(0, 2, 1))).min())
    if lowest <= 0.0:
        return _infeasible(SINGULAR_VIOLATION, "indefinite-stiffness")
    k_max = float(np.max(rotational_stiffness_profile(sweep.moments, delta_phi)))
    return Evaluation(y=np.array([radius, 1.0 / lowest, k_max]), feasible=True)


def check_resolution(n_elements: int, n_steps: int) -> None:
    """Raise ValueError for fewer than two elements per flexure or fewer
    than two sweep steps (one step gives a one-point centrode)."""
    if n_elements < 2:
        raise ValueError("need at least two elements per flexure")
    if n_steps < 2:
        raise ValueError("need at least two sweep steps")


def _outcome(sweep: beam_fem.SweepResult, model: beam_fem.BeamModel):
    """The (Evaluation, sweep, model) triple of a design the geometry admits."""
    if sweep.failure == "strain":
        return (_infeasible(sweep.max_strain - beam_fem.STRAIN_LIMIT, "strain"),
                sweep, model)
    if sweep.failure is not None:
        reached = float(sweep.phi[-1]) if len(sweep.phi) else 0.0
        return (_infeasible(1.0 + (1.0 - reached / beam_fem.SWEEP_ANGLE),
                            "nonconvergence"), sweep, model)

    if np.any(sweep.moments[1:] <= 0.0):
        logger.warning("non-positive reaction moment within the action space "
                       "(possible snap-through)")
    report = objectives_from_sweep(sweep)
    if not report.feasible:
        return report, sweep, model
    # no feasible record carries a non-finite objective or a non-positive k_bar;
    # a non-finite one gets the non-convergence violation of the whole stroke reached
    if not np.all(np.isfinite(report.y)):
        return _infeasible(1.0, "nonconvergence"), sweep, model
    if report.k_bar <= 0.0:
        return _infeasible(SINGULAR_VIOLATION, "indefinite-stiffness"), sweep, model
    return report, sweep, model


def evaluate_with_sweeps(designs: list[geometry.DesignVector],
                         n_elements: int = beam_fem.DEFAULT_ELEMENTS,
                         n_steps: int = beam_fem.DEFAULT_STEPS) -> list[tuple]:
    """Evaluation pipeline of several designs that also returns their
    sweeps and models. The designs the geometry admits are swept together
    (beam_fem.run_sweeps, in lock-step); each triple is the one the design
    gets alone.

    Returns:
        one (Evaluation, SweepResult | None, BeamModel | None) per design;
        the sweep and model are None when the geometry is rejected before
        analysis.

    Raises:
        ValueError: from check_resolution, whatever the designs.
    """
    check_resolution(n_elements, n_steps)
    hinges = [geometry.build_hinge(design) for design in designs]
    models = {i: beam_fem.assemble_model(hinge, n_elements=n_elements)
              for i, hinge in enumerate(hinges) if geometry.check_feasibility(hinge).feasible}
    sweeps = dict(zip(models, beam_fem.run_sweeps(list(models.values()), n_steps=n_steps)))
    return [_outcome(sweeps[i], models[i]) if i in models
            else (_infeasible(SELF_INTERSECTION_VIOLATION, "self-intersection"), None, None)
            for i in range(len(designs))]


def evaluate_with_sweep(design: geometry.DesignVector,
                        n_elements: int = beam_fem.DEFAULT_ELEMENTS,
                        n_steps: int = beam_fem.DEFAULT_STEPS):
    """evaluate_with_sweeps of one design: (Evaluation, SweepResult | None,
    BeamModel | None)."""
    return evaluate_with_sweeps([design], n_elements=n_elements, n_steps=n_steps)[0]


def evaluate_objectives(design: geometry.DesignVector,
                        n_elements: int = beam_fem.DEFAULT_ELEMENTS,
                        n_steps: int = beam_fem.DEFAULT_STEPS) -> Evaluation:
    """Full evaluation pipeline: geometry, feasibility, sweep, objectives.

    Infeasibility is reported, never raised: self-intersecting geometry
    carries a fixed violation of 1, a strain-limit hit carries the excess
    over the limit, and non-convergence carries 1 plus the unreached
    fraction of the action space. A completed sweep with a non-finite
    objective is non-convergence (violation 1), one with a non-positive
    stiffness eigenvalue or k_bar <= 0 is indefinite stiffness (violation
    1). Out-of-range design variables and element or step counts are
    caller errors and do raise (OutOfRange, ValueError).
    """
    report, _, _ = evaluate_with_sweep(design, n_elements=n_elements, n_steps=n_steps)
    return report


@dataclass(frozen=True)
class HingeEvaluator:
    """Cross-hinge objective evaluation over the 13 design variables,
    sampled within [lower, upper] (the admissible box by default). The
    optimizer and the refinement both evaluate through it."""

    n_elements: int = beam_fem.DEFAULT_ELEMENTS
    n_steps: int = beam_fem.DEFAULT_STEPS
    lower: np.ndarray = field(default_factory=geometry.LOWER_BOUNDS.copy)
    upper: np.ndarray = field(default_factory=geometry.UPPER_BOUNDS.copy)

    def __call__(self, x: np.ndarray) -> Evaluation:
        # the module-global name, so a wrapper installed on it sees every call
        return evaluate_objectives(geometry.DesignVector.from_array(x),
                                   n_elements=self.n_elements, n_steps=self.n_steps)

    def batch(self, xs) -> list[Evaluation]:
        """The records of several designs, swept in lock-step; one design is a call."""
        if len(xs) == 1:
            return [self(xs[0])]
        designs = [geometry.DesignVector.from_array(x) for x in xs]
        return [record for record, _, _ in evaluate_with_sweeps(
            designs, n_elements=self.n_elements, n_steps=self.n_steps)]


def map_records(evaluator, xs, map=map) -> list[Evaluation]:
    """The evaluator's records of designs xs, in order, through an
    order-keeping map (the builtin map, or a process pool's). An evaluator
    with a batch call is mapped over chunks (see chunks), at least one per
    process of a pool's map (its width attribute, 1 if it has none); any
    other is mapped over the designs."""
    batch = getattr(evaluator, "batch", None)
    if batch is None:
        return list(map(evaluator, xs))
    return [record for records in map(batch, chunks(xs, getattr(map, "width", 1)))
            for record in records]


def chunks(xs, width: int = 1) -> list[np.ndarray]:
    """Designs xs cut in index order into the fewest chunks of at most
    beam_fem.LOCKSTEP designs, but at least `width` while designs last, so
    each of a pool's `width` workers gets one; their sizes differ by at most
    one (the larger first), so the workers get even shares."""
    count = max(-(-len(xs) // beam_fem.LOCKSTEP), min(width, len(xs)))
    return np.array_split(np.asarray(xs), count) if count else []
