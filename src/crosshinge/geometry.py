"""Parametric cross-hinge geometry.

A cross-hinge is described by 13 dimensionless design variables: four
angle coefficients per flexure, the length ratio alpha, the slendernesses
beta1/beta2, the width ratio gamma and the horizontal base offset delta.
This module realizes that description as explicit centerline geometry
(working in normalized units l1 = w1 = E = 1) and checks geometric
feasibility (no self-intersecting centerlines). The material constants
are fixed: E = 1, nu = 0.49 and the isotropic G = E / (2 (1 + nu)).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

YOUNG_MODULUS = 1.0  # the normalization E = 1
POISSON_RATIO = 0.49  # nearly incompressible, typical for printed elastomers
SHEAR_MODULUS = YOUNG_MODULUS / (2.0 * (1.0 + POISSON_RATIO))
CENTERLINE_SAMPLES = 81  # points sampled along each flexure centerline
TOUCH_TOL = 1e-12  # relative gap below which centerline segments count as touching
# a smaller turn cannot self-intersect (check_feasibility); the margin below pi
# leaves turns whose segments may touch within TOUCH_TOL to the segment test
CERTIFIED_TURN = math.pi - 1e-6

LOWER_BOUNDS = np.array(
    [0.0, -math.pi, -math.pi, -math.pi,
     0.0, -math.pi, -math.pi, -math.pi,
     0.5, 5.0, 5.0, 0.5, 0.0]
)
UPPER_BOUNDS = np.array(
    [math.pi, math.pi, math.pi, math.pi,
     math.pi, math.pi, math.pi, math.pi,
     2.0, 20.0, 20.0, 2.0, 1.0]
)


class OutOfRange(ValueError):
    """A design variable violates its admissible range."""


@dataclass(frozen=True)
class DesignVector:
    """The 13 dimensionless design variables of a cross-hinge.

    Angle coefficients are in radians; the remaining five variables are
    ratios (length, slenderness, width, base offset).
    """

    theta0_1: float
    theta1_1: float
    theta2_1: float
    theta3_1: float
    theta0_2: float
    theta1_2: float
    theta2_2: float
    theta3_2: float
    alpha: float
    beta1: float
    beta2: float
    gamma: float
    delta: float

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in DESIGN_FIELDS])

    @classmethod
    def from_array(cls, values) -> "DesignVector":
        values = np.asarray(values, dtype=float)
        if values.shape != (13,):
            raise ValueError(f"expected 13 design variables, got shape {values.shape}")
        return cls(*(float(v) for v in values))

    def validate(self) -> None:
        """Raise OutOfRange naming the first variable outside the admissible box."""
        values = self.as_array()
        for name, v, lo, hi in zip(DESIGN_FIELDS, values, LOWER_BOUNDS, UPPER_BOUNDS):
            if not (lo <= v <= hi):
                raise OutOfRange(f"{name} = {v:.6g} outside [{lo:.6g}, {hi:.6g}]")


DESIGN_FIELDS = tuple(f.name for f in fields(DesignVector))


def angle_profile(coeffs, s):
    """Cross-section rotation angle at normalized arc length s in [0, 1].

    The profile is a cubic in hierarchical (shape-function) form, so the
    first two coefficients are exactly the angles at the end points:

        theta(s) = (1-s) t0 + s t1 + 4 s (1-s) t2 + 4 s (1-s) (2s-1) t3
    """
    t0, t1, t2, t3 = coeffs
    s = np.asarray(s, dtype=float)
    bubble = 4.0 * s * (1.0 - s)
    return (1.0 - s) * t0 + s * t1 + bubble * t2 + bubble * (2.0 * s - 1.0) * t3


# 4-point Gauss-Legendre rule on [0, 1]; exceeds the smoothness of the
# trigonometric integrand at the default 80 subintervals per flexure.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(4)
_GL_NODES = 0.5 * (_GL_NODES + 1.0)
_GL_WEIGHTS = 0.5 * _GL_WEIGHTS


def centerline(coeffs, length: float, base, n_samples: int):
    """Sample the flexure centerline by integrating the unit tangent.

    Positions follow from composite Gauss-Legendre quadrature of
    length * (cos theta, sin theta) over each subinterval of the uniform
    sample grid s_k = k / (n_samples - 1).

    Returns:
        points: (n_samples, 2) positions, points[0] == base
        angles: (n_samples,) tangent angles at the sample grid
    """
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    s = np.linspace(0.0, 1.0, n_samples)
    ds = s[1] - s[0]
    # quadrature abscissae for every subinterval at once: (n-1, 4)
    sq = s[:-1, None] + ds * _GL_NODES[None, :]
    theta_q = angle_profile(coeffs, sq)
    increments = length * ds * np.stack(
        [np.cos(theta_q) @ _GL_WEIGHTS, np.sin(theta_q) @ _GL_WEIGHTS], axis=1
    )
    points = np.empty((n_samples, 2))
    points[0] = np.asarray(base, dtype=float)
    points[1:] = points[0] + np.cumsum(increments, axis=0)
    return points, angle_profile(coeffs, s)


@dataclass(frozen=True)
class Flexure:
    """Realized geometry of one flexure in normalized units."""

    coeffs: np.ndarray        # angle coefficients theta0..theta3
    length: float
    height: float
    width: float
    base: np.ndarray          # position of the s=0 end
    points: np.ndarray        # (CENTERLINE_SAMPLES, 2) sampled centerline


@dataclass(frozen=True)
class HingeGeometry:
    """Undeformed cross-hinge geometry.

    Normalization: the first flexure has unit length and width and the
    Young's modulus is 1 (YOUNG_MODULUS), so raw computed stiffnesses and
    compliances coincide with their dimensionless counterparts.
    """

    flexures: tuple[Flexure, Flexure]


def build_hinge(design: DesignVector) -> HingeGeometry:
    """Realize a design vector as explicit geometry (l1 = w1 = E = 1).

    Raises:
        OutOfRange: if any design variable violates its admissible range.
    """
    design.validate()
    l1, w1 = 1.0, 1.0
    l2 = design.alpha * l1
    h1 = l1 / design.beta1
    h2 = l2 / design.beta2
    w2 = design.gamma * w1
    base1 = np.zeros(2)
    base2 = np.array([design.delta * l1, 0.0])

    values = design.as_array()
    flexures = []
    for coeffs, length, height, width, base in (
        (values[0:4], l1, h1, w1, base1),
        (values[4:8], l2, h2, w2, base2),
    ):
        points, _ = centerline(coeffs, length, base, CENTERLINE_SAMPLES)
        flexures.append(Flexure(coeffs=coeffs, length=length, height=height,
                                width=width, base=base, points=points))
    return HingeGeometry(flexures=(flexures[0], flexures[1]))


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool


@functools.lru_cache(maxsize=None)
def _segment_pairs(n_seg: int):
    """Start-point indices (i, i + 1, j, j + 1) of all segment pairs j >= i + 2."""
    i, j = np.triu_indices(n_seg, k=2)
    return i, i + 1, j, j + 1


def polyline_self_intersects(points: np.ndarray) -> bool:
    """True if any two non-adjacent segments of the polyline intersect.

    Touching within TOUCH_TOL (relative) counts as an intersection, so
    exactly closed loops are rejected.
    """
    n_seg = len(points) - 1
    if n_seg < 3:
        return False
    scale = max(1.0, float(np.max(np.abs(points))))  # the pairs reach every point
    eps = TOUCH_TOL * scale * scale  # cross products scale with length squared
    x, y = points[:, 0], points[:, 1]
    p1, p2, p3, p4 = ((x[k], y[k]) for k in _segment_pairs(n_seg))
    (x1, y1), (x2, y2), (x3, y3), (x4, y4) = p1, p2, p3, p4
    dx34, dy34, dx12, dy12 = x4 - x3, y4 - y3, x2 - x1, y2 - y1
    d1 = dx34 * (y1 - y3) - dy34 * (x1 - x3)
    d2 = dx34 * (y2 - y3) - dy34 * (x2 - x3)
    d3 = dx12 * (y3 - y1) - dy12 * (x3 - x1)
    d4 = dx12 * (y4 - y1) - dy12 * (x4 - x1)

    proper = ((d1 > eps) & (d2 < -eps) | (d1 < -eps) & (d2 > eps)) & \
             ((d3 > eps) & (d4 < -eps) | (d3 < -eps) & (d4 > eps))
    if bool(np.any(proper)):
        return True

    # collinear / touching cases: an endpoint lies (within eps) on the
    # other segment
    margin = TOUCH_TOL * scale
    for d, q, a, b in ((d1, p1, p3, p4), (d2, p2, p3, p4),
                       (d3, p3, p1, p2), (d4, p4, p1, p2)):
        near = np.abs(d) <= eps
        if not np.any(near):
            continue
        on = np.ones(np.count_nonzero(near), dtype=bool)
        for qc, ac, bc in zip(q, a, b):  # x, then y
            qn, an, bn = qc[near], ac[near], bc[near]
            on &= (qn >= np.minimum(an, bn) - margin) & (qn <= np.maximum(an, bn) + margin)
        if bool(np.any(on)):
            return True
    return False


def angle_range(coeffs) -> tuple[float, float]:
    """Exact (min, max) of angle_profile on [0, 1]: its end values and its
    values at the in-interval roots of the quadratic derivative
    theta'(s) = -24 t3 s^2 + (24 t3 - 8 t2) s + (t1 - t0 + 4 t2 - 4 t3)."""
    t0, t1, t2, t3 = (float(t) for t in coeffs)
    a, b, c = -24.0 * t3, 24.0 * t3 - 8.0 * t2, t1 - t0 + 4.0 * t2 - 4.0 * t3
    disc = b * b - 4.0 * a * c
    roots = []
    if disc >= 0.0:  # the roots q / a and c / q, free of cancellation
        q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
        roots = ([q / a] if a else []) + ([c / q] if q else [])
    values = angle_profile(coeffs, [0.0, 1.0, *(r for r in roots if 0.0 < r < 1.0)])
    return float(values.min()), float(values.max())


def check_feasibility(geometry: HingeGeometry) -> FeasibilityReport:
    """Reject geometries whose flexure centerlines self-intersect. The two
    flexures may cross each other: they occupy different planes in the
    physical mechanism. A flexure turning by less than CERTIFIED_TURN skips
    the segment test: each chord, a positive quadrature sum of unit
    tangents, lies in that open cone, so the polyline advances strictly
    along its bisector and no two non-adjacent segments can meet."""
    def turn(flexure: Flexure) -> float:
        low, high = angle_range(flexure.coeffs)
        return high - low

    return FeasibilityReport(not any(polyline_self_intersects(f.points) for f in
                                     geometry.flexures if turn(f) >= CERTIFIED_TURN))


def sample_random(seed) -> DesignVector:
    """Uniform independent sample of the admissible box, deterministic per seed.

    `seed` may be an int or a numpy Generator (drawn from, for batches).
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return DesignVector.from_array(rng.uniform(LOWER_BOUNDS, UPPER_BOUNDS))
