"""Scalarized local refinement of a selected design (Nelder-Mead).

The three objectives are collapsed into a weighted sum of normalized
values, with the normalization (ideal/nadir) frozen from the archive the
start design was selected from. Weights default to inverse normalization:
the reciprocals of the start design's normalized objectives, rescaled to
sum to one, so each objective initially contributes equally.

A start design at the archive's ideal in some objective normalizes to 0
there and has no finite reciprocal. So before the weights are derived,
each normalized start objective is floored at the smallest positive
value in that objective's normalized archive column (weight_floor). A
column without a positive value is degenerate (nadir == ideal); its floor
is 0 and deriving weights still raises DegenerateObjective.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import beam_fem, kinetostatics
from .geometry import DesignVector, LOWER_BOUNDS, UPPER_BOUNDS
from .kinetostatics import Evaluation
from .pareto import DegenerateObjective, ParetoArchive, normalize, normalize_front

NM_REFLECTION = 1.0
NM_EXPANSION = 2.0
NM_CONTRACTION = 0.5
NM_SHRINK = 0.5
SIMPLEX_STEP_FRACTION = 0.05   # of each variable's admissible range
MAX_ITERS = 200                # default Nelder-Mead iteration budget
NM_TOL = 1e-14                 # stop once the simplex spread is this small in f and x


class InfeasibleStart(ValueError):
    """Refinement requires a feasible starting design."""


def inverse_normalization_weights(normalized: np.ndarray) -> np.ndarray:
    """Weights proportional to 1 / normalized objective, summing to one.

    Raises:
        DegenerateObjective: if any normalized objective is zero.
    """
    y = np.asarray(normalized, dtype=float)
    if np.any(y <= 0.0):
        raise DegenerateObjective("inverse normalization needs strictly "
                                  "positive normalized objectives")
    inverse = 1.0 / y
    return inverse / inverse.sum()


def weight_floor(archive: ParetoArchive) -> np.ndarray:
    """Smallest positive value of each normalized archive column; 0 for a
    column without one."""
    normalized = normalize_front(archive)
    floor = np.where(normalized > 0.0, normalized, np.inf).min(axis=0)
    return np.where(np.isfinite(floor), floor, 0.0)


def scalarize(normalized: np.ndarray, weights: np.ndarray) -> float:
    """Weighted sum of normalized objectives."""
    return float(np.dot(np.asarray(weights, float), np.asarray(normalized, float)))


@dataclass(frozen=True)
class ScalarizedProblem:
    """Frozen-normalization scalar objective over the design space."""

    weights: np.ndarray
    ideal: np.ndarray
    nadir: np.ndarray
    n_elements: int = beam_fem.DEFAULT_ELEMENTS
    n_steps: int = beam_fem.DEFAULT_STEPS

    def __call__(self, x: np.ndarray) -> Evaluation:
        """The evaluation record with the scalar objective in y."""
        report = kinetostatics.evaluate_objectives(
            DesignVector.from_array(x),
            n_elements=self.n_elements, n_steps=self.n_steps,
        )
        if not report.feasible:
            return report
        return replace(report, y=scalarize(normalize(report.y, self.ideal, self.nadir),
                                           self.weights))


@dataclass
class NelderMeadResult:
    x: np.ndarray               # best feasible point seen
    value: float                # its scalar objective
    iterations: int
    evaluations: int


def nelder_mead(objective, x0: np.ndarray, lower: np.ndarray = LOWER_BOUNDS,
                upper: np.ndarray = UPPER_BOUNDS, max_iters: int = MAX_ITERS) -> NelderMeadResult:
    """Bounded Nelder-Mead simplex search tracking the best feasible point.

    The objective returns an Evaluation with the scalar in y; infeasible
    evaluations are assigned the best feasible value seen so far plus
    their violation, which steers the simplex back without gradients.
    Reflection, expansion and contraction points are clipped to the
    bounds, so every vertex stays admissible.

    Raises:
        InfeasibleStart: if the starting point evaluates infeasible.
    """
    lower = np.asarray(lower, float)
    upper = np.asarray(upper, float)
    x0 = np.clip(np.asarray(x0, float), lower, upper)
    n = x0.size

    best_x = None
    best_value = np.inf
    evaluations = 0

    def value_of(x: np.ndarray) -> float:
        nonlocal best_x, best_value, evaluations
        evaluations += 1
        result = objective(x)
        if result.feasible:
            if result.y < best_value:
                best_value = result.y
                best_x = x.copy()
            return result.y
        penalty_base = best_value if np.isfinite(best_value) else 0.0
        return penalty_base + result.violation

    f0 = value_of(x0)
    if best_x is None:
        raise InfeasibleStart("starting design is infeasible")

    simplex = [x0]
    values = [f0]
    step = SIMPLEX_STEP_FRACTION * (upper - lower)
    for i in range(n):
        vertex = x0.copy()
        vertex[i] = min(vertex[i] + step[i], upper[i])
        if vertex[i] == x0[i]:  # at the upper bound; keep the simplex non-degenerate
            vertex[i] = max(x0[i] - step[i], lower[i])
        simplex.append(vertex)
        values.append(value_of(vertex))
    simplex = np.array(simplex)
    values = np.array(values)

    iterations = 0
    for iterations in range(1, max_iters + 1):
        order = np.argsort(values, kind="stable")
        simplex, values = simplex[order], values[order]
        if (values[-1] - values[0] <= NM_TOL
                and np.max(np.abs(simplex[1:] - simplex[0])) <= NM_TOL):
            break

        centroid = simplex[:-1].mean(axis=0)
        reflected = np.clip(centroid + NM_REFLECTION * (centroid - simplex[-1]),
                            lower, upper)
        f_reflected = value_of(reflected)

        if f_reflected < values[0]:
            expanded = np.clip(centroid + NM_EXPANSION * (centroid - simplex[-1]),
                               lower, upper)
            f_expanded = value_of(expanded)
            if f_expanded < f_reflected:
                simplex[-1], values[-1] = expanded, f_expanded
            else:
                simplex[-1], values[-1] = reflected, f_reflected
            continue
        if f_reflected < values[-2]:
            simplex[-1], values[-1] = reflected, f_reflected
            continue

        contracted = np.clip(centroid + NM_CONTRACTION * (simplex[-1] - centroid),
                             lower, upper)
        f_contracted = value_of(contracted)
        if f_contracted < values[-1]:
            simplex[-1], values[-1] = contracted, f_contracted
            continue

        # shrink toward the best vertex (convex, stays within bounds)
        for i in range(1, len(simplex)):
            simplex[i] = simplex[0] + NM_SHRINK * (simplex[i] - simplex[0])
            values[i] = value_of(simplex[i])

    return NelderMeadResult(x=best_x, value=best_value, iterations=iterations,
                            evaluations=evaluations)


@dataclass(frozen=True)
class RefineReport:
    start_design: DesignVector
    refined_design: DesignVector
    start_objectives: np.ndarray
    refined_objectives: np.ndarray
    start_scalar: float
    refined_scalar: float
    weights: np.ndarray
    iterations: int
    evaluations: int


def refine_design(start: DesignVector, archive: ParetoArchive,
                  weights: np.ndarray | None = None, max_iters: int = MAX_ITERS,
                  n_elements: int = beam_fem.DEFAULT_ELEMENTS,
                  n_steps: int = beam_fem.DEFAULT_STEPS) -> RefineReport:
    """Scalarized Nelder-Mead refinement of a feasible start design, with
    the normalization frozen at the archive's (ideal, nadir).

    With weights=None, inverse-normalization weights are derived from the
    start design's normalized objectives, each raised to the archive's
    weight_floor first; the start scalar uses the objectives as they are.
    A degenerate coordinate (nadir <= ideal) normalizes to 0 there as in
    the scalar objective and has a 0 floor, so deriving weights raises
    DegenerateObjective.

    Raises:
        ValueError: if max_iters is negative (before any evaluation).
        EmptyArchive: if the archive has no rows.
    """
    if max_iters < 0:
        raise ValueError(f"iteration budget must be >= 0, got {max_iters}")
    ideal, nadir = archive.ideal, archive.nadir
    start_report = kinetostatics.evaluate_objectives(
        start, n_elements=n_elements, n_steps=n_steps)
    if not start_report.feasible:
        raise InfeasibleStart("starting design is infeasible")

    start_norm = normalize(start_report.y, ideal, nadir)
    if weights is None:
        weights = inverse_normalization_weights(
            np.maximum(start_norm, weight_floor(archive)))
    weights = np.asarray(weights, float)

    problem = ScalarizedProblem(weights=weights, ideal=ideal, nadir=nadir,
                                n_elements=n_elements, n_steps=n_steps)
    result = nelder_mead(problem, start.as_array(), max_iters=max_iters)
    refined = DesignVector.from_array(result.x)
    refined_report = kinetostatics.evaluate_objectives(
        refined, n_elements=n_elements, n_steps=n_steps)
    return RefineReport(
        start_design=start,
        refined_design=refined,
        start_objectives=start_report.as_array(),
        refined_objectives=refined_report.as_array(),
        start_scalar=scalarize(start_norm, weights),
        refined_scalar=result.value,
        weights=weights,
        iterations=result.iterations,
        evaluations=result.evaluations,
    )
