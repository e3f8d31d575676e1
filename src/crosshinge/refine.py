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
is 0 and deriving weights raises DegenerateObjective, whatever the start,
so it is raised before any evaluation.

Nelder-Mead runs on the Evaluation records of the optimizer's evaluator
(kinetostatics.HingeEvaluator) and minimizes a scalar of each record's y.
It evaluates the start with the other initial vertices, and each shrink's
moved vertices, as one batch of an order-keeping map (Lee & Wiswall, 2007),
so an infeasible start also costs the n vertex evaluations. A hinge
evaluator's batches go to the map in chunks, whose sweeps run in lock-step
(kinetostatics.map_records).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kinetostatics
from .geometry import DesignVector
from .kinetostatics import Evaluation, map_records
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


def check_weights(archive: ParetoArchive, weights: np.ndarray | None) -> None:
    """Raise DegenerateObjective if refine_design cannot derive weights from
    any start: weights=None and a degenerate archive column, whose floor is 0
    and whose normalized start objective is 0 as well."""
    if weights is None:
        inverse_normalization_weights(weight_floor(archive))


def scalarize(normalized: np.ndarray, weights: np.ndarray) -> float:
    """Weighted sum of normalized objectives."""
    return float(np.dot(np.asarray(weights, float), np.asarray(normalized, float)))


@dataclass
class NelderMeadResult:
    start: Evaluation           # the caller's record of x0
    start_value: float          # its scalar objective
    x: np.ndarray               # best feasible point seen
    best: Evaluation            # its evaluation record
    value: float                # its scalar objective
    iterations: int
    evaluations: int


def nelder_mead(evaluate, scalar_for, x0: np.ndarray, lower: np.ndarray, upper: np.ndarray,
                max_iters: int = MAX_ITERS, map=map) -> NelderMeadResult:
    """Bounded Nelder-Mead simplex search tracking the best feasible point.

    It minimizes scalar_for(start record)(record.y) over the Evaluation
    records that map returns in order (the builtin map, or a process
    pool's; see kinetostatics.map_records). The batches are x0, which must
    lie within [lower, upper], with the n other initial vertices, then each
    shrink's n moved vertices; other points go one at a time. Records are
    folded in serial order. Infeasible evaluations are assigned the best
    feasible value seen so far plus their violation, which steers the
    simplex back without gradients. Reflection, expansion and contraction
    points are clipped to the bounds, so every vertex stays admissible.

    Raises:
        InfeasibleStart: if the start record is infeasible (after its batch).
    """
    lower = np.asarray(lower, float)
    upper = np.asarray(upper, float)
    x0 = np.array(x0, dtype=float)
    n = x0.size
    simplex = np.tile(x0, (n + 1, 1))
    step = SIMPLEX_STEP_FRACTION * (upper - lower)
    for i, vertex in enumerate(simplex[1:]):
        vertex[i] = min(x0[i] + step[i], upper[i])
        if vertex[i] == x0[i]:  # at the upper bound; keep the simplex non-degenerate
            vertex[i] = max(x0[i] - step[i], lower[i])
    records = map_records(evaluate, simplex, map)
    start = records[0]
    if not start.feasible:
        raise InfeasibleStart("starting design is infeasible")

    scalar = scalar_for(start)
    start_value = scalar(start.y)
    best, best_x, best_value = start, x0, start_value
    evaluations = 0

    def fold(points, records) -> list[float]:
        nonlocal best, best_x, best_value, evaluations
        values = []
        for x, record in zip(points, records):
            evaluations += 1
            value = scalar(record.y) if record.feasible else best_value + record.violation
            if record.feasible and value < best_value:
                best, best_x, best_value = record, x.copy(), value
            values.append(value)
        return values

    def value_of(x: np.ndarray) -> float:
        return fold([x], map_records(evaluate, [x], map))[0]

    values = np.array(fold(simplex, records))

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
        simplex[1:] = simplex[0] + NM_SHRINK * (simplex[1:] - simplex[0])
        values[1:] = fold(simplex[1:], map_records(evaluate, simplex[1:], map))

    return NelderMeadResult(start=start, start_value=start_value, x=best_x, best=best,
                            value=best_value, iterations=iterations, evaluations=evaluations)


@dataclass
class RefineReport(NelderMeadResult):
    weights: np.ndarray         # the scalarization weights


def refine_design(start: DesignVector, archive: ParetoArchive,
                  evaluator: kinetostatics.HingeEvaluator,
                  weights: np.ndarray | None = None,
                  max_iters: int = MAX_ITERS, map=map) -> RefineReport:
    """Scalarized Nelder-Mead refinement of a feasible start design, with
    the normalization frozen at the archive's (ideal, nadir).

    Every point, the start included, is evaluated once, through map (see
    nelder_mead). The report is the Nelder-Mead result (the records of the
    start and of the best point, and their scalars) plus the weights. With
    weights=None, inverse-normalization weights are derived from the start
    design's normalized objectives, each raised to the archive's
    weight_floor first; the start scalar uses the objectives as they are.
    A degenerate coordinate (nadir <= ideal) normalizes to 0 there as in
    the scalar objective and has a 0 floor, so deriving weights raises
    DegenerateObjective, before any evaluation (check_weights).

    Raises:
        ValueError: if max_iters is negative (before any evaluation).
        DegenerateObjective: if weights is None and an archive column is
            degenerate (before any evaluation).
        EmptyArchive: if the archive has no rows.
        InfeasibleStart: if the start design is infeasible (after the first batch).
    """
    if max_iters < 0:
        raise ValueError(f"iteration budget must be >= 0, got {max_iters}")
    check_weights(archive, weights)
    ideal, nadir = archive.ideal, archive.nadir

    def scalar_for(start_record: Evaluation):
        nonlocal weights
        if weights is None:
            weights = inverse_normalization_weights(
                np.maximum(normalize(start_record.y, ideal, nadir), weight_floor(archive)))
        weights = np.asarray(weights, float)
        return lambda y: scalarize(normalize(y, ideal, nadir), weights)

    result = nelder_mead(evaluator, scalar_for, start.as_array(), evaluator.lower,
                         evaluator.upper, max_iters=max_iters, map=map)
    return RefineReport(**vars(result), weights=weights)
