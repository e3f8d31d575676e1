import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest

from crosshinge import kinetostatics, refine
from crosshinge.geometry import DesignVector
from crosshinge.pareto import DegenerateObjective

REGRESSION = json.loads(
    (Path(__file__).parent / "data" / "regression_cross_hinge.json").read_text())

# normalized objectives of the reference uniform-weighting selection
ROW_A = np.array([5.978e-2, 3.228e-2, 4.534e-2])


class TestInverseNormalizationWeights:
    def test_reference_value(self):
        w = refine.inverse_normalization_weights(ROW_A)
        assert w == pytest.approx([0.240, 0.444, 0.316], abs=1e-3)

    def test_symmetric(self):
        for t in (0.2, 0.9):
            w = refine.inverse_normalization_weights(np.array([t, t, t]))
            assert w == pytest.approx([1 / 3] * 3, rel=1e-12)

    def test_direct_arithmetic(self):
        w = refine.inverse_normalization_weights(np.array([1.0, 1.0, 0.5]))
        assert w == pytest.approx([0.25, 0.25, 0.5], rel=1e-12)

    def test_zero_component_raises(self):
        with pytest.raises(DegenerateObjective):
            refine.inverse_normalization_weights(np.array([0.0, 0.5, 0.5]))


class TestScalarize:
    def test_reference_value(self):
        w = refine.inverse_normalization_weights(ROW_A)
        assert refine.scalarize(ROW_A, w) == pytest.approx(4.300e-2, abs=2e-4)

    def test_selects_single_objective(self):
        assert refine.scalarize(np.array([0.3, 0.7, 0.9]),
                                np.array([1.0, 0.0, 0.0])) == pytest.approx(0.3)

    def test_zero_vector(self):
        assert refine.scalarize(np.zeros(3), np.array([0.2, 0.3, 0.5])) == 0.0

    def test_monotone_in_each_objective(self):
        w = np.array([0.2, 0.5, 0.3])
        base = np.array([0.4, 0.4, 0.4])
        for i in range(3):
            bumped = base.copy()
            bumped[i] += 0.1
            assert refine.scalarize(bumped, w) > refine.scalarize(base, w)


@dataclass
class Quadratic:
    center: float = 0.7
    calls: int = 0

    def __call__(self, x):
        self.calls += 1
        return refine.Evaluation(y=float(np.sum((x - self.center) ** 2)), feasible=True)


@dataclass
class Constant:
    def __call__(self, x):
        return refine.Evaluation(y=1.0, feasible=True)


@dataclass
class DiskConstrained:
    """Quadratic with an infeasible band; exercises the penalty path."""

    def __call__(self, x):
        if 0.55 < x[0] < 0.6:
            return refine.Evaluation(y=None, feasible=False, violation=float(x[0]))
        return refine.Evaluation(y=float(np.sum((x - 0.7) ** 2)), feasible=True)


BOX = (np.zeros(13), np.ones(13))


class TestNelderMead:
    def test_quadratic_converges(self):
        # a domain-center start stalls near 8e-3 after 200 iterations with
        # the pinned simplex/coefficients (scipy's reference implementation
        # behaves identically), so the start sits at a moderate distance
        result = refine.nelder_mead(Quadratic(), np.full(13, 0.65), *BOX,
                                    max_iters=200)
        assert result.value < 1e-4

    def test_constant_objective_returns_start(self):
        x0 = np.full(13, 0.3)
        result = refine.nelder_mead(Constant(), x0, *BOX, max_iters=50)
        assert result.x == pytest.approx(x0)
        assert result.value == 1.0

    def test_never_exceeds_start_value(self):
        x0 = np.full(13, 0.9)
        objective = Quadratic()
        start_value = float(np.sum((x0 - 0.7) ** 2))
        result = refine.nelder_mead(objective, x0, *BOX, max_iters=40)
        assert result.value <= start_value

    def test_vertices_respect_bounds(self):
        seen = []

        @dataclass
        class Recording:
            def __call__(self, x):
                seen.append(x.copy())
                return refine.Evaluation(y=float(np.sum((x - 2.0) ** 2)), feasible=True)

        refine.nelder_mead(Recording(), np.full(13, 0.95), *BOX, max_iters=60)
        stacked = np.array(seen)
        assert np.all(stacked >= 0.0) and np.all(stacked <= 1.0)

    def test_start_at_upper_bound_keeps_simplex_nondegenerate(self):
        # +5% steps clip to nothing at the upper bound; the fallback must
        # still span all 13 directions or the search stalls at f0 = 1.17
        result = refine.nelder_mead(Quadratic(), np.ones(13), *BOX, max_iters=200)
        assert result.value < 0.1

    def test_infeasible_region_avoided(self):
        result = refine.nelder_mead(DiskConstrained(), np.full(13, 0.4), *BOX,
                                    max_iters=200)
        assert result.value < 0.1
        assert not (0.55 < result.x[0] < 0.6)

    def test_infeasible_start_raises(self):
        @dataclass
        class AlwaysInfeasible:
            def __call__(self, x):
                return refine.Evaluation(y=None, feasible=False, violation=1.0)

        with pytest.raises(refine.InfeasibleStart):
            refine.nelder_mead(AlwaysInfeasible(), np.full(13, 0.5), *BOX)

    def test_iteration_budget_respected(self):
        objective = Quadratic()
        result = refine.nelder_mead(objective, np.full(13, 0.2), *BOX, max_iters=25)
        assert result.iterations <= 25


class TestRefineDesign:
    def test_start_scalar_is_the_scalarized_objective(self):
        # a degenerate coordinate (nadir == ideal) normalizes to 0 in both
        start = DesignVector(**REGRESSION["design"])
        y = kinetostatics.evaluate_objectives(start, n_elements=6).as_array()
        ideal, nadir = 0.5 * y, 2.0 * y
        nadir[2] = ideal[2]
        weights = np.array([0.2, 0.3, 0.5])
        report = refine.refine_design(start, ideal, nadir, weights=weights,
                                      max_iters=1, n_elements=6)
        problem = refine.ScalarizedProblem(weights=weights, ideal=ideal, nadir=nadir,
                                           n_elements=6)
        assert report.start_scalar == problem(start.as_array()).y
