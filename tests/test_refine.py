import json
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np
import pytest

from crosshinge import kinetostatics, pareto, refine
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
        return refine.Evaluation(y=np.array([np.sum((x - self.center) ** 2)]), feasible=True)


@dataclass
class Constant:
    def __call__(self, x):
        return refine.Evaluation(y=np.array([1.0]), feasible=True)


@dataclass
class DiskConstrained:
    """Quadratic with an infeasible band; exercises the penalty path."""

    def __call__(self, x):
        if 0.55 < x[0] < 0.6:
            return refine.Evaluation(y=None, feasible=False, violation=float(x[0]))
        return refine.Evaluation(y=np.array([np.sum((x - 0.7) ** 2)]), feasible=True)


@dataclass
class Terraced:
    """DiskConstrained with the quadratic floored to steps of 0.05: on a
    plateau a contraction does not improve, so the simplex shrinks."""

    calls: int = 0

    def __call__(self, x):
        self.calls += 1
        if 0.55 < x[0] < 0.6:
            return refine.Evaluation(y=None, feasible=False, violation=float(x[0]))
        return refine.Evaluation(y=np.array([np.floor(20 * np.sum((x - 0.7) ** 2)) / 20]),
                                 feasible=True)


@dataclass
class RecordingMap:
    """An order-keeping map (the builtin one by default) that keeps a copy of
    each batch it is given."""

    inner: object = map
    batches: list = field(default_factory=list)

    def __call__(self, fn, items):
        self.batches.append(np.array([np.array(x) for x in items]))
        return self.inner(fn, self.batches[-1])


BOX = (np.zeros(13), np.ones(13))


def nelder_mead(objective, x0, lower, upper, max_iters=refine.MAX_ITERS, map=map):
    """refine.nelder_mead on a test objective whose records hold the scalar
    as a one-element y."""
    return refine.nelder_mead(objective, lambda start: lambda y: y[0], x0, lower, upper,
                              max_iters, map=map)


class TestNelderMead:
    def test_quadratic_converges(self):
        # a domain-center start stalls near 8e-3 after 200 iterations with
        # the pinned simplex/coefficients (scipy's reference implementation
        # behaves identically), so the start sits at a moderate distance
        result = nelder_mead(Quadratic(), np.full(13, 0.65), *BOX, max_iters=200)
        assert result.value < 1e-4

    def test_constant_objective_returns_start(self):
        x0 = np.full(13, 0.3)
        result = nelder_mead(Constant(), x0, *BOX, max_iters=50)
        assert result.x == pytest.approx(x0)
        assert result.value == 1.0

    def test_never_exceeds_start_value(self):
        x0 = np.full(13, 0.9)
        objective = Quadratic()
        start_value = float(np.sum((x0 - 0.7) ** 2))
        result = nelder_mead(objective, x0, *BOX, max_iters=40)
        assert result.value <= start_value

    def test_vertices_respect_bounds(self):
        seen = []

        @dataclass
        class Recording:
            def __call__(self, x):
                seen.append(x.copy())
                return refine.Evaluation(y=np.array([np.sum((x - 2.0) ** 2)]), feasible=True)

        nelder_mead(Recording(), np.full(13, 0.95), *BOX, max_iters=60)
        stacked = np.array(seen)
        assert np.all(stacked >= 0.0) and np.all(stacked <= 1.0)

    def test_start_at_upper_bound_keeps_simplex_nondegenerate(self):
        # +5% steps clip to nothing at the upper bound; the fallback must
        # still span all 13 directions or the search stalls at f0 = 1.17
        result = nelder_mead(Quadratic(), np.ones(13), *BOX, max_iters=200)
        assert result.value < 0.1

    def test_infeasible_region_avoided(self):
        result = nelder_mead(DiskConstrained(), np.full(13, 0.4), *BOX, max_iters=200)
        assert result.value < 0.1
        assert not (0.55 < result.x[0] < 0.6)

    def test_infeasible_start_raises(self):
        @dataclass
        class AlwaysInfeasible:
            def __call__(self, x):
                return refine.Evaluation(y=None, feasible=False, violation=1.0)

        with pytest.raises(refine.InfeasibleStart):
            nelder_mead(AlwaysInfeasible(), np.full(13, 0.5), *BOX)

    def test_iteration_budget_respected(self):
        objective = Quadratic()
        result = nelder_mead(objective, np.full(13, 0.2), *BOX, max_iters=25)
        assert result.iterations <= 25


class TestBatches:
    """nelder_mead evaluates the start with the initial simplex, and each
    shrink, as one batch of its map, and folds the records in serial order."""

    X0 = np.full(13, 0.4)

    def test_first_batch_is_start_and_simplex_then_shrinks(self):
        recording = RecordingMap()
        nelder_mead(Terraced(), self.X0, *BOX, max_iters=15, map=recording)
        first, *rest = recording.batches
        # vertex i steps 5% of the range (0.05 here) along variable i
        assert np.array_equal(first, np.vstack([self.X0, self.X0 + np.diag(np.full(13, 0.05))]))
        assert all(len(batch) in (1, 13) for batch in rest)
        assert any(len(batch) == 13 for batch in rest)

    def test_each_point_mapped_once(self):
        objective, recording = Terraced(), RecordingMap()
        result = nelder_mead(objective, self.X0, *BOX, max_iters=15, map=recording)
        assert objective.calls == sum(map(len, recording.batches)) == result.evaluations

    def test_pool_map_gives_the_serial_result(self):
        with ProcessPoolExecutor(2) as pool:
            recording = RecordingMap(pool.map)
            pooled = nelder_mead(Terraced(), self.X0, *BOX, max_iters=15, map=recording)
        serial = nelder_mead(Terraced(), self.X0, *BOX, max_iters=15)
        assert any(len(batch) == 13 for batch in recording.batches[1:])  # it shrank
        # field by field: a whole pickle also encodes which fields share an object
        assert ([pickle.dumps(getattr(pooled, f.name)) for f in fields(pooled)]
                == [pickle.dumps(getattr(serial, f.name)) for f in fields(serial)])

    def test_infeasible_start_raises_after_first_batch(self):
        @dataclass
        class AlwaysInfeasible:
            def __call__(self, x):
                return refine.Evaluation(y=None, feasible=False, violation=1.0)

        recording = RecordingMap()
        with pytest.raises(refine.InfeasibleStart):
            nelder_mead(AlwaysInfeasible(), self.X0, *BOX, map=recording)
        assert [len(batch) for batch in recording.batches] == [14]


@dataclass
class BatchedTerraced(Terraced):
    """Terraced with a batch call, as HingeEvaluator has."""

    def batch(self, xs):
        return [self(x) for x in xs]


class TestChunkedBatches:
    """A batch-capable evaluator's batches reach the map as chunks of at most
    LOCKSTEP points, in index order; single points as one chunk of one."""

    X0 = TestBatches.X0

    def test_start_and_shrinks_in_chunks(self):
        chunks = []

        def recording_map(fn, items):
            chunks.append([np.array(chunk) for chunk in items])
            return map(fn, chunks[-1])

        chunked = nelder_mead(BatchedTerraced(), self.X0, *BOX, max_iters=15, map=recording_map)
        first, *rest = chunks
        assert [len(chunk) for chunk in first] == [4, 4, 3, 3]
        assert np.array_equal(np.concatenate(first),
                              np.vstack([self.X0, self.X0 + np.diag(np.full(13, 0.05))]))
        shrinks = [call for call in rest if len(call) > 1]
        assert shrinks and all([len(chunk) for chunk in call] == [4, 3, 3, 3] for call in shrinks)
        assert all(len(call[0]) == 1 for call in rest if len(call) == 1)
        assert sum(len(chunk) for call in chunks for chunk in call) == chunked.evaluations
        plain = nelder_mead(Terraced(), self.X0, *BOX, max_iters=15)
        assert ([pickle.dumps(getattr(chunked, f.name)) for f in fields(chunked)]
                == [pickle.dumps(getattr(plain, f.name)) for f in fields(plain)])


class TestDegenerateWeights:
    def test_raised_before_any_evaluation(self):
        # a one-row archive is degenerate in every column: no weights derive
        archive = pareto.ParetoArchive(designs=np.zeros((1, 13)),
                                       objectives=np.array([[1.0, 2.0, 3.0]]))
        objective = Terraced()
        with pytest.raises(DegenerateObjective, match="strictly positive"):
            refine.refine_design(DesignVector(**REGRESSION["design"]), archive, objective)
        assert objective.calls == 0
        refine.check_weights(archive, np.array([0.2, 0.3, 0.5]))  # given weights pass


class TestRefineDesign:
    def test_start_scalar_is_the_scalarized_objective(self):
        # a degenerate coordinate (nadir == ideal) normalizes to 0 in both
        start = DesignVector(**REGRESSION["design"])
        evaluator = kinetostatics.HingeEvaluator(n_elements=6)
        y = evaluator(start.as_array()).y
        ideal, nadir = 0.5 * y, 2.0 * y
        nadir[2] = ideal[2]
        weights = np.array([0.2, 0.3, 0.5])
        # an archive whose componentwise min and max are ideal and nadir
        archive = pareto.ParetoArchive(designs=np.zeros((2, 13)),
                                       objectives=np.array([ideal, nadir]))
        report = refine.refine_design(start, archive, evaluator, weights=weights,
                                      max_iters=1)
        assert report.start_value == refine.scalarize(pareto.normalize(y, ideal, nadir),
                                                       weights)

    def test_each_evaluation_runs_once_and_reports_its_record(self, monkeypatch):
        start = DesignVector(**REGRESSION["design"])
        evaluator = kinetostatics.HingeEvaluator(n_elements=6)
        y = evaluator(start.as_array()).y
        archive = pareto.ParetoArchive(designs=np.zeros((2, 13)),
                                       objectives=np.array([0.5 * y, 2.0 * y]))
        calls = []
        evaluate_with_sweeps = kinetostatics.evaluate_with_sweeps
        monkeypatch.setattr(kinetostatics, "evaluate_with_sweeps",
                            lambda designs, *a, **k: calls.extend(designs)
                            or evaluate_with_sweeps(designs, *a, **k))
        report = refine.refine_design(start, archive, evaluator, max_iters=2)
        assert len(calls) == report.evaluations
        # the refined objectives are the refined design's own record
        assert report.value < report.start_value
        for design, objectives in ((start, report.start.y),
                                   (DesignVector.from_array(report.x), report.best.y)):
            fresh = kinetostatics.evaluate_objectives(design, n_elements=6)
            assert np.array_equal(objectives, fresh.y)
