import gc
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crosshinge import beam_fem as bf
from crosshinge import geometry as geo
from crosshinge import kinetostatics as ks
import oracles

DATA = Path(__file__).parent / "data"


def rotation(phi):
    return np.array([[math.cos(phi), -math.sin(phi)],
                     [math.sin(phi), math.cos(phi)]])


class TestCentrode:
    def test_rigid_rotation_collapses_to_center(self):
        center = np.array([0.3, 0.7])
        start = np.array([1.2, 0.4])
        phis = np.arange(21) * math.pi / 40
        traj = np.array([center + rotation(p) @ (start - center) for p in phis])
        points = ks.centrode(traj, math.pi / 40)
        assert points.shape == (20, 2)
        assert np.max(np.linalg.norm(points - center, axis=1)) < 1e-3

    def test_pure_translation_instant_center(self):
        direction = np.array([0.2, -0.1])
        start = np.array([0.5, 0.5])
        phis = np.arange(11) * 0.05
        traj = np.array([start + p * direction for p in phis])
        points = ks.centrode(traj, 0.05)
        mid = 0.5 * (traj[1:] + traj[:-1])
        offsets = points - mid
        # instantaneous center sits |d| away, along e_z x d
        expected = np.array([-direction[1], direction[0]])
        assert offsets == pytest.approx(np.tile(expected, (10, 1)), rel=1e-12)

    def test_stationary_trajectory(self):
        traj = np.tile([1.0, 2.0], (5, 1))
        points = ks.centrode(traj, 0.1)
        assert points == pytest.approx(traj[:-1])

    def test_rejects_single_point(self):
        with pytest.raises(ks.DegenerateInput):
            ks.centrode(np.array([[0.0, 0.0]]), 0.1)


def brute_force_mec(points):
    """Smallest circle over all 2- and 3-point support candidates."""
    points = np.asarray(points, dtype=float)
    tol = 1e-10 * max(1.0, np.max(np.abs(points)))
    best = None
    if len(points) == 1:
        return points[0], 0.0
    for pair in itertools.combinations(range(len(points)), 2):
        center = points[list(pair)].mean(axis=0)
        radius = np.linalg.norm(points[pair[0]] - center)
        if np.all(np.linalg.norm(points - center, axis=1) <= radius + tol):
            if best is None or radius < best[1]:
                best = (center, radius)
    for triple in itertools.combinations(range(len(points)), 3):
        p, q, r = points[list(triple)]
        d = 2 * (p[0] * (q[1] - r[1]) + q[0] * (r[1] - p[1]) + r[0] * (p[1] - q[1]))
        if abs(d) < 1e-14:
            continue
        p2, q2, r2 = p @ p, q @ q, r @ r
        center = np.array([
            (p2 * (q[1] - r[1]) + q2 * (r[1] - p[1]) + r2 * (p[1] - q[1])) / d,
            (p2 * (r[0] - q[0]) + q2 * (p[0] - r[0]) + r2 * (q[0] - p[0])) / d,
        ])
        radius = np.linalg.norm(p - center)
        if np.all(np.linalg.norm(points - center, axis=1) <= radius + tol):
            if best is None or radius < best[1]:
                best = (center, radius)
    return best


class TestMinEnclosingCircle:
    def test_single_point(self):
        center, radius = ks.min_enclosing_circle(np.array([[3.0, -2.0]]))
        assert radius == 0.0
        assert center == pytest.approx([3.0, -2.0])

    def test_two_points_diametral(self):
        p, q = np.array([1.0, 1.0]), np.array([3.0, 5.0])
        center, radius = ks.min_enclosing_circle(np.array([p, q]))
        assert center == pytest.approx((p + q) / 2)
        assert radius == pytest.approx(np.linalg.norm(p - q) / 2)

    def test_matches_brute_force_on_200_random_sets(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(1, 13))
            points = rng.uniform(-1, 1, (n, 2))
            _, radius = ks.min_enclosing_circle(points)
            _, expected = brute_force_mec(points)
            assert abs(radius - expected) < 1e-12

    def test_all_points_contained(self):
        rng = np.random.default_rng(8)
        points = rng.normal(size=(40, 2))
        center, radius = ks.min_enclosing_circle(points)
        assert np.all(np.linalg.norm(points - center, axis=1) <= radius + 1e-9)

    def test_empty_raises(self):
        with pytest.raises(ks.DegenerateInput):
            ks.min_enclosing_circle(np.empty((0, 2)))

    def test_same_bytes_as_numpy_norm_loop(self):
        # the containment checks on Python floats take the same branches as
        # the np.linalg.norm loop, so center and radius keep their bytes
        rng = np.random.default_rng(31)
        sets = []
        for k in range(300):
            n = int(rng.integers(1, 41))
            points = rng.uniform(-2, 2, (n, 2))
            if k % 4 == 1:  # collinear
                points = rng.uniform(-1, 1, (n, 1)) * rng.normal(size=2) + rng.normal(size=2)
            elif k % 4 == 2:  # duplicates
                points = points[rng.integers(0, max(1, n // 3), n)]
            elif k % 4 == 3:  # cocircular within 1e-10, where the tolerance decides
                angle = rng.uniform(0, 2 * math.pi, n)
                radius = 1.0 + 1e-10 * rng.standard_normal(n)
                points = np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=1)
            sets.append(points)
        design, _ = regression_design()
        _, sweep, _ = ks.evaluate_with_sweep(design)
        sets.append(ks.centrode(sweep.tip_positions, sweep.phi[1] - sweep.phi[0]))
        for points in sets:
            center, radius = ks.min_enclosing_circle(points)
            ref_center, ref_radius = oracles.min_enclosing_circle(points)
            assert center.tobytes() == ref_center.tobytes()
            assert np.float64(radius).tobytes() == np.float64(ref_radius).tobytes()


def synthetic_sweep(stiffnesses):
    """A completed sweep of the given condensed stiffnesses, one per step,
    on a unit-circle tip path with a unit rotational stiffness."""
    phi = 0.1 * np.arange(len(stiffnesses))
    return bf.SweepResult(phi=phi, tip_positions=np.stack([np.cos(phi), np.sin(phi)], axis=1),
                          moments=phi.copy(), stiffnesses=np.array(stiffnesses, dtype=float),
                          max_strains=np.zeros(len(phi)), z=np.zeros((len(phi), 1)),
                          iterations=np.zeros(len(phi), dtype=int),
                          bisected=np.zeros(len(phi), dtype=bool))


class TestCompliance:
    """c_bar of objectives_from_sweep: the largest principal compliance
    over all steps of a synthetic sweep."""

    def test_diagonal(self):
        report = ks.objectives_from_sweep(synthetic_sweep([np.diag([2.0, 8.0])] * 3))
        assert report.c_bar == pytest.approx(0.5)

    def test_rotation_invariance(self):
        r = rotation(0.9)
        rotated = r @ np.diag([2.0, 8.0]) @ r.T
        assert ks.objectives_from_sweep(synthetic_sweep([rotated] * 3)).c_bar == \
            pytest.approx(0.5)

    def test_smallest_eigenvalue_over_all_steps(self):
        r = rotation(0.4)
        steps = [np.diag([4.0, 4.0]), r @ np.diag([0.5, 3.0]) @ r.T, np.diag([2.0, 8.0])]
        assert ks.objectives_from_sweep(synthetic_sweep(steps)).c_bar == pytest.approx(2.0)

    def test_indefinite_step_is_infeasible(self):
        steps = [np.diag([2.0, 8.0]), np.diag([1.0, -0.5]), np.diag([2.0, 8.0])]
        report = ks.objectives_from_sweep(synthetic_sweep(steps))
        assert (report.feasible, report.failure, report.violation) == \
            (False, "indefinite-stiffness", ks.SINGULAR_VIOLATION)
        assert report.y is None


class TestRotationalStiffness:
    def test_linear_moments_exact(self):
        phis = np.arange(6) * 0.1
        profile = ks.rotational_stiffness_profile(4.2 * phis, 0.1)
        assert profile == pytest.approx(np.full(5, 4.2), rel=1e-12)

    def test_constant_moments_zero(self):
        profile = ks.rotational_stiffness_profile(np.full(8, 1.3), 0.05)
        assert profile == pytest.approx(np.zeros(7), abs=1e-14)

    def test_sine_against_analytic_derivative(self):
        dphi = math.pi / 40
        phis = np.arange(21) * dphi
        profile = ks.rotational_stiffness_profile(np.sin(phis), dphi)
        mids = 0.5 * (phis[1:] + phis[:-1])
        assert np.max(np.abs(profile - np.cos(mids))) < 3e-4

    def test_too_short_raises(self):
        with pytest.raises(ks.DegenerateInput):
            ks.rotational_stiffness_profile(np.array([1.0]), 0.1)


def regression_design():
    golden = json.loads((DATA / "regression_cross_hinge.json").read_text())
    return geo.DesignVector(**golden["design"]), golden


class TestEvaluateObjectives:
    def test_self_intersecting_design_rejected(self):
        # monotone turning beyond a full revolution: the centerline loops
        d = geo.DesignVector(math.pi, -math.pi, -math.pi, -math.pi,
                             0.5, 0.5, 0.0, 0.0,
                             alpha=1.0, beta1=10.0, beta2=10.0, gamma=1.0, delta=0.5)
        assert not geo.check_feasibility(geo.build_hinge(d)).feasible
        report = ks.evaluate_objectives(d)
        assert not report.feasible
        assert report.violation == 1.0
        assert report.failure == "self-intersection"
        assert report.r_bar is None

    def test_strain_violation_magnitude(self):
        d = geo.DesignVector(0.0, math.pi, math.pi, 0.0, 1.0, 1.0, 0.0, 0.0,
                             alpha=1.0, beta1=5.0, beta2=5.0, gamma=1.0, delta=0.5)
        report = ks.evaluate_objectives(d)
        assert not report.feasible
        assert report.failure == "strain"
        assert report.violation > 0.0

    def test_matches_golden_objectives(self):
        design, golden = regression_design()
        report = ks.evaluate_objectives(design)
        assert report.feasible
        assert report.r_bar == pytest.approx(golden["objectives"]["r_bar"], rel=1e-3)
        assert report.c_bar == pytest.approx(golden["objectives"]["c_bar"], rel=1e-3)
        assert report.k_bar == pytest.approx(golden["objectives"]["k_bar"], rel=1e-3)

    def test_deterministic(self):
        design, _ = regression_design()
        a = ks.evaluate_objectives(design)
        b = ks.evaluate_objectives(design)
        assert (a.r_bar, a.c_bar, a.k_bar) == (b.r_bar, b.c_bar, b.k_bar)

    def test_out_of_range_raises(self):
        design, _ = regression_design()
        bad = geo.DesignVector.from_array(
            np.where(np.arange(13) == 9, 25.0, design.as_array()))
        with pytest.raises(geo.OutOfRange):
            ks.evaluate_objectives(bad)

    def test_extra_steps_only_tighten_maxima(self):
        # max-based objectives can only grow when sampled more densely
        design, _ = regression_design()
        coarse = ks.evaluate_objectives(design, n_steps=10)
        fine = ks.evaluate_objectives(design, n_steps=20)
        assert fine.c_bar >= coarse.c_bar - 1e-6 * abs(coarse.c_bar)

    @pytest.mark.parametrize("y, failure, violation", [
        ([math.nan, 1.0, 1.0], "nonconvergence", 1.0),
        ([1.0, math.inf, 1.0], "nonconvergence", 1.0),
        ([1.0, 1.0, math.nan], "nonconvergence", 1.0),
        ([1.0, 1.0, -1.0], "indefinite-stiffness", ks.SINGULAR_VIOLATION),
        ([1.0, 1.0, 0.0], "indefinite-stiffness", ks.SINGULAR_VIOLATION),
    ])
    def test_bad_objective_is_infeasible(self, monkeypatch, y, failure, violation):
        design, _ = regression_design()
        monkeypatch.setattr(ks, "objectives_from_sweep",
                            lambda sweep: ks.Evaluation(y=np.array(y), feasible=True))
        report, sweep, _ = ks.evaluate_with_sweep(design)
        assert sweep.failure is None
        assert (report.feasible, report.failure, report.violation) == (False, failure, violation)
        assert report.y is None

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=13, max_size=13),
           st.integers(2, 6), st.integers(2, 4))
    def test_feasible_objectives_finite_and_positive(self, unit, n_elements, n_steps):
        values = geo.LOWER_BOUNDS + np.array(unit) * (geo.UPPER_BOUNDS - geo.LOWER_BOUNDS)
        report = ks.evaluate_objectives(geo.DesignVector.from_array(values),
                                        n_elements=n_elements, n_steps=n_steps)
        if report.feasible:
            assert np.all(np.isfinite(report.y)) and np.all(report.y > 0.0)


class TestSweepReference:
    """Outcomes recorded before the solver's element kernel and banded solve
    were rewritten. 1e-6 relative leaves room for round-off carried along
    the Newton path (r_bar differences tip positions and amplifies it)."""

    CASES = json.loads((DATA / "sweep_reference.json").read_text())

    @pytest.mark.parametrize("case", CASES["designs"], ids=lambda c: c["failure"] or "feasible")
    def test_same_outcome(self, case):
        report = ks.evaluate_objectives(geo.DesignVector.from_array(case["values"]),
                                        n_elements=self.CASES["n_elements"],
                                        n_steps=self.CASES["n_steps"])
        assert report.failure == case["failure"]
        assert report.violation == pytest.approx(case["violation"], rel=1e-6)
        if case["objectives"] is None:
            assert report.y is None
        else:
            assert report.y == pytest.approx(np.array(case["objectives"]), rel=1e-6)


class TestSolverTolerance:
    """The default Newton tolerance leaves no solver error in the
    objectives, nor in the violation of a strain exit: they agree with a
    solve at NEWTON_TOL_FACTOR 1e-13 within 1e-6 relative. Designs of
    TestSweepReference by their test ids, and the feasible design of the
    full box whose r_bar is the most sensitive to the tolerance (point 191
    of perfbench's uniform_designs(seed 1, n 300)): off by 3.2e-6 relative
    at NEWTON_TOL_FACTOR 1e-11, 1.2e-6 at 1e-12, 2e-15 at 5e-13. Point 129
    of the same set has an indefinite condensed stiffness over steps 5-12
    (smallest eigenvalue -2.0e-3) at either tolerance."""

    UNIFORM191 = {"failure": "", "values": [
        2.8213839930712057, -1.857655231445057, 1.4007849876527114, -1.3401485706607694,
        2.5817418689912657, -0.017859870700838165, 2.122090630231014, 1.3140697822641085,
        1.213135241029093, 18.476587031879887, 18.089365558865182, 0.7902291195553417,
        0.7948856183461004]}
    INDEFINITE129 = {"failure": "indefinite-stiffness", "values": [
        0.007896770034311678, -1.521918461976975, 0.48826689105461973, 1.900938467285207,
        2.71889733248801, 2.777584054378397, 0.4000267997862559, 0.6400549200043062,
        1.1396864285800703, 17.070761924273157, 14.543670383958514, 1.5821724670395199,
        0.9988463375413374]}

    @pytest.mark.parametrize("case", [TestSweepReference.CASES["designs"][i]
                                      for i in (0, 4, 5, 19, 13)]
                             + [UNIFORM191, INDEFINITE129],
                             ids=["feasible0", "feasible4", "feasible5", "feasible13",
                                  "strain1", "uniform191", "indefinite129"])
    def test_objectives_match_tight_tolerance(self, case, monkeypatch):
        design = geo.DesignVector.from_array(case["values"])
        default = ks.evaluate_objectives(design)
        monkeypatch.setattr(bf, "NEWTON_TOL_FACTOR", 1e-13)
        tight = ks.evaluate_objectives(design)
        assert default.failure == tight.failure == case["failure"]
        assert default.violation == pytest.approx(tight.violation, rel=1e-6)
        if case["failure"]:
            assert default.y is None and tight.y is None
        else:
            assert default.y == pytest.approx(tight.y, rel=1e-6)


class TestLockstep:
    """A design's record and sweep do not depend on its batch: alone and at
    each position of batches of 2 to 4 (evaluate_with_sweeps, whose sweeps run
    in lock-step), every field keeps its bytes. The designs cover each outcome
    and each way of leaving the lock-step: the end of the stroke, a strain
    exit, a geometry reject that never enters, a failed sweep, an indefinite
    stiffness, and a bisected step that completes (point 467 of perfbench's
    uniform_designs(seed 1, n 500))."""

    BISECTED467 = [
        0.24602694127177577, -1.5280747934436951, -1.225589780295894, -2.999159437895003,
        0.9577618529119681, -1.3145072825081963, -0.14343425526674913, 1.2742720849792901,
        0.959455760963408, 5.379937510903687, 15.970202143932397, 0.7970619597870723,
        0.338544352251148]
    DESIGNS = [TestSweepReference.CASES["designs"][i]["values"] for i in (0, 13, 18, 14)] + [
        TestSolverTolerance.INDEFINITE129["values"], BISECTED467]

    @staticmethod
    def fingerprint(triple) -> list[bytes]:
        record, sweep, _ = triple
        parts = [record.failure.encode(), np.float64(record.violation).tobytes(),
                 b"" if record.y is None else record.y.tobytes()]
        if sweep is not None:
            parts += [str(sweep.failure).encode()] + [
                np.ascontiguousarray(getattr(sweep, f)).tobytes()
                for f in ("phi", "tip_positions", "moments", "stiffnesses", "max_strains", "z",
                          "iterations", "bisected")]
        return parts

    def test_bytes_alone_and_at_every_position(self):
        designs = [geo.DesignVector.from_array(v) for v in self.DESIGNS]
        alone = [self.fingerprint(ks.evaluate_with_sweep(d)) for d in designs]
        assert [ks.evaluate_objectives(d).failure for d in designs] == [
            "", "strain", "self-intersection", "nonconvergence", "indefinite-stiffness", ""]
        for size in (2, 3, 4):
            # rotations put each design at each position once
            for shift in range(len(designs)):
                order = [(shift + k) % len(designs) for k in range(size)]
                batch = ks.evaluate_with_sweeps([designs[i] for i in order])
                for i, triple in zip(order, batch):
                    assert self.fingerprint(triple) == alone[i], (size, order, i)

    def test_bisected_step_rejoins_the_sweep(self):
        # the first attempt at step 11 (phi = 11 pi / 40) fails and its halves
        # replace it; the sweep goes on to the end of the stroke
        record, sweep, _ = ks.evaluate_with_sweep(geo.DesignVector.from_array(self.BISECTED467))
        assert record.feasible and sweep.failure is None
        assert np.flatnonzero(sweep.bisected).tolist() == [11]
        assert sweep.phi[11] == 11 * bf.SWEEP_ANGLE / 20

    def test_evaluations_leave_no_reference_cycles(self):
        # every state, band and generator of a sweep is freed by reference
        # counting: the cyclic collector finds nothing after an evaluation,
        # a bisected one and a failed one included, nor after a lock-step batch
        golden = json.loads((DATA / "regression_cross_hinge.json").read_text())
        designs = [geo.DesignVector(**golden["design"])] + [
            geo.DesignVector.from_array(self.DESIGNS[i]) for i in (5, 3)]
        gc.collect()
        gc.disable()
        try:
            for design in designs:
                ks.evaluate_objectives(design)
                assert gc.collect() == 0
            ks.evaluate_with_sweeps([geo.DesignVector.from_array(v) for v in self.DESIGNS[2:]])
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_more_than_lockstep_designs_refill_the_lockstep(self, monkeypatch):
        # six designs: a finished sweep makes room for the next, at most LOCKSTEP in flight
        widths = []
        kernel = bf.element_kernel
        monkeypatch.setattr(bf, "element_kernel", lambda data, ue, blocks=None: widths.append(
            1 if blocks is None else len(blocks)) or kernel(data, ue, blocks))
        designs = [geo.DesignVector.from_array(v) for v in self.DESIGNS]
        batch = ks.evaluate_with_sweeps(designs, n_elements=6, n_steps=6)
        assert max(widths) == bf.LOCKSTEP
        for design, triple in zip(designs, batch):
            widths.clear()
            assert self.fingerprint(triple) == self.fingerprint(
                ks.evaluate_with_sweep(design, n_elements=6, n_steps=6))
            assert set(widths) <= {1}

    def test_batch_call_gives_the_calls_records(self):
        evaluator = ks.HingeEvaluator(n_elements=6, n_steps=6)
        xs = np.array(self.DESIGNS)
        alone = [evaluator(x) for x in xs]
        for part in (slice(0, 4), slice(4, None), slice(0, 1)):
            for record, expected in zip(evaluator.batch(xs[part]), alone[part], strict=True):
                assert (record.failure, record.violation) == (expected.failure,
                                                              expected.violation)
                assert (record.y is None and expected.y is None
                        or record.y.tobytes() == expected.y.tobytes())

    def test_one_design_is_a_call(self, monkeypatch):
        # a batch of one keeps the per-design names a wrapper may be installed on
        calls = []
        evaluate = ks.evaluate_objectives
        monkeypatch.setattr(ks, "evaluate_objectives",
                            lambda *a, **k: calls.append(a) or evaluate(*a, **k))
        evaluator = ks.HingeEvaluator(n_elements=4, n_steps=4)
        evaluator.batch(np.array(self.DESIGNS[:1]))
        assert len(calls) == 1
        evaluator.batch(np.array(self.DESIGNS[:2]))
        assert len(calls) == 1


class TestMapRecords:
    def test_chunks_in_index_order_with_even_sizes(self):
        assert bf.LOCKSTEP == 4
        for n, width, sizes in ((0, 1, []), (1, 1, [1]), (4, 1, [4]), (5, 1, [3, 2]),
                                (8, 1, [4, 4]), (10, 1, [4, 3, 3]), (13, 1, [4, 3, 3, 3]),
                                (14, 1, [4, 4, 3, 3]), (8, 2, [4, 4]), (3, 2, [2, 1]),
                                (8, 4, [2, 2, 2, 2]), (14, 8, [2] * 6 + [1] * 2),
                                (3, 8, [1, 1, 1]), (0, 8, [])):
            xs = np.arange(2.0 * n).reshape(n, 2)
            chunks = ks.chunks(xs, width)
            assert [len(c) for c in chunks] == sizes, (n, width)
            if n:
                assert np.array_equal(np.concatenate(chunks), xs)

    def test_map_width_sets_the_chunks(self):
        # a map's width (its pool's process count) asks for a chunk per process
        seen = []

        class Summing:
            def batch(self, xs):
                return [float(x.sum()) for x in xs]

        def pool_map(fn, items):
            seen.append([len(item) for item in items])
            return map(fn, items)

        xs = np.arange(16.0).reshape(8, 2)
        expected = [float(x.sum()) for x in xs]
        assert ks.map_records(Summing(), xs, pool_map) == expected
        pool_map.width = 4
        assert ks.map_records(Summing(), xs, pool_map) == expected
        assert seen == [[4, 4], [2, 2, 2, 2]]

    def test_per_design_callable_mapped_over_designs(self):
        seen = []

        def recording_map(fn, items):
            seen.append(list(items))
            return map(fn, seen[-1])

        xs = np.arange(10.0).reshape(5, 2)
        records = ks.map_records(lambda x: float(x.sum()), xs, recording_map)
        assert records == [1.0, 5.0, 9.0, 13.0, 17.0]
        assert [len(items) for items in seen] == [5]


class TestDiscretization:
    """Discretization error of the golden design's objectives. The element
    count barely matters; the step count matters at first order, because
    the centrode samples midpoints and misses the ends of the stroke."""

    def test_element_count_converged(self):
        design, _ = regression_design()
        coarse = ks.evaluate_objectives(design, n_elements=15)
        fine = ks.evaluate_objectives(design, n_elements=30)
        assert coarse.y == pytest.approx(fine.y, rel=1e-5)

    def test_r_bar_first_order_in_steps(self):
        design, _ = regression_design()
        r20, r40, r80 = (ks.evaluate_objectives(design, n_steps=n).r_bar
                         for n in (20, 40, 80))
        assert 1.5 <= (r40 - r20) / (r80 - r40) <= 3.0
