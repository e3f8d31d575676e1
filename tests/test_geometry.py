import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from crosshinge import geometry as geo
import oracles

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402


def angle_coeffs(draw_bounds=True):
    lo = [0.0, -math.pi, -math.pi, -math.pi]
    hi = [math.pi, math.pi, math.pi, math.pi]
    return st.tuples(*(st.floats(lo[i], hi[i]) for i in range(4)))


class TestAngleProfile:
    def test_zero_coefficients(self):
        for s in (0.0, 0.25, 0.5, 1.0):
            assert geo.angle_profile((0, 0, 0, 0), s) == 0.0

    def test_constant_blend(self):
        a = 0.734
        for s in np.linspace(0, 1, 7):
            assert geo.angle_profile((a, a, 0, 0), s) == pytest.approx(a, abs=1e-15)

    def test_midpoint_drops_cubic_term(self):
        t0, t1, t2, t3 = 0.3, -1.1, 0.8, 2.2
        expected = (t0 + t1) / 2 + t2
        assert geo.angle_profile((t0, t1, t2, t3), 0.5) == pytest.approx(expected, abs=1e-15)

    @settings(max_examples=50)
    @given(angle_coeffs())
    def test_endpoints_are_first_two_coefficients(self, coeffs):
        assert geo.angle_profile(coeffs, 0.0) == pytest.approx(coeffs[0], abs=1e-12)
        assert geo.angle_profile(coeffs, 1.0) == pytest.approx(coeffs[1], abs=1e-12)


class TestCenterline:
    def test_straight_segment(self):
        points, angles = geo.centerline((0, 0, 0, 0), 1.0, (0, 0), 11)
        assert points[-1] == pytest.approx([1.0, 0.0], abs=1e-14)
        assert np.all(angles == 0.0)

    def test_quarter_circle(self):
        # constant curvature pi/2 over unit length: endpoint (2/pi, 2/pi)
        points, _ = geo.centerline((0, math.pi / 2, 0, 0), 1.0, (0, 0), 81)
        assert points[-1] == pytest.approx([2 / math.pi, 2 / math.pi], abs=1e-12)

    def test_endpoint_against_adaptive_quadrature(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            coeffs = rng.uniform(geo.LOWER_BOUNDS[:4], geo.UPPER_BOUNDS[:4])
            points, _ = geo.centerline(coeffs, 1.0, (0, 0), 81)
            x_ref, _ = quad(lambda s: math.cos(geo.angle_profile(coeffs, s)), 0, 1,
                            limit=200, epsabs=1e-13, epsrel=1e-13)
            y_ref, _ = quad(lambda s: math.sin(geo.angle_profile(coeffs, s)), 0, 1,
                            limit=200, epsabs=1e-13, epsrel=1e-13)
            assert points[-1] == pytest.approx([x_ref, y_ref], abs=1e-10)

    def test_arc_length_converges_to_length(self):
        coeffs = (0.4, -2.0, 1.5, -0.7)
        length = 1.7
        errors = []
        for n in (21, 41, 81, 161):
            points, _ = geo.centerline(coeffs, length, (0, 0), n)
            chord = np.sum(np.linalg.norm(np.diff(points, axis=0), axis=1))
            errors.append(abs(chord - length))
        assert errors[-1] < 1e-3 * length
        assert errors[-1] < errors[0]

    def test_base_offset_and_scaling(self):
        base = np.array([0.3, -0.4])
        points, _ = geo.centerline((0.2, 0.9, 0, 0), 2.0, base, 41)
        assert points[0] == pytest.approx(base)
        unit, _ = geo.centerline((0.2, 0.9, 0, 0), 1.0, (0, 0), 41)
        assert points[-1] - base == pytest.approx(2.0 * unit[-1], rel=1e-12)

    def test_rejects_single_sample(self):
        with pytest.raises(ValueError):
            geo.centerline((0, 0, 0, 0), 1.0, (0, 0), 1)


class TestBuildHinge:
    def test_dimension_ratios(self):
        d = geo.DesignVector(0.1, 0.2, 0.0, 0.0, 0.3, 0.4, 0.0, 0.0,
                             alpha=2.0, beta1=10.0, beta2=20.0, gamma=0.5, delta=0.3)
        hinge = geo.build_hinge(d)
        f1, f2 = hinge.flexures
        assert f1.length == 1.0 and f1.width == 1.0
        assert f2.length == pytest.approx(2.0)
        assert f1.height == pytest.approx(0.1)
        assert f2.height == pytest.approx(0.1)
        assert f2.width == pytest.approx(0.5)
        assert f2.base == pytest.approx([0.3, 0.0])
        assert geo.POISSON_RATIO == 0.49

    def test_zero_offset_bases_coincide(self):
        d = geo.DesignVector(0.1, 0.2, 0.0, 0.0, 0.3, 0.4, 0.0, 0.0,
                             alpha=1.0, beta1=10.0, beta2=10.0, gamma=1.0, delta=0.0)
        hinge = geo.build_hinge(d)
        assert np.array_equal(hinge.flexures[0].base, hinge.flexures[1].base)

    def test_out_of_range_raises_with_name(self):
        d = geo.DesignVector(0.1, 0.2, 0.0, 0.0, 0.3, 0.4, 0.0, 0.0,
                             alpha=1.0, beta1=4.0, beta2=10.0, gamma=1.0, delta=0.0)
        with pytest.raises(geo.OutOfRange, match="beta1"):
            geo.build_hinge(d)

    def test_roundtrip_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            d = geo.sample_random(rng)
            back = oracles.design_parameters(geo.build_hinge(d))
            assert back.as_array() == pytest.approx(d.as_array(), rel=1e-12, abs=1e-12)


def _segments_intersect_oracle(p1, p2, p3, p4, tol=1e-12):
    """Scalar inclusive segment intersection (independent formulation)."""
    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def on_segment(p, a, b):
        return (min(a[0], b[0]) - tol <= p[0] <= max(a[0], b[0]) + tol
                and min(a[1], b[1]) - tol <= p[1] <= max(a[1], b[1]) + tol)

    d1 = cross(p3, p4, p1)
    d2 = cross(p3, p4, p2)
    d3 = cross(p1, p2, p3)
    d4 = cross(p1, p2, p4)
    if ((d1 > tol and d2 < -tol) or (d1 < -tol and d2 > tol)) and \
       ((d3 > tol and d4 < -tol) or (d3 < -tol and d4 > tol)):
        return True
    for d, p, a, b in ((d1, p1, p3, p4), (d2, p2, p3, p4),
                       (d3, p3, p1, p2), (d4, p4, p1, p2)):
        if abs(d) <= tol and on_segment(p, a, b):
            return True
    return False


def _polyline_oracle(points):
    n = len(points) - 1
    for i in range(n):
        for j in range(i + 2, n):
            if _segments_intersect_oracle(points[i], points[i + 1],
                                          points[j], points[j + 1]):
                return True
    return False


class TestFeasibility:
    def test_straight_flexures_feasible(self):
        d = geo.DesignVector(0.5, 0.5, 0.0, 0.0, 2.0, 2.0, 0.0, 0.0,
                             alpha=1.0, beta1=10.0, beta2=10.0, gamma=1.0, delta=0.5)
        assert geo.check_feasibility(geo.build_hinge(d)).feasible

    def test_hairpin_matches_oracle(self):
        points, _ = geo.centerline((0.0, 0.0, math.pi, 0.0), 1.0, (0, 0), 81)
        assert geo.polyline_self_intersects(points) == _polyline_oracle(points)

    def test_closed_loop_infeasible(self):
        # full turn 0 -> 2pi: the polyline closes onto its start point
        s = np.linspace(0, 1, 81)
        theta = 2 * math.pi * s
        mids = 0.5 * (theta[1:] + theta[:-1])
        steps = np.stack([np.cos(mids), np.sin(mids)], axis=1) * (s[1] - s[0])
        points = np.vstack([[0.0, 0.0], np.cumsum(steps, axis=0)])
        points[-1] = points[0]  # exact closure
        assert geo.polyline_self_intersects(points)
        assert _polyline_oracle(points)

    def test_agrees_with_oracle_on_random_designs(self):
        rng = np.random.default_rng(23)
        n_infeasible = 0
        for _ in range(60):
            d = geo.sample_random(rng)
            hinge = geo.build_hinge(d)
            expected = any(_polyline_oracle(f.points) for f in hinge.flexures)
            got = not geo.check_feasibility(hinge).feasible
            assert got == expected
            n_infeasible += got
        assert n_infeasible > 0  # the sample must exercise both outcomes


class TestTurningCertificate:
    @settings(max_examples=200)
    @given(angle_coeffs(), st.sampled_from(["cubic", "t3 = 0", "t2 = t3 = 0"]))
    def test_angle_range_bounds_the_sampled_range(self, coeffs, case):
        t0, t1, t2, t3 = coeffs
        coeffs = (t0, t1, *{"cubic": (t2, t3), "t3 = 0": (t2, 0.0),
                            "t2 = t3 = 0": (0.0, 0.0)}[case])
        low, high = geo.angle_range(coeffs)
        sampled = geo.angle_profile(coeffs, np.linspace(0.0, 1.0, 20_001))
        assert low <= sampled.min() + 1e-12 and high >= sampled.max() - 1e-12
        # and it is the range: a 5e-5 grid misses an extremum by |theta''| / 8 * 2.5e-9
        assert low >= sampled.min() - 1e-6 and high <= sampled.max() + 1e-6

    def test_semicircle_reaches_the_segment_test(self, monkeypatch):
        # flexure 1 turns by exactly pi, flexure 2 is straight
        d = geo.DesignVector(0.0, math.pi, 0.0, 0.0, 0.5, 0.5, 0.0, 0.0,
                             alpha=1.0, beta1=10.0, beta2=10.0, gamma=1.0, delta=0.5)
        hinge = geo.build_hinge(d)
        assert geo.angle_range(hinge.flexures[0].coeffs) == (0.0, math.pi)
        tested = []
        full_test = geo.polyline_self_intersects
        monkeypatch.setattr(geo, "polyline_self_intersects",
                            lambda points: tested.append(points) or full_test(points))
        assert geo.check_feasibility(hinge).feasible
        assert len(tested) == 1 and tested[0] is hinge.flexures[0].points

    @pytest.mark.parametrize("name, n_certified", [("near_front", 600), ("uniform", 282)])
    def test_certified_flexures_do_not_self_intersect(self, name, n_certified):
        if name == "near_front":
            golden = workloads.Golden(ROOT / "tests" / "data" / "regression_cross_hinge.json",
                                      geo)
            designs = workloads.near_front_designs(geo, golden, 1, 300)
        else:
            designs = workloads.uniform_designs(geo, 1, 300)
        certified = [f.points for x in designs
                     for f in geo.build_hinge(geo.DesignVector.from_array(x)).flexures
                     if np.ptp(geo.angle_range(f.coeffs)) < geo.CERTIFIED_TURN]
        assert len(certified) == n_certified
        assert not any(_polyline_oracle(points.tolist()) for points in certified)


class TestSampleRandom:
    def test_deterministic_for_seed(self):
        assert geo.sample_random(99).as_array() == pytest.approx(
            geo.sample_random(99).as_array(), abs=0.0)

    def test_within_bounds(self):
        rng = np.random.default_rng(1)
        samples = np.array([geo.sample_random(rng).as_array() for _ in range(10_000)])
        assert np.all(samples >= geo.LOWER_BOUNDS)
        assert np.all(samples <= geo.UPPER_BOUNDS)

    def test_mean_near_midpoint(self):
        rng = np.random.default_rng(2)
        n = 10_000
        samples = np.array([geo.sample_random(rng).as_array() for _ in range(n)])
        midpoint = 0.5 * (geo.LOWER_BOUNDS + geo.UPPER_BOUNDS)
        sigma = (geo.UPPER_BOUNDS - geo.LOWER_BOUNDS) / math.sqrt(12.0) / math.sqrt(n)
        assert np.all(np.abs(samples.mean(axis=0) - midpoint) < 3.0 * sigma)
