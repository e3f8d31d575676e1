import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crosshinge import pareto
from crosshinge.geometry import DESIGN_FIELDS
import oracles

finite_vec = st.lists(st.floats(-10, 10), min_size=3, max_size=3).map(np.array)

# Normalized objective rows of the four selected designs, in row order
# (a) uniform, (b) kinematics, (c) compliance, (d) rotational stiffness.
REFERENCE_ROWS = np.array([
    [5.978e-2, 3.228e-2, 4.534e-2],
    [7.513e-3, 7.658e-1, 6.467e-3],
    [8.727e-1, 1.077e-4, 8.234e-1],
    [5.115e-1, 8.298e-1, 6.610e-5],
])
REFERENCE_PSEUDO = np.array([
    [0.328, 0.338, 0.333],
    [0.447, 0.105, 0.447],
    [0.098, 0.767, 0.135],
    [0.295, 0.103, 0.603],
])
REFERENCE_TARGETS = np.array([
    [1 / 3, 1 / 3, 1 / 3],
    [0.8, 0.1, 0.1],
    [0.1, 0.8, 0.1],
    [0.1, 0.1, 0.8],
])


def reference_archive():
    designs = np.repeat(np.arange(4.0)[:, None], 13, axis=1)
    return pareto.nondominated_filter(designs, REFERENCE_ROWS)


class TestDominates:
    def test_simple(self):
        assert oracles.dominates([1, 2, 3], [2, 2, 3])

    def test_not_self(self):
        y = np.array([1.0, 2.0, 3.0])
        assert not oracles.dominates(y, y)

    def test_incomparable(self):
        assert not oracles.dominates([1, 3, 1], [2, 2, 2])
        assert not oracles.dominates([2, 2, 2], [1, 3, 1])

    @settings(max_examples=200)
    @given(finite_vec, finite_vec, finite_vec)
    def test_strict_partial_order(self, a, b, c):
        assert not oracles.dominates(a, a)
        if oracles.dominates(a, b):
            assert not oracles.dominates(b, a)
        if oracles.dominates(a, b) and oracles.dominates(b, c):
            assert oracles.dominates(a, c)


def tied_objectives(rng, n: int, m: int, levels: int = 4) -> np.ndarray:
    """Unsorted rows on an integer grid of the given levels per column:
    exact ties in every column, duplicate rows, signed zeros and, in some
    sets, infinite entries."""
    ys = rng.integers(-1, levels - 1, size=(n, m)).astype(float)
    ys[rng.random(ys.shape) < 0.2] *= -1.0
    if rng.random() < 0.3:
        ys[rng.random(ys.shape) < 0.05] = rng.choice([np.inf, -np.inf])
    repeat = rng.integers(0, n, size=n // 4)
    ys[rng.permutation(n)[:n // 4]] = ys[repeat]
    return ys


class TestDominatedMask:
    def test_matches_broadcast_oracle(self):
        rng = np.random.default_rng(5)
        for m in (1, 2, 3):
            sizes = [1, 2, 3, 7, 40, 200, 2000] + [int(v) for v in rng.integers(1, 60, 40)]
            for n, levels in [(n, 4) for n in sizes] + [(2000, 40)]:
                ys = tied_objectives(rng, n, m, levels)
                assert np.array_equal(pareto.dominated_mask(ys),
                                      oracles.dominance(ys, ys).any(axis=0))

    def test_equal_rows_do_not_dominate_each_other(self):
        ys = np.array([[0.0, 1.0, 2.0], [-0.0, 1.0, 2.0], [0.0, 1.0, 2.0]])
        assert not pareto.dominated_mask(ys).any()
        ys = np.vstack([ys, [[0.0, 1.0, 1.0]]])
        assert pareto.dominated_mask(ys).tolist() == [True, True, True, False]

    def test_empty_and_too_many_objectives(self):
        assert pareto.dominated_mask(pareto.ParetoArchive().objectives).shape == (0,)
        with pytest.raises(ValueError):
            pareto.dominated_mask(np.zeros((2, 4)))


def brute_force_front(ys):
    keep = []
    for i, y in enumerate(ys):
        if not any(oracles.dominates(y2, y) for j, y2 in enumerate(ys) if j != i):
            keep.append(i)
    return {tuple(ys[i]) for i in keep}


def tuple_reference_filter(xs, ys):
    """The filter with Python tuple keys: the smallest design per exact
    objective vector (first one on equal designs), dominated rows dropped,
    sorted by (objectives, design)."""
    best = {}
    for x, y in zip(xs, ys):
        key = tuple(y)
        if key not in best or tuple(x) < tuple(best[key][0]):
            best[key] = (x, y)
    kept = list(best.values())
    ys = np.array([y for _, y in kept])
    dominated = oracles.dominance(ys, ys).any(axis=0)
    kept = sorted((e for e, d in zip(kept, dominated) if not d),
                  key=lambda e: (tuple(e[1]), tuple(e[0])))
    return np.array([x for x, _ in kept]), np.array([y for _, y in kept])


class TestNondominatedFilter:
    def test_matches_tuple_reference_bitwise(self):
        # small integer grids give exact objective ties, repeated rows and,
        # with some entries negated, signed zeros; then larger unsorted
        # 2- and 3-objective sets, some on a finer grid
        rng = np.random.default_rng(17)
        cases = []
        for _ in range(300):
            n = int(rng.integers(1, 40))
            xs = rng.integers(-1, 2, size=(n, 3)).astype(float)
            ys = rng.integers(-1, 3, size=(n, 3)).astype(float)
            xs[rng.random(xs.shape) < 0.2] *= -1.0
            ys[rng.random(ys.shape) < 0.2] *= -1.0
            repeat = rng.integers(0, n, size=n // 3)
            xs[:n // 3], ys[:n // 3] = xs[repeat], ys[repeat]
            cases.append((xs, ys))
        for m in (2, 3):
            for n, levels in ((300, 4), (2000, 40)):
                cases.append((rng.integers(-1, 2, size=(n, 2)).astype(float),
                              tied_objectives(rng, n, m, levels)))
        # 3000 rows on 30 objective vectors, 13 design columns that differ
        # only in the last four (signed zeros there too): the designs alone
        # decide which row of each run of equal objectives is kept
        xs = np.zeros((3000, 13))
        xs[:, 9:] = rng.integers(-1, 2, size=(3000, 4))
        xs[rng.random(xs.shape) < 0.2] *= -1.0
        cases.append((xs, tied_objectives(rng, 30, 3)[rng.integers(0, 30, 3000)]))
        for xs, ys in cases:
            archive = pareto.nondominated_filter(xs, ys)
            ref_xs, ref_ys = tuple_reference_filter(xs, ys)
            assert archive.designs.tobytes() == ref_xs.tobytes()
            assert archive.objectives.tobytes() == ref_ys.tobytes()

    def test_simple_domination(self):
        archive = pareto.nondominated_filter(
            np.array([np.zeros(2), np.ones(2)]),
            np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]]))
        assert len(archive) == 1
        assert archive.objectives[0] == pytest.approx([1, 1, 1])

    def test_incomparable_set_unchanged(self):
        ys = [np.array([1.0, 3.0, 2.0]), np.array([2.0, 1.0, 3.0]),
              np.array([3.0, 2.0, 1.0])]
        archive = pareto.nondominated_filter(np.zeros((3, 1)), np.array(ys))
        assert len(archive) == 3

    def test_matches_brute_force_on_random_sets(self):
        rng = np.random.default_rng(13)
        pairs = [(rng.random(2), rng.integers(0, 6, size=3).astype(float))
                 for _ in range(500)]
        xs, ys = map(np.array, zip(*pairs))
        archive = pareto.nondominated_filter(xs, ys)
        got = {tuple(y) for y in archive.objectives}
        assert got == brute_force_front(ys)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        pairs = [(rng.random(3), rng.random(3)) for _ in range(40)]
        xs, ys = map(np.array, zip(*pairs))
        a = pareto.nondominated_filter(xs, ys)
        b = pareto.nondominated_filter(xs[::-1], ys[::-1])
        assert len(a) == len(b)
        assert np.array_equal(a.objectives, b.objectives)
        assert np.array_equal(a.designs, b.designs)

    def test_objective_ties_deduplicated_lexicographically(self):
        y = np.array([1.0, 2.0, 3.0])
        archive = pareto.nondominated_filter(np.array([[2.0, 0.0], [1.0, 9.0]]),
                                             np.array([y, y]))
        assert len(archive) == 1
        assert archive.designs[0] == pytest.approx([1.0, 9.0])

    def test_incremental_insert_matches_batch(self):
        rng = np.random.default_rng(3)
        pairs = [(rng.random(2), rng.integers(0, 5, size=3).astype(float))
                 for _ in range(300)]
        xs, ys = map(np.array, zip(*pairs))
        batch = pareto.nondominated_filter(xs, ys)
        incremental = pareto.ParetoArchive()
        for start in range(0, 300, 37):
            incremental = pareto.archive_insert(
                incremental, xs[start:start + 37], ys[start:start + 37])
        assert len(batch) == len(incremental)
        assert np.array_equal(batch.objectives, incremental.objectives)
        assert np.array_equal(batch.designs, incremental.designs)


class TestNormalization:
    def test_ideal_maps_to_zero(self):
        archive = reference_archive()
        normalized = pareto.normalize_front(archive)
        assert not np.all(normalized == 0.0, axis=0).any()
        assert normalized.min(axis=0) == pytest.approx([0, 0, 0], abs=1e-15)
        assert normalized.max(axis=0) == pytest.approx([1, 1, 1], abs=1e-15)

    def test_two_entries_complementary(self):
        archive = pareto.nondominated_filter(
            np.array([[0.0], [1.0]]), np.array([[1.0, 5.0, 2.0], [3.0, 1.0, 1.0]]))
        normalized = pareto.normalize_front(archive)
        assert sorted(normalized[:, 0].tolist()) == [0.0, 1.0]
        assert normalized[0] + normalized[1] == pytest.approx([1, 1, 1])

    def test_degenerate_axis_flagged(self):
        archive = pareto.nondominated_filter(
            np.array([[0.0], [1.0]]), np.array([[1.0, 5.0, 2.0], [3.0, 1.0, 2.0]]))
        normalized = pareto.normalize_front(archive)
        assert np.all(normalized == 0.0, axis=0).tolist() == [False, False, True]
        assert np.all(normalized[:, 2] == 0.0)

    def test_empty_archive_raises(self):
        with pytest.raises(pareto.EmptyArchive):
            pareto.normalize_front(pareto.ParetoArchive())


class TestPseudoWeights:
    def test_reference_row_uniform(self):
        w = pareto.pseudo_weights(REFERENCE_ROWS[:1])[0]
        assert w == pytest.approx(REFERENCE_PSEUDO[0], abs=5e-4)

    def test_reference_row_compliance(self):
        w = pareto.pseudo_weights(REFERENCE_ROWS[2:3])[0]
        assert w == pytest.approx(REFERENCE_PSEUDO[2], abs=5e-4)

    def test_symmetric_input(self):
        for t in (0.0, 0.4, 0.99):
            w = pareto.pseudo_weights(np.array([[t, t, t]]))[0]
            assert w == pytest.approx([1 / 3] * 3, rel=1e-12)

    def test_all_nadir_raises(self):
        with pytest.raises(pareto.DegenerateInput):
            pareto.pseudo_weights(np.array([[1.0, 1.0, 1.0]]))

    @settings(max_examples=100)
    @given(st.lists(st.floats(0, 0.999), min_size=3, max_size=3))
    def test_sums_to_one_nonnegative(self, values):
        w = pareto.pseudo_weights(np.array([values]))[0]
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(w >= 0.0)


class TestSelectByTarget:
    def test_reference_pairings(self):
        archive = reference_archive()
        for target, expected_row in zip(REFERENCE_TARGETS, range(4)):
            index = pareto.select_by_target(archive, target)
            assert int(archive.designs[index][0]) == expected_row

    def test_singleton_archive(self):
        archive = pareto.nondominated_filter(np.zeros((1, 1)), np.array([[1.0, 2.0, 3.0]]))
        index = pareto.select_by_target(archive, np.array([0.2, 0.3, 0.5]))
        assert index == 0

    def test_empty_raises(self):
        with pytest.raises(pareto.EmptyArchive):
            pareto.select_by_target(pareto.ParetoArchive(), np.ones(3) / 3)

    def test_scale_invariance_of_selection(self):
        # selection consumes normalized values only, so positive affine
        # rescaling of raw objectives must not change the chosen entry
        rng = np.random.default_rng(5)
        ys = rng.random((12, 3))
        xs = np.arange(12.0)[:, None]
        archive = pareto.nondominated_filter(xs, ys)
        target = np.array([0.5, 0.2, 0.3])
        base = archive.designs[pareto.select_by_target(archive, target)]
        scale = np.array([3.0, 0.02, 40.0])
        shift = np.array([10.0, -1.0, 5.0])
        other_archive = pareto.nondominated_filter(xs, ys * scale + shift)
        other = other_archive.designs[pareto.select_by_target(other_archive, target)]
        assert np.array_equal(other, base)


class TestHypervolume:
    def test_single_origin_point(self):
        assert pareto.hypervolume(np.array([[0.0, 0.0, 0.0]]),
                                  np.array([1.0, 1.0, 1.0])) == pytest.approx(1.0)

    def test_single_midpoint(self):
        assert pareto.hypervolume(np.array([[0.5, 0.5, 0.5]]),
                                  np.array([1.0, 1.0, 1.0])) == pytest.approx(0.125)

    def test_point_beyond_reference_ignored(self):
        points = np.array([[0.5, 0.5, 1.5], [0.25, 0.25, 0.25]])
        assert pareto.hypervolume(points, np.ones(3)) == pytest.approx(0.75 ** 3)

    def test_2d_staircase(self):
        points = np.array([[0.0, 0.5], [0.5, 0.0]])
        assert pareto.hypervolume(points, np.array([1.0, 1.0])) == pytest.approx(0.75)

    def test_matches_per_level_oracle(self):
        rng = np.random.default_rng(8)
        for case in range(600):
            m = 2 + case % 2
            n = int(rng.integers(0, 30))
            if case % 3:
                # a coarse grid: duplicate z levels, ties, dominated points
                # and points on the reference
                points = rng.integers(0, 6, size=(n, m)) / 5.0
            else:
                points = rng.random((n, m)) * 1.2  # some beyond the reference
            reference = np.ones(m)
            expected = oracles.hypervolume(points, reference)
            got = pareto.hypervolume(points, reference)
            assert got == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            points = rng.random((10, 3)) * 0.95
            reference = np.ones(3)
            hv = pareto.hypervolume(points, reference)
            n = 1_000_000
            samples = rng.random((n, 3))
            dominated = np.zeros(n, dtype=bool)
            for p in points:
                dominated |= np.all(samples >= p, axis=1)
            estimate = dominated.mean()
            sigma = np.sqrt(max(estimate * (1 - estimate), 1e-12) / n)
            assert abs(hv - estimate) < 3 * sigma + 1e-9


class TestArchiveCsv:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        pairs = [(rng.random(13), rng.random(3)) for _ in range(8)]
        archive = pareto.nondominated_filter(*map(np.array, zip(*pairs)))
        path = tmp_path / "archive.csv"
        pareto.write_archive_csv(path, archive)
        back = pareto.read_archive_csv(path)
        assert len(back) == len(archive)
        assert np.array_equal(archive.designs, back.designs)
        assert np.array_equal(archive.objectives, back.objectives)
        sidecar = pareto.sidecar_path(path)
        assert sidecar.exists()

    def test_missing_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="missing columns"):
            pareto.read_archive_csv(path)

    def test_file_row_order_kept(self, tmp_path):
        # canonical order would put the second row first; row indices given
        # to select/refine --row must stay file rows
        rows = [[3.0, 1.0, 2.0], [1.0, 3.0, 2.0], [2.0, 2.0, 1.0]]
        lines = [",".join([*DESIGN_FIELDS, *pareto.OBJECTIVE_FIELDS])]
        lines += [",".join([str(0.1 * i)] * len(DESIGN_FIELDS) + [repr(v) for v in y])
                  for i, y in enumerate(rows)]
        path = tmp_path / "archive.csv"
        path.write_text("\n".join(lines) + "\n")
        archive = pareto.read_archive_csv(path)
        assert archive.objectives.tolist() == rows
        assert archive.designs[:, 0].tolist() == [0.0, 0.1, 0.2]

    @pytest.mark.parametrize("rows, message", [
        ([[1.0, 2.0, 3.0], [float("nan"), 1.0, 1.0]], "row 1 holds a non-finite"),
        ([[1.0, 2.0, 3.0], [3.0, 1.0, float("inf")]], "row 1 holds a non-finite"),
        ([[1.0, 2.0, 3.0], [3.0, 1.0, 1.0], [2.0, 2.0, 3.0]], "row 2 is dominated"),
        ([[1.0, 2.0, 3.0], [3.0, 1.0]], "row 1 has fewer fields"),
    ])
    def test_invalid_rows_rejected(self, tmp_path, rows, message):
        lines = [",".join([*DESIGN_FIELDS, *pareto.OBJECTIVE_FIELDS])]
        lines += [",".join(["0.5"] * len(DESIGN_FIELDS) + [repr(v) for v in y])
                  for y in rows]
        path = tmp_path / "archive.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=message):
            pareto.read_archive_csv(path)
