import hashlib
import math
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
import pytest

from crosshinge import beam_fem, moo, pareto
import oracles
from zdt import ZDT1, BandedZDT1, RoundedBandedZDT1, generational_distance

# the largest member count whose float64 distance rows fit one row block
ONE_BLOCK = math.isqrt(moo._BLOCK_BYTES // 8)


@dataclass(frozen=True)
class Sphere:
    """Single-objective sanity problem duplicated into two objectives."""

    n_var: int = 10

    @property
    def lower(self):
        return np.zeros(self.n_var)

    @property
    def upper(self):
        return np.ones(self.n_var)

    def __call__(self, x):
        f = float(np.sum(x ** 2))
        return moo.Evaluation(y=np.array([f, f]), feasible=True)


class TestConfig:
    def test_defaults_match_reference_campaign(self):
        cfg = moo.MooConfig()
        assert cfg.population == 500
        assert cfg.generations == 1000

    def test_odd_population_rejected(self):
        with pytest.raises(moo.ConfigError):
            moo.MooConfig(population=41).validated()

    def test_bad_probability_rejected(self):
        with pytest.raises(moo.ConfigError):
            moo.MooConfig(crossover_prob=1.5).validated()

    @pytest.mark.parametrize("field", ["crossover_eta", "mutation_eta"])
    def test_nan_distribution_index_rejected(self, field):
        with pytest.raises(moo.ConfigError):
            moo.MooConfig(**{field: float("nan")}).validated()

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(moo.ConfigError):
            moo.MooConfig(algorithm="moead").validated()


class TestVariation:
    def setup_method(self):
        self.lower = np.zeros(5)
        self.upper = np.ones(5)

    def test_no_variation_returns_parents(self):
        cfg = moo.MooConfig(population=4, crossover_prob=0.0, mutation_prob=0.0)
        rng = np.random.default_rng(0)
        parents = np.random.default_rng(1).random((6, 5))
        offspring = moo.variation(parents, cfg, rng, self.lower, self.upper)
        assert offspring == pytest.approx(parents, abs=0.0)

    def test_offspring_within_bounds(self):
        cfg = moo.MooConfig(population=4)
        rng = np.random.default_rng(2)
        parents = np.random.default_rng(3).uniform(0, 1, (100_000, 5))
        offspring = moo.variation(parents, cfg, rng, self.lower, self.upper)
        assert np.all(offspring >= self.lower)
        assert np.all(offspring <= self.upper)

    def test_sbx_spread_variance_matches_density(self):
        # spread beta has density 0.5(eta+1) beta^eta on (0,1] and
        # 0.5(eta+1) beta^-(eta+2) beyond; compare empirical moments
        eta = 15.0
        rng = np.random.default_rng(4)
        p1 = np.full((200_000, 1), 0.3)
        p2 = np.full((200_000, 1), 0.7)
        c1, c2 = moo.sbx_crossover(p1, p2, 1.0, eta, rng)
        beta = (np.abs(c2 - c1) / 0.4).ravel()
        applied = np.abs(beta - 1.0) > 1e-9  # var-wise crossover hits half
        assert 0.45 < applied.mean() < 0.55
        mean_exact = 0.5 * (eta + 1) / (eta + 2) + 0.5 * (eta + 1) / eta
        var_exact = (0.5 * (eta + 1) / (eta + 3) + 0.5 * (eta + 1) / (eta - 1)
                     - mean_exact ** 2)
        sample = beta[applied]
        assert sample.mean() == pytest.approx(mean_exact, rel=5e-3)
        assert sample.var() == pytest.approx(var_exact, rel=0.05)


class TestConstraintDomination:
    def test_feasible_beats_infeasible(self):
        feas = moo.Evaluation(y=np.array([9.0, 9.0]), feasible=True)
        infeas = moo.Evaluation(y=None, feasible=False, violation=0.01)
        d = moo._domination_matrix(moo._keys([feas, infeas])[1])
        assert d[0, 1] and not d[1, 0]

    def test_infeasible_compare_by_violation(self):
        a = moo.Evaluation(y=None, feasible=False, violation=0.5)
        b = moo.Evaluation(y=None, feasible=False, violation=1.5)
        d = moo._domination_matrix(moo._keys([a, b])[1])
        assert d[0, 1] and not d[1, 0]

    @pytest.mark.parametrize("m", [2, 3])
    def test_matches_pairwise_oracle(self, m):
        # duplicate objective rows with signed zeros, equal violations, and
        # pools that are all feasible, all infeasible or mixed
        rng = np.random.default_rng(m)
        for _ in range(60):
            p_feasible = rng.choice([0.0, 0.5, 1.0])
            evals = []
            for _ in range(int(rng.integers(1, 40))):
                if rng.random() < p_feasible:
                    y = rng.integers(0, 3, size=m).astype(float)
                    y[rng.random(m) < 0.2] *= -1.0
                    evals.append(moo.Evaluation(y=y, feasible=True))
                else:
                    evals.append(moo.Evaluation(y=None, feasible=False,
                                                violation=float(rng.integers(0, 3))))
            np.testing.assert_array_equal(moo._domination_matrix(moo._keys(evals)[1]),
                                          oracles.domination_matrix(evals))
        # all-feasible pools of n = 255, 256 and 257 distinct rows reach rank
        # n - 1 in every objective column, across the uint8 -> uint16 rank
        # types; then a mixed and an all-infeasible pool (keys of one column)
        # with one record repeated twice and one three times
        pools = [(n, 1.0, 0) for n in (255, 256, 257)] + [(100, 0.8, 3), (100, 0.0, 3)]
        for n, p_feasible, repeats in pools:
            evals = []
            for _ in range(n - repeats):
                if rng.random() < p_feasible:
                    y = rng.random(m)
                    if repeats:
                        y[rng.random(m) < 0.1] = rng.choice([0.0, -0.0])
                    evals.append(moo.Evaluation(y=y, feasible=True))
                else:
                    evals.append(moo.Evaluation(y=None, feasible=False,
                                                violation=float(rng.random())))
            if repeats:
                pair, triple = rng.choice(n - repeats, size=2, replace=False)
                evals += [evals[pair], evals[triple], evals[triple]]
            evals = [evals[i] for i in rng.permutation(n)]
            np.testing.assert_array_equal(moo._domination_matrix(moo._keys(evals)[1]),
                                          oracles.domination_matrix(evals))

    def test_keys_all_infeasible_have_one_column(self):
        evals = [moo.Evaluation(y=None, feasible=False, violation=v) for v in (0.5, 0.0, 2.0)]
        feasible, keys = moo._keys(evals)
        assert feasible.dtype == bool and not feasible.any()
        assert keys.tolist() == [[0.5], [0.0], [2.0]]

    def test_keys_of_mixed_pool(self):
        # an infeasible record with zero violation still loses to every
        # feasible one: its objectives are inf
        evals = [moo.Evaluation(y=np.array([1.0, 2.0]), feasible=True),
                 moo.Evaluation(y=None, feasible=False, violation=0.0),
                 moo.Evaluation(y=np.array([2.0, 1.0]), feasible=True),
                 moo.Evaluation(y=None, feasible=False, violation=0.3),
                 moo.Evaluation(y=np.array([1.0, 2.0]), feasible=True)]
        feasible, keys = moo._keys(evals)
        assert feasible.tolist() == [True, False, True, False, True]
        assert keys.tolist() == [[0.0, 1.0, 2.0], [0.0, np.inf, np.inf], [0.0, 2.0, 1.0],
                                 [0.3, np.inf, np.inf], [0.0, 1.0, 2.0]]
        np.testing.assert_array_equal(moo._domination_matrix(keys),
                                      oracles.domination_matrix(evals))

    def test_feasible_rank_before_infeasible(self):
        rng = np.random.default_rng(9)
        evals = []
        for _ in range(40):
            if rng.random() < 0.5:
                evals.append(moo.Evaluation(y=rng.random(3), feasible=True))
            else:
                evals.append(moo.Evaluation(y=None, feasible=False,
                                            violation=float(rng.random())))
        ranks = moo.fast_nondominated_sort(*moo._keys(evals))
        worst_feasible = max((r for r, e in zip(ranks, evals) if e.feasible),
                             default=-1)
        best_infeasible = min((r for r, e in zip(ranks, evals) if not e.feasible),
                              default=np.inf)
        assert worst_feasible < best_infeasible


def _feasible(y):
    return moo.Evaluation(y=np.asarray(y, dtype=float), feasible=True)


def _infeasible(violation):
    return moo.Evaluation(y=None, feasible=False, violation=float(violation))


class TestNsga2Keys:
    def _assert_matches_oracle(self, evals):
        feasible, keys = moo._keys(evals)
        got = moo._nsga2_keys(feasible, keys)
        assert got.tobytes() == oracles.nsga2_keys(feasible, keys).tobytes()

    @pytest.mark.parametrize("m", [2, 3])
    def test_matches_per_front_oracle_on_random_pools(self, m):
        # few distinct objective values and violations: duplicate keys,
        # signed zeros, tied violations, fronts of every size
        rng = np.random.default_rng(30 + m)
        for _ in range(80):
            p_feasible = rng.choice([0.0, 0.3, 0.7, 1.0])
            evals = []
            for _ in range(int(rng.integers(1, 60))):
                if rng.random() < p_feasible:
                    y = rng.integers(0, 4, size=m).astype(float)
                    y[rng.random(m) < 0.2] *= -1.0
                    evals.append(_feasible(y))
                else:
                    evals.append(_infeasible(rng.choice([0.0, 0.5, 1.0, rng.random()])))
            self._assert_matches_oracle(evals)

    def test_tied_violations(self):
        self._assert_matches_oracle([_feasible([1, 2]), _infeasible(0.5), _feasible([2, 1]),
                                     _infeasible(0.5), _infeasible(0.0), _infeasible(0.5),
                                     _infeasible(0.0), _infeasible(0.5), _feasible([0, 3])])

    def test_all_infeasible(self):
        self._assert_matches_oracle([_infeasible(v) for v in (0.3, 0.1, 0.3, 0.3, 0.2, 0.1)])
        self._assert_matches_oracle([_infeasible(0.7)])

    def test_duplicate_keys(self):
        ys = [[1, 2, 3], [1, 2, 3], [0, 0, 5], [-0.0, 0, 5], [2, 2, 2], [1, 2, 3], [3, 1, 2]]
        self._assert_matches_oracle([_feasible(y) for y in ys] + [_infeasible(1.0)] * 3)

    def test_one_and_two_member_fronts(self):
        # a chain of single members, then pairs, then one-member infeasible
        # fronts of distinct violations
        chain = [_feasible([i, i]) for i in range(4)]
        pairs = [_feasible(y) for i in range(4, 7) for y in ([i, i + 0.5], [i + 0.5, i])]
        self._assert_matches_oracle(chain + pairs + [_infeasible(v) for v in (0.2, 0.1, 0.3)])


class TestNsga2Survivors:
    """Survivor selection ranks and crowds only the fronts that fill the
    population, and returns what ranking every front returns."""

    @staticmethod
    def _assert_matches_oracle(evals, size):
        feasible, keys = moo._keys(evals)
        got = moo._nsga2_survivors(feasible, keys, size)
        for have, want in zip(got, oracles.nsga2_survivors(feasible, keys, size)):
            assert have.dtype == want.dtype and have.shape == want.shape
            assert have.tobytes() == want.tobytes()

    @pytest.mark.parametrize("m", [2, 3])
    def test_sizes_around_front_boundaries(self, m):
        # small integer objectives give many fronts, duplicate keys and
        # signed zeros; each size sits one below, at and one above the
        # member count of fronts 0 to k
        rng = np.random.default_rng(40 + m)
        for _ in range(30):
            p_feasible = rng.choice([0.5, 0.8, 1.0])
            evals = []
            for _ in range(int(rng.integers(10, 80))):
                if rng.random() < p_feasible:
                    y = rng.integers(0, 6, size=m).astype(float)
                    y[rng.random(m) < 0.1] *= -1.0
                    evals.append(_feasible(y))
                else:
                    evals.append(_infeasible(rng.choice([0.5, 1.0, rng.random()])))
            ranks = oracles.nsga2_keys(*moo._keys(evals))[:, 0].astype(int)
            for filled in np.cumsum(np.bincount(ranks))[:-1]:
                for size in (filled - 1, filled, filled + 1):
                    if size >= 1:
                        self._assert_matches_oracle(evals, size)

    def test_front_zero_larger_than_size(self):
        front = [_feasible([i, 29 - i]) for i in range(30)]
        dominated = [_feasible([i + 1, 30 - i]) for i in range(0, 30, 3)]
        for size in (1, 4, 10, 29):
            self._assert_matches_oracle(front + dominated + [_infeasible(0.2)], size)

    def test_size_at_least_the_pool(self):
        evals = [_feasible([i % 4, 3 - i % 4 + i // 4]) for i in range(12)]
        evals += [_infeasible(v) for v in (0.3, 0.1, 0.3)]
        for size in (len(evals), len(evals) + 3):
            self._assert_matches_oracle(evals, size)

    def test_all_infeasible_and_one_feasible(self):
        infeasible = [_infeasible(v) for v in (0.3, 0.1, 0.3, 0.3, 0.2, 0.1)]
        for evals in (infeasible, infeasible[:3] + [_feasible([1.0, 2.0])] + infeasible[3:]):
            for size in (1, 2, 3, len(evals)):
                self._assert_matches_oracle(evals, size)

    def test_peeling_stops_at_the_front_that_fills_the_population(self, monkeypatch):
        # ten nested fronts of 20 members (y1 + y2 = 19 + 2 f on front f) and
        # 5 infeasible members: 50 survivors fill up on front 2, which the
        # peel of front 1 ranks, so only fronts 0 and 1 are peeled
        evals = [_feasible([i + f, 19 - i + f]) for f in range(10) for i in range(20)]
        evals += [_infeasible(v) for v in (0.1, 0.2, 0.2, 0.3, 0.4)]
        rows, counts = [], moo._counts
        monkeypatch.setattr(moo, "_counts", lambda d, axis: rows.append(len(d)) or counts(d, axis))
        self._assert_matches_oracle(evals, 50)
        assert rows[0] == len(evals)  # every member's dominator count
        assert sum(rows[1:]) == 40


class TestDominationCounts:
    @staticmethod
    def pools(n):
        # n members each: a mixed pool whose first member dominates every
        # other and whose last, the largest violation, every other
        # dominates; an all-feasible pool with a member every other
        # dominates; an all-infeasible pool of distinct violations
        rng = np.random.default_rng(n)
        front = [_feasible([t, 1.0 - t]) for t in np.round(rng.random(n - 2), 2)]
        infeasible = [_infeasible(v) for v in np.round(rng.random(n // 4), 2)]
        mixed = [_feasible([-1.0, -1.0]), *front[:n - 2 - len(infeasible)], *infeasible,
                 _infeasible(2.0)]
        feasible = [_feasible([-1.0, -1.0]), *front, _feasible([10.0, 10.0])]
        return mixed, feasible, [_infeasible(v) for v in rng.permutation(n)]

    @pytest.mark.parametrize("n", [255, 256, 257])
    def test_byte_counts_equal_bool_sums(self, n):
        # at n = 255 the counts are uint8 and reach 255 on a full matrix,
        # from 256 on uint16
        full = np.ones((n, n), dtype=bool)
        for d in [full, full[:7]] + [moo._domination_matrix(moo._keys(evals)[1])
                                     for evals in self.pools(n)]:
            for axis in (0, 1):
                assert np.array_equal(moo._counts(d, axis), d.sum(axis=axis))
                assert moo._counts(d, axis).dtype == np.min_scalar_type(d.shape[axis])
            if d is not full and d.shape == full.shape:
                assert d.sum(axis=0).max() == d.sum(axis=1).max() == n - 1

    @pytest.mark.parametrize("n", [255, 256, 257])
    def test_sort_and_fitness_match_oracles(self, n):
        # unsigned counts meet the -1 sentinel of the retired and infeasible
        # members only after their cast to intp: numpy 2 rejects -1 as uint8
        # or uint16
        for evals in self.pools(n):
            feasible, keys = moo._keys(evals)
            expected = oracles.nsga2_keys(feasible, keys)
            assert (moo.fast_nondominated_sort(feasible, keys).tobytes()
                    == expected[:, 0].astype(np.int64).tobytes())
            assert moo._nsga2_keys(feasible, keys).tobytes() == expected.tobytes()
            chosen, fitness = oracles.spea2_environmental(evals, n)
            assert sorted(chosen) == list(range(n))
            assert moo._spea2_fitness(feasible, keys, n)[chosen].tobytes() == fitness.tobytes()


class TestSelectionMemory:
    @staticmethod
    def mixed_pool():
        # a mixed pool of 1,000: a non-dominated front of 500 on the DTLZ2
        # sphere, 300 members it dominates and 200 infeasible ones with
        # tied violations, so SPEA2 keeps the front without truncating
        rng = np.random.default_rng(5)
        u = rng.random((500, 2)) * np.pi / 2
        ys = np.column_stack([np.cos(u[:, 0]) * np.cos(u[:, 1]),
                              np.cos(u[:, 0]) * np.sin(u[:, 1]), np.sin(u[:, 0])])
        ys = np.concatenate([ys, ys[:300] + rng.random((300, 3))])
        evals = [_feasible(y) for y in ys] + [_infeasible(v)
                                             for v in np.round(rng.random(200), 2)]
        return [evals[i] for i in rng.permutation(1000)]

    def test_traced_peak_stays_near_one_bool_matrix(self):
        # the n x n bool domination matrix is the one large array a
        # selection holds, every other temporary a row block
        evals = self.mixed_pool()
        n = len(evals)
        for survivors in (moo._nsga2_survivors, moo._spea2_environmental):
            survivors(*moo._keys(evals), n // 2)  # first-call allocations are not per generation
            tracemalloc.start()
            try:
                survivors(*moo._keys(evals), n // 2)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1.6 * n * n, (survivors.__name__, peak)

    @pytest.mark.parametrize("size", [500, 700])
    def test_density_rows_only_for_members_selection_can_return(self, monkeypatch, size):
        # a member whose raw fitness lies above the size-th smallest cannot
        # enter the archive, so its distance row is never computed: at 500
        # the cutoff is 0 and the rows are the front's 500; at 700 they
        # add the dominated members that compete for the last 200 places
        evals = self.mixed_pool()
        d = moo._domination_matrix(moo._keys(evals)[1])
        raw = d.sum(axis=1).astype(float) @ d
        expected = np.flatnonzero(raw <= np.sort(raw)[size - 1])
        assert size <= len(expected) < len(evals)
        computed = []
        distance_blocks = moo._distance_blocks

        def recording(*args):
            for part, block in distance_blocks(*args):
                computed.extend(np.nonzero(np.isinf(block))[1])  # each row's own column
                yield part, block

        monkeypatch.setattr(moo, "_distance_blocks", recording)
        moo._spea2_environmental(*moo._keys(evals), size)
        assert np.array_equal(computed, expected)

    @pytest.mark.parametrize("algorithm", ["nsga2", "spea2"])
    def test_run_peak_does_not_grow_with_generations(self, algorithm):
        # a run holds its pool, offspring and archive, not a record of every
        # design it evaluated: ten times the generations, nearly the same
        # peak. Sphere's archive is one point; ZDT1's would grow to ~1,500
        # points over 200 generations, which the archive is meant to keep
        def traced_peak(generations):
            tracemalloc.start()
            try:
                moo.run(moo.MooConfig(algorithm=algorithm, population=40,
                                      generations=generations, seed=1), Sphere(n_var=6))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        traced_peak(20)  # first-call allocations are not per generation
        short, long = traced_peak(20), traced_peak(200)
        assert long - short < 0.25 * 2**20, (short, long)


class TestMergeArchives:
    def _random_archive(self, rng, n):
        pairs = [(rng.random(4), rng.integers(0, 6, 3).astype(float))
                 for _ in range(n)]
        return pareto.nondominated_filter(*map(np.array, zip(*pairs)))

    def test_merge_with_empty_is_identity(self):
        rng = np.random.default_rng(1)
        a = self._random_archive(rng, 20)
        merged = moo.merge_archives(a, pareto.ParetoArchive())
        assert len(merged) == len(a)
        assert np.array_equal(a.objectives, merged.objectives)
        assert len(moo.merge_archives(pareto.ParetoArchive(), a)) == len(a)

    def test_merge_idempotent(self):
        rng = np.random.default_rng(2)
        a = self._random_archive(rng, 20)
        merged = moo.merge_archives(a, a)
        assert len(merged) == len(a)

    def test_merge_equals_brute_force_union(self):
        rng = np.random.default_rng(3)
        a = self._random_archive(rng, 30)
        b = self._random_archive(rng, 30)
        merged = moo.merge_archives(a, b)
        brute = pareto.nondominated_filter(np.concatenate([a.designs, b.designs]),
                                           np.concatenate([a.objectives, b.objectives]))
        assert len(merged) == len(brute)
        assert np.array_equal(merged.objectives, brute.objectives)
        assert np.array_equal(merged.designs, brute.designs)


class TestSpea2Selection:
    def test_truncation_hits_exact_size_with_duplicate_distances(self):
        # mutually non-dominated grid points with many equal pairwise gaps
        evals = [moo.Evaluation(y=np.array([float(i), float(9 - i)]), feasible=True)
                 for i in range(10)]
        for size in (3, 5, 8):
            chosen, fitness, _ = moo._spea2_environmental(*moo._keys(evals), size)
            assert len(chosen) == size
            assert fitness.shape == (size, 1)

    @pytest.mark.parametrize("seed, n", [*(pytest.param(seed, None, id=str(seed))
                                           for seed in range(6)),
                                         pytest.param(6, 150, id="n150"),
                                         pytest.param(7, 256, id="n256")])
    def test_truncation_matches_resorting_oracle(self, seed, n):
        # rounded coordinates give tied distances; infeasible members sit
        # beyond the feasible cloud at their violation; n = 150 and n = 256
        # span two and five distance blocks, and from n = 256 on the
        # neighbour table holds uint16
        assert n is None or n > ONE_BLOCK
        rng = np.random.default_rng(seed)
        n, m = n or int(rng.integers(20, 60)), int(rng.integers(2, 4))
        evals = [moo.Evaluation(y=np.round(rng.random(m), 1), feasible=True)
                 for _ in range(n)]
        evals += [moo.Evaluation(y=None, feasible=False, violation=v)
                  for v in np.round(rng.random(int(rng.integers(0, 6))), 1)]
        feasible, keys = moo._keys(evals)
        for size in (1, len(evals) // 2, len(evals) - 1, len(evals)):
            np.testing.assert_array_equal(moo._spea2_truncate(feasible, keys, size),
                                          oracles.spea2_truncate(evals, size))

    @pytest.mark.parametrize("n", [2, 3, 40, 64, 65, ONE_BLOCK, ONE_BLOCK + 1, 200])
    def test_blocked_kth_distance_matches_full_matrix(self, n):
        # up to ONE_BLOCK the rows fit one block, exactly at ONE_BLOCK; one
        # more needs two, and 200 several, the last one short; rounded
        # coordinates give tied and zero distances; the blocks hold squared
        # distances, so the selected values are rooted
        rng = np.random.default_rng(n)
        evals = [moo.Evaluation(y=np.round(rng.random(3), 1), feasible=True)
                 for _ in range(n - n // 5)]
        evals += [moo.Evaluation(y=None, feasible=False, violation=v)
                  for v in np.round(rng.random(n // 5), 1)]
        coords = moo._density_coordinates(*moo._keys(evals))
        dist = oracles.distances(coords)
        # a subset of rows in no order: at n = 200 its 150 rows span two
        # blocks of 80, and its slices index it
        rows = rng.permutation(n)[:3 * n // 4]
        for k in sorted({1, max(1, round(np.sqrt(n))), n - 1}):
            full = np.partition(dist, k - 1, axis=1)[:, k - 1]
            for subset in (None, rows):
                parts, kth = zip(*((part, np.partition(block, k - 1, axis=1)[:, k - 1])
                                   for part, block in moo._distance_blocks(coords, subset)))
                expected = full if subset is None else full[subset]
                assert np.sqrt(np.concatenate(kth)).tobytes() == expected.tobytes()
                assert np.array_equal(np.r_[parts], np.arange(len(expected)))

    @staticmethod
    def _assert_matches_oracle(evals, sizes):
        for size in sizes:
            chosen, fitness, _ = moo._spea2_environmental(*moo._keys(evals), size)
            want_chosen, want_fitness = oracles.spea2_environmental(evals, size)
            assert chosen.dtype == want_chosen.dtype and fitness.shape == want_fitness.shape
            assert chosen.tobytes() == want_chosen.tobytes(), size
            assert fitness.tobytes() == want_fitness.tobytes(), size

    @pytest.mark.parametrize("seed, n", [*((seed, None) for seed in range(6)),
                                         (6, ONE_BLOCK + 24)])
    def test_selection_matches_full_matrix_oracle(self, seed, n):
        # rounded coordinates give tied raw fitness and tied distances;
        # sizes run from truncation through the exact fit of the
        # non-dominated members, fill mode, the whole pool and beyond it
        rng = np.random.default_rng(seed)
        n, m = n or int(rng.integers(20, 60)), int(rng.integers(2, 4))
        evals = [_feasible(np.round(rng.random(m), 1)) for _ in range(n)]
        evals += [_infeasible(v) for v in np.round(rng.random(int(rng.integers(0, 8))), 1)]
        front = int(np.sum(oracles.spea2_environmental(evals, len(evals))[1] < 1.0))
        assert 1 < front < len(evals)
        self._assert_matches_oracle(evals, sorted({2, front - 1, front, front + 1,
                                                   (front + len(evals)) // 2,
                                                   len(evals) - 1, len(evals),
                                                   len(evals) + 3}))

    def test_raw_ties_at_the_cutoff(self):
        # a front of 6, then dominated members in groups of equal raw
        # fitness: 4 points that only (1, 4) dominates, whose densities
        # differ and order them against their index order, 4 copies of one
        # point, and infeasible members with tied violations; most sizes
        # cut through a tied group
        front = [_feasible([i, 5 - i]) for i in range(6)]
        segment = [_feasible([a, 6.0 - a]) for a in (1.9, 1.2, 1.7, 1.5)]
        copies = [_feasible([3.5, 3.5])] * 4
        spread = [_feasible([2.0 + i, 6.0]) for i in range(4)]
        infeasible = [_infeasible(v) for v in (0.3, 0.1, 0.3, 0.3, 0.1, 0.3, 0.2)]
        evals = [*front, *copies, *segment, *spread, *infeasible]
        self._assert_matches_oracle(evals, [7, 8, 9, 10, 11, 13, 19, 22, 24, 25, 30])

    def test_all_infeasible_and_one_member(self):
        rng = np.random.default_rng(8)
        evals = [_infeasible(v) for v in np.round(rng.random(30), 1)]
        self._assert_matches_oracle(evals, [2, 5, 10, 29, 30, 40])
        self._assert_matches_oracle([_infeasible(0.5)], [1, 2])
        self._assert_matches_oracle([_feasible([1.0, 2.0])], [1, 2])

    def test_fill_from_dominated_when_underfull(self):
        ys = [np.array([0.0, 0.0]), np.array([1.0, 1.0]), np.array([2.0, 2.0])]
        evals = [moo.Evaluation(y=y, feasible=True) for y in ys]
        chosen, _, _ = moo._spea2_environmental(*moo._keys(evals), 2)
        assert len(chosen) == 2
        assert evals[chosen[0]].y == pytest.approx([0.0, 0.0])


def _tuple_tournament(keys, n_parents, rng):
    """The tournament as first written: a tuple comparator per pair."""
    picks = rng.integers(0, len(keys), size=(n_parents, 2))
    keys = [tuple(row) for row in keys.tolist()]
    return np.array([a if (keys[a], a) <= (keys[b], b) else b for a, b in picks])


class TestBinaryTournament:
    @pytest.mark.parametrize("columns", [1, 2])
    def test_matches_tuple_reference(self, columns):
        # few distinct values, so ties are common; the crowding column
        # holds -crowding as NSGA-II builds it, with +-0.0 and +-inf
        rng = np.random.default_rng(21)
        for trial in range(300):
            n = int(rng.integers(2, 25))
            first = rng.integers(0, 3, n).astype(float)
            crowding = rng.choice([0.0, -0.0, np.inf, -np.inf, 0.25, 1.5], n)
            keys = np.column_stack([first, crowding])[:, :columns]
            got_rng, ref_rng = np.random.default_rng(trial), np.random.default_rng(trial)
            got = moo._binary_tournament(keys, 16, got_rng)
            assert np.array_equal(got, _tuple_tournament(keys, 16, ref_rng))
            assert got_rng.random() == ref_rng.random()  # same draws


class TestRuns:
    def test_sphere_collapses_to_origin(self):
        cfg = moo.MooConfig(population=50, generations=100, seed=1)
        archive = moo.run(cfg, Sphere())
        assert archive.objectives.min() < 1e-3

    def test_nsga2_zdt1_converges(self):
        cfg = moo.MooConfig(population=60, generations=180, seed=5)
        archive = moo.run(cfg, ZDT1())
        assert generational_distance(archive) < 0.02

    def test_spea2_zdt1_converges(self):
        cfg = moo.MooConfig(algorithm="spea2", population=60, generations=180, seed=5)
        archive = moo.run(cfg, ZDT1())
        assert generational_distance(archive) < 0.02

    def test_fixed_seed_bitwise_deterministic(self):
        cfg = moo.MooConfig(population=20, generations=15, seed=11)
        a = moo.run(cfg, ZDT1(n_var=8))
        b = moo.run(cfg, ZDT1(n_var=8))
        assert len(a) == len(b)
        assert np.array_equal(a.designs, b.designs)
        assert np.array_equal(a.objectives, b.objectives)

    def test_parallel_matches_serial(self):
        config = moo.MooConfig(population=12, generations=5, seed=2)
        serial = moo.run(config, ZDT1(n_var=6))
        with ProcessPoolExecutor(2) as pool:
            parallel = moo.run(config, ZDT1(n_var=6),
                               engine=moo._EvaluationEngine(ZDT1(n_var=6), pool.map))
        assert len(serial) == len(parallel)
        assert np.array_equal(serial.designs, parallel.designs)
        assert np.array_equal(serial.objectives, parallel.objectives)

    def test_no_out_of_bounds_evaluations(self):
        calls = []

        @dataclass(frozen=True)
        class Recording:
            @property
            def lower(self):
                return np.zeros(4)

            @property
            def upper(self):
                return np.ones(4)

            def __call__(self, x):
                calls.append(x.copy())
                return moo.Evaluation(y=np.array([float(x[0]), float(x[1])]),
                                      feasible=True)

        cfg = moo.MooConfig(population=16, generations=8, seed=3)
        moo.run(cfg, Recording())
        stacked = np.array(calls)
        assert np.all(stacked >= 0.0) and np.all(stacked <= 1.0)

    def test_archive_hypervolume_nondecreasing(self):
        history = []
        cfg = moo.MooConfig(population=24, generations=30, seed=6)
        moo.run(cfg, ZDT1(n_var=10),
                progress=lambda s: history.append(s.hypervolume))
        diffs = np.diff(history)
        assert np.all(diffs >= -1e-12)


# SHA-256 of the write_archive_csv output of moo.run (population 12,
# 10 generations, seed 4, 6 variables). They pin the archives across
# commits, which same-commit reproducibility tests cannot: drift in
# variation, selection, the archive or the CSV format changes them.
PINNED_ARCHIVES = [
    ("nsga2", ZDT1, None,
     "cd2a8564d44c635be06ba45b60603314d6513c97e6f082df2ab42b9b46f2be43"),
    ("spea2", ZDT1, None,
     "673c8ebd1c59d057751017d31c5ba0674e61dfb48acff4b50297e7ad1ec61d5b"),
    ("nsga2", BandedZDT1, None,
     "f5b91828d60ea799e76992947716950dacb94b764a08ae1f6342aad24c472fbf"),
    ("spea2", BandedZDT1, None,
     "9ffb70907ac8d8a4a8a5b752bb24291addc43f15c5feb08669bcb02c53eb3df4"),
    ("spea2", BandedZDT1, 8,
     "b0558cd69e041e9886aef8e1886c3ff602d6d07c05585000ba8ab8336b4419db"),
]


class TestEvaluationEngine:
    """The engine keeps no records between calls: it maps each design of a
    batch once, unless the caller passes it as known."""

    @staticmethod
    def engine():
        maps, evaluated = [], []

        def recording_map(fn, items):
            items = list(items)
            maps.append([x.tolist() for x in items])
            return map(fn, items)

        def evaluator(x):
            evaluated.append(x.tolist())
            return moo.Evaluation(y=x + 1.0, feasible=True)

        return moo._EvaluationEngine(evaluator, recording_map), maps, evaluated

    def test_repeated_rows_mapped_once_in_first_occurrence_order(self):
        engine, maps, evaluated = self.engine()
        engine.evaluate(np.array([[2.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0],
                                  [1.0, 0.0]]))
        assert maps == [[[2.0, 0.0], [1.0, 0.0], [3.0, 0.0]]]
        assert evaluated == maps[0]

    def test_known_designs_not_mapped_and_returned_in_row_order(self):
        engine, maps, evaluated = self.engine()
        xs = np.array([[2.0, 0.0], [1.0, 0.0]])
        first = engine.evaluate(xs)
        known = {x.tobytes(): record for x, record in zip(xs, first)}
        again = engine.evaluate(np.array([[1.0, 0.0], [3.0, 0.0], [2.0, 0.0], [1.0, 0.0]]),
                                known)
        assert maps[1] == [[3.0, 0.0]] and len(evaluated) == 3
        assert again[0] is again[3] is first[1] and again[2] is first[0]
        assert again[1].y.tolist() == [4.0, 1.0]

    def test_records_align_with_rows(self):
        engine, _, _ = self.engine()
        engine.evaluate(np.array([[5.0, 5.0]]))
        xs = np.array([[4.0, 0.0], [5.0, 5.0], [4.0, 0.0], [0.5, 1.0]])
        records = engine.evaluate(xs)
        assert [r.y.tolist() for r in records] == (xs + 1.0).tolist()

    def test_computed_counts_designs_mapped(self):
        engine, _, evaluated = self.engine()
        for xs in ([[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [2.0, 0.0]], [], [[2.0, 0.0]]):
            engine.evaluate(np.array(xs).reshape(-1, 2))
            assert engine.computed == len(evaluated)
        assert engine.computed == 4


@dataclass(frozen=True)
class BatchedBandedZDT1(BandedZDT1):
    """BandedZDT1 with a batch call, as HingeEvaluator has."""

    def batch(self, xs):
        return [self(x) for x in xs]


class TestChunkedEngine:
    """An evaluator with a batch call is mapped over chunks of at most
    LOCKSTEP new designs, cut in index order from the deduplicated rows."""

    @staticmethod
    def recording_map(maps):
        def recording(fn, items):
            maps.append([np.array(chunk) for chunk in items])
            return map(fn, maps[-1])
        return recording

    def test_chunks_in_first_occurrence_order(self):
        maps = []
        engine = moo._EvaluationEngine(BatchedBandedZDT1(n_var=2), self.recording_map(maps))
        xs = np.array([[0.1 * i, 0.2] for i in (5, 1, 5, 2, 3, 4, 6, 1, 7, 8, 9, 0)])
        records = engine.evaluate(xs)
        (chunks,) = maps
        assert [len(chunk) for chunk in chunks] == [4, 3, 3]
        assert np.array_equal(np.concatenate(chunks), xs[[0, 1, 3, 4, 5, 6, 8, 9, 10, 11]])
        assert [r.y.tolist() for r in records] == [
            BatchedBandedZDT1(n_var=2)(x).y.tolist() for x in xs]
        # computed counts the designs mapped; known designs are not mapped
        assert engine.computed == 10
        engine.evaluate(xs[:3], {x.tobytes(): record for x, record in zip(xs, records)})
        assert len(maps) == 2 and maps[1] == [] and engine.computed == 10

    @pytest.mark.parametrize("algorithm", ["nsga2", "spea2"])
    def test_run_maps_chunks_and_writes_the_per_design_archive(self, tmp_path, algorithm):
        cfg = moo.MooConfig(algorithm=algorithm, population=14, generations=4, seed=4)
        maps = []
        engine = moo._EvaluationEngine(BatchedBandedZDT1(n_var=6), self.recording_map(maps))
        chunked = moo.run(cfg, BatchedBandedZDT1(n_var=6), engine=engine)
        assert len(maps) == 5
        for chunks in maps:
            sizes = [len(chunk) for chunk in chunks]
            assert max(sizes) <= beam_fem.LOCKSTEP
            assert max(sizes) - min(sizes) <= 1 and sizes == sorted(sizes, reverse=True)
        assert engine.computed == sum(len(chunk) for chunks in maps for chunk in chunks)
        plain = moo.run(cfg, BandedZDT1(n_var=6))
        for name, archive in (("chunked", chunked), ("plain", plain)):
            pareto.write_archive_csv(tmp_path / name, archive)
        assert (tmp_path / "chunked").read_bytes() == (tmp_path / "plain").read_bytes()


class TestGenerationLoop:
    @pytest.mark.parametrize("algorithm, problem, archive_size, digest", PINNED_ARCHIVES)
    def test_archive_digest_pinned(self, tmp_path, algorithm, problem, archive_size,
                                   digest):
        cfg = moo.MooConfig(algorithm=algorithm, population=12, generations=10,
                            seed=4, archive_size=archive_size)
        path = tmp_path / "archive.csv"
        pareto.write_archive_csv(path, moo.run(cfg, problem(n_var=6)))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_two_block_truncation_digest_pinned(self, tmp_path):
        # truncation fires 13 times on pools of 72 to 119 non-dominated
        # members, whose distance rows fit one block, while the density of
        # each 230-member pool spans four; the digest was taken with 64-row
        # blocks, so it also pins that the block size moves no byte
        cfg = moo.MooConfig(algorithm="spea2", population=160, generations=25,
                            seed=4, archive_size=70)
        path = tmp_path / "archive.csv"
        pareto.write_archive_csv(path, moo.run(cfg, ZDT1(n_var=6)))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "69b6eaa2f28a2e134c3124c4c5f34f7754c8527a63b3a597b886170eadfc01aa")

    def test_archive_larger_than_pool_digest_pinned(self, tmp_path):
        # an environmental archive of 20 is larger than the first pools (8
        # and 16 members) and smaller than the later ones (24); the digest
        # was taken before SPEA2's density skipped the members that cannot
        # be chosen
        cfg = moo.MooConfig(algorithm="spea2", population=8, generations=10,
                            seed=4, archive_size=20)
        path = tmp_path / "archive.csv"
        pareto.write_archive_csv(path, moo.run(cfg, ZDT1(n_var=6)))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "5abab6e6700a3174cd2f6959980900999796f68bdce09699898300be99abdddf")

    def test_front_larger_than_population_digest_pinned(self, tmp_path):
        # the pool's front 0 holds 14 of its 24 members at generation 30,
        # more than the 12 survivors; the digest was taken while the archive
        # was offered every feasible offspring and NSGA-II ranked every front
        cfg = moo.MooConfig(algorithm="nsga2", population=12, generations=30, seed=4)
        path = tmp_path / "archive.csv"
        pareto.write_archive_csv(path, moo.run(cfg, ZDT1(n_var=6)))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "2e7e1be8f8d648053d922becd8c209ba995f2c36215c220c8e304f57d0bea019")

    def test_rounded_objective_ties_digest_pinned(self, tmp_path):
        # objectives rounded to one decimal give different designs equal
        # objectives (the archive keeps the smallest design) next to an
        # infeasible band; both algorithms run in lock-step, and the digest
        # covers both archives, taken while every feasible offspring was offered
        configs = [moo.MooConfig(algorithm=algorithm, population=12, generations=10, seed=4)
                   for algorithm in ("nsga2", "spea2")]
        digest = hashlib.sha256()
        for archive in moo.run_together(configs, RoundedBandedZDT1(n_var=6, decimals=1)):
            pareto.write_archive_csv(tmp_path / "archive.csv", archive)
            digest.update((tmp_path / "archive.csv").read_bytes())
        assert digest.hexdigest() == (
            "169080d985bd5851bd95f45ffa0a394056907459982dc3394473c26df8f0a936")

    @pytest.mark.parametrize("algorithm", ["nsga2", "spea2"])
    def test_progress_counts_feasible_offspring(self, monkeypatch, algorithm):
        # each engine call evaluates one generation: the initial population,
        # then the offspring of every later generation
        batches = []
        evaluate = moo._EvaluationEngine.evaluate

        def recording(engine, xs, *args):
            batches.append(xs.copy())
            return evaluate(engine, xs, *args)

        monkeypatch.setattr(moo._EvaluationEngine, "evaluate", recording)
        # feasible only for x[-1] <= 0.2: early offspring are mostly
        # infeasible while the survivors fill up with feasible designs
        problem = BandedZDT1(n_var=6, band=(0.2, 2.0))
        stats = []
        moo.run(moo.MooConfig(algorithm=algorithm, population=12, generations=8,
                              seed=4), problem, progress=stats.append)
        assert [s.generation for s in stats] == list(range(9))
        expected = [sum(problem(x).feasible for x in xs) for xs in batches]
        assert [s.feasible for s in stats] == expected


class Waking:
    """ZDT1 whose first `asleep` calls return infeasible records (violation
    x[0] rounded, so some tie): a run starts with one-column keys."""

    def __init__(self, asleep: int, n_var: int = 6):
        self.problem, self.asleep = ZDT1(n_var=n_var), asleep
        self.lower, self.upper = self.problem.lower, self.problem.upper

    def __call__(self, x):
        self.asleep -= 1
        if self.asleep >= 0:
            return _infeasible(round(float(x[0]), 1))
        return self.problem(x)


PROBLEMS = {
    "zdt1": lambda: ZDT1(n_var=6),
    "banded": lambda: BandedZDT1(n_var=6),
    "waking": lambda: Waking(30),  # one-column keys for two and a half generations
    "rounded": lambda: RoundedBandedZDT1(n_var=6, decimals=1),  # equal objectives
}


class TestArchiveCandidates:
    """The archive is offered only the offspring that selection finds
    undominated in the pool and offspring, and ends up as it would if it
    were offered every feasible offspring."""

    @staticmethod
    def run_against_oracle(monkeypatch, configs, problem):
        advance, expected = moo._advance, {}

        def checking(state, xs, evals, xs_keys):
            stats = advance(state, xs, evals, xs_keys)
            archive = expected[id(state)] = oracles.archive_every_feasible(
                expected.get(id(state), pareto.ParetoArchive()), xs, evals)
            for have, want in ((state.archive.designs, archive.designs),
                               (state.archive.objectives, archive.objectives)):
                assert have.shape == want.shape and have.tobytes() == want.tobytes()
            assert stats.archive_size == len(archive)
            assert stats.hypervolume == moo._progress_hv(archive)
            return stats

        monkeypatch.setattr(moo, "_advance", checking)
        archives = moo.run_together(configs, problem)
        assert all(len(archive) > 0 for archive in archives)

    @pytest.mark.parametrize("problem", PROBLEMS)
    @pytest.mark.parametrize("algorithm, archive_size", [("nsga2", None), ("spea2", None),
                                                         ("spea2", 4)])
    def test_archive_equals_every_feasible_offspring_offered(self, monkeypatch, algorithm,
                                                             archive_size, problem):
        config = moo.MooConfig(algorithm=algorithm, population=12, generations=10, seed=3,
                               archive_size=archive_size)
        self.run_against_oracle(monkeypatch, [config], PROBLEMS[problem]())

    @pytest.mark.parametrize("problem", ["banded", "rounded"])
    def test_run_together_equals_every_feasible_offspring_offered(self, monkeypatch, problem):
        configs = [moo.MooConfig(algorithm=algorithm, population=12, generations=10, seed=3)
                   for algorithm in ("nsga2", "spea2")]
        self.run_against_oracle(monkeypatch, configs, PROBLEMS[problem]())

    @pytest.mark.parametrize("algorithm", ["nsga2", "spea2"])
    @pytest.mark.parametrize("problem", ["banded", "rounded"])
    def test_no_dominated_offspring_offered(self, monkeypatch, algorithm, problem):
        # each offered row is a feasible offspring that no member of the pool
        # and offspring strictly dominates, and an empty offer is no call
        advance, insert = moo._advance, pareto.archive_insert
        joint = []

        def recording(state, xs, evals, xs_keys):
            feasible, keys = moo._keys(state.pool + evals)
            joint[:] = [keys[feasible, 1:]]
            return advance(state, xs, evals, xs_keys)

        def checking(archive, xs, ys):
            assert len(ys) > 0
            assert not oracles.dominance(joint[0], ys).any()
            return insert(archive, xs, ys)

        monkeypatch.setattr(moo, "_advance", recording)
        monkeypatch.setattr(pareto, "archive_insert", checking)
        config = moo.MooConfig(algorithm=algorithm, population=12, generations=10, seed=3)
        assert len(moo.run(config, PROBLEMS[problem]())) > 0


class TestCarriedKeys:
    @pytest.mark.parametrize("algorithm, archive_size", [("nsga2", None), ("spea2", None),
                                                         ("spea2", 4)])
    def test_carried_rows_are_the_pools_keys(self, monkeypatch, algorithm, archive_size):
        # the first 30 records are infeasible (generations 0 and 1, half of
        # 2), so the keys widen from 1 to 1 + 2 columns; an archive of 4
        # truncates. After each generation the carried rows are _keys of the
        # pool, and the pool and tournament keys those of selecting from
        # _keys of the pool and offspring records
        advance, truncate = moo._advance, moo._spea2_truncate
        widths, truncations = set(), []

        def checking(state, xs, evals, xs_keys):
            config, pool_x = state.config, np.concatenate([state.pool_x, xs])
            feasible, keys = moo._keys(state.pool + evals)
            widths.add(keys.shape[1])
            if algorithm == "nsga2" and state.generation == 0:
                chosen, expected = np.arange(len(keys)), moo._nsga2_keys(feasible, keys)
            elif algorithm == "nsga2":
                chosen, expected, _ = moo._nsga2_survivors(feasible, keys, config.population)
            else:
                chosen, expected, _ = moo._spea2_environmental(
                    feasible, keys, config.archive_size or config.population)
            stats = advance(state, xs, evals, xs_keys)
            carried = moo._keys(state.pool)
            assert state.pool_feasible.tobytes() == carried[0].tobytes()
            assert state.pool_rows.shape == carried[1].shape
            assert state.pool_rows.tobytes() == carried[1].tobytes()
            assert state.pool_x.tobytes() == pool_x[chosen].tobytes()
            assert state.keys.tobytes() == expected.tobytes()
            return stats

        monkeypatch.setattr(moo, "_advance", checking)
        monkeypatch.setattr(moo, "_spea2_truncate",
                            lambda *args: truncations.append(args) or truncate(*args))
        config = moo.MooConfig(algorithm=algorithm, population=12, generations=8, seed=3,
                               archive_size=archive_size)
        archive = moo.run(config, Waking(30))
        assert widths == {1, 3} and len(archive) > 0
        assert bool(truncations) == (archive_size is not None)
