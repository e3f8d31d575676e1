import hashlib
from dataclasses import dataclass

import numpy as np
import pytest

from crosshinge import moo, pareto
from zdt import ZDT1, BandedZDT1, generational_distance


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
        d = moo._domination_matrix([feas, infeas])
        assert d[0, 1] and not d[1, 0]

    def test_infeasible_compare_by_violation(self):
        a = moo.Evaluation(y=None, feasible=False, violation=0.5)
        b = moo.Evaluation(y=None, feasible=False, violation=1.5)
        d = moo._domination_matrix([a, b])
        assert d[0, 1] and not d[1, 0]

    def test_feasible_rank_before_infeasible(self):
        rng = np.random.default_rng(9)
        evals = []
        for _ in range(40):
            if rng.random() < 0.5:
                evals.append(moo.Evaluation(y=rng.random(3), feasible=True))
            else:
                evals.append(moo.Evaluation(y=None, feasible=False,
                                            violation=float(rng.random())))
        ranks = moo.fast_nondominated_sort(evals)
        worst_feasible = max((r for r, e in zip(ranks, evals) if e.feasible),
                             default=-1)
        best_infeasible = min((r for r, e in zip(ranks, evals) if not e.feasible),
                              default=np.inf)
        assert worst_feasible < best_infeasible


class TestMergeArchives:
    def _random_archive(self, rng, n):
        entries = [(rng.random(4), rng.integers(0, 6, 3).astype(float))
                   for _ in range(n)]
        return pareto.nondominated_filter(entries)

    def test_merge_with_empty_is_identity(self):
        rng = np.random.default_rng(1)
        a = self._random_archive(rng, 20)
        merged = moo.merge_archives(a, pareto.ParetoArchive(entries=()))
        assert len(merged) == len(a)
        for ea, eb in zip(a.entries, merged.entries):
            assert np.array_equal(ea.y, eb.y)

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
        brute = pareto.nondominated_filter(list(a.entries) + list(b.entries))
        assert len(merged) == len(brute)
        for ea, eb in zip(merged.entries, brute.entries):
            assert np.array_equal(ea.y, eb.y) and np.array_equal(ea.x, eb.x)


class TestSpea2Selection:
    def test_truncation_hits_exact_size_with_duplicate_distances(self):
        # mutually non-dominated grid points with many equal pairwise gaps
        ys = [np.array([float(i), float(9 - i)]) for i in range(10)]
        population = [moo.Individual(x=np.array([float(i)]),
                                     evaluation=moo.Evaluation(y=y, feasible=True))
                      for i, y in enumerate(ys)]
        for size in (3, 5, 8):
            env = moo._spea2_environmental(list(population), size)
            assert len(env) == size

    def test_fill_from_dominated_when_underfull(self):
        ys = [np.array([0.0, 0.0]), np.array([1.0, 1.0]), np.array([2.0, 2.0])]
        population = [moo.Individual(x=np.array([float(i)]),
                                     evaluation=moo.Evaluation(y=y, feasible=True))
                      for i, y in enumerate(ys)]
        env = moo._spea2_environmental(list(population), 2)
        assert len(env) == 2
        assert env[0].evaluation.y == pytest.approx([0.0, 0.0])


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
        for ea, eb in zip(a.entries, b.entries):
            assert np.array_equal(ea.x, eb.x)
            assert np.array_equal(ea.y, eb.y)

    def test_parallel_matches_serial(self):
        serial = moo.run(moo.MooConfig(population=12, generations=5, seed=2),
                         ZDT1(n_var=6))
        parallel = moo.run(
            moo.MooConfig(population=12, generations=5, seed=2, workers=2),
            ZDT1(n_var=6))
        assert len(serial) == len(parallel)
        for ea, eb in zip(serial.entries, parallel.entries):
            assert np.array_equal(ea.x, eb.x)
            assert np.array_equal(ea.y, eb.y)

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


class TestGenerationLoop:
    @pytest.mark.parametrize("algorithm, problem, archive_size, digest", PINNED_ARCHIVES)
    def test_archive_digest_pinned(self, tmp_path, algorithm, problem, archive_size,
                                   digest):
        cfg = moo.MooConfig(algorithm=algorithm, population=12, generations=10,
                            seed=4, archive_size=archive_size)
        path = tmp_path / "archive.csv"
        pareto.write_archive_csv(path, moo.run(cfg, problem(n_var=6)))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("algorithm", ["nsga2", "spea2"])
    def test_progress_counts_feasible_offspring(self, monkeypatch, algorithm):
        # each engine call evaluates one generation: the initial population,
        # then the offspring of every later generation
        batches = []
        evaluate = moo._EvaluationEngine.evaluate

        def recording(engine, xs):
            batches.append(xs.copy())
            return evaluate(engine, xs)

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
