"""Evolutionary multi-objective optimizers (NSGA-II, SPEA2).

Both algorithms share real-coded variation (simulated binary crossover
plus polynomial mutation), constraint domination (a feasible individual
always beats an infeasible one; infeasible individuals compare by
violation) and an unbounded external archive of all feasible evaluations,
whose non-dominated subset is the returned Pareto approximation.

Runs are bit-reproducible for a fixed seed: random draws happen only in
the sequential generation loop, evaluations are dispatched in index
order (optionally to a process pool) and reduced in index order.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import beam_fem, kinetostatics, pareto
from .geometry import DesignVector, LOWER_BOUNDS, UPPER_BOUNDS
from .kinetostatics import Evaluation


class ConfigError(ValueError):
    """Invalid optimizer configuration."""


@dataclass(frozen=True)
class MooConfig:
    algorithm: str = "nsga2"            # "nsga2" | "spea2"
    population: int = 500
    generations: int = 1000
    seed: int = 0
    crossover_prob: float = 0.9
    crossover_eta: float = 15.0
    mutation_prob: float | None = None  # per variable; default 1 / n_var
    mutation_eta: float = 20.0
    archive_size: int | None = None     # SPEA2 environmental archive; default pop
    workers: int = 1

    def validated(self) -> "MooConfig":
        if self.algorithm not in ("nsga2", "spea2"):
            raise ConfigError(f"unknown algorithm {self.algorithm!r}")
        if self.population < 4 or self.population % 2 != 0:
            raise ConfigError("population must be an even number >= 4")
        if self.generations < 1:
            raise ConfigError("generations must be >= 1")
        if not 0.0 <= self.crossover_prob <= 1.0:
            raise ConfigError("crossover_prob must lie in [0, 1]")
        if self.mutation_prob is not None and not 0.0 <= self.mutation_prob <= 1.0:
            raise ConfigError("mutation_prob must lie in [0, 1]")
        if self.crossover_eta <= 0 or self.mutation_eta <= 0:
            raise ConfigError("distribution indices must be positive")
        if self.archive_size is not None and self.archive_size < 2:
            raise ConfigError("archive_size must be >= 2")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        return self


@dataclass
class Individual:
    x: np.ndarray
    evaluation: Evaluation
    rank: int = 0
    crowding: float = 0.0
    fitness: float = 0.0        # SPEA2 scalar fitness (lower is better)


@dataclass(frozen=True)
class HingeEvaluator:
    """Cross-hinge objective evaluation over the 13 design variables.

    Sampling bounds may be narrowed within the admissible ranges via
    lower_override / upper_override (per-variable arrays).
    """

    n_elements: int = beam_fem.DEFAULT_ELEMENTS
    n_steps: int = beam_fem.DEFAULT_STEPS
    lower_override: tuple[float, ...] | None = None
    upper_override: tuple[float, ...] | None = None

    @property
    def lower(self) -> np.ndarray:
        if self.lower_override is None:
            return LOWER_BOUNDS
        return np.asarray(self.lower_override, dtype=float)

    @property
    def upper(self) -> np.ndarray:
        if self.upper_override is None:
            return UPPER_BOUNDS
        return np.asarray(self.upper_override, dtype=float)

    def __call__(self, x: np.ndarray) -> Evaluation:
        return kinetostatics.evaluate_objectives(
            DesignVector.from_array(x),
            n_elements=self.n_elements, n_steps=self.n_steps,
        )


def _call_evaluator(payload):
    evaluator, x = payload
    return evaluator(x)


class _EvaluationEngine:
    """Caching, optionally parallel evaluation preserving index order."""

    def __init__(self, evaluator, workers: int):
        self.evaluator = evaluator
        self.workers = workers
        self.cache: dict[bytes, Evaluation] = {}
        self._pool = None

    def __enter__(self):
        if self.workers > 1:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return self

    def __exit__(self, *exc):
        if self._pool is not None:
            self._pool.shutdown()
        return False

    def evaluate(self, xs: np.ndarray) -> list[Evaluation]:
        keys = [np.ascontiguousarray(x).tobytes() for x in xs]
        missing: list[bytes] = []
        batch: list[np.ndarray] = []
        for key, x in zip(keys, xs):
            if key not in self.cache and key not in missing:
                missing.append(key)
                batch.append(x)
        if batch:
            if self._pool is not None:
                results = list(self._pool.map(
                    _call_evaluator, [(self.evaluator, x) for x in batch]))
            else:
                results = [self.evaluator(x) for x in batch]
            for key, result in zip(missing, results):
                self.cache[key] = result
        return [self.cache[key] for key in keys]


# ---------------------------------------------------------------------------
# variation operators

def sbx_crossover(parents_a: np.ndarray, parents_b: np.ndarray, prob: float,
                  eta: float, rng: np.random.Generator):
    """Simulated binary crossover on paired parent rows.

    Per crossed variable the children additionally swap sides with
    probability 0.5 (standard SBX), which is what actually recombines
    coordinates of the two parents.
    """
    n, d = parents_a.shape
    do_pair = rng.random(n) < prob
    do_var = rng.random((n, d)) < 0.5
    u = rng.random((n, d))
    swap = rng.random((n, d)) < 0.5
    beta = np.where(u <= 0.5,
                    (2.0 * u) ** (1.0 / (eta + 1.0)),
                    (0.5 / (1.0 - u)) ** (1.0 / (eta + 1.0)))
    active = do_pair[:, None] & do_var
    beta = np.where(active, beta, 1.0)
    child_a = 0.5 * ((1.0 + beta) * parents_a + (1.0 - beta) * parents_b)
    child_b = 0.5 * ((1.0 - beta) * parents_a + (1.0 + beta) * parents_b)
    exchange = active & swap
    child_a, child_b = (np.where(exchange, child_b, child_a),
                        np.where(exchange, child_a, child_b))
    return child_a, child_b


def polynomial_mutation(xs: np.ndarray, lower: np.ndarray, upper: np.ndarray,
                        prob: float, eta: float, rng: np.random.Generator) -> np.ndarray:
    """Bounded polynomial mutation, applied per variable with probability prob.

    Variables whose bounds are pinned (lower == upper) stay untouched.
    """
    span = upper - lower
    safe_span = np.where(span > 0.0, span, 1.0)
    do_var = (rng.random(xs.shape) < prob) & (span > 0.0)
    u = rng.random(xs.shape)
    d1 = (xs - lower) / safe_span
    d2 = (upper - xs) / safe_span
    exp = 1.0 / (eta + 1.0)
    low_branch = (2.0 * u + (1.0 - 2.0 * u) * (1.0 - d1) ** (eta + 1.0)) ** exp - 1.0
    high_branch = 1.0 - (2.0 * (1.0 - u) + 2.0 * (u - 0.5) * (1.0 - d2) ** (eta + 1.0)) ** exp
    delta = np.where(u < 0.5, low_branch, high_branch)
    mutated = xs + np.where(do_var, delta, 0.0) * span
    return np.clip(mutated, lower, upper)


def variation(parents: np.ndarray, config: MooConfig, rng: np.random.Generator,
              lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """SBX plus polynomial mutation; offspring stay within bounds."""
    n, d = parents.shape
    a, b = parents[0::2], parents[1::2]
    child_a, child_b = sbx_crossover(a, b, config.crossover_prob,
                                     config.crossover_eta, rng)
    offspring = np.empty_like(parents)
    offspring[0::2] = child_a
    offspring[1::2] = child_b
    offspring = np.clip(offspring, lower, upper)
    p_mut = config.mutation_prob if config.mutation_prob is not None else 1.0 / d
    return polynomial_mutation(offspring, lower, upper, p_mut,
                               config.mutation_eta, rng)


# ---------------------------------------------------------------------------
# constraint-dominated comparisons

def _domination_matrix(evals: list[Evaluation]) -> np.ndarray:
    """d[i, j] == True iff individual i constraint-dominates individual j:
    feasibility first, then violation, then Pareto dominance."""
    n = len(evals)
    feasible = np.array([e.feasible for e in evals])
    viol = np.array([e.violation for e in evals])
    d = np.zeros((n, n), dtype=bool)
    d[np.ix_(feasible, ~feasible)] = True
    inf_idx = np.where(~feasible)[0]
    if inf_idx.size:
        v = viol[inf_idx]
        d[np.ix_(inf_idx, inf_idx)] = v[:, None] < v[None, :]
    feas_idx = np.where(feasible)[0]
    if feas_idx.size:
        ys = np.array([evals[i].y for i in feas_idx])
        d[np.ix_(feas_idx, feas_idx)] = pareto.dominance(ys, ys)
    return d


def fast_nondominated_sort(evals: list[Evaluation]) -> np.ndarray:
    """Front index per individual under constraint domination."""
    d = _domination_matrix(evals)
    n = len(evals)
    n_dom = d.sum(axis=0).astype(np.int64)
    ranks = np.full(n, -1, dtype=np.int64)
    current = np.where(n_dom == 0)[0]
    front = 0
    while current.size:
        ranks[current] = front
        n_dom[current] = -1  # retired
        n_dom -= d[current].sum(axis=0)
        current = np.where(n_dom == 0)[0]
        front += 1
    return ranks


def crowding_distance(keys: np.ndarray) -> np.ndarray:
    """Crowding distance within one front from its objective rows."""
    n, m = keys.shape
    distance = np.zeros(n)
    if n <= 2:
        return np.full(n, np.inf)
    for j in range(m):
        order = np.argsort(keys[:, j], kind="stable")
        col = keys[order, j]
        span = col[-1] - col[0]
        distance[order[0]] = np.inf
        distance[order[-1]] = np.inf
        if span > 0.0:
            interior = order[1:-1]
            distance[interior] += (col[2:] - col[:-2]) / span
    return distance


def _front_keys(members: list[Individual]) -> np.ndarray:
    """Crowding keys: objectives for feasible fronts, violation otherwise."""
    if members[0].evaluation.feasible:
        return np.array([ind.evaluation.y for ind in members])
    return np.array([[ind.evaluation.violation] for ind in members])


def _assign_rank_crowding(population: list[Individual]) -> None:
    ranks = fast_nondominated_sort([ind.evaluation for ind in population])
    for ind, rank in zip(population, ranks):
        ind.rank = int(rank)
    for front in range(int(ranks.max()) + 1):
        idx = np.where(ranks == front)[0]
        members = [population[i] for i in idx]
        dist = crowding_distance(_front_keys(members))
        for ind, cd in zip(members, dist):
            ind.crowding = float(cd)


def _nsga2_survivors(population: list[Individual], size: int) -> list[Individual]:
    _assign_rank_crowding(population)
    order = np.lexsort((
        np.arange(len(population)),
        [-ind.crowding for ind in population],
        [ind.rank for ind in population],
    ))
    return [population[i] for i in order[:size]]


def _binary_tournament(keys: list, n_parents: int,
                       rng: np.random.Generator) -> np.ndarray:
    """Winners of random pairs: the lower key wins, ties go to the lower index."""
    picks = rng.integers(0, len(keys), size=(n_parents, 2))
    return np.array([a if (keys[a], a) <= (keys[b], b) else b for a, b in picks])


# ---------------------------------------------------------------------------
# SPEA2 machinery

def _spea2_fitness(evals: list[Evaluation]) -> np.ndarray:
    """Strength-based raw fitness plus k-nearest-neighbor density."""
    d = _domination_matrix(evals)
    strength = d.sum(axis=1).astype(float)
    raw = np.array([strength[d[:, j]].sum() for j in range(len(evals))])
    coords = _density_coordinates(evals)
    dist = np.linalg.norm(coords[:, None, :] - coords[None, :, :], axis=2)
    np.fill_diagonal(dist, np.inf)
    k = max(1, int(round(np.sqrt(len(evals)))))
    k = min(k, len(evals) - 1) if len(evals) > 1 else 1
    sigma_k = np.sort(dist, axis=1)[:, k - 1] if len(evals) > 1 else np.zeros(1)
    density = 1.0 / (sigma_k + 2.0)
    return raw + density


def _density_coordinates(evals: list[Evaluation]) -> np.ndarray:
    """Objective-space coordinates (normalized); infeasible points sit
    beyond the feasible cloud at a distance set by their violation."""
    feasible = np.array([e.feasible for e in evals])
    coords = np.array([[2.0 + e.violation] for e in evals])
    if feasible.any():
        ys = np.array([e.y for e in evals if e.feasible])
        coords = np.repeat(coords, ys.shape[1], axis=1)
        coords[feasible] = pareto.normalize(ys, ys.min(axis=0), ys.max(axis=0))[0]
    return coords


def _spea2_truncate(candidates: list[Individual], size: int) -> list[Individual]:
    """Iteratively drop the individual with the lexicographically smallest
    sorted distance vector until the archive fits."""
    coords = _density_coordinates([ind.evaluation for ind in candidates])
    dist = np.linalg.norm(coords[:, None, :] - coords[None, :, :], axis=2)
    np.fill_diagonal(dist, np.inf)
    alive = list(range(len(candidates)))
    while len(alive) > size:
        sub = dist[np.ix_(alive, alive)]
        ordered = np.sort(sub, axis=1)
        # lexicographic comparison over ascending neighbor distances
        victim = np.lexsort(ordered.T[::-1])[0]
        del alive[victim]
    return [candidates[i] for i in alive]


def _spea2_environmental(population: list[Individual], size: int) -> list[Individual]:
    fitness = _spea2_fitness([ind.evaluation for ind in population])
    for ind, f in zip(population, fitness):
        ind.fitness = float(f)
    nondominated = [ind for ind in population if ind.fitness < 1.0]
    if len(nondominated) > size:
        return _spea2_truncate(nondominated, size)
    if len(nondominated) < size:
        dominated = [ind for ind in population if ind.fitness >= 1.0]
        order = np.lexsort((np.arange(len(dominated)),
                            [ind.fitness for ind in dominated]))
        nondominated += [dominated[i] for i in order[:size - len(nondominated)]]
    return nondominated


# ---------------------------------------------------------------------------
# generation loop

@dataclass
class GenerationStats:
    generation: int
    feasible: int           # feasible offspring (initial population at gen 0)
    archive_size: int
    hypervolume: float


def _progress_hv(archive: pareto.ParetoArchive) -> float:
    """Bounded hypervolume progress metric: objectives are squashed with
    y / (1 + y) against the unit reference, so the value is monotone
    under archive improvement and comparable across generations."""
    if len(archive) == 0:
        return 0.0
    ys = archive.objectives
    squashed = ys / (1.0 + ys)
    return pareto.hypervolume(squashed, np.ones(ys.shape[1]))


def _individuals(xs: np.ndarray, engine: _EvaluationEngine) -> list[Individual]:
    return [Individual(x=x, evaluation=e) for x, e in zip(xs, engine.evaluate(xs))]


def _feasible_entries(population: list[Individual]) -> list[pareto.ArchiveEntry]:
    return [pareto.ArchiveEntry(x=ind.x.copy(), y=ind.evaluation.y.copy())
            for ind in population if ind.evaluation.feasible]


def run(config: MooConfig, evaluator, progress=None) -> pareto.ParetoArchive:
    """NSGA-II or SPEA2 (config.algorithm) with constraint domination and an
    external archive of all feasible evaluations.

    Both share one generational loop. They differ in the start step
    (NSGA-II ranks the initial population in place, SPEA2 selects its
    environmental archive from it), the binary-tournament key ((rank,
    -crowding) or SPEA2 fitness) and the survivor selection over parents
    plus offspring.
    """
    config = config.validated()
    nsga2 = config.algorithm == "nsga2"
    rng = np.random.default_rng(config.seed)
    lower, upper = np.asarray(evaluator.lower), np.asarray(evaluator.upper)
    size = config.population if nsga2 else config.archive_size or config.population
    survivors = _nsga2_survivors if nsga2 else _spea2_environmental
    archive = pareto.ParetoArchive(entries=())

    with _EvaluationEngine(evaluator, config.workers) as engine:
        offspring = _individuals(
            rng.uniform(lower, upper, size=(config.population, len(lower))), engine)
        if nsga2:
            _assign_rank_crowding(offspring)
            pool = offspring
        else:
            pool = _spea2_environmental(list(offspring), size)

        for gen in range(config.generations + 1):
            if gen > 0:
                keys = [(ind.rank, -ind.crowding) if nsga2 else (ind.fitness,)
                        for ind in pool]
                parents = np.array([pool[i].x for i in
                                    _binary_tournament(keys, config.population, rng)])
                offspring = _individuals(
                    variation(parents, config, rng, lower, upper), engine)
                pool = survivors(pool + offspring, size)
            archive = pareto.archive_insert(archive, _feasible_entries(offspring))
            if progress is not None:
                progress(GenerationStats(
                    generation=gen,
                    feasible=sum(ind.evaluation.feasible for ind in offspring),
                    archive_size=len(archive), hypervolume=_progress_hv(archive)))

    return archive


def merge_archives(a: pareto.ParetoArchive, b: pareto.ParetoArchive) -> pareto.ParetoArchive:
    """Non-dominated union with refreshed ideal/nadir."""
    return pareto.nondominated_filter(list(a.entries) + list(b.entries))
