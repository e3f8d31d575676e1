"""Evolutionary multi-objective optimizers (NSGA-II, SPEA2).

Both algorithms share real-coded variation (simulated binary crossover
plus polynomial mutation), constraint domination (a feasible individual
always beats an infeasible one; infeasible individuals compare by
violation) and an unbounded external archive of all feasible evaluations,
whose non-dominated subset is the returned Pareto approximation. The
archive is offered only the feasible offspring that selection finds no
member of the pool and offspring dominating; that loses nothing, since a
dominated offspring is, by transitivity, dominated by an undominated
member, offered with it or before it and so weakly dominated by an
archive row.

The population is a design array plus the list of its Evaluation
records, one record type per evaluation. Records become numbers in one
place (_keys: a feasibility mask and one constraint-domination key row per
member), once: a run carries its pool's and joins the offspring's to them.
Selection reads those arrays and returns index arrays (the tournament
keys of the chosen members, and the mask of the undominated feasible
members); nothing is written onto members. Keys are NaN-free. Constraint
domination compares them through dense integer ranks per column, and
clears the pairs of identical keys (the diagonal and the rows that sort
next to an equal row); domination counts sum bytes. NSGA-II's survivor
selection ranks and crowds only the fronts that fill the population.
SPEA2's density reads squared distances and roots only the values it
selects, and is computed only for the members selection can return (raw
fitness at most the size-th smallest); the others get their raw fitness.

Runs are bit-reproducible for a fixed seed, alone or in lock-step with
others: each run draws from its own generator in the sequential
generation loop, and evaluations go through a map function (the builtin
map, or a process pool's) that returns them in index order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import pareto
from .kinetostatics import Evaluation, map_records


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
        if not (self.crossover_eta > 0 and self.mutation_eta > 0):  # NaN fails too
            raise ConfigError("distribution indices must be positive")
        if self.archive_size is not None and self.archive_size < 2:
            raise ConfigError("archive_size must be >= 2")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        return self


class _EvaluationEngine:
    """Records over an order-keeping map function (the builtin map, or a
    process pool's), for one run or several, keeping none between calls. A
    batch maps each design it is not passed as known once, in first-occurrence
    order, through kinetostatics.map_records. `computed` counts the designs
    mapped; `cache` holds the latest batch's mapped records by design bytes."""

    def __init__(self, evaluator, map=map):
        self.evaluator = evaluator
        self.map = map
        self.computed = 0
        self.cache: dict[bytes, Evaluation] = {}

    def evaluate(self, xs: np.ndarray, known: dict[bytes, Evaluation] | None = None,
                 keys: list[bytes] | None = None) -> list[Evaluation]:
        """The records of the rows of xs, in order. known maps designs' bytes to
        their records; keys are the rows' bytes, when the caller has them."""
        known = known or {}
        keys = [x.tobytes() for x in xs] if keys is None else keys
        batch = {key: x for key, x in zip(keys, xs) if key not in known}
        self.cache = dict(zip(batch, map_records(self.evaluator, list(batch.values()),
                                                 self.map)))
        self.computed += len(self.cache)
        return [known[key] if key in known else self.cache[key] for key in keys]


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

def _keys(evals: list[Evaluation]):
    """The feasibility mask of the records and their (n, 1 + m) keys: the
    violation (0 when feasible), then the objectives (inf when
    infeasible); one column when no record is feasible."""
    feasible = np.array([e.feasible for e in evals], dtype=bool)
    ys = [e.y for e in evals if e.feasible]
    keys = np.full((len(evals), 1 + (len(ys[0]) if ys else 0)), np.inf)
    keys[:, 0] = [0.0 if e.feasible else e.violation for e in evals]
    if ys:
        keys[feasible, 1:] = ys
    return feasible, keys


def _joined_keys(feasible_a: np.ndarray, keys_a: np.ndarray, feasible_b: np.ndarray,
                 keys_b: np.ndarray):
    """_keys(a + b) from _keys(a) and _keys(b): the narrower keys, whose
    records are all infeasible, padded with inf objective columns."""
    keys = np.full((len(keys_a) + len(keys_b), max(keys_a.shape[1], keys_b.shape[1])), np.inf)
    keys[:len(keys_a), :keys_a.shape[1]] = keys_a
    keys[len(keys_a):, :keys_b.shape[1]] = keys_b
    return np.concatenate([feasible_a, feasible_b]), keys


# Selection works in row blocks of at most _BLOCK_BYTES, so that each
# block-sized temporary, with malloc's chunk header, stays under glibc's
# default mmap threshold of 128 KiB: the heap serves and reuses it, where a
# larger one would map fresh pages and fault them in on every call.
_BLOCK_BYTES = 125 * 1024


def _block_rows(n: int, itemsize: int) -> int:
    """Rows per block of an (rows, n) array of itemsize-byte items, 1 to n."""
    return max(1, min(n, _BLOCK_BYTES // (itemsize * n)))


def _domination_matrix(keys: np.ndarray) -> np.ndarray:
    """d[i, j] == True iff member i constraint-dominates member j:
    feasibility first, then violation, then Pareto dominance.

    All three are one componentwise <= over the NaN-free _keys rows, run
    on dense integer ranks (np.unique per column, in the smallest unsigned
    type that holds n), a row block at a time: equal keys share a rank, so
    <= on ranks is <= on keys, signed zeros and inf included. Key i is <=
    key j and differs from it exactly when i constraint-dominates j;
    identical keys are <= each other, so the diagonal is cleared, and the
    symmetric pairs among the rows that sort next to an equal row.
    """
    n = len(keys)
    ranks = np.array([np.unique(column, return_inverse=True)[1] for column in keys.T],
                     dtype=np.min_scalar_type(n))
    d = np.empty((n, n), dtype=bool)
    step = _block_rows(n, 1)
    le = np.empty((step, n), dtype=bool)
    for start in range(0, n, step):
        block = d[start:start + step]
        np.less_equal(ranks[0, start:start + step, None], ranks[0], out=block)
        for rank in ranks[1:]:
            block &= np.less_equal(rank[start:start + step, None], rank,
                                   out=le[:len(block)])
    np.fill_diagonal(d, False)
    order = np.lexsort(ranks[::-1])
    repeated = np.all(ranks[:, order[1:]] == ranks[:, order[:-1]], axis=0)
    rows = np.union1d(order[1:][repeated], order[:-1][repeated])
    ix = np.ix_(rows, rows)
    s = d[ix]
    d[ix] = s & ~s.T
    return d


def _counts(d: np.ndarray, axis: int) -> np.ndarray:
    """d.sum(axis) of a bool matrix, summed as bytes in the smallest unsigned
    type that holds the count (numpy sums bools in int64)."""
    return d.view(np.uint8).sum(axis=axis, dtype=np.min_scalar_type(d.shape[axis]))


def fast_nondominated_sort(feasible: np.ndarray, keys: np.ndarray,
                           size: int | None = None) -> np.ndarray:
    """Front index per member under constraint domination. Fronts are
    peeled off the feasible members only: each of them dominates every
    infeasible member, and infeasible members dominate by violation alone,
    so their fronts follow the last feasible one as the dense ranks of
    their violations. With a size, peeling stops once at least size
    members are ranked, and the unranked members share the next index."""
    d = _domination_matrix(keys)
    n_dom = np.where(feasible, _counts(d, 0).astype(np.intp), -1)  # -1: retired or infeasible
    ranks = np.full(len(keys), -1, dtype=np.int64)
    current = np.flatnonzero(n_dom == 0)
    front, ranked, step = 0, 0, _block_rows(len(keys), 1)
    limit = len(keys) if size is None else size
    while current.size:
        ranks[current] = front
        front, ranked = front + 1, ranked + len(current)
        if ranked >= limit:
            break
        n_dom[current] = -1
        for start in range(0, len(current), step):
            n_dom -= _counts(d[current[start:start + step]], 0)
        current = np.flatnonzero(n_dom == 0)
    if ranked < limit:  # every feasible member is ranked
        ranks[~feasible] = front + np.unique(keys[~feasible, 0], return_inverse=True)[1]
    else:
        ranks[ranks < 0] = front
    return ranks


def _nsga2_keys(feasible: np.ndarray, keys: np.ndarray, size: int | None = None) -> np.ndarray:
    """Tournament keys, one (rank, -crowding) row per member: the front
    index under constraint domination, then the crowding distance within
    the front (over objectives for feasible fronts, violation otherwise).
    With a size, only the fronts that fill size places are ranked apart and
    crowded; the other members share the next rank, at crowding 0.

    The fronts are crowded at once, one stable sort by (front, value) per
    coordinate column: the first and last member of a front are at inf, and
    an interior member adds the gap between its neighbours over the front's
    span (when positive), column after column, as a loop over fronts would."""
    ranks = fast_nondominated_sort(feasible, keys, size)
    members = np.arange(len(keys))
    if size is not None and size < len(keys):
        members = np.flatnonzero(ranks <= np.partition(ranks, size - 1)[size - 1])
    coords = (np.where(feasible[:, None], keys[:, 1:], keys[:, :1]) if feasible.any()
              else keys)
    crowding = np.zeros(len(keys))
    for column in coords.T:
        order = members[np.lexsort((column[members], ranks[members]))]
        value, front = column[order], ranks[order]
        first = np.r_[True, front[1:] != front[:-1]]
        last = np.r_[first[1:], True]
        span = (value[last] - value[first])[np.cumsum(first) - 1]
        interior = np.flatnonzero(~(first | last) & (span > 0.0))
        crowding[order[first | last]] = np.inf
        crowding[order[interior]] += ((value[interior + 1] - value[interior - 1])
                                      / span[interior])
    return np.column_stack([ranks, -crowding])


def _key_order(keys: np.ndarray) -> np.ndarray:
    """Member indices by ascending key row (columns compared in turn),
    ties to the lower index."""
    return np.lexsort((np.arange(len(keys)), *keys.T[::-1]))


def _nsga2_survivors(feasible: np.ndarray, keys: np.ndarray, size: int):
    """Indices of the size best members by (rank, -crowding), their tournament
    keys, and the mask of the members no member dominates (feasible, rank 0)."""
    tournament = _nsga2_keys(feasible, keys, size)
    chosen = _key_order(tournament)[:size]
    return chosen, tournament[chosen], feasible & (tournament[:, 0] == 0)


def _binary_tournament(keys: np.ndarray, n_parents: int,
                       rng: np.random.Generator) -> np.ndarray:
    """Winners of random pairs: the lower key row wins, ties go to the lower index."""
    a, b = rng.integers(0, len(keys), size=(n_parents, 2)).T
    pos = np.argsort(_key_order(keys))  # each member's place in key order
    return np.where(pos[a] <= pos[b], a, b)


# ---------------------------------------------------------------------------
# SPEA2 machinery

def _distance_blocks(coords: np.ndarray, rows: np.ndarray | None = None):
    """Squared Euclidean distances of the coordinate rows listed in rows (all
    by default) to every row, as (slice of rows, block) pairs of _block_rows
    rows, each row's own entry inf. A block sums its squared differences in
    column order into reused buffers; the next block overwrites it, so no
    (n, n) array is held. The root is monotone and correctly rounded, so a
    caller that roots a selected or sorted value gets the bytes of the root
    taken first."""
    n = len(coords)
    rows = np.arange(n) if rows is None else rows
    block = _block_rows(n, 8)
    squared, diff = np.empty((block, n)), np.empty((block, n))
    for start in range(0, len(rows), block):
        at = rows[start:start + block]
        sq, df = squared[:len(at)], diff[:len(at)]
        np.square(np.subtract(coords[at, :1], coords[None, :, 0], out=sq), out=sq)
        for j in range(1, coords.shape[1]):
            np.subtract(coords[at, j:j + 1], coords[None, :, j], out=df)
            sq += np.square(df, out=df)
        sq[np.arange(len(at)), at] = np.inf
        yield slice(start, start + len(at)), sq


def _spea2_fitness(feasible: np.ndarray, keys: np.ndarray, size: int) -> np.ndarray:
    """Strength-based raw fitness plus k-nearest-neighbour density, with
    sigma_k the k-th smallest distance of a member's _distance_blocks row
    and k the rounded root of the member count. Raw fitness is an integer
    and density lies in (0, 0.5], so only the members whose raw fitness is
    at most the size-th smallest can enter an archive of size: the density
    is computed for them alone, and the others get their raw fitness."""
    d = _domination_matrix(keys)
    n = len(keys)
    # strengths are integer counts, so the sums are exact in any order
    strength = _counts(d, 1).astype(float)
    raw = np.zeros(n)
    step = _block_rows(n, 8)
    for start in range(0, n, step):
        raw += strength[start:start + step] @ d[start:start + step]
    sigma_k = np.zeros(n)
    if n > 1:  # then 1 <= k <= n - 1
        k = int(round(np.sqrt(n)))
        cutoff = np.partition(raw, size - 1)[size - 1] if size < n else np.inf
        rows = np.flatnonzero(raw <= cutoff)
        sigma_k[raw > cutoff] = np.inf
        for part, block in _distance_blocks(_density_coordinates(feasible, keys), rows):
            sigma_k[rows[part]] = np.partition(block, k - 1, axis=1)[:, k - 1]
        np.sqrt(sigma_k, out=sigma_k)
    density = 1.0 / (sigma_k + 2.0)
    return raw + density


def _density_coordinates(feasible: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Objective-space coordinates (normalized); infeasible points sit
    beyond the feasible cloud at a distance set by their violation."""
    coords = 2.0 + keys[:, :1]
    if feasible.any():
        ys = keys[feasible, 1:]
        coords = np.repeat(coords, ys.shape[1], axis=1)
        coords[feasible] = pareto.normalize(ys, ys.min(axis=0), ys.max(axis=0))
    return coords


def _spea2_truncate(feasible: np.ndarray, keys: np.ndarray, size: int) -> np.ndarray:
    """Indices that survive iteratively dropping the member with the
    lexicographically smallest sorted distance vector (the lowest index on
    a full tie) until size remain.

    Each _distance_blocks row is argsorted once into its neighbour indices
    (in the smallest unsigned type that holds n) and their distances. A
    row's distance vector is the distances of its alive neighbours in that
    order, so a deletion only moves the head (the first alive neighbour) of
    the rows that pointed at the victim, and the candidates are compared one
    alive column at a time."""
    n = len(keys)
    neighbours = np.empty((n, n), dtype=np.min_scalar_type(n))
    ordered = np.empty((n, n))
    for rows, block in _distance_blocks(_density_coordinates(feasible, keys)):
        order = np.argsort(block, axis=1)
        neighbours[rows] = order
        ordered[rows] = np.sqrt(np.take_along_axis(block, order, axis=1))
    alive = np.ones(n, dtype=bool)
    head = np.zeros(n, dtype=np.intp)
    for remaining in range(n, size, -1):
        candidates = np.flatnonzero(alive)
        at = head[candidates]
        # the last of a row's `remaining` alive neighbours is itself, at inf
        for _ in range(remaining - 1):
            values = ordered[candidates, at]
            tied = values == values.min()
            candidates, at = candidates[tied], at[tied]
            if len(candidates) == 1:
                break
            at = _next_alive(neighbours, alive, candidates, at + 1)
        victim = candidates[0]
        alive[victim] = False
        moved = np.flatnonzero(alive & (neighbours[np.arange(n), head] == victim))
        head[moved] = _next_alive(neighbours, alive, moved, head[moved])
    return np.flatnonzero(alive)


def _next_alive(neighbours: np.ndarray, alive: np.ndarray, rows: np.ndarray,
                at: np.ndarray) -> np.ndarray:
    """For each row, the first position from at on whose neighbour is alive."""
    at = at.copy()
    dead = ~alive[neighbours[rows, at]]
    while dead.any():
        at[dead] += 1
        dead[dead] = ~alive[neighbours[rows[dead], at[dead]]]
    return at


def _spea2_environmental(feasible: np.ndarray, keys: np.ndarray, size: int):
    """Indices of the SPEA2 environmental archive, their fitness as (n, 1)
    keys, and the mask of the feasible non-dominated members: the
    non-dominated members (fitness < 1, raw fitness 0) are truncated to
    size or filled up with dominated members in stable fitness order."""
    fitness = _spea2_fitness(feasible, keys, size)
    undominated = fitness < 1.0
    chosen = np.flatnonzero(undominated)
    if len(chosen) > size:
        chosen = chosen[_spea2_truncate(feasible[chosen], keys[chosen], size)]
    elif len(chosen) < size:
        dominated = np.flatnonzero(fitness >= 1.0)
        order = np.argsort(fitness[dominated], kind="stable")
        chosen = np.concatenate([chosen, dominated[order[:size - len(chosen)]]])
    return chosen, fitness[chosen, None], feasible & undominated


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


@dataclass
class _RunState:
    """One run between generations; pool_keys are the pool designs' bytes,
    and pool_feasible and pool_rows are _keys(pool)."""
    config: MooConfig
    rng: np.random.Generator
    pool_x: np.ndarray
    pool: list[Evaluation] = field(default_factory=list)
    pool_keys: list[bytes] = field(default_factory=list)
    pool_feasible: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=bool))
    pool_rows: np.ndarray = field(default_factory=lambda: np.empty((0, 1)))
    keys: np.ndarray | None = None  # tournament keys of the pool
    archive: pareto.ParetoArchive = field(default_factory=pareto.ParetoArchive)
    generation: int = 0             # the next one to evaluate


def _offspring(state: _RunState, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """The designs of the run's next generation: the initial population at
    generation 0, then the variation of binary tournament winners."""
    config, rng = state.config, state.rng
    if state.generation == 0:
        return rng.uniform(lower, upper, size=(config.population, len(lower)))
    parents = state.pool_x[_binary_tournament(state.keys, config.population, rng)]
    return variation(parents, config, rng, lower, upper)


def _advance(state: _RunState, xs: np.ndarray, evals: list[Evaluation],
             xs_keys: list[bytes]) -> GenerationStats:
    """Advance the run by one generation, given its offspring, their records
    and bytes: select the pool (at generation 0 NSGA-II keeps it whole) and
    its tournament keys, and archive the feasible offspring that no member
    of the pool or offspring dominates. Only the offspring's records are
    read; the pool's keys are carried."""
    config = state.config
    feasible, batch = _keys(evals)
    pool_x, pool = np.concatenate([state.pool_x, xs]), state.pool + evals
    rows = _joined_keys(state.pool_feasible, state.pool_rows, feasible, batch)
    if config.algorithm == "nsga2" and state.generation == 0:
        chosen, state.keys = np.arange(len(pool)), _nsga2_keys(*rows)
        undominated = rows[0] & (state.keys[:, 0] == 0)
    elif config.algorithm == "nsga2":
        chosen, state.keys, undominated = _nsga2_survivors(*rows, config.population)
    else:
        chosen, state.keys, undominated = _spea2_environmental(
            *rows, config.archive_size or config.population)
    pool_keys = state.pool_keys + xs_keys
    state.pool_x, state.pool = pool_x[chosen], [pool[i] for i in chosen]
    state.pool_keys = [pool_keys[i] for i in chosen]
    state.pool_feasible, state.pool_rows = rows[0][chosen], rows[1][chosen]
    new = undominated[len(pool) - len(evals):]  # the offspring's rows
    if new.any():
        state.archive = pareto.archive_insert(state.archive, xs[new], batch[new, 1:])
    state.generation += 1
    return GenerationStats(state.generation - 1, int(feasible.sum()), len(state.archive),
                           _progress_hv(state.archive))


def run_together(configs: list[MooConfig], evaluator, progresses=None,
                 engine=None) -> list[pareto.ParetoArchive]:
    """Runs in lock-step: each generation, the offspring of every run in flight
    go to one engine.evaluate call (engine: an _EvaluationEngine over evaluator,
    default serial) with the runs' pools as known designs. A run draws from its
    own generator only, so it keeps the bytes it has alone."""
    lower, upper = np.asarray(evaluator.lower), np.asarray(evaluator.upper)
    runs = [_RunState(config.validated(), np.random.default_rng(config.seed),
                      np.empty((0, len(lower)))) for config in configs]
    progresses = progresses or [None] * len(runs)
    engine = engine or _EvaluationEngine(evaluator)
    while flight := [(run, progress) for run, progress in zip(runs, progresses)
                     if run.generation <= run.config.generations]:
        offspring = [_offspring(run, lower, upper) for run, _ in flight]
        xs = np.concatenate(offspring)
        xs_keys = [x.tobytes() for x in xs]
        evals = engine.evaluate(xs, {key: record for run, _ in flight
                                     for key, record in zip(run.pool_keys, run.pool)}, xs_keys)
        bounds = np.cumsum([0] + [len(batch) for batch in offspring])
        for (run, progress), batch, start, stop in zip(flight, offspring, bounds, bounds[1:]):
            stats = _advance(run, batch, evals[start:stop], xs_keys[start:stop])
            if progress is not None:
                progress(stats)
    return [run.archive for run in runs]


def run(config: MooConfig, evaluator, progress=None, engine=None) -> pareto.ParetoArchive:
    """NSGA-II or SPEA2 (config.algorithm) with constraint domination and an
    external archive of all feasible evaluations: run_together of one run."""
    return run_together([config], evaluator, [progress], engine)[0]


def merge_archives(a: pareto.ParetoArchive, b: pareto.ParetoArchive) -> pareto.ParetoArchive:
    """Non-dominated union of two archives, in canonical order."""
    return pareto.archive_insert(a, b.designs, b.objectives)
