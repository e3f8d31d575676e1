"""The four benchmark workloads and their correctness checks.

Each workload is a closed loop from one process: the next operation
starts when the previous one returned. Inputs come only from the
workload seed; the package receives nothing but the generated designs
and command-line flags, through its public entry points
`kinetostatics.evaluate_objectives`, `moo.run` and `cli.main`.
"""

from __future__ import annotations

import collections
import contextlib
import io
import json
import math
import os
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

N_ELEMENTS = 30
N_STEPS = 20
GOLDEN_RTOL = 1e-3          # the tests' tolerance on the golden objectives
OUTCOMES = ("feasible", "strain", "self-intersection", "nonconvergence",
            "indefinite-stiffness")
TARGET_WEIGHTS = "0.3333333333333333,0.3333333333333333,0.3333333333333334"
MAX_PRINTED_FAILURES = 20
CAL_NOMINAL_S = 0.005       # reference-kernel time that defines nominal machine speed


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cpu_s() -> float:
    """CPU seconds of this process and of every child it has waited for."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def squashed_hv(pareto, objectives: np.ndarray) -> float:
    """Hypervolume of y / (1 + y) against the unit reference (as moo reports it)."""
    if len(objectives) == 0:
        return 0.0
    ys = np.asarray(objectives, dtype=float)
    return pareto.hypervolume(ys / (1.0 + ys), np.ones(ys.shape[1]))


class Speed:
    """The machine's current speed, from a fixed reference kernel.

    On a shared virtual machine the CPU speed one process gets swings by up
    to ~1.8x within seconds, and the swing scales every CPU-bound step
    alike, so raw times spread by 15-25% from run to run. The kernel is
    timed after every measured segment of work; the segment is scaled by
    the kernel's nominal time over the median of its last three times, so
    it reads as time at nominal speed. The default kernel is small dense
    numpy solves, as in the beam solver.
    """

    def __init__(self, kernel=None, nominal_s: float = CAL_NOMINAL_S):
        a = np.random.default_rng(0).random((12, 12))
        self._a = a @ a.T + 12.0 * np.eye(12)
        self._b = np.ones(12)
        self._kernel = kernel or self._solves
        self._nominal_s = nominal_s
        self._recent: collections.deque[float] = collections.deque(maxlen=3)
        self.factors: list[float] = []

    def _solves(self) -> None:
        for _ in range(300):
            np.linalg.solve(self._a, self._b)
            np.einsum("ij,j->i", self._a, self._b)
            (2.0 * self._a).sum(axis=0)

    def sample(self) -> None:
        t0 = time.perf_counter()
        self._kernel()
        self._recent.append(time.perf_counter() - t0)

    def factor(self) -> float:
        """Nominal over current speed; below 1 when the machine runs fast."""
        factor = self._nominal_s / statistics.median(self._recent)
        self.factors.append(factor)
        return factor


class Meter:
    """Wall and CPU time of consecutive segments of work, at nominal speed."""

    def __init__(self, speed: Speed):
        self.speed = speed
        speed.sample()
        self.mark()

    def mark(self) -> None:
        self._wall, self._cpu = time.perf_counter(), cpu_s()

    def lap(self, phase: "Phase") -> float:
        """Add the segment since the last mark to the phase; return its
        scaled wall time. Starts the next segment."""
        wall, cpu = time.perf_counter() - self._wall, cpu_s() - self._cpu
        self.speed.sample()
        self.mark()
        factor = self.speed.factor()
        phase.raw_wall_s += wall
        phase.wall_s += wall * factor
        phase.cpu_s += cpu * factor
        return wall * factor


def fits(start: float, seconds: float, done: list[float]) -> bool:
    """Whether one more operation, as long as the mean of those done, ends
    nearer to `seconds` than stopping now does. The first one always runs."""
    if not done:
        return True
    return time.perf_counter() - start + 0.5 * sum(done) / len(done) <= seconds


@dataclass
class Phase:
    """Measurements of one timed loop. Times are summed over the measured
    segments, which exclude the speed samples between them, and except
    `raw_*` are scaled to nominal machine speed."""

    op_s: list[float] = field(default_factory=list)   # time per unit operation
    raw_op_s: list[float] = field(default_factory=list)
    evals: int = 0              # objective evaluations requested
    wall_s: float = 0.0
    raw_wall_s: float = 0.0
    cpu_s: float = 0.0          # this process and waited-for children


class Gate:
    """Counts checked operations and prints each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if self.failed <= MAX_PRINTED_FAILURES:
                print(f"FAIL {label}: {'; '.join(problems)}")


def check_report(report) -> list[str]:
    """A feasible report has finite positive objectives; an infeasible one
    names a known failure class and a finite violation."""
    if report.feasible:
        values = (report.r_bar, report.c_bar, report.k_bar)
        if not all(v is not None and math.isfinite(v) and v > 0.0 for v in values):
            return [f"feasible objectives not finite and positive: {values}"]
        return []
    if report.failure not in OUTCOMES or not math.isfinite(report.violation) \
            or report.violation < 0.0:
        return [f"infeasible report {report.failure!r} violation {report.violation}"]
    return []


def check_archive(pareto, objectives: np.ndarray, positive: bool) -> list[str]:
    ys = np.asarray(objectives, dtype=float)
    problems = []
    if len(ys) == 0:
        problems.append("empty archive")
    elif not np.all(np.isfinite(ys)) or np.any(ys < 0.0) or (positive and np.any(ys <= 0.0)):
        problems.append("archive objectives not finite and positive")
    elif np.any(pareto.dominated_mask(ys)):
        problems.append("archive holds a dominated row")
    return problems


class Golden:
    """The regression design and its objectives from the test data."""

    def __init__(self, path: Path, geometry):
        data = json.loads(path.read_text())
        self.x = np.array([data["design"][name] for name in geometry.DESIGN_FIELDS])
        self.objectives = data["objectives"]
        self.n_elements = data["n_elements"]
        self.n_steps = data["n_steps"]
        self.values = ",".join(repr(float(v)) for v in self.x)

    def check(self, pkg) -> list[str]:
        report = pkg.kinetostatics.evaluate_objectives(
            pkg.geometry.DesignVector.from_array(self.x),
            n_elements=self.n_elements, n_steps=self.n_steps)
        if not report.feasible:
            return [f"golden design infeasible ({report.failure})"]
        problems = []
        for name, expected in self.objectives.items():
            got = getattr(report, name)
            if not abs(got - expected) <= GOLDEN_RTOL * abs(expected):
                problems.append(f"golden {name} {got!r} != {expected!r}")
        return problems


# ---------------------------------------------------------------------------
# serial evaluation of generated designs

class EvalWorkload:
    """Serial `evaluate_objectives` calls at 30 elements x 20 steps."""

    op_label = "evaluation"

    def __init__(self, pkg, golden: Golden, designs: np.ndarray):
        self.pkg = pkg
        self.golden = golden
        self.designs = designs
        self.outcomes = dict.fromkeys(OUTCOMES, 0)
        self.speed = Speed()

    def warmup(self) -> None:
        self.golden.check(self.pkg)

    def run_phase(self, seconds: float, gate: Gate) -> Phase:
        ks, geometry = self.pkg.kinetostatics, self.pkg.geometry
        phase = Phase()
        start = time.perf_counter()
        meter = Meter(self.speed)
        for i, x in enumerate(self.designs):
            if not fits(start, seconds, phase.raw_op_s):
                break
            raw = phase.raw_wall_s
            meter.mark()
            try:
                report = ks.evaluate_objectives(geometry.DesignVector.from_array(x),
                                                n_elements=N_ELEMENTS, n_steps=N_STEPS)
            except Exception as err:  # counted as a failed operation, run goes on
                report, problems = None, [f"raised {type(err).__name__}: {err}"]
            phase.op_s.append(meter.lap(phase))
            phase.raw_op_s.append(phase.raw_wall_s - raw)
            phase.evals += 1
            if report is not None:
                problems = check_report(report)
                self.outcomes[report.failure or "feasible"] += 1
            gate.record(f"design {i}", problems)
        return phase

    def check(self, gate: Gate) -> None:
        """Every evaluation is checked as it returns."""

    def extra(self) -> list[tuple[str, float, str]]:
        return [(f"outcome.{k}", v, "count") for k, v in self.outcomes.items()]

    def close(self) -> None:
        pass


def low_discrepancy(seed: int, n: int, d: int) -> np.ndarray:
    """n randomly shifted R_d points in the unit cube [0, 1)^d.

    Any prefix of the sequence covers the cube evenly (unlike i.i.d.
    samples), so a time-bounded run sees nearly the same mix of designs on
    every seed. R_d: x_i = frac(shift + i * alpha), alpha_j = phi_d^-(j+1),
    with phi_d the real root of x^(d+1) = x + 1.
    """
    phi = 2.0
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (d + 1))
    alpha = phi ** -np.arange(1, d + 1)
    shift = np.random.default_rng(seed).random(d)
    return np.mod(shift + np.arange(1, n + 1)[:, None] * alpha, 1.0)


def near_front_designs(geometry, golden: Golden, seed: int, n: int) -> np.ndarray:
    """Gaussian perturbations of the golden design, 2% of each range, clipped."""
    from scipy.special import ndtri

    lower, upper = geometry.LOWER_BOUNDS, geometry.UPPER_BOUNDS
    z = ndtri(low_discrepancy(seed, n, len(lower)))
    return np.clip(golden.x + 0.02 * (upper - lower) * z, lower, upper)


def uniform_designs(geometry, seed: int, n: int) -> np.ndarray:
    """Uniform low-discrepancy points of the full design box."""
    lower, upper = geometry.LOWER_BOUNDS, geometry.UPPER_BOUNDS
    return lower + low_discrepancy(seed, n, len(lower)) * (upper - lower)


# ---------------------------------------------------------------------------
# optimizer loop on an analytic surrogate

SLAB = (0.55, 0.85)         # infeasible band of the last normalized variable


class Dtlz2:
    """3-objective DTLZ2 (Deb, Thiele, Laumanns & Zitzler, 2002) over the
    13-variable design box, with an infeasible slab on the last variable.

    Every feasible point satisfies |f| >= 1, with equality on the front.
    """

    def __init__(self, moo, lower: np.ndarray, upper: np.ndarray):
        self.lower, self.upper = lower, upper
        self._evaluation = moo.Evaluation

    def __call__(self, x: np.ndarray):
        u = (x - self.lower) / (self.upper - self.lower)
        lo, hi = SLAB
        if lo < u[-1] < hi:
            return self._evaluation(y=None, feasible=False,
                                    violation=float(min(u[-1] - lo, hi - u[-1])))
        radius = 1.0 + float(np.sum((u[2:] - 0.5) ** 2))
        a, b = 0.5 * math.pi * u[0], 0.5 * math.pi * u[1]
        y = radius * np.array([math.cos(a) * math.cos(b), math.cos(a) * math.sin(b),
                               math.sin(a)])
        return self._evaluation(y=y, feasible=True)


class MooSurrogate:
    """`moo.run` for NSGA-II then SPEA2 at population 500 on DTLZ2, with a
    progress callback (so the progress hypervolume is computed each
    generation, as in the CLI). One operation is one generation."""

    op_label = "generation"

    def __init__(self, pkg, seed: int, quick: bool):
        self.pkg = pkg
        self.seed = seed
        self.population = 40 if quick else 500
        self.generations = {"nsga2": 3, "spea2": 2} if quick else {"nsga2": 14, "spea2": 8}
        self.evaluator = Dtlz2(pkg.moo, pkg.geometry.LOWER_BOUNDS, pkg.geometry.UPPER_BOUNDS)
        self.archives: list[tuple[str, object]] = []
        self.front_hv = 0.0
        self.speed = Speed()

    def config(self, algorithm: str, generations: int, population: int):
        return self.pkg.moo.MooConfig(algorithm=algorithm, population=population,
                                      generations=generations, seed=self.seed)

    def warmup(self) -> None:
        for algorithm in self.generations:
            self.pkg.moo.run(self.config(algorithm, 1, 8), self.evaluator,
                             progress=lambda stats: None)

    def run_phase(self, seconds: float, gate: Gate) -> Phase:
        moo = self.pkg.moo
        phase = Phase()
        start = time.perf_counter()
        meter = Meter(self.speed)
        rounds: list[float] = []
        while fits(start, seconds, rounds):
            round_start = time.perf_counter()
            for algorithm, generations in self.generations.items():
                meter.mark()
                try:
                    archive = moo.run(self.config(algorithm, generations, self.population),
                                      self.evaluator,
                                      progress=lambda stats: phase.op_s.append(meter.lap(phase)))
                except Exception as err:  # counted as a failed operation
                    gate.record(algorithm, [f"raised {type(err).__name__}: {err}"])
                    continue
                meter.lap(phase)  # the run's tail after its last generation
                phase.evals += self.population * (generations + 1)
                self.archives.append((algorithm, archive))
            rounds.append(time.perf_counter() - round_start)
        return phase

    def check(self, gate: Gate) -> None:
        """Archives are non-dominated, on or outside the unit sphere, and
        identical for every repetition of the same seeded run."""
        pareto, moo = self.pkg.pareto, self.pkg.moo
        first: dict[str, np.ndarray] = {}
        for algorithm, archive in self.archives:
            ys = archive.objectives
            problems = check_archive(pareto, ys, positive=False)
            if not problems and np.any(np.linalg.norm(ys, axis=1) < 1.0 - 1e-9):
                problems.append("archive point inside the DTLZ2 front")
            reference = first.setdefault(algorithm, ys)
            if not np.array_equal(reference, ys):
                problems.append("repeated seeded run gave another archive")
            gate.record(f"{algorithm} archive", problems)
        if len(first) == 2:
            merged = moo.merge_archives(*(a for _, a in self.archives[:2]))
            self.front_hv = squashed_hv(pareto, merged.objectives)
        self.archives.clear()

    def extra(self) -> list[tuple[str, float, str]]:
        return [("front_hv", self.front_hv, "1")]

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# the command-line pipeline

FOCUS = 0.04               # campaign sampling box: golden design +- 4% of each range


class Campaign:
    """`crosshinge optimize --config focus.ini --algorithm both --workers
    <nproc>`, then `select` and a short `refine`, through `cli.main` in
    this process. One operation is one whole campaign.

    The config file narrows the sampling bounds to a box around the golden
    design, where nearly every design runs the full sweep at a similar
    cost; over the whole box, the cost of a population of 8 would swing
    with its random outcome mix (`eval_uniform` measures that mix).
    Campaign k of a timed loop runs with seed `1000 * seed + k`, so a run
    averages over several populations and refine start designs.
    """

    op_label = "campaign"

    def __init__(self, pkg, golden: Golden, seed: int, quick: bool, workdir: Path):
        self.pkg = pkg
        self.golden = golden
        self.seed = seed
        self.population, self.generations, self.iters = (4, 1, 1) if quick else (8, 1, 3)
        self.workers = nproc()
        self.workdir = workdir
        self.loops: list[list[Path]] = []      # output directories per timed loop
        self.front_hv = 0.0
        self.speed = Speed()

    def _cli(self, argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                code = self.pkg.cli.main(argv)
            except Exception as err:  # reported as a failed command
                return -1, f"raised {type(err).__name__}: {err}"
        return code, out.getvalue()

    def _write_config(self) -> Path:
        geometry = self.pkg.geometry
        lower, upper = geometry.LOWER_BOUNDS, geometry.UPPER_BOUNDS
        low = np.maximum(self.golden.x - FOCUS * (upper - lower), lower)
        high = np.minimum(self.golden.x + FOCUS * (upper - lower), upper)
        lines = ["[bounds]"] + [f"{name} = {float(lo)!r},{float(hi)!r}" for name, lo, hi
                                in zip(geometry.DESIGN_FIELDS, low, high)]
        path = self.workdir / "focus.ini"
        self.workdir.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(lines) + "\n")
        return path

    def warmup(self) -> None:
        self._cli(["evaluate", "--values", self.golden.values])

    def run_phase(self, seconds: float, gate: Gate) -> Phase:
        config = self._write_config()
        phase = Phase()
        start = time.perf_counter()
        meter = Meter(self.speed)
        runs: list[Path] = []
        self.loops.append(runs)
        while fits(start, seconds, phase.raw_op_s):
            out = self.workdir / f"loop{len(self.loops)}-campaign{len(runs)}"
            merged = out / "archive_merged.csv"
            commands = [
                ["optimize", "--config", str(config), "--algorithm", "both",
                 "--pop", str(self.population), "--gens", str(self.generations),
                 "--seed", str(1000 * self.seed + len(runs)), "--workers", str(self.workers),
                 "--out", str(out)],
                ["select", "--archive", str(merged), "--target-weights", TARGET_WEIGHTS,
                 "--out", str(out / "select")],
                ["refine", "--archive", str(merged), "--target-weights", TARGET_WEIGHTS,
                 "--weights", TARGET_WEIGHTS, "--iters", str(self.iters),
                 "--out", str(out / "refine")],
            ]
            wall, raw = 0.0, phase.raw_wall_s
            for argv in commands:
                meter.mark()
                code, text = self._cli(argv)
                wall += meter.lap(phase)
                gate.record(f"{out.name} {argv[0]}",
                            [] if code == 0 else [f"exit {code} {text[-200:]}"])
            phase.op_s.append(wall)
            phase.raw_op_s.append(phase.raw_wall_s - raw)
            phase.evals += 2 * self.population * (self.generations + 1)
            refined = out / "refine" / "refined.json"
            if refined.exists():
                phase.evals += json.loads(refined.read_text())["evaluations"] + 2
            runs.append(out)
        return phase

    def check(self, gate: Gate) -> None:
        """Merged archives are non-dominated with positive objectives, and
        byte-identical when a later loop (the traced one) repeats a seed;
        refine starts from the selected design and never increases the
        scalar."""
        pareto = self.pkg.pareto
        first_loop: list[bytes] = []
        for loop, runs in enumerate(self.loops):
            for k, out in enumerate(runs):
                try:
                    merged_bytes = (out / "archive_merged.csv").read_bytes()
                    archive = pareto.read_archive_csv(out / "archive_merged.csv")
                    selection = json.loads((out / "select" / "selection.json").read_text())
                    refined = json.loads((out / "refine" / "refined.json").read_text())
                except (OSError, ValueError) as err:
                    gate.record(f"{out.name} outputs", [f"unreadable: {err}"])
                    continue
                problems = check_archive(pareto, archive.objectives, positive=True)
                if loop == 0:
                    first_loop.append(merged_bytes)
                elif k < len(first_loop) and merged_bytes != first_loop[k]:
                    problems.append("repeated seeded campaign gave another archive")
                if selection["selected_index"] != refined["selected_index"]:
                    problems.append("refine did not start from the selected design")
                if not refined["refined"]["scalar"] <= refined["start"]["scalar"] + 1e-12:
                    problems.append("refined scalar increased")
                gate.record(f"{out.name} outputs", problems)
                if loop == 0 and k == 0:
                    self.front_hv = squashed_hv(pareto, archive.objectives)
        self.loops.clear()

    def extra(self) -> list[tuple[str, float, str]]:
        return [("front_hv", self.front_hv, "1")]

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = ("eval_near_front", "eval_uniform", "moo_surrogate", "campaign")
N_DESIGNS = 4096


def build(name: str, pkg, golden: Golden, seed: int, quick: bool, workdir: Path):
    """The workload's inputs, generated from the seed alone."""
    if name == "eval_near_front":
        return EvalWorkload(pkg, golden, near_front_designs(pkg.geometry, golden, seed,
                                                            N_DESIGNS))
    if name == "eval_uniform":
        return EvalWorkload(pkg, golden, uniform_designs(pkg.geometry, seed, N_DESIGNS))
    if name == "moo_surrogate":
        return MooSurrogate(pkg, seed, quick)
    if name == "campaign":
        return Campaign(pkg, golden, seed, quick, workdir)
    raise ValueError(f"unknown workload {name!r}")
