"""Layer spans recorded from outside the crosshinge package.

The package's modules call each other through module attributes
(`kinetostatics` -> `geometry.build_hinge` / `beam_fem.run_sweep`,
`run_sweep` -> `solve_step` / `condense_translational_stiffness`, `moo` ->
`pareto.archive_insert` / `pareto.hypervolume`, ...). Replacing those
attributes with timing wrappers records every call at a layer boundary
without editing the package. Spans stay in memory until the run ends.

A span's self time is its duration minus the time its child spans cover;
the layer of a span is the part of its name before the first dot. The
benchmark's own speed samples are spans of layer `bench`, in no share.
"""

from __future__ import annotations

import functools
import os
import statistics
import time
from dataclasses import dataclass

from workloads import OUTCOMES, Speed

LAYERS = ("geometry", "beam_fem", "kinetostatics", "pareto", "moo", "refine", "cli")


@dataclass
class Span:
    name: str
    start: float
    parent: int                 # index of the enclosing span, -1 at top level
    end: float = 0.0
    note: object = None         # value extracted from the call's result
    error: str = ""             # exception type name when the call raised

    @property
    def duration(self) -> float:
        return self.end - self.start


def _outcome(args, result):
    return result.failure or "feasible"


def _feasible(args, result):
    return bool(result.feasible)


def _iterations(args, result):
    return result.iterations


def _engine_counts(args, result):
    engine, xs = args[0], args[1]
    return id(engine), len(xs), len(engine.cache)


def _archive_size(args, result):
    return len(result)


def _nm_evaluations(args, result):
    return result.evaluations


def _subcommand(args, result):
    return args[0][0] if args and args[0] else ""


class Tracer:
    """Records spans around the package's layer entry points.

    Only calls in the process that installed the tracer are recorded;
    forked pool workers inherit the wrappers but call straight through.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._pid = os.getpid()
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, note=None) -> None:
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if os.getpid() != tracer._pid:
                return original(*args, **kwargs)
            index = len(tracer.spans)
            span = Span(name=name, start=0.0,
                        parent=tracer._stack[-1] if tracer._stack else -1)
            tracer.spans.append(span)
            tracer._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException as err:
                span.error = type(err).__name__
                raise
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if note is not None:
                span.note = note(args, result)
            return result

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def install(self, package) -> "Tracer":
        """Wrap the layer boundaries of the imported package modules."""
        geometry, beam_fem, kinetostatics = package.geometry, package.beam_fem, \
            package.kinetostatics
        pareto, moo, refine, cli = package.pareto, package.moo, package.refine, \
            package.cli
        self.wrap(geometry, "build_hinge", "geometry.build_hinge")
        self.wrap(geometry, "check_feasibility", "geometry.check_feasibility", _feasible)
        self.wrap(beam_fem, "assemble_model", "beam_fem.assemble_model")
        self.wrap(beam_fem, "run_sweep", "beam_fem.run_sweep")
        self.wrap(beam_fem, "solve_step", "beam_fem.solve_step")
        self.wrap(beam_fem, "solve_equilibrium", "beam_fem.solve_equilibrium", _iterations)
        self.wrap(beam_fem.BeamModel, "assemble", "beam_fem.assemble")
        self.wrap(beam_fem, "solve_banded", "beam_fem.solve_banded")
        self.wrap(beam_fem, "condense_translational_stiffness", "beam_fem.condense")
        self.wrap(kinetostatics, "evaluate_objectives", "kinetostatics.evaluate_objectives",
                  _outcome)
        self.wrap(kinetostatics, "objectives_from_sweep", "kinetostatics.objectives")
        self.wrap(kinetostatics, "min_enclosing_circle", "kinetostatics.welzl")
        self.wrap(pareto, "archive_insert", "pareto.archive_insert")
        self.wrap(pareto, "hypervolume", "pareto.hypervolume")
        self.wrap(pareto, "nondominated_filter", "pareto.nondominated_filter")
        self.wrap(pareto, "read_archive_csv", "pareto.read_archive_csv")
        self.wrap(pareto, "write_archive_csv", "pareto.write_archive_csv")
        self.wrap(pareto, "select_by_target", "pareto.select_by_target")
        self.wrap(moo, "run", "moo.run", _archive_size)
        self.wrap(moo, "_nsga2_survivors", "moo.selection")
        self.wrap(moo, "_spea2_environmental", "moo.selection")
        self.wrap(moo, "variation", "moo.variation")
        self.wrap(moo._EvaluationEngine, "evaluate", "moo.evaluate", _engine_counts)
        self.wrap(refine, "refine_design", "refine.refine_design", _nm_evaluations)
        self.wrap(cli, "main", "cli.main", _subcommand)
        # the benchmark's own speed samples, which run inside moo.run on
        # moo_surrogate (from the progress callback); they belong to no layer
        self.wrap(Speed, "sample", "bench.speed")
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


def _p50(values) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.duration
    return [span.duration - covered for span, covered in zip(spans, child_time)]


def _has_ancestor(spans: list[Span], index: int, name: str) -> bool:
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def layer_metrics(spans: list[Span], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced phase lasting wall_s seconds.

    Layers a workload does not call report 0.
    """
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(i)

    def ms_p50(name):
        return 1e3 * _p50([spans[i].duration for i in by_name.get(name, [])])

    def count(name):
        return len(by_name.get(name, []))

    def total(name):
        return sum(spans[i].duration for i in by_name.get(name, []))

    own = self_times(spans)
    layer_self = dict.fromkeys(LAYERS + ("bench",), 0.0)
    for span, t in zip(spans, own):
        layer_self[span.name.split(".", 1)[0]] += t
    # wall_s excludes the speed samples, so the layers' spans cover
    # their top-level time minus the samples nested in them
    covered = sum(span.duration for span in spans
                  if span.parent < 0 and span.name != "bench.speed") \
        - sum(span.duration for span in spans if span.parent >= 0 and span.name == "bench.speed")

    m: dict[str, float] = {}
    evals = by_name.get("kinetostatics.evaluate_objectives", [])
    n_evals = len(evals)

    checks = [spans[i].note for i in by_name.get("geometry.check_feasibility", [])]
    m["geometry.build_hinge_ms_p50"] = ms_p50("geometry.build_hinge")
    m["geometry.check_feasibility_ms_p50"] = ms_p50("geometry.check_feasibility")
    m["geometry.reject_share"] = _ratio(sum(1 for ok in checks if ok is False), len(checks))

    solves = [spans[i] for i in by_name.get("beam_fem.solve_equilibrium", [])]
    steps = [spans[i] for i in by_name.get("beam_fem.solve_step", [])]
    failed_solves = sum(1 for s in solves if s.error == "NonConverged")
    failed_steps = sum(1 for s in steps if s.error == "NonConverged")
    m["beam_fem.assemble_model_ms_p50"] = ms_p50("beam_fem.assemble_model")
    m["beam_fem.run_sweep_ms_p50"] = ms_p50("beam_fem.run_sweep")
    m["beam_fem.assemble_ms_p50"] = ms_p50("beam_fem.assemble")
    m["beam_fem.assemble_calls_per_eval"] = _ratio(count("beam_fem.assemble"), n_evals)
    m["beam_fem.solve_banded_ms_p50"] = ms_p50("beam_fem.solve_banded")
    m["beam_fem.solve_banded_calls_per_eval"] = _ratio(count("beam_fem.solve_banded"),
                                                       n_evals)
    m["beam_fem.condense_ms_p50"] = ms_p50("beam_fem.condense")
    m["beam_fem.newton_iters_per_step"] = _ratio(
        sum(s.note for s in solves if s.note is not None),
        sum(1 for s in steps if not s.error))
    m["beam_fem.bisections_per_eval"] = _ratio(failed_solves - failed_steps, n_evals)

    eval_time = sum(spans[i].duration for i in evals)
    infeasible_time = sum(spans[i].duration for i in evals if spans[i].note != "feasible")
    m["kinetostatics.objectives_ms_p50"] = ms_p50("kinetostatics.objectives")
    m["kinetostatics.welzl_ms_p50"] = ms_p50("kinetostatics.welzl")
    m["kinetostatics.infeasible_time_share"] = _ratio(infeasible_time, eval_time)
    for outcome in OUTCOMES:
        m[f"kinetostatics.outcome.{outcome}"] = sum(
            1 for i in evals if spans[i].note == outcome)

    runs = [spans[i] for i in by_name.get("moo.run", [])]
    m["pareto.archive_insert_ms_p50"] = ms_p50("pareto.archive_insert")
    m["pareto.hypervolume_ms_p50"] = ms_p50("pareto.hypervolume")
    m["pareto.final_archive_size"] = _p50([r.note for r in runs if r.note is not None])

    engine_calls = [spans[i].note for i in by_name.get("moo.evaluate", [])]
    requested = sum(n for _, n, _ in engine_calls)
    final_cache = {}
    for engine, _, cached in engine_calls:
        final_cache[engine] = cached
    computed = sum(final_cache.values())
    run_time = sum(r.duration for r in runs)
    m["moo.selection_ms_p50"] = ms_p50("moo.selection")
    m["moo.variation_ms_p50"] = ms_p50("moo.variation")
    m["moo.evaluate_wait_s"] = _ratio(total("moo.evaluate"), len(engine_calls))
    m["moo.cache_hit_share"] = _ratio(requested - computed, requested)
    m["moo.overhead_share"] = _ratio(run_time - total("moo.evaluate"), run_time)

    refine_evals = [i for i in evals if _has_ancestor(spans, i, "refine.refine_design")]
    refines = [spans[i] for i in by_name.get("refine.refine_design", [])]
    m["refine.nm_evaluations"] = _p50([r.note for r in refines if r.note is not None])
    m["refine.nm_feasible_share"] = _ratio(
        sum(1 for i in refine_evals if spans[i].note == "feasible"), len(refine_evals))
    m["refine.s_per_eval"] = _ratio(sum(r.duration for r in refines), len(refine_evals))

    commands = [(spans[i], own[i]) for i in by_name.get("cli.main", [])]
    for sub in ("optimize", "select", "refine"):
        m[f"cli.{sub}_s"] = _p50([s.duration for s, _ in commands if s.note == sub])
    m["cli.self_s"] = _ratio(sum(t for _, t in commands),
                             sum(1 for s, _ in commands if s.note == "optimize"))

    for layer in LAYERS:
        m[f"{layer}.self_share"] = _ratio(layer_self[layer], wall_s)
    m["trace.unaccounted_share"] = _ratio(wall_s - covered, wall_s)
    m["trace.spans"] = len(spans)
    return m
