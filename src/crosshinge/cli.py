"""Command-line pipeline driver.

Every run is reproducible: all randomness flows from --seed, outputs are
written with round-trippable float formatting, and a manifest (resolved
config, seed, versions, input hashes) accompanies every output directory.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import csv
import functools
import io
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__, beam_fem, kinetostatics, moo, pareto, refine
from .geometry import DESIGN_FIELDS, LOWER_BOUNDS, UPPER_BOUNDS, DesignVector, build_hinge

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2

SVG_SIZE = 300.0  # pixels along the longer side of a rendered schematic


def _bounds_pair(text: str) -> tuple[float, float]:
    parts = [float(v) for v in text.split(",")]
    if len(parts) != 2:
        raise ValueError("a bounds override needs 'low,high'")
    return parts[0], parts[1]


# INI section -> key -> type, in manifest order; [global] `out` names the
# output directory and is not recorded in the manifest
SETTINGS = {
    "global": {"seed": int, "workers": int, "elements": int, "steps": int, "out": str},
    "optimize": {"algorithm": str, "population": int, "generations": int,
                 "crossover_prob": float, "crossover_eta": float,
                 "mutation_prob": float, "mutation_eta": float, "archive_size": int},
    "bounds": dict.fromkeys(DESIGN_FIELDS, _bounds_pair),
}
# defaults reproduce the reference campaign; [bounds] defaults to the admissible box
DEFAULTS = {f.name: f.default for f in fields(moo.MooConfig)} | {
    "algorithm": "both", "workers": 1, "elements": beam_fem.DEFAULT_ELEMENTS,
    "steps": beam_fem.DEFAULT_STEPS, "out": None}


def load_config_file(path: Path) -> dict:
    """Parse the INI config file into a flat settings dict."""
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise ValueError(f"cannot read config file {path}")
    settings: dict = {}
    for section in parser.sections():
        if section not in SETTINGS:
            raise ValueError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in SETTINGS[section]:
                raise ValueError(f"unknown key {key!r} in section [{section}]")
            try:
                settings[key] = SETTINGS[section][key](raw.strip())
            except ValueError as err:
                raise ValueError(f"[{section}] {key}: {err}") from None
    return settings


def resolve_config(args) -> dict:
    """Defaults < config file < command-line flags; an `out` at or below a file raises."""
    settings = dict(DEFAULTS)
    if getattr(args, "config", None):
        settings |= load_config_file(Path(args.config))
    settings |= {key: value for key, value in vars(args).items()
                 if key in DEFAULTS and value is not None}
    out = settings["out"] and Path(settings["out"])
    if out and not next(p for p in (out, *out.parents) if p.exists()).is_dir():
        raise ValueError(f"--out is not a directory: {out}")
    return settings


def sampling_bounds(settings: dict) -> tuple[np.ndarray, np.ndarray]:
    """The admissible box narrowed by the [bounds] overrides."""
    lower, upper = LOWER_BOUNDS.copy(), UPPER_BOUNDS.copy()
    for i, name in enumerate(DESIGN_FIELDS):
        if name in settings:
            lo, hi = settings[name]
            if not LOWER_BOUNDS[i] <= lo <= hi <= UPPER_BOUNDS[i]:
                raise ValueError(f"bounds override for {name} outside admissible range")
            lower[i], upper[i] = lo, hi
    return lower, upper


def build_manifest(args, config: dict, inputs: list[Path]) -> dict:
    import hashlib

    import scipy
    return {
        "command": args.command,
        "argv": args.argv,
        "config": config,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "crosshinge": __version__,
        },
        "inputs": {str(p): hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in inputs},
    }


def write_manifest(out: Path, args, config: dict, inputs: list[Path]) -> Path:
    """Create out and write the run's manifest.json into it; return out."""
    out.mkdir(parents=True, exist_ok=True)
    (out / "manifest.json").write_text(
        json.dumps(build_manifest(args, config, inputs), indent=2) + "\n")
    return out


def emit(args, filename: str, payload: dict, config: dict, inputs: list[Path]) -> int:
    """Print the payload as JSON. With --out, also write it to out/filename
    next to the manifest; otherwise the manifest is embedded in the payload."""
    if args.out:
        out = write_manifest(Path(args.out), args, config, inputs)
        (out / filename).write_text(json.dumps(payload, indent=2) + "\n")
    else:
        payload["manifest"] = build_manifest(args, config, inputs)
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def write_archive(out: Path, filename: str, archives: list[pareto.ParetoArchive],
                  args, config: dict, inputs: list[Path]) -> tuple[Path, int]:
    """Write the non-dominated union of the archives to out/filename next to
    the manifest; return its path and size. An empty union is written too,
    then raises EmptyArchive."""
    merged = functools.reduce(moo.merge_archives, archives)
    path = write_manifest(out, args, config, inputs) / filename
    pareto.write_archive_csv(path, merged)
    if len(merged) == 0:
        raise pareto.EmptyArchive(f"no feasible designs in {path}")
    return path, len(merged)


# ---------------------------------------------------------------------------
# design input parsing

def parse_design_values(text: str) -> DesignVector:
    parts = text.replace(";", ",").split(",")
    if len(parts) != 13:
        raise ValueError(f"expected 13 comma-separated values, got {len(parts)}")
    return DesignVector.from_array([float(p) for p in parts])


def archive_designs(archive: pareto.ParetoArchive, rows) -> list[DesignVector]:
    """The designs on the given rows of an archive."""
    if len(archive) == 0:
        raise pareto.EmptyArchive("empty archive")
    for row in rows:
        if not 0 <= row < len(archive):
            raise ValueError(f"row {row} outside archive of size {len(archive)}")
    return [DesignVector.from_array(archive.designs[row]) for row in rows]


def reject_combined(args, flag: str, *others: str) -> None:
    """Raise ValueError if the option flag is given with any of the others
    (argparse destinations), one of which would otherwise be ignored."""
    clash = ["--" + name.replace("_", "-") for name in others if getattr(args, name) is not None]
    if getattr(args, flag) is not None and clash:
        raise ValueError(f"--{flag.replace('_', '-')} cannot be used with {', '.join(clash)}")


def design_from_args(args) -> tuple[DesignVector, list[Path]]:
    """The design and the files it was read from (none for --values)."""
    reject_combined(args, "values", "archive", "row")
    if args.values:
        return parse_design_values(args.values), []
    if args.archive is None:
        raise ValueError("provide a design via --values or --archive/--row")
    archive = pareto.read_archive_csv(Path(args.archive))
    return archive_designs(archive, [args.row or 0])[0], [Path(args.archive)]


def objective_dict(y: np.ndarray) -> dict:
    return dict(zip(pareto.OBJECTIVE_FIELDS, (float(v) for v in y)))


def refine_block(design: DesignVector, record, scalar: float) -> dict:
    """The `start` or `refined` block of refined.json."""
    return {"design": asdict(design), "objectives": objective_dict(record.y), "scalar": scalar}


# ---------------------------------------------------------------------------
# trace and SVG output

def sweep_trace(design: DesignVector, model, sweep) -> dict:
    """Per-step sweep dump used by `evaluate --trace` and `render`."""
    steps = [
        {"phi": phi, "x_a": tip, "moment": moment, "stiffness": stiffness,
         "max_strain": max_strain, "newton_iterations": iterations, "bisected": bisected}
        for phi, tip, moment, stiffness, max_strain, iterations, bisected in zip(
            sweep.phi.tolist(), sweep.tip_positions.tolist(), sweep.moments.tolist(),
            sweep.stiffnesses.tolist(), sweep.max_strains.tolist(),
            sweep.iterations.tolist(), sweep.bisected.tolist())
    ]
    reference = [m.node_pos.tolist() for m in model.meshes]
    deformed = [[line.tolist() for line in model.deformed_centerlines(z)] for z in sweep.z]
    return {
        "design": asdict(design),
        "converged": sweep.failure is None,
        "failure": sweep.failure,
        "heights": [m.height for m in model.meshes],
        "steps": steps,
        "centerlines": {"reference": reference, "deformed": deformed},
    }


def centerlines_svg(layers: list[tuple[list[np.ndarray], list[float], str]]) -> str:
    """SVG document from layers of (polylines, stroke widths, color), its
    longer side SVG_SIZE pixels."""
    all_points = np.concatenate([np.asarray(line) for lines, _, _ in layers
                                 for line in lines])
    widths = [w for _, ws, _ in layers for w in ws]
    pad = max(widths) if widths else 0.1
    lo = all_points.min(axis=0) - pad
    hi = all_points.max(axis=0) + pad
    span = np.maximum(hi - lo, 1e-6)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{SVG_SIZE * span[0] / span.max():.0f}" '
        f'height="{SVG_SIZE * span[1] / span.max():.0f}" '
        f'viewBox="{lo[0]:.6g} {-hi[1]:.6g} {span[0]:.6g} {span[1]:.6g}">'
    ]
    for lines, ws, color in layers:
        for line, width in zip(lines, ws):
            pts = " ".join(f"{p[0]:.6g},{-p[1]:.6g}" for p in np.asarray(line))
            parts.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" '
                f'stroke-width="{width:.6g}" stroke-linecap="round" '
                f'stroke-linejoin="round"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_design_svg(design: DesignVector) -> str:
    hinge = build_hinge(design)
    lines = [f.points for f in hinge.flexures]
    widths = [f.height for f in hinge.flexures]
    return centerlines_svg([(lines, widths, "#303030")])


def render_trace_svg(trace: dict) -> str:
    """Reference and last deformed centerlines of an `evaluate --trace` file.

    Raises:
        ValueError: unless the trace holds two reference polylines, a last
            deformed step of two polylines and two finite positive heights.
    """
    try:
        reference = [np.asarray(line, dtype=float)
                     for line in trace["centerlines"]["reference"]]
        deformed = [np.asarray(line, dtype=float)
                    for line in trace["centerlines"]["deformed"][-1]]
        widths = np.asarray(trace["heights"], dtype=float)
    except (TypeError, KeyError, IndexError) as err:
        raise ValueError(f"malformed sweep trace ({type(err).__name__}: {err})") from None
    if not (len(reference) == len(deformed) == widths.size == 2
            and np.isfinite(widths).all() and (widths > 0).all()
            and all(line.ndim == 2 and line.shape[1] == 2 and np.isfinite(line).all()
                    for line in reference + deformed)):
        raise ValueError("malformed sweep trace: need two reference polylines, a "
                         "deformed step of two polylines and two finite positive heights")
    return centerlines_svg([
        (reference, widths, "#b0b0b0"),
        (deformed, widths, "#202020"),
    ])


# ---------------------------------------------------------------------------
# subcommands

def cmd_evaluate(args) -> int:
    settings = resolve_config(args)
    design, inputs = design_from_args(args)
    trace = args.trace and Path(args.trace)
    if trace and not trace.parent.is_dir():
        raise ValueError(f"no such directory for --trace: {trace.parent}")
    if trace and trace.is_dir():
        raise ValueError(f"--trace is a directory: {trace}")
    report, sweep, model = kinetostatics.evaluate_with_sweep(
        design, n_elements=settings["elements"], n_steps=settings["steps"])

    payload = {
        "design": asdict(design),
        "feasible": report.feasible,
        "violation": report.violation,
        "r_bar": report.r_bar,
        "c_bar": report.c_bar,
        "k_bar": report.k_bar,
    }
    if not report.feasible:
        payload["failure"] = report.failure
    if trace:
        if sweep is None:
            print("error: no sweep to trace (geometry rejected)", file=sys.stderr)
            return EXIT_FAILURE
        trace.write_text(
            json.dumps(sweep_trace(design, model, sweep), indent=2) + "\n")
    return emit(args, "evaluation.json", payload,
                {"elements": settings["elements"], "steps": settings["steps"],
                 "trace": bool(args.trace)}, inputs)


@contextlib.contextmanager
def process_map(workers: int):
    """The builtin map if one process would run at a time, else a map sending
    each call of two or more items to a pool of `workers` processes, at most
    one per CPU this process may run on (one item runs here). The pool's map
    carries its process count as `width`, so kinetostatics.map_records gives
    each process as many chunks while designs last. Callers cap `workers` at
    their largest batch: a pool starts all its processes at once. Records do
    not depend on the pool size. workers < 1 raises ValueError."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    workers = min(workers, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                  else os.cpu_count() or 1)
    if workers == 1:
        yield map
        return
    with ProcessPoolExecutor(workers) as pool:
        def pool_map(fn, items):
            return (pool.map if len(items) > 1 else map)(fn, items)

        pool_map.width = workers
        yield pool_map


def _progress_log(path: Path, out, files: contextlib.ExitStack):
    """A moo.run progress callback printing each generation's line to the
    stream out and to the log at path, which files opens, with its directory,
    at the first line, so a run that fails before generation 0 writes nothing."""
    log = []

    def callback(stats: moo.GenerationStats) -> None:
        line = (f"gen={stats.generation} feasible={stats.feasible} "
                f"archive={stats.archive_size} hv={stats.hypervolume:.9f}")
        if not log:
            path.parent.mkdir(parents=True, exist_ok=True)
            log.append(files.enter_context(path.open("w")))
        for stream in (out, *log):
            print(line, file=stream)
            stream.flush()
    return callback


def cmd_optimize(args) -> int:
    settings = resolve_config(args)
    if not settings["out"]:
        raise ValueError("no output directory (give --out or set it in the config)")
    lower, upper = sampling_bounds(settings)
    shared = {f.name: settings[f.name] for f in fields(moo.MooConfig)}
    algorithms = ["nsga2", "spea2"] if shared["algorithm"] == "both" else [shared["algorithm"]]
    moo_configs = [moo.MooConfig(**(shared | {"algorithm": algorithm})).validated()
                   for algorithm in algorithms]
    kinetostatics.check_resolution(settings["elements"], settings["steps"])
    out = Path(settings["out"])

    evaluator = kinetostatics.HingeEvaluator(n_elements=settings["elements"],
                                             n_steps=settings["steps"], lower=lower, upper=upper)
    # the first run prints live, a second one's lines after the first one's
    streams = [sys.stdout] + [io.StringIO() for _ in moo_configs[1:]]
    with process_map(min(settings["workers"], moo_configs[0].population)) as pool_map, \
            contextlib.ExitStack() as logs:
        for moo_cfg, stream in zip(moo_configs, streams):
            print(f"[{moo_cfg.algorithm}] pop={moo_cfg.population} gens={moo_cfg.generations} "
                  f"seed={moo_cfg.seed} workers={settings['workers']}", file=stream)
        progresses = [_progress_log(out / f"progress_{moo_cfg.algorithm}.log", stream, logs)
                      for moo_cfg, stream in zip(moo_configs, streams)]
        # one pool, and one batch per generation for both runs: a design both draw is swept once
        archives = moo.run_together(moo_configs, evaluator, progresses,
                                    moo._EvaluationEngine(evaluator, pool_map))
    for stream in streams[1:]:
        sys.stdout.write(stream.getvalue())
    for moo_cfg, archive in zip(moo_configs, archives):
        pareto.write_archive_csv(out / f"archive_{moo_cfg.algorithm}.csv", archive)

    config = {section: {key: settings[key] for key in SETTINGS[section] if key != "out"}
              for section in ("global", "optimize")}
    config["bounds"] = ({name: [lo, hi] for name, lo, hi in zip(DESIGN_FIELDS, lower, upper)}
                        if any(name in settings for name in DESIGN_FIELDS) else None)
    inputs = [Path(args.config)] if args.config else []
    path, size = write_archive(out, "archive_merged.csv", archives, args, config, inputs)
    print(f"merged archive: {size} designs -> {path}")
    return EXIT_OK


def cmd_merge(args) -> int:
    inputs = [Path(p) for p in args.archives]
    path, size = write_archive(Path(args.out), "archive_merged.csv",
                               [pareto.read_archive_csv(p) for p in inputs], args, {}, inputs)
    print(f"merged archive: {size} designs -> {path}")
    return EXIT_OK


def _parse_weights(text: str, flag: str) -> np.ndarray:
    weights = np.array([float(v) for v in text.split(",")])
    if weights.size != 3 or not np.all(np.isfinite(weights)) or np.any(weights < 0.0):
        raise ValueError(f"{flag} must be 3 finite non-negative values")
    with np.errstate(over="ignore"):
        total = weights.sum()
    if not 0.0 < total < np.inf:
        raise ValueError(f"{flag} must have a positive, finite sum")
    if abs(total - 1.0) > 1e-9:
        print(f"warning: {flag} sums to {total:.6g}; normalizing",
              file=sys.stderr)
        weights = weights / total
    return weights


def cmd_select(args) -> int:
    archive = pareto.read_archive_csv(Path(args.archive))
    target = _parse_weights(args.target_weights, "--target-weights")
    index = pareto.select_by_target(archive, target)
    normalized = pareto.normalize_front(archive)
    weights = pareto.pseudo_weights(normalized)
    payload = {
        "target_weights": [float(v) for v in target],
        "selected_index": index,
        "design": asdict(DesignVector.from_array(archive.designs[index])),
        "objectives": objective_dict(archive.objectives[index]),
        "normalized": [float(v) for v in normalized[index]],
        "pseudo_weights": [float(v) for v in weights[index]],
        "table": [
            {"index": i, "pseudo_weights": [float(v) for v in w],
             "l1_distance": float(np.abs(w - target).sum())}
            for i, w in enumerate(weights)
        ],
    }
    return emit(args, "selection.json", payload,
                {"target_weights": [float(v) for v in target]}, [Path(args.archive)])


def cmd_refine(args) -> int:
    reject_combined(args, "values", "row", "target_weights")
    reject_combined(args, "row", "target_weights")
    settings = resolve_config(args)
    archive = pareto.read_archive_csv(Path(args.archive))
    index = None
    if args.values:
        start = parse_design_values(args.values)
    else:
        index = args.row
        if index is None:
            target = _parse_weights(args.target_weights or "0.3333333333333333,"
                                    "0.3333333333333333,0.3333333333333333",
                                    "--target-weights")
            index = pareto.select_by_target(archive, target)
        start = archive_designs(archive, [index])[0]
    weights = _parse_weights(args.weights, "--weights") if args.weights else None
    start.validate()  # bad input is rejected before the pool opens
    kinetostatics.check_resolution(settings["elements"], settings["steps"])
    if args.iters < 0:
        raise ValueError(f"iteration budget must be >= 0, got {args.iters}")
    refine.check_weights(archive, weights)

    evaluator = kinetostatics.HingeEvaluator(n_elements=settings["elements"],
                                             n_steps=settings["steps"])
    with process_map(len(DESIGN_FIELDS) + 1) as pool_map:  # the largest batch: x0 and n vertices
        report = refine.refine_design(start, archive, evaluator, weights=weights,
                                      max_iters=args.iters, map=pool_map)
    payload = {
        "selected_index": index,
        "weights": [float(v) for v in report.weights],
        "start": refine_block(start, report.start, report.start_value),
        "refined": refine_block(DesignVector.from_array(report.x), report.best, report.value),
        "iterations": report.iterations,
        "evaluations": report.evaluations,
    }
    return emit(args, "refined.json", payload,
                {"iters": args.iters, "row": index,
                 "elements": settings["elements"], "steps": settings["steps"]},
                [Path(args.archive)])


def cmd_render(args) -> int:
    # every document is built before --out is created, so bad input leaves nothing
    if args.rows is not None and args.archive is None:
        raise ValueError("--rows needs --archive")
    svgs = []  # (file name, document)
    inputs = []
    if args.trace:
        trace = json.loads(Path(args.trace).read_text())
        svgs.append((Path(args.trace).stem + "_deformed.svg", render_trace_svg(trace)))
        inputs.append(Path(args.trace))
    if args.values:
        svgs.append(("design.svg", render_design_svg(parse_design_values(args.values))))
    if args.archive:
        archive = pareto.read_archive_csv(Path(args.archive))
        inputs.append(Path(args.archive))
        rows = (range(len(archive)) if args.rows is None
                else [int(v) for v in args.rows.split(",")])
        svgs += [(f"design_{row:04d}.svg", render_design_svg(design))
                 for row, design in zip(rows, archive_designs(archive, rows))]
    if not svgs:
        raise ValueError("nothing to render (give --archive, --values or --trace)")
    out = write_manifest(Path(args.out), args, {}, inputs)
    for name, svg in svgs:
        (out / name).write_text(svg)
        print(out / name)
    return EXIT_OK


def cmd_front(args) -> int:
    path, _ = write_archive(Path(args.out), "front.csv",
                            [pareto.read_archive_csv(Path(args.archive))],
                            args, {}, [Path(args.archive)])
    print(path)
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crosshinge",
        description="Pareto-optimal synthesis of compliant cross-hinge designs",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    mesh = argparse.ArgumentParser(add_help=False)
    mesh.add_argument("--elements", type=int, help="beam elements per flexure")
    mesh.add_argument("--steps", type=int, help="rotation sweep steps")

    p = sub.add_parser("evaluate", parents=[mesh], help="evaluate one design")
    p.set_defaults(run=cmd_evaluate)
    p.add_argument("--values", help="13 comma-separated design values")
    p.add_argument("--archive", help="archive CSV to read the design from")
    p.add_argument("--row", type=int, help="archive row index (default 0)")
    p.add_argument("--trace", help="write the per-step sweep JSON here")
    p.add_argument("--out", help="output directory (evaluation.json + manifest)")

    p = sub.add_parser("optimize", parents=[mesh], help="run the evolutionary synthesis")
    p.set_defaults(run=cmd_optimize)
    p.add_argument("--config", help="INI config file")
    p.add_argument("--algorithm", choices=["nsga2", "spea2", "both"])
    p.add_argument("--pop", type=int, dest="population", help="population size")
    p.add_argument("--gens", type=int, dest="generations", help="number of generations")
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=int)
    p.add_argument("--out", help="output directory (or set in the config file)")

    p = sub.add_parser("merge", help="merge archive CSVs")
    p.set_defaults(run=cmd_merge)
    p.add_argument("archives", nargs="+", help="archive CSV paths")
    p.add_argument("--out", required=True)

    p = sub.add_parser("select", help="pseudo-weight decision making")
    p.set_defaults(run=cmd_select)
    p.add_argument("--archive", required=True)
    p.add_argument("--target-weights", required=True,
                   help="3 comma-separated target weights")
    p.add_argument("--out")

    p = sub.add_parser("refine", parents=[mesh], help="scalarized Nelder-Mead refinement")
    p.set_defaults(run=cmd_refine)
    p.add_argument("--archive", required=True,
                   help="archive CSV (start design source and frozen normalization)")
    p.add_argument("--row", type=int, help="start design row")
    p.add_argument("--target-weights", help="select the start design by target")
    p.add_argument("--values", help="explicit start design (13 comma-separated)")
    p.add_argument("--weights", help="explicit scalarization weights")
    p.add_argument("--iters", type=int, default=refine.MAX_ITERS)
    p.add_argument("--out")

    p = sub.add_parser("render", help="SVG schematics of designs")
    p.set_defaults(run=cmd_render)
    p.add_argument("--archive")
    p.add_argument("--rows", help="comma-separated row indices (default all)")
    p.add_argument("--values", help="13 comma-separated design values")
    p.add_argument("--trace", help="sweep trace JSON for a deformed overlay")
    p.add_argument("--out", required=True)

    p = sub.add_parser("front", help="export normalized front + pseudo-weights")
    p.set_defaults(run=cmd_front)
    p.add_argument("--archive", required=True)
    p.add_argument("--out", required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand. Exit codes: 0 success, 1 a valid request with no
    result (infeasible start, degenerate objective, empty archive) or one
    that runs out of memory (a population too large to allocate), 2 bad
    input (malformed or out-of-range values, unreadable files)."""
    argv = list(sys.argv[1:] if argv is None else argv)
    # the namespace carries the command line for the manifest
    args = build_parser().parse_args(argv, argparse.Namespace(argv=argv))
    try:
        return args.run(args)
    except (refine.InfeasibleStart, pareto.DegenerateObjective, pareto.EmptyArchive) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_FAILURE
    except MemoryError as err:
        print(f"error: out of memory: {err}", file=sys.stderr)
        return EXIT_FAILURE
    except (ValueError, OSError, KeyError, configparser.Error, csv.Error) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
