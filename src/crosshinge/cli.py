"""Command-line pipeline driver.

Subcommands: evaluate, optimize, merge, select, refine, render, front.
Every run is reproducible: all randomness flows from --seed, outputs are
written with round-trippable float formatting, and a manifest (resolved
config, seed, versions, input hashes) accompanies every output directory.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import hashlib
import json
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__, beam_fem, kinetostatics, moo, pareto, refine
from .geometry import DESIGN_FIELDS, LOWER_BOUNDS, UPPER_BOUNDS, DesignVector, build_hinge

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


@dataclass(frozen=True)
class RunConfig:
    """Resolved settings; defaults reproduce the reference campaign."""

    seed: int = 0
    workers: int = 1
    elements: int = beam_fem.DEFAULT_ELEMENTS
    steps: int = beam_fem.DEFAULT_STEPS
    out: str | None = None
    algorithm: str = "both"         # nsga2 | spea2 | both
    population: int = 500
    generations: int = 1000
    crossover_prob: float = 0.9
    crossover_eta: float = 15.0
    mutation_prob: float | None = None
    mutation_eta: float = 20.0
    archive_size: int | None = None
    lower_bounds: tuple[float, ...] | None = None
    upper_bounds: tuple[float, ...] | None = None


# config-file keys per section, in manifest order ([global] also takes `out`)
_GLOBAL_KEYS = ("seed", "workers", "elements", "steps")
_OPTIMIZE_KEYS = ("algorithm", "population", "generations", "crossover_prob",
                  "crossover_eta", "mutation_prob", "mutation_eta", "archive_size")


def load_config_file(path: Path) -> dict:
    """Parse the INI config file into a flat settings dict."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ValueError(f"cannot read config file {path}")
    settings: dict = {}
    for section in parser.sections():
        if section == "global":
            allowed = _GLOBAL_KEYS + ("out",)
        elif section == "optimize":
            allowed = _OPTIMIZE_KEYS
        elif section == "bounds":
            allowed = DESIGN_FIELDS
        else:
            raise ValueError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in allowed:
                raise ValueError(f"unknown key {key!r} in section [{section}]")
            if section == "bounds":
                parts = [float(v) for v in raw.split(",")]
                if len(parts) != 2:
                    raise ValueError(f"bounds override {key!r} needs 'low,high'")
                settings.setdefault("bounds", {})[key] = tuple(parts)
            elif key in ("algorithm", "out"):
                settings[key] = raw.strip()
            elif key in ("crossover_prob", "crossover_eta", "mutation_prob",
                         "mutation_eta"):
                settings[key] = float(raw)
            else:
                settings[key] = int(raw)
    return settings


def resolve_config(args) -> RunConfig:
    """Defaults < config file < command-line flags."""
    settings = {}
    if getattr(args, "config", None):
        settings = load_config_file(Path(args.config))
    bound_overrides = settings.pop("bounds", {})
    cfg = RunConfig(**settings)
    for name in ("seed", "workers", "elements", "steps", "algorithm",
                 "population", "generations"):
        value = getattr(args, {"population": "pop", "generations": "gens"}.get(name, name), None)
        if value is not None:
            cfg = replace(cfg, **{name: value})
    if bound_overrides:
        lower = LOWER_BOUNDS.copy()
        upper = UPPER_BOUNDS.copy()
        for key, (lo, hi) in bound_overrides.items():
            i = DESIGN_FIELDS.index(key)
            if lo > hi or lo < LOWER_BOUNDS[i] or hi > UPPER_BOUNDS[i]:
                raise ValueError(f"bounds override for {key} outside admissible range")
            lower[i], upper[i] = lo, hi
        cfg = replace(cfg, lower_bounds=tuple(lower), upper_bounds=tuple(upper))
    return cfg


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    digest.update(path.read_bytes())
    return digest.hexdigest()


def build_manifest(command: str, argv: list[str], config: dict,
                   inputs: list[Path]) -> dict:
    import scipy
    return {
        "command": command,
        "argv": list(argv),
        "config": config,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "crosshinge": __version__,
        },
        "inputs": {str(p): _sha256(Path(p)) for p in inputs},
    }


def write_manifest(out_dir: Path, manifest: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def emit(args, argv: list[str], command: str, filename: str, payload: dict,
         config: dict, inputs: list[Path]) -> int:
    """Print the payload as JSON. With --out, also write it to out/filename
    next to the manifest; otherwise the manifest is embedded in the payload."""
    manifest = build_manifest(command, argv, config, inputs)
    if args.out:
        write_manifest(Path(args.out), manifest)
        (Path(args.out) / filename).write_text(json.dumps(payload, indent=2) + "\n")
    else:
        payload["manifest"] = manifest
    print(json.dumps(payload, indent=2))
    return EXIT_OK


# ---------------------------------------------------------------------------
# design input parsing

def parse_design_values(text: str) -> DesignVector:
    parts = text.replace(";", ",").split(",")
    if len(parts) != 13:
        raise ValueError(f"expected 13 comma-separated values, got {len(parts)}")
    return DesignVector.from_array([float(p) for p in parts])


def design_from_args(args) -> DesignVector:
    if getattr(args, "values", None):
        return parse_design_values(args.values)
    if getattr(args, "archive", None) is None:
        raise ValueError("provide a design via --values or --archive/--row")
    archive = pareto.read_archive_csv(Path(args.archive))
    row = getattr(args, "row", None) or 0
    if not 0 <= row < len(archive):
        raise ValueError(f"row {row} outside archive of size {len(archive)}")
    return DesignVector.from_array(archive.entries[row].x)


def design_dict(design: DesignVector) -> dict:
    return {name: getattr(design, name) for name in DESIGN_FIELDS}


def objective_dict(y: np.ndarray) -> dict:
    return dict(zip(pareto.OBJECTIVE_FIELDS, (float(v) for v in y)))


# ---------------------------------------------------------------------------
# trace and SVG output

def sweep_trace(design: DesignVector, model, sweep) -> dict:
    """Per-step sweep dump used by `evaluate --trace` and `render`."""
    steps = [
        {
            "phi": rec.phi,
            "x_a": [float(v) for v in rec.tip_position],
            "moment": rec.moment,
            "stiffness": [[float(v) for v in row] for row in rec.stiffness],
            "max_strain": rec.max_strain,
        }
        for rec in sweep.records
    ]
    reference = [m.node_pos.tolist() for m in model.meshes]
    deformed = [
        [line.tolist() for line in model.deformed_centerlines(state)]
        for state in sweep.states
    ]
    return {
        "design": design_dict(design),
        "converged": sweep.converged,
        "failure": sweep.failure,
        "heights": [m.section.height for m in model.meshes],
        "steps": steps,
        "centerlines": {"reference": reference, "deformed": deformed},
    }


def centerlines_svg(layers: list[tuple[list[np.ndarray], list[float], str]],
                    scale: float = 300.0) -> str:
    """SVG document from layers of (polylines, stroke widths, color)."""
    all_points = np.concatenate([np.asarray(line) for lines, _, _ in layers
                                 for line in lines])
    widths = [w for _, ws, _ in layers for w in ws]
    pad = max(widths) if widths else 0.1
    lo = all_points.min(axis=0) - pad
    hi = all_points.max(axis=0) + pad
    span = np.maximum(hi - lo, 1e-6)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{scale * span[0] / span.max():.0f}" '
        f'height="{scale * span[1] / span.max():.0f}" '
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
    reference = [np.asarray(line) for line in trace["centerlines"]["reference"]]
    deformed = [np.asarray(line) for line in trace["centerlines"]["deformed"][-1]]
    widths = [float(h) for h in trace["heights"]]
    return centerlines_svg([
        (reference, widths, "#b0b0b0"),
        (deformed, widths, "#202020"),
    ])


# ---------------------------------------------------------------------------
# subcommands

def cmd_evaluate(args, argv) -> int:
    cfg = resolve_config(args)
    design = design_from_args(args)
    report, sweep, model = kinetostatics.evaluate_with_sweep(
        design, n_elements=cfg.elements, n_steps=cfg.steps)

    payload = {
        "design": design_dict(design),
        "feasible": report.feasible,
        "violation": report.violation,
        "r_bar": report.r_bar,
        "c_bar": report.c_bar,
        "k_bar": report.k_bar,
    }
    if not report.feasible:
        payload["failure"] = report.failure
    if args.trace:
        if sweep is None:
            print("error: no sweep to trace (geometry rejected)", file=sys.stderr)
            return EXIT_FAILURE
        Path(args.trace).write_text(
            json.dumps(sweep_trace(design, model, sweep), indent=2) + "\n")
    return emit(args, argv, "evaluate", "evaluation.json", payload,
                {"elements": cfg.elements, "steps": cfg.steps, "trace": bool(args.trace)},
                [Path(args.archive)] if args.archive else [])


def _progress_writer(stream_paths):
    def callback(stats: moo.GenerationStats) -> None:
        line = (f"gen={stats.generation} feasible={stats.feasible} "
                f"archive={stats.archive_size} hv={stats.hypervolume:.9f}")
        for stream in stream_paths:
            print(line, file=stream)
            stream.flush()
    return callback


def cmd_optimize(args, argv) -> int:
    cfg = resolve_config(args)
    out_path = args.out or cfg.out
    if out_path is None:
        raise ValueError("no output directory (give --out or set it in the config)")
    settings = asdict(cfg)
    shared = {f.name: settings[f.name] for f in fields(moo.MooConfig)}
    algorithms = ["nsga2", "spea2"] if cfg.algorithm == "both" else [cfg.algorithm]
    moo_configs = [moo.MooConfig(**{**shared, "algorithm": algorithm}).validated()
                   for algorithm in algorithms]
    out = Path(out_path)
    out.mkdir(parents=True, exist_ok=True)

    evaluator = moo.HingeEvaluator(
        n_elements=cfg.elements, n_steps=cfg.steps,
        lower_override=cfg.lower_bounds, upper_override=cfg.upper_bounds,
    )
    archives = []
    for moo_cfg in moo_configs:
        algorithm = moo_cfg.algorithm
        print(f"[{algorithm}] pop={cfg.population} gens={cfg.generations} "
              f"seed={cfg.seed} workers={cfg.workers}")
        with (out / f"progress_{algorithm}.log").open("w") as log:
            archive = moo.run(moo_cfg, evaluator,
                              progress=_progress_writer([sys.stdout, log]))
        archives.append(archive)
        pareto.write_archive_csv(out / f"archive_{algorithm}.csv", archive)
    merged = functools.reduce(moo.merge_archives, archives)
    pareto.write_archive_csv(out / "archive_merged.csv", merged)

    manifest_config = {
        "global": {key: settings[key] for key in _GLOBAL_KEYS},
        "optimize": {key: settings[key] for key in _OPTIMIZE_KEYS},
        "bounds": {
            name: [lo, hi] for name, lo, hi
            in zip(DESIGN_FIELDS, cfg.lower_bounds, cfg.upper_bounds)
        } if cfg.lower_bounds else None,
    }
    inputs = [Path(args.config)] if args.config else []
    write_manifest(out, build_manifest("optimize", argv, manifest_config, inputs))

    if len(merged) == 0:
        raise pareto.EmptyArchive("no feasible designs")
    print(f"merged archive: {len(merged)} designs -> {out / 'archive_merged.csv'}")
    return EXIT_OK


def cmd_merge(args, argv) -> int:
    archives = [pareto.read_archive_csv(Path(p)) for p in args.archives]
    merged = functools.reduce(moo.merge_archives, archives)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    pareto.write_archive_csv(out / "archive_merged.csv", merged)
    write_manifest(out, build_manifest("merge", argv, {}, [Path(p) for p in args.archives]))
    print(f"merged archive: {len(merged)} designs -> {out / 'archive_merged.csv'}")
    return EXIT_OK


def _parse_weights(text: str) -> np.ndarray:
    weights = np.array([float(v) for v in text.split(",")])
    if weights.size != 3 or not np.all(np.isfinite(weights)) or np.any(weights < 0.0):
        raise ValueError("target weights must be 3 finite non-negative values")
    total = weights.sum()
    if total <= 0.0:
        raise ValueError("target weights must not all be zero")
    if abs(total - 1.0) > 1e-9:
        print(f"warning: target weights sum to {total:.6g}; normalizing",
              file=sys.stderr)
        weights = weights / total
    return weights


def cmd_select(args, argv) -> int:
    archive = pareto.read_archive_csv(Path(args.archive))
    target = _parse_weights(args.target_weights)
    index, entry = pareto.select_by_target(archive, target)
    normalized, _ = pareto.normalize_front(archive)
    weights = pareto.pseudo_weights(normalized)
    payload = {
        "target_weights": [float(v) for v in target],
        "selected_index": index,
        "design": design_dict(DesignVector.from_array(entry.x)),
        "objectives": objective_dict(entry.y),
        "normalized": [float(v) for v in normalized[index]],
        "pseudo_weights": [float(v) for v in weights[index]],
        "table": [
            {"index": i, "pseudo_weights": [float(v) for v in w],
             "l1_distance": float(np.abs(w - target).sum())}
            for i, w in enumerate(weights)
        ],
    }
    return emit(args, argv, "select", "selection.json", payload,
                {"target_weights": [float(v) for v in target]}, [Path(args.archive)])


def cmd_refine(args, argv) -> int:
    cfg = resolve_config(args)
    archive = pareto.read_archive_csv(Path(args.archive))
    if len(archive) == 0:
        raise pareto.EmptyArchive("empty archive")
    index = None
    if args.values:
        start = parse_design_values(args.values)
    else:
        if args.row is not None:
            if not 0 <= args.row < len(archive):
                raise ValueError(f"row {args.row} outside archive")
            index = args.row
        else:
            target = _parse_weights(args.target_weights or "0.3333333333333333,"
                                    "0.3333333333333333,0.3333333333333333")
            index, _ = pareto.select_by_target(archive, target)
        start = DesignVector.from_array(archive.entries[index].x)
    weights = _parse_weights(args.weights) if args.weights else None

    report = refine.refine_design(
        start, ideal=archive.ideal, nadir=archive.nadir, weights=weights,
        max_iters=args.iters, n_elements=cfg.elements, n_steps=cfg.steps)
    payload = {
        "selected_index": index,
        "weights": [float(v) for v in report.weights],
        "start": {
            "design": design_dict(report.start_design),
            "objectives": objective_dict(report.start_objectives),
            "scalar": report.start_scalar,
        },
        "refined": {
            "design": design_dict(report.refined_design),
            "objectives": objective_dict(report.refined_objectives),
            "scalar": report.refined_scalar,
        },
        "iterations": report.iterations,
        "evaluations": report.evaluations,
    }
    return emit(args, argv, "refine", "refined.json", payload,
                {"iters": args.iters, "row": index,
                 "elements": cfg.elements, "steps": cfg.steps},
                [Path(args.archive)])


def cmd_render(args, argv) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    inputs = []
    if args.trace:
        trace = json.loads(Path(args.trace).read_text())
        path = out / (Path(args.trace).stem + "_deformed.svg")
        path.write_text(render_trace_svg(trace))
        written.append(path)
        inputs.append(Path(args.trace))
    if args.values:
        path = out / "design.svg"
        path.write_text(render_design_svg(parse_design_values(args.values)))
        written.append(path)
    if args.archive:
        archive = pareto.read_archive_csv(Path(args.archive))
        inputs.append(Path(args.archive))
        rows = (range(len(archive)) if args.rows is None
                else [int(v) for v in args.rows.split(",")])
        for row in rows:
            if not 0 <= row < len(archive):
                raise ValueError(f"row {row} outside archive")
            path = out / f"design_{row:04d}.svg"
            path.write_text(render_design_svg(DesignVector.from_array(archive.entries[row].x)))
            written.append(path)
    if not written:
        raise ValueError("nothing to render (give --archive, --values or --trace)")
    write_manifest(out, build_manifest("render", argv, {}, inputs))
    for path in written:
        print(path)
    return EXIT_OK


def cmd_front(args, argv) -> int:
    archive = pareto.read_archive_csv(Path(args.archive))
    if len(archive) == 0:
        raise pareto.EmptyArchive("empty archive")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    pareto.write_archive_csv(out / "front.csv", archive)
    write_manifest(out, build_manifest("front", argv, {}, [Path(args.archive)]))
    print(out / "front.csv")
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crosshinge",
        description="Pareto-optimal synthesis of compliant cross-hinge designs",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_design_source(p):
        p.add_argument("--values", help="13 comma-separated design values")
        p.add_argument("--archive", help="archive CSV to read the design from")
        p.add_argument("--row", type=int, help="archive row index (default 0)")

    p = sub.add_parser("evaluate", help="evaluate one design")
    add_design_source(p)
    p.add_argument("--elements", type=int, help="beam elements per flexure")
    p.add_argument("--steps", type=int, help="rotation sweep steps")
    p.add_argument("--trace", help="write the per-step sweep JSON here")
    p.add_argument("--out", help="output directory (evaluation.json + manifest)")

    p = sub.add_parser("optimize", help="run the evolutionary synthesis")
    p.add_argument("--config", help="INI config file")
    p.add_argument("--algorithm", choices=["nsga2", "spea2", "both"])
    p.add_argument("--pop", type=int, help="population size")
    p.add_argument("--gens", type=int, help="number of generations")
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=int)
    p.add_argument("--elements", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--out", help="output directory (or set in the config file)")

    p = sub.add_parser("merge", help="merge archive CSVs")
    p.add_argument("archives", nargs="+", help="archive CSV paths")
    p.add_argument("--out", required=True)

    p = sub.add_parser("select", help="pseudo-weight decision making")
    p.add_argument("--archive", required=True)
    p.add_argument("--target-weights", required=True,
                   help="3 comma-separated target weights")
    p.add_argument("--out")

    p = sub.add_parser("refine", help="scalarized Nelder-Mead refinement")
    p.add_argument("--archive", required=True,
                   help="archive CSV (start design source and frozen normalization)")
    p.add_argument("--row", type=int, help="start design row")
    p.add_argument("--target-weights", help="select the start design by target")
    p.add_argument("--values", help="explicit start design (13 comma-separated)")
    p.add_argument("--weights", help="explicit scalarization weights")
    p.add_argument("--iters", type=int, default=200)
    p.add_argument("--elements", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--out")

    p = sub.add_parser("render", help="SVG schematics of designs")
    p.add_argument("--archive")
    p.add_argument("--rows", help="comma-separated row indices (default all)")
    p.add_argument("--values", help="13 comma-separated design values")
    p.add_argument("--trace", help="sweep trace JSON for a deformed overlay")
    p.add_argument("--out", required=True)

    p = sub.add_parser("front", help="export normalized front + pseudo-weights")
    p.add_argument("--archive", required=True)
    p.add_argument("--out", required=True)

    return parser


_HANDLERS = {
    "evaluate": cmd_evaluate,
    "optimize": cmd_optimize,
    "merge": cmd_merge,
    "select": cmd_select,
    "refine": cmd_refine,
    "render": cmd_render,
    "front": cmd_front,
}


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand. Exit codes: 0 success, 1 a valid request with no
    result (infeasible start, degenerate objective, empty archive), 2 bad
    input (malformed or out-of-range values, unreadable files)."""
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args, argv)
    except (refine.InfeasibleStart, pareto.DegenerateObjective, pareto.EmptyArchive) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_FAILURE
    except (ValueError, OSError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
