"""crosshinge benchmark: one workload per call, or all of them.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from
`src/` there. Human-readable lines come first; the last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with `--trace 0`, the per-layer metrics
of a separate traced run with `--trace 1`. See README.md.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread per process, set before numpy loads: serial
# workloads use one core and `campaign` uses exactly nproc workers.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "data" / "regression_cross_hinge.json"
SETUP_REPEATS = 3
IMPORT_NOMINAL_S = 0.2      # nominal time of a fresh interpreter importing numpy
MODULES = ("geometry", "beam_fem", "kinetostatics", "pareto", "moo", "refine", "cli")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_package():
    """Import crosshinge from this checkout's src/, never from elsewhere."""
    if not (SRC / "crosshinge" / "__init__.py").is_file() or not GOLDEN.is_file():
        raise SystemExit(f"error: no crosshinge source checkout around {HERE}")
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    pkg = SimpleNamespace(**{m: importlib.import_module(f"crosshinge.{m}") for m in MODULES})
    if Path(pkg.cli.__file__).resolve().parent != (SRC / "crosshinge").resolve():
        raise SystemExit(f"error: crosshinge imported from {pkg.cli.__file__}, not {SRC}")
    return pkg


def environment(seed: int) -> dict:
    return {"nproc": workloads.nproc(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "machine": platform.machine(), "seed": seed,
            "blas_threads": os.environ["OMP_NUM_THREADS"]}


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def setup_probe(args) -> int:
    """Cold set-up in a fresh interpreter: import, inputs, warm-up."""
    pkg = import_package()
    golden = workloads.Golden(GOLDEN, pkg.geometry)
    work = workloads.build(args.workload, pkg, golden, args.seed, args.quick,
                           ROOT / ".perfbench_work" / f"probe-{os.getpid()}")
    try:
        work.warmup()
    finally:
        work.close()
        with contextlib.suppress(OSError):
            (ROOT / ".perfbench_work").rmdir()
    return 0


def import_numpy() -> None:
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60)


def time_setup(args) -> list[float]:
    """Wall times of cold set-ups at nominal machine speed.

    Set-up is mostly interpreter start and imports, which the solve kernel
    does not track (scaled by it, medians of ten runs drifted 18% between
    two sets), so the reference here is a fresh interpreter importing numpy.
    """
    meter = workloads.Meter(workloads.Speed(import_numpy, IMPORT_NOMINAL_S))
    times = []
    for _ in range(1 if args.quick else SETUP_REPEATS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
        if args.quick:
            cmd.append("--quick")
        meter.mark()
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=120)
        times.append(meter.lap(workloads.Phase()))
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe exited {done.returncode}")
    return times


def line(name: str, value, unit: str, note: str = "") -> None:
    print(f"  {name:<40} {value:>14.6g} {unit:<6} {note}")


def run_workload(args, pkg) -> dict:
    spec = load_spec()
    print(f"crosshinge benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}{' quick' if args.quick else ''}")
    print("env " + json.dumps(environment(args.seed)))

    gate = workloads.Gate()
    golden = workloads.Golden(GOLDEN, pkg.geometry)
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    t0 = time.perf_counter()
    work = workloads.build(args.workload, pkg, golden, args.seed, args.quick, workdir)
    work.warmup()
    setup_inprocess = time.perf_counter() - t0
    try:
        gate.record("golden design", golden.check(pkg))
        phase = work.run_phase(args.seconds, gate)
        traced = spans = None
        if args.trace:
            tracer = tracing.Tracer().install(pkg)
            try:
                traced = work.run_phase(args.seconds, gate)
            finally:
                tracer.uninstall()
            spans = tracer.spans
        work.check(gate)
    finally:
        work.close()
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    e2e = {
        "evals_per_s": (phase.evals / phase.wall_s, "1/s"),
        "op_ms_p50": (1e3 * percentile(phase.op_s, 50), "ms"),
        "op_ms_p90": (1e3 * percentile(phase.op_s, 90), "ms"),
        "paper_cpu_h": (phase.cpu_s / phase.evals * 1e6 / 3600.0, "h"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    if not args.trace:
        setups = time_setup(args)
        e2e = {"setup_s": (statistics.median(setups), "s"), **e2e}

    n = len(phase.op_s)
    print(f"end to end ({n} {work.op_label}s in {phase.raw_wall_s:.2f} s measured, "
          f"{phase.evals} evaluations; times at nominal machine speed):")
    notes = {"setup_s": f"median of {len(setups)} cold starts" if not args.trace else "",
             "op_ms_p50": f"per {work.op_label}, n={n}",
             "op_ms_p90": f"per {work.op_label}, n={n}, {n - int(0.9 * n)} beyond"}
    for name, (value, unit) in e2e.items():
        line(name, value, unit, notes.get(name, ""))
    aliases = {"evaluation": [("eval_ms_p50", e2e["op_ms_p50"]), ("eval_ms_p90", e2e["op_ms_p90"])],
               "generation": [("gens_per_s", (n / phase.wall_s, "1/s"))],
               "campaign": [("campaign_s", (statistics.median(phase.op_s), "s"))]}
    for name, (value, unit) in aliases[work.op_label]:
        line(name, value, unit, "same measurement as above")
    for name, value, unit in work.extra():
        line(name, value, unit)
    line("error_share", gate.failed / gate.attempted, "1",
         f"{gate.failed} of {gate.attempted} operations")
    line("setup_inprocess_s", setup_inprocess, "s", "import excluded, unscaled")
    line("speed_factor", statistics.median(work.speed.factors), "1",
         "median nominal/current machine speed; times above were multiplied by it")

    if args.trace:
        layer = tracing.layer_metrics(spans, traced.raw_wall_s)
        k = min(len(phase.op_s), len(traced.op_s))
        layer["trace.overhead_share"] = sum(traced.op_s[:k]) / sum(phase.op_s[:k]) - 1.0
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        print(f"per layer (traced run: {len(traced.op_s)} {work.op_label}s in "
              f"{traced.raw_wall_s:.2f} s measured, {len(spans)} spans; span times unscaled):")
        for name in units:
            line(name, layer[name], units[name])
        metrics = {name: {"value": layer[name], "unit": units[name]} for name in units}
    else:
        metrics = {m["name"]: dict(zip(("value", "unit"), e2e[m["name"]]))
                   for m in spec["end_to_end"]}
    return {"correct": gate.failed == 0, "attempted": gate.attempted,
            "failed": gate.failed, "metrics": metrics}


def run_all(args) -> dict:
    """Every workload in its own process; metrics keyed workload.metric."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--quick"] if args.quick else [])
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited {done.returncode}")
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    return total


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per phase (default: BENCHMARK.json, 1 if --quick)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="reduced sizes, correctness gate on")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_probe:
        return setup_probe(args)
    if args.seconds is None:
        args.seconds = 1.0 if args.quick else float(load_spec()["run_seconds"])
    pkg = import_package()  # fails before any output when the checkout is incomplete
    result = run_all(args) if args.workload == "all" else run_workload(args, pkg)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
