"""Quick mode of the benchmark: every workload at reduced size, gate on.

    python3 -m pytest -q perfbench
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def test_spec_shape():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert 2 <= len(WORKLOADS) <= 8
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.match(n) for n in names)
    assert len(set(names)) == len(names)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("trace", [0, 1])
def test_quick_all_workloads(trace):
    done = run("--workload", "all", "--quick", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    section = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    expected = {f"{w}.{m['name']}": m["unit"] for w in WORKLOADS for m in section}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in values.values())
        return
    for w in WORKLOADS:
        # the spans cover the measured segments but for the benchmark's own
        # loop; on moo_surrogate a few microseconds of it per generation
        # (reading the clocks around a speed sample) fall inside moo.run
        assert -0.005 <= values[f"{w}.trace.unaccounted_share"] < 0.05
    for w in ("eval_near_front", "eval_uniform"):
        assert values[f"{w}.beam_fem.self_share"] > 0.5
    assert values["moo_surrogate.beam_fem.run_sweep_ms_p50"] == 0.0
    assert values["campaign.cli.optimize_s"] > 0.0


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
