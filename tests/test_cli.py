import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from crosshinge import cli, pareto
from crosshinge.geometry import DESIGN_FIELDS

DATA = Path(__file__).parent / "data"

REGRESSION = json.loads((DATA / "regression_cross_hinge.json").read_text())
REGRESSION_VALUES = ",".join(
    f"{REGRESSION['design'][name]!r}" for name in DESIGN_FIELDS)

# design point whose first flexure self-intersects (all samples infeasible)
LOOP_DESIGN = {
    "theta0_1": math.pi, "theta1_1": -math.pi, "theta2_1": -math.pi,
    "theta3_1": -math.pi, "theta0_2": 0.5, "theta1_2": 0.5,
    "theta2_2": 0.0, "theta3_2": 0.0,
    "alpha": 1.0, "beta1": 10.0, "beta2": 10.0, "gamma": 1.0, "delta": 0.5,
}


def reference_archive_csv(path: Path) -> Path:
    rows = np.array([
        [5.978e-2, 3.228e-2, 4.534e-2],
        [7.513e-3, 7.658e-1, 6.467e-3],
        [8.727e-1, 1.077e-4, 8.234e-1],
        [5.115e-1, 8.298e-1, 6.610e-5],
    ])
    entries = [(np.full(13, float(i)), rows[i]) for i in range(4)]
    archive = pareto.nondominated_filter(entries)
    csv_path = path / "reference.csv"
    pareto.write_archive_csv(csv_path, archive)
    return csv_path


class TestEvaluate:
    def test_matches_golden_objectives(self, capsys):
        rc = cli.main(["evaluate", "--values", REGRESSION_VALUES])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["feasible"] is True
        golden = REGRESSION["objectives"]
        assert payload["r_bar"] == pytest.approx(golden["r_bar"], rel=1e-3)
        assert payload["c_bar"] == pytest.approx(golden["c_bar"], rel=1e-3)
        assert payload["k_bar"] == pytest.approx(golden["k_bar"], rel=1e-3)
        assert "manifest" in payload

    def test_out_of_bounds_exits_2_naming_bound(self, capsys):
        bad = REGRESSION_VALUES.replace("20.0", "22.0", 1)
        rc = cli.main(["evaluate", "--values", bad])
        assert rc == 2
        assert "beta1" in capsys.readouterr().err

    def test_malformed_values_exit_2(self, capsys):
        rc = cli.main(["evaluate", "--values", "1,2,3"])
        assert rc == 2

    def test_trace_flag_writes_sweep_json(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        rc = cli.main(["evaluate", "--values", REGRESSION_VALUES,
                       "--trace", str(trace)])
        assert rc == 0
        data = json.loads(trace.read_text())
        assert data["converged"] is True
        assert len(data["steps"]) == 21
        step = data["steps"][-1]
        assert step["phi"] == pytest.approx(math.pi / 2)
        assert len(step["stiffness"]) == 2
        assert len(data["centerlines"]["deformed"]) == 21


def write_point_config(path: Path, design: dict, pop=8, gens=1, seed=5) -> Path:
    lines = ["[global]", f"seed = {seed}", "workers = 1",
             "[optimize]", "algorithm = nsga2",
             f"population = {pop}", f"generations = {gens}", "[bounds]"]
    lines += [f"{name} = {value!r},{value!r}" for name, value in design.items()]
    cfg = path / "run.ini"
    cfg.write_text("\n".join(lines) + "\n")
    return cfg


class TestOptimize:
    def test_tiny_run_is_deterministic(self, tmp_path, capsys):
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = cli.main(["optimize", "--algorithm", "nsga2", "--pop", "8",
                           "--gens", "2", "--seed", "3", "--out", str(out)])
            assert rc == 0
            outputs.append((out / "archive_nsga2.csv").read_bytes())
            assert (out / "manifest.json").exists()
            assert (out / "progress_nsga2.log").exists()
        assert outputs[0] == outputs[1]
        capsys.readouterr()

    def test_progress_log_format(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = cli.main(["optimize", "--algorithm", "nsga2", "--pop", "8",
                       "--gens", "2", "--seed", "3", "--out", str(out)])
        assert rc == 0
        capsys.readouterr()
        lines = (out / "progress_nsga2.log").read_text().strip().splitlines()
        assert len(lines) == 3  # initial population plus two generations
        assert all(line.startswith("gen=") and " hv=" in line for line in lines)

    def test_pathological_bounds_no_feasible_designs(self, tmp_path, capsys):
        cfg = write_point_config(tmp_path, LOOP_DESIGN)
        out = tmp_path / "run"
        rc = cli.main(["optimize", "--config", str(cfg), "--out", str(out)])
        assert rc == 1
        assert "no feasible designs" in capsys.readouterr().err

    def test_manifest_records_config(self, tmp_path, capsys):
        out = tmp_path / "run"
        cli.main(["optimize", "--algorithm", "nsga2", "--pop", "8", "--gens", "1",
                  "--seed", "9", "--out", str(out)])
        capsys.readouterr()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "optimize"
        assert manifest["config"]["global"]["seed"] == 9
        assert manifest["config"]["optimize"]["population"] == 8
        assert "crosshinge" in manifest["versions"]


class TestMergeSelectFront:
    def test_merge_equals_nondominated_union(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        parts = []
        for name in ("one", "two"):
            entries = [(rng.random(13), rng.integers(0, 5, 3).astype(float))
                       for _ in range(25)]
            archive = pareto.nondominated_filter(entries)
            p = tmp_path / f"{name}.csv"
            pareto.write_archive_csv(p, archive)
            parts.append((p, archive))
        out = tmp_path / "merged"
        rc = cli.main(["merge", str(parts[0][0]), str(parts[1][0]),
                       "--out", str(out)])
        assert rc == 0
        capsys.readouterr()
        merged = pareto.read_archive_csv(out / "archive_merged.csv")
        brute = pareto.nondominated_filter(
            list(parts[0][1].entries) + list(parts[1][1].entries))
        assert len(merged) == len(brute)
        for ea, eb in zip(merged.entries, brute.entries):
            assert ea.y == pytest.approx(eb.y, rel=1e-15)

    def test_select_reproduces_reference_pairings(self, tmp_path, capsys):
        csv_path = reference_archive_csv(tmp_path)
        targets = ["0.3333333333,0.3333333333,0.3333333334",
                   "0.8,0.1,0.1", "0.1,0.8,0.1", "0.1,0.1,0.8"]
        for expected_row, target in enumerate(targets):
            rc = cli.main(["select", "--archive", str(csv_path),
                           "--target-weights", target])
            assert rc == 0
            payload = json.loads(capsys.readouterr().out)
            assert int(payload["design"]["theta0_1"]) == expected_row

    def test_select_normalizes_weights_with_warning(self, tmp_path, capsys):
        csv_path = reference_archive_csv(tmp_path)
        rc = cli.main(["select", "--archive", str(csv_path),
                       "--target-weights", "2,2,2"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "normalizing" in captured.err
        payload = json.loads(captured.out)
        assert payload["target_weights"] == pytest.approx([1 / 3] * 3)

    def test_select_empty_archive_fails(self, tmp_path, capsys):
        empty = pareto.ParetoArchive(entries=())
        path = tmp_path / "empty.csv"
        pareto.write_archive_csv(path, empty)
        rc = cli.main(["select", "--archive", str(path),
                       "--target-weights", "0.4,0.3,0.3"])
        assert rc == 1
        assert "empty archive" in capsys.readouterr().err

    def test_front_export_matches_direct_computation(self, tmp_path, capsys):
        csv_path = reference_archive_csv(tmp_path)
        out = tmp_path / "front"
        rc = cli.main(["front", "--archive", str(csv_path), "--out", str(out)])
        assert rc == 0
        capsys.readouterr()
        text = (out / "front.csv").read_text().splitlines()
        header = text[0].split(",")
        for column in (*pareto.NORMALIZED_FIELDS, *pareto.PSEUDO_WEIGHT_FIELDS):
            assert column in header
        archive = pareto.read_archive_csv(csv_path)
        normalized, _ = pareto.normalize_front(archive)
        weights = pareto.pseudo_weights(normalized)
        first = dict(zip(header, (float(v) for v in text[1].split(","))))
        assert first["r_norm"] == pytest.approx(normalized[0, 0], rel=1e-12)
        assert first["w_pseudo_r"] == pytest.approx(weights[0, 0], rel=1e-12)


@pytest.fixture(scope="module")
def small_archive(tmp_path_factory):
    from crosshinge import kinetostatics as ks
    from crosshinge.geometry import DesignVector
    base = DesignVector(**REGRESSION["design"])
    variants = [base.as_array()]
    for db, dd in ((-2.0, 0.05), (-5.0, -0.1)):
        v = base.as_array().copy()
        v[9] += db   # beta1
        v[12] += dd  # delta
        variants.append(v)
    entries = []
    for v in variants:
        report = ks.evaluate_objectives(DesignVector.from_array(v))
        assert report.feasible
        entries.append((v, report.as_array()))
    archive = pareto.nondominated_filter(entries)
    path = tmp_path_factory.mktemp("refine") / "archive.csv"
    pareto.write_archive_csv(path, archive)
    return path


class TestRefineCommand:
    def test_refine_never_increases_scalar(self, small_archive, capsys):
        rc = cli.main(["refine", "--archive", str(small_archive), "--row", "0",
                       "--weights", "0.3,0.4,0.3", "--iters", "4"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["refined"]["scalar"] <= payload["start"]["scalar"] + 1e-12
        assert payload["iterations"] <= 4

    def test_refine_row_out_of_range(self, small_archive, capsys):
        rc = cli.main(["refine", "--archive", str(small_archive), "--row", "99",
                       "--iters", "1"])
        assert rc == 2


class TestRender:
    def test_archive_batch_render_deterministic_names(self, tmp_path, capsys):
        csv_path = tmp_path / "archive.csv"
        entries = [(np.array([float(v) for v in REGRESSION["design"].values()]),
                    np.array([1.0, 2.0, 3.0]))]
        pareto.write_archive_csv(csv_path, pareto.nondominated_filter(entries))
        out = tmp_path / "svg"
        rc = cli.main(["render", "--archive", str(csv_path), "--out", str(out)])
        assert rc == 0
        capsys.readouterr()
        svg = (out / "design_0000.svg").read_text()
        assert svg.startswith("<svg")
        assert svg.count("<polyline") == 2  # one centerline per flexure

    def test_deformed_overlay_from_trace(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        assert cli.main(["evaluate", "--values", REGRESSION_VALUES,
                         "--trace", str(trace)]) == 0
        capsys.readouterr()
        out = tmp_path / "svg"
        rc = cli.main(["render", "--trace", str(trace), "--out", str(out)])
        assert rc == 0
        svg = (out / "trace_deformed.svg").read_text()
        assert svg.count("<polyline") == 4  # gray reference + solid deformed
        assert "#b0b0b0" in svg

    def test_nothing_to_render_is_usage_error(self, tmp_path, capsys):
        rc = cli.main(["render", "--out", str(tmp_path / "svg")])
        assert rc == 2


def raw_archive_csv(path: Path, objective_rows) -> Path:
    """Archive CSV holding the regression design on every row with the given
    objectives, written as-is (no non-domination filter)."""
    design = [repr(REGRESSION["design"][name]) for name in DESIGN_FIELDS]
    lines = [",".join([*DESIGN_FIELDS, *pareto.OBJECTIVE_FIELDS])]
    lines += [",".join(design + [repr(float(v)) for v in y]) for y in objective_rows]
    path.write_text("\n".join(lines) + "\n")
    return path


BETA1_25 = ",".join(repr(25.0 if name == "beta1" else REGRESSION["design"][name])
                    for name in DESIGN_FIELDS)
# a design that geometry rejects (self-intersection) before meshing
SELF_INTERSECTING_VALUES = ("2.001,-1.446,-2.884,-3.038,2.555,2.593,0.67,1.442,1.315,"
                            "19.03,17.24,0.5041,0.8574")

# bad input that must end in an error line and exit code 1 or 2, never in a
# traceback or a result computed from silently replaced values; {archive},
# {dominated}, {nan}, {degenerate}, {config} and {out} are filled with
# per-test paths
BAD_INPUTS = {
    "select-dominated-row": ["select", "--archive", "{dominated}",
                             "--target-weights", "0.4,0.3,0.3"],
    "select-nan-row": ["select", "--archive", "{nan}", "--target-weights", "0.4,0.3,0.3"],
    "refine-values-out-of-range": ["refine", "--archive", "{archive}",
                                   "--values", BETA1_25, "--iters", "1"],
    "refine-malformed-weights": ["refine", "--archive", "{archive}", "--row", "0",
                                 "--weights", "a,b", "--iters", "1"],
    "refine-short-target-weights": ["refine", "--archive", "{archive}",
                                    "--target-weights", "1,2", "--iters", "1"],
    "refine-one-element": ["refine", "--archive", "{archive}", "--row", "0",
                           "--elements", "1", "--iters", "1"],
    "optimize-one-element": ["optimize", "--config", "{config}", "--elements", "1",
                             "--out", "{out}"],
    "optimize-zero-steps": ["optimize", "--config", "{config}", "--steps", "0",
                            "--out", "{out}"],
    "evaluate-zero-elements": ["evaluate", "--values", REGRESSION_VALUES,
                               "--elements", "0"],
    "evaluate-zero-steps": ["evaluate", "--values", REGRESSION_VALUES, "--steps", "0"],
    "evaluate-rejected-design-zero-elements": ["evaluate", "--values",
                                               SELF_INTERSECTING_VALUES, "--elements", "0"],
    "evaluate-rejected-design-zero-steps": ["evaluate", "--values",
                                            SELF_INTERSECTING_VALUES, "--steps", "0"],
    "select-nan-target-weights": ["select", "--archive", "{archive}",
                                  "--target-weights", "nan,0.5,0.5"],
    "select-inf-target-weights": ["select", "--archive", "{archive}",
                                  "--target-weights", "inf,1,1"],
    "refine-degenerate-objective": ["refine", "--archive", "{degenerate}",
                                    "--values", REGRESSION_VALUES, "--iters", "1"],
}


@pytest.mark.parametrize("argv", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_exits_with_error_line(tmp_path, capsys, argv):
    paths = {
        "archive": raw_archive_csv(tmp_path / "one.csv", [[1.0, 2.0, 3.0]]),
        "dominated": raw_archive_csv(tmp_path / "dominated.csv",
                                     [[1.0, 2.0, 3.0], [2.0, 3.0, 4.0]]),
        "nan": raw_archive_csv(tmp_path / "nan.csv",
                               [[1.0, 2.0, 3.0], [float("nan"), 1.0, 1.0]]),
        "degenerate": raw_archive_csv(tmp_path / "degenerate.csv", [[1e-9, 1e-9, 1e-9]]),
        "config": write_point_config(tmp_path, REGRESSION["design"]),
        "out": tmp_path / "run",
    }
    rc = cli.main([arg.format(**paths) for arg in argv])
    captured = capsys.readouterr()
    assert rc in (cli.EXIT_FAILURE, cli.EXIT_USAGE)
    assert any(line.startswith("error: ") for line in captured.err.splitlines())
    assert "Traceback" not in captured.err


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "crosshinge.cli", "--version"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert result.stdout.strip()
