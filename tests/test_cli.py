import contextlib
import functools
import hashlib
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crosshinge import beam_fem, cli, kinetostatics, pareto
from crosshinge.geometry import DESIGN_FIELDS, DesignVector

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
    archive = pareto.nondominated_filter(np.repeat(np.arange(4.0)[:, None], 13, axis=1), rows)
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
        # Euler, cubic and quartic Hermite starts; no step needs a bisection
        assert [s["newton_iterations"] for s in data["steps"]] == [0, 3, 2] + [1] * 18
        assert not any(s["bisected"] for s in data["steps"])

    def test_manifest_inputs_are_the_files_read(self, tmp_path, capsys):
        # --values reads no file, so it has no input
        archive = raw_archive_csv(tmp_path / "one.csv", [[1.0, 2.0, 3.0]])
        cases = ((["--values", REGRESSION_VALUES], []),
                 (["--archive", str(archive)], [str(archive)]))
        for k, (source, inputs) in enumerate(cases):
            out = tmp_path / f"out{k}"
            rc = cli.main(["evaluate", *source, "--elements", "2", "--steps", "2",
                           "--out", str(out)])
            assert rc == 0
            assert list(json.loads((out / "manifest.json").read_text())["inputs"]) == inputs
        capsys.readouterr()


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


def counted_pools(monkeypatch) -> list:
    """The list to which each process pool the CLI constructs from now on is appended."""
    pools = []

    class CountedPool(cli.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", CountedPool)
    return pools


def fake_pools(monkeypatch, maps=None) -> list:
    """The list of the sizes of the process pools the CLI asks for from now on.
    A fake pool maps in this process; a real one would start that many
    processes at its first submit. If maps is a list, the item sizes of each
    pool map call (designs per chunk) are appended to it."""
    sizes = []

    class FakePool(contextlib.nullcontext):
        def __init__(self, max_workers):
            super().__init__(self)
            sizes.append(max_workers)

        def map(self, fn, items):
            if maps is not None:
                maps.append([len(item) for item in items])
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
    return sizes


def usable_cpus(monkeypatch, n: int) -> None:
    """From now on the CLI sees n CPUs that this process may run on."""
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


TINY_OPTIMIZE = ["optimize", "--pop", "8", "--gens", "1", "--seed", "3",
             "--elements", "4", "--steps", "4"]
ALGORITHM_FILES = {"nsga2": ["archive_nsga2.csv", "progress_nsga2.log"],
                   "spea2": ["archive_spea2.csv", "progress_spea2.log"]}


class TestSharedEngine:
    """`--algorithm both` runs its two algorithms on one evaluation engine."""

    def test_one_pool_per_invocation(self, tmp_path, capsys, monkeypatch):
        pools = counted_pools(monkeypatch)
        rc = cli.main(TINY_OPTIMIZE + ["--algorithm", "both", "--workers", "2",
                                   "--out", str(tmp_path / "run")])
        capsys.readouterr()
        assert rc == cli.EXIT_OK
        assert len(pools) == 1

    def test_pool_size_capped_at_cpu_count(self, tmp_path, capsys, monkeypatch):
        sizes = fake_pools(monkeypatch)
        # at most one process per usable CPU, and no more than a generation's 8 new designs
        for name, cpus, workers in (("capped", 3, "100000"), ("population", 64, "100000"),
                                    ("serial", 3, "1")):
            usable_cpus(monkeypatch, cpus)
            assert cli.main(TINY_OPTIMIZE + ["--algorithm", "both", "--workers", workers,
                                         "--out", str(tmp_path / name)]) == cli.EXIT_OK
        capsys.readouterr()
        assert sizes == [3, 8]
        for name in ("archive_nsga2.csv", "archive_spea2.csv", "archive_merged.csv"):
            for run in ("capped", "population"):
                assert (tmp_path / run / name).read_bytes() == (
                    tmp_path / "serial" / name).read_bytes(), (run, name)

    def test_each_process_gets_a_chunk(self, tmp_path, capsys, monkeypatch):
        # every map of new designs is cut into at least one chunk per pool process
        # while designs last, none wider than the lock-step
        assert cli.main(TINY_OPTIMIZE + ["--out", str(tmp_path / "serial")]) == cli.EXIT_OK
        for cpus in (4, 8):
            maps = []
            sizes = fake_pools(monkeypatch, maps)
            usable_cpus(monkeypatch, cpus)
            out = tmp_path / f"cpus{cpus}"
            assert cli.main(TINY_OPTIMIZE + ["--workers", "100", "--out", str(out)]) == cli.EXIT_OK
            assert sizes == [cpus]
            assert sum(maps[0]) == 8  # the initial population
            for chunk_sizes in maps:
                assert len(chunk_sizes) >= min(cpus, sum(chunk_sizes)), chunk_sizes
                assert max(chunk_sizes) <= beam_fem.LOCKSTEP
            assert (out / "archive_merged.csv").read_bytes() == (
                tmp_path / "serial" / "archive_merged.csv").read_bytes()
        capsys.readouterr()

    def test_each_design_swept_once(self, tmp_path, capsys, monkeypatch):
        swept = []
        evaluate_with_sweeps = kinetostatics.evaluate_with_sweeps

        def recorded(designs, *args, **kwargs):
            swept.extend(designs)
            return evaluate_with_sweeps(designs, *args, **kwargs)

        monkeypatch.setattr(kinetostatics, "evaluate_with_sweeps", recorded)
        designs = {}
        for algorithm in ("nsga2", "spea2", "both"):
            swept.clear()
            assert cli.main(TINY_OPTIMIZE + ["--algorithm", algorithm, "--workers", "1",
                                         "--out", str(tmp_path / algorithm)]) == cli.EXIT_OK
            designs[algorithm] = list(swept)
        capsys.readouterr()
        alone = designs["nsga2"] + designs["spea2"]
        assert len(alone) == 32  # 8 initial designs and 8 offspring per algorithm
        # both sweeps the union once: the shared initial population, and the
        # offspring SPEA2 draws from the same parents with the same numbers
        assert len(designs["both"]) == len(set(designs["both"])) == len(set(alone)) <= 24

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_both_matches_separate_runs(self, tmp_path, capsys, workers):
        both = tmp_path / "both"
        assert cli.main(TINY_OPTIMIZE + ["--algorithm", "both", "--workers", workers,
                                     "--out", str(both)]) == cli.EXIT_OK
        for algorithm, names in ALGORITHM_FILES.items():
            alone = tmp_path / algorithm
            assert cli.main(TINY_OPTIMIZE + ["--algorithm", algorithm, "--workers", workers,
                                         "--out", str(alone)]) == cli.EXIT_OK
            for name in names:
                assert (both / name).read_bytes() == (alone / name).read_bytes(), name
        capsys.readouterr()


class TestPinnedHingeResults:
    """SHA-256 digests of hinge results, recorded before the lock-step sweep.
    They pin records and archives across commits, which same-commit
    comparisons cannot: any change of a record's bytes changes them."""

    def test_reference_records_pinned(self):
        # failure, violation and objective bytes of the 24 reference designs at 30 x 20
        cases = json.loads((DATA / "sweep_reference.json").read_text())
        digest = hashlib.sha256()
        for case in cases["designs"]:
            record = kinetostatics.evaluate_objectives(
                DesignVector.from_array(case["values"]), n_elements=cases["n_elements"],
                n_steps=cases["n_steps"])
            digest.update(record.failure.encode() + b"\0")
            digest.update(np.float64(record.violation).tobytes())
            if record.y is not None:
                digest.update(record.y.tobytes())
        assert digest.hexdigest() == (
            "d8607fe1cc133e9fd6a2777e36ee718856dd98ce8df2acc73ae6ae43b3e4660b")

    def test_merged_archive_pinned(self, tmp_path, capsys):
        assert cli.main(TINY_OPTIMIZE + ["--out", str(tmp_path)]) == cli.EXIT_OK
        capsys.readouterr()
        assert hashlib.sha256((tmp_path / "archive_merged.csv").read_bytes()).hexdigest() == (
            "ffd308c59e906e95611df4181b21804e2ba5ca1924b9dbb5bb6c71111d7a5564")


class TestPinnedOptimizeOutputs:
    """SHA-256 digests of what `optimize --algorithm both` writes, recorded
    while the two algorithms still ran one after the other: stdout (the
    output path replaced by a placeholder), both progress logs and the three
    archives. stdout names the worker count; the files do not depend on it."""

    STDOUT = {("1", "1"): "5cea4e6518028465e083146b2d9ba87a08f1aed2591e44aacc44b0342f0859e7",
              ("1", "2"): "854dd65a50e5118711ad8580286ed3b4e70d181511296a12c45b987faace23de",
              ("3", "1"): "1f3f33d13acbd93bbe38ff2029ec15a9ccd42cebacf4222db5353042cd03c951",
              ("3", "2"): "32ec1fa37ee5936d4cf0b38b2cbf22f65076b81813d74ee0a7761d68ac78d2d5"}
    FILES = {
        "1": {"archive_nsga2.csv": "672bab4eb9b4fe8a7f61c6717a120f92c20b8b534bad4cde0f8806ec9640a277",
              "archive_spea2.csv": "5c0758e088f9c9467f11f1f9877232a667896d9d021dddc7edba406a37222894",
              "archive_merged.csv": "ffd308c59e906e95611df4181b21804e2ba5ca1924b9dbb5bb6c71111d7a5564",
              "progress_nsga2.log": "42ea74ad8b286b77d16b00d542b15c28fe3a98be5232ce3aa41e3eaf3cbaf583",
              "progress_spea2.log": "895175c1a0be2551cf3e327bdfd4e4a75433b78f843ce6f77522129e194be931"},
        "3": {"archive_nsga2.csv": "2b463a47a85baa658ea4da6c48981901a9cd4fbb14b772657f47b348ac3070b5",
              "archive_spea2.csv": "323093cf74dfc65124773945a5e8de92784c13b0766a8cfb945fb8dd6cff8235",
              "archive_merged.csv": "6fb2e1d83cdf07abde61042d1f718d01bf2f8038616c35a9b350b13b9b51cd40",
              "progress_nsga2.log": "043e0a48575abf69bfb0636bc85b7bf4cf697689a44e5602c3e46bf13f3b1169",
              "progress_spea2.log": "8b66eaca9540db79168052a81c98addcd104b405663f7b77af9ce761eeead5b1"},
    }

    @pytest.mark.parametrize("gens, workers", sorted(STDOUT))
    def test_both_outputs_pinned(self, tmp_path, capsys, gens, workers):
        out = tmp_path / "run"
        assert cli.main(TINY_OPTIMIZE + ["--gens", gens, "--algorithm", "both",
                                         "--workers", workers, "--out", str(out)]) == cli.EXIT_OK
        stdout = capsys.readouterr().out.replace(str(out), "<out>")
        assert hashlib.sha256(stdout.encode()).hexdigest() == self.STDOUT[gens, workers]
        assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in self.FILES[gens]} == self.FILES[gens]


class TestMergeSelectFront:
    def test_merge_equals_nondominated_union(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        parts = []
        for name in ("one", "two"):
            pairs = [(rng.random(13), rng.integers(0, 5, 3).astype(float))
                     for _ in range(25)]
            archive = pareto.nondominated_filter(*map(np.array, zip(*pairs)))
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
            np.concatenate([parts[0][1].designs, parts[1][1].designs]),
            np.concatenate([parts[0][1].objectives, parts[1][1].objectives]))
        assert len(merged) == len(brute)
        assert merged.objectives == pytest.approx(brute.objectives, rel=1e-15)
        # reading a merged archive and writing it back reproduces the file
        again = tmp_path / "again.csv"
        pareto.write_archive_csv(again, merged)
        assert again.read_bytes() == (out / "archive_merged.csv").read_bytes()
        assert pareto.sidecar_path(again).read_bytes() == \
            pareto.sidecar_path(out / "archive_merged.csv").read_bytes()

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
        empty = pareto.ParetoArchive()
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
        normalized = pareto.normalize_front(archive)
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
    objectives = []
    for v in variants:
        report = ks.evaluate_objectives(DesignVector.from_array(v))
        assert report.feasible
        objectives.append(report.y)
    archive = pareto.nondominated_filter(np.array(variants), np.array(objectives))
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

    def test_extreme_row_refines_with_floored_weights(self, small_archive, capsys):
        # row 0 attains the archive's ideal r_bar, so its normalized r_bar is
        # 0; the weights floor it at the column's smallest positive value
        rc = cli.main(["refine", "--archive", str(small_archive), "--row", "0",
                       "--iters", "2"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        normalized = pareto.normalize_front(pareto.read_archive_csv(small_archive))
        assert normalized[0, 0] == 0.0
        floor = np.where(normalized > 0.0, normalized, np.inf).min(axis=0)
        inverse = 1.0 / np.maximum(normalized[0], floor)
        assert payload["weights"] == pytest.approx(inverse / inverse.sum(), rel=1e-12)
        assert payload["refined"]["scalar"] <= payload["start"]["scalar"] + 1e-12

    def test_refined_json_does_not_depend_on_cpus(self, small_archive, tmp_path, capsys,
                                                   monkeypatch):
        pools = counted_pools(monkeypatch)
        opened = {}
        for cpus in (1, 2):
            usable_cpus(monkeypatch, cpus)
            before = len(pools)
            assert cli.main(["refine", "--archive", str(small_archive), "--row", "0",
                             "--iters", "10", *MESH_4,
                             "--out", str(tmp_path / f"cpus{cpus}")]) == cli.EXIT_OK
            opened[cpus] = len(pools) - before
        capsys.readouterr()
        # one pool of one process per CPU, none on one CPU
        assert opened == {1: 0, 2: 1}
        assert pools[0]._max_workers == 2
        assert (tmp_path / "cpus2" / "refined.json").read_bytes() == (
            tmp_path / "cpus1" / "refined.json").read_bytes()

    def test_refine_pool_capped_at_initial_simplex(self, small_archive, capsys, monkeypatch):
        sizes = fake_pools(monkeypatch)
        usable_cpus(monkeypatch, 64)
        assert cli.main(["refine", "--archive", str(small_archive), "--row", "0",
                         "--iters", "1", *MESH_4]) == cli.EXIT_OK
        capsys.readouterr()
        # the largest batch is the start and its 13 other simplex vertices
        assert sizes == [14]

    def test_degenerate_column_fails_before_pool_and_sweeps(self, tmp_path, capsys,
                                                            monkeypatch):
        # without --weights, a one-row archive (every column degenerate) derives no
        # weights whatever the start: exit 1 before the pool opens and before any sweep
        pools = counted_pools(monkeypatch)
        usable_cpus(monkeypatch, 2)
        swept = []
        evaluate_with_sweeps = kinetostatics.evaluate_with_sweeps
        monkeypatch.setattr(kinetostatics, "evaluate_with_sweeps",
                            lambda designs, *a, **k: swept.extend(designs)
                            or evaluate_with_sweeps(designs, *a, **k))
        archive = raw_archive_csv(tmp_path / "one.csv", [[1.0, 2.0, 3.0]])
        rc = cli.main(["refine", "--archive", str(archive), "--row", "0", "--iters", "2",
                       *MESH_4])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_FAILURE
        assert ("error: inverse normalization needs strictly positive normalized "
                "objectives") in err
        assert not pools and not swept

    def test_single_points_run_here(self, small_archive, capsys, monkeypatch):
        # the pool gets the chunks of the start batch and of shrinks; each single
        # point is a map of one chunk, which runs in this process
        pooled = []

        class RecordingPool(contextlib.nullcontext):
            def __init__(self, max_workers):
                super().__init__(self)

            def map(self, fn, items):
                pooled.append([len(chunk) for chunk in items])
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        usable_cpus(monkeypatch, 2)
        here = []
        evaluate = kinetostatics.evaluate_objectives
        monkeypatch.setattr(kinetostatics, "evaluate_objectives",
                            lambda *a, **k: here.append(a) or evaluate(*a, **k))
        assert cli.main(["refine", "--archive", str(small_archive), "--row", "0",
                         "--iters", "10", *MESH_4]) == cli.EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert pooled[0] == [4, 4, 3, 3]
        assert all(sizes == [4, 3, 3, 3] for sizes in pooled[1:])
        assert len(here) == payload["evaluations"] - sum(map(sum, pooled)) > 0

    def test_refine_row_out_of_range(self, small_archive, capsys):
        rc = cli.main(["refine", "--archive", str(small_archive), "--row", "99",
                       "--iters", "1"])
        assert rc == 2


# arguments besides --out that make each subcommand succeed; {archive} is
# the small_archive file
MESH_4 = ["--elements", "4", "--steps", "4"]
SUBCOMMAND_ARGS = {
    "evaluate": ["--values", REGRESSION_VALUES, *MESH_4],
    "optimize": ["--algorithm", "nsga2", "--pop", "8", "--gens", "1", "--seed", "3", *MESH_4],
    "merge": ["{archive}", "{archive}"],
    "select": ["--archive", "{archive}", "--target-weights", "1,1,1"],
    "refine": ["--archive", "{archive}", "--row", "0", "--weights", "1,1,1",
               "--iters", "0", *MESH_4],
    "render": ["--values", REGRESSION_VALUES],
    "front": ["--archive", "{archive}"],
}
# every subcommand with --out, and those that embed the manifest in stdout without it
MANIFEST_CASES = [(command, True) for command in SUBCOMMAND_ARGS] + [
    (command, False) for command in ("evaluate", "select", "refine")]


@pytest.mark.parametrize("command, with_out", MANIFEST_CASES,
                         ids=[f"{c}-{'out' if o else 'stdout'}" for c, o in MANIFEST_CASES])
def test_manifest_records_its_subcommand(small_archive, tmp_path, capsys, command, with_out):
    argv = [command, *(arg.format(archive=small_archive) for arg in SUBCOMMAND_ARGS[command])]
    out = tmp_path / "out"
    if with_out:
        argv += ["--out", str(out)]
    rc = cli.main(argv)
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    manifest = (json.loads((out / "manifest.json").read_text()) if with_out
                else json.loads(captured.out)["manifest"])
    assert manifest["command"] == command
    assert manifest["argv"] == argv


class TestRender:
    def test_archive_batch_render_deterministic_names(self, tmp_path, capsys):
        csv_path = tmp_path / "archive.csv"
        design = np.array([[float(v) for v in REGRESSION["design"].values()]])
        pareto.write_archive_csv(
            csv_path, pareto.nondominated_filter(design, np.array([[1.0, 2.0, 3.0]])))
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


def short_row_csv(path: Path) -> Path:
    """Archive CSV whose second data row holds only its first 5 fields."""
    raw_archive_csv(path, [[1.0, 2.0, 3.0], [2.0, 1.0, 3.0]])
    lines = path.read_text().splitlines()
    lines[2] = ",".join(lines[2].split(",")[:5])
    path.write_text("\n".join(lines) + "\n")
    return path


# the fields `render --trace` reads from a sweep trace: two bent polylines
TRACE_LINE = [[0.0, 0.0], [0.5, 0.1], [1.0, 0.0]]
GOOD_TRACE = {"heights": [0.05, 0.05],
              "centerlines": {"reference": [TRACE_LINE, TRACE_LINE],
                              "deformed": [[TRACE_LINE, TRACE_LINE]]}}


def trace_file(path: Path, trace) -> Path:
    path.write_text(json.dumps(trace))
    return path


BETA1_25 = ",".join(repr(25.0 if name == "beta1" else REGRESSION["design"][name])
                    for name in DESIGN_FIELDS)
# a design that geometry rejects (self-intersection) before meshing
SELF_INTERSECTING_VALUES = ("2.001,-1.446,-2.884,-3.038,2.555,2.593,0.67,1.442,1.315,"
                            "19.03,17.24,0.5041,0.8574")

# bad input that must end in an error line and the exit code the README
# documents (2 for malformed, non-finite or out-of-range input, 1 for a
# well-formed request without a result, such as an empty archive), never in
# a traceback or a result computed from silently replaced values, and bad
# input (exit 2) leaves no {out} directory behind; {archive}, {two_rows},
# {dominated}, {nan}, {short}, {degenerate}, {empty}, {config}, {nan_bounds},
# {zero_workers}, the {trace_...} files, {dir} (an existing directory) and
# {out} are filled with per-test paths; a third item is text the error line
# must contain
BAD_INPUTS = {
    "select-dominated-row": (cli.EXIT_USAGE, [
        "select", "--archive", "{dominated}", "--target-weights", "0.4,0.3,0.3"]),
    "select-nan-row": (cli.EXIT_USAGE, [
        "select", "--archive", "{nan}", "--target-weights", "0.4,0.3,0.3"]),
    "select-short-row": (cli.EXIT_USAGE, [
        "select", "--archive", "{short}", "--target-weights", "1,1,1"]),
    "refine-values-out-of-range": (cli.EXIT_USAGE, [
        "refine", "--archive", "{archive}", "--values", BETA1_25, "--iters", "1"]),
    "refine-malformed-weights": (cli.EXIT_USAGE, [
        "refine", "--archive", "{archive}", "--row", "0", "--weights", "a,b",
        "--iters", "1"]),
    "refine-short-target-weights": (cli.EXIT_USAGE, [
        "refine", "--archive", "{archive}", "--target-weights", "1,2", "--iters", "1"],
        "--target-weights"),
    "refine-short-weights": (cli.EXIT_USAGE, [
        "refine", "--archive", "{archive}", "--row", "0", "--weights", "1,1", "--iters", "1"],
        "--weights"),
    "refine-negative-iters": (cli.EXIT_USAGE, [
        "refine", "--archive", "{archive}", "--row", "0", "--weights", "1,1,1",
        "--iters", "-1"]),
    "refine-one-element": (cli.EXIT_USAGE, [
        "refine", "--archive", "{archive}", "--row", "0", "--elements", "1",
        "--iters", "1"]),
    "optimize-one-element": (cli.EXIT_USAGE, [
        "optimize", "--config", "{config}", "--elements", "1", "--out", "{out}"]),
    "optimize-zero-steps": (cli.EXIT_USAGE, [
        "optimize", "--config", "{config}", "--steps", "0", "--out", "{out}"]),
    "optimize-one-step": (cli.EXIT_USAGE, [
        "optimize", "--config", "{config}", "--steps", "1", "--out", "{out}"]),
    "optimize-negative-seed": (cli.EXIT_USAGE, [
        "optimize", "--config", "{config}", "--seed", "-1", "--out", "{out}"]),
    "optimize-zero-workers": (cli.EXIT_USAGE, [
        "optimize", "--config", "{config}", "--workers", "0", "--out", "{out}"]),
    "optimize-zero-workers-ini": (cli.EXIT_USAGE, [
        "optimize", "--config", "{zero_workers}", "--pop", "4", "--gens", "1",
        "--elements", "2", "--steps", "2", "--out", "{out}"]),
    "evaluate-zero-elements": (cli.EXIT_USAGE, [
        "evaluate", "--values", REGRESSION_VALUES, "--elements", "0"]),
    "evaluate-zero-steps": (cli.EXIT_USAGE, [
        "evaluate", "--values", REGRESSION_VALUES, "--steps", "0"]),
    "evaluate-one-step": (cli.EXIT_USAGE, [
        "evaluate", "--values", REGRESSION_VALUES, "--steps", "1"]),
    "evaluate-rejected-design-zero-elements": (cli.EXIT_USAGE, [
        "evaluate", "--values", SELF_INTERSECTING_VALUES, "--elements", "0"]),
    "evaluate-rejected-design-zero-steps": (cli.EXIT_USAGE, [
        "evaluate", "--values", SELF_INTERSECTING_VALUES, "--steps", "0"]),
    "select-nan-target-weights": (cli.EXIT_USAGE, [
        "select", "--archive", "{archive}", "--target-weights", "nan,0.5,0.5"]),
    "select-inf-target-weights": (cli.EXIT_USAGE, [
        "select", "--archive", "{archive}", "--target-weights", "inf,1,1"]),
    "select-overflowing-target-weights": (cli.EXIT_USAGE, [
        "select", "--archive", "{archive}", "--target-weights", "1e308,1e308,1e308"]),
    "refine-degenerate-objective": (cli.EXIT_FAILURE, [
        "refine", "--archive", "{degenerate}", "--values", REGRESSION_VALUES,
        "--iters", "1"]),
    "optimize-nan-bounds": (cli.EXIT_USAGE, [
        "optimize", "--config", "{nan_bounds}", "--out", "{out}"]),
    "evaluate-trace-in-missing-dir": (cli.EXIT_USAGE, [
        "evaluate", "--values", REGRESSION_VALUES, "--trace", "{out}/t.json"]),
    "evaluate-trace-is-dir": (cli.EXIT_USAGE, [
        "evaluate", "--values", REGRESSION_VALUES, "--trace", "{dir}"]),
    "evaluate-out-is-file": (cli.EXIT_USAGE, [
        "evaluate", "--values", REGRESSION_VALUES, "--out", "{archive}"]),
    "refine-out-is-file": (cli.EXIT_USAGE, [
        "refine", "--archive", "{archive}", "--row", "0", "--weights", "1,1,1",
        "--iters", "1", "--out", "{archive}/sub"]),
    "evaluate-row-out-of-range": (cli.EXIT_USAGE, [
        "evaluate", "--archive", "{archive}", "--row", "1"]),
    "render-row-out-of-range": (cli.EXIT_USAGE, [
        "render", "--archive", "{archive}", "--rows", "0,1", "--out", "{out}"]),
    "evaluate-empty-archive": (cli.EXIT_FAILURE, [
        "evaluate", "--archive", "{empty}"]),
    "render-empty-archive": (cli.EXIT_FAILURE, [
        "render", "--archive", "{empty}", "--out", "{out}"]),
    "merge-empty-archives": (cli.EXIT_FAILURE, [
        "merge", "{empty}", "{empty}", "--out", "{out}"]),
    "select-empty-archive": (cli.EXIT_FAILURE, [
        "select", "--archive", "{empty}", "--target-weights", "0.4,0.3,0.3"]),
    "refine-empty-archive": (cli.EXIT_FAILURE, [
        "refine", "--archive", "{empty}", "--iters", "1"]),
    "refine-empty-archive-row": (cli.EXIT_FAILURE, [
        "refine", "--archive", "{empty}", "--row", "0", "--iters", "1"]),
    "refine-empty-archive-values": (cli.EXIT_FAILURE, [
        "refine", "--archive", "{empty}", "--values", REGRESSION_VALUES, "--iters", "1"]),
    "front-empty-archive": (cli.EXIT_FAILURE, [
        "front", "--archive", "{empty}", "--out", "{out}"]),
    "render-trace-without-deformed-step": (cli.EXIT_USAGE, [
        "render", "--trace", "{trace_no_step}", "--out", "{out}"]),
    "render-trace-json-list": (cli.EXIT_USAGE, [
        "render", "--trace", "{trace_list}", "--out", "{out}"]),
    "render-trace-one-height": (cli.EXIT_USAGE, [
        "render", "--trace", "{trace_one_height}", "--out", "{out}"]),
    # the initial population alone would take 92.4 PiB
    "optimize-pop-too-large": (cli.EXIT_FAILURE, [
        "optimize", "--pop", "1000000000000000", "--gens", "1", "--elements", "2",
        "--steps", "2", "--out", "{out}"]),
    "render-trace-with-bad-row": (cli.EXIT_USAGE, [
        "render", "--trace", "{trace_good}", "--archive", "{archive}", "--rows", "5",
        "--out", "{out}"]),
    # two sources of one design: one of them would be ignored
    "evaluate-values-with-archive": (cli.EXIT_USAGE, [
        "evaluate", "--values", REGRESSION_VALUES, "--archive", "{dir}/missing.csv",
        "--elements", "2", "--steps", "2", "--out", "{out}"]),
    "evaluate-values-with-row": (cli.EXIT_USAGE, [
        "evaluate", "--values", REGRESSION_VALUES, "--row", "3", "--elements", "2",
        "--steps", "2"]),
    "refine-values-with-row": (cli.EXIT_USAGE, [
        "refine", "--archive", "{two_rows}", "--values", REGRESSION_VALUES, "--row", "1",
        "--weights", "1,1,1", "--iters", "0", "--elements", "2", "--steps", "2"]),
    "refine-row-with-target-weights": (cli.EXIT_USAGE, [
        "refine", "--archive", "{two_rows}", "--row", "1", "--target-weights", "0,0,1",
        "--weights", "1,1,1", "--iters", "0", "--elements", "2", "--steps", "2"]),
    "render-values-with-rows": (cli.EXIT_USAGE, [
        "render", "--values", REGRESSION_VALUES, "--rows", "5", "--out", "{out}"]),
}


@pytest.mark.parametrize("case", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_exits_with_error_line(tmp_path, capsys, monkeypatch, case):
    expected, argv, *named = case
    sweeps = []
    for name in ("run_sweep", "run_sweeps"):
        monkeypatch.setattr(beam_fem, name, functools.partial(
            lambda sweep, *args, **kwargs: sweeps.append(args) or sweep(*args, **kwargs),
            getattr(beam_fem, name)))
    # sweeps in pool workers are invisible to the counter above, so pools are counted too
    pools = counted_pools(monkeypatch)
    nan_dir = tmp_path / "nan-bounds"
    nan_dir.mkdir()
    zero_workers = tmp_path / "zero_workers.ini"
    zero_workers.write_text("[global]\nworkers = 0\n")
    paths = {
        "archive": raw_archive_csv(tmp_path / "one.csv", [[1.0, 2.0, 3.0]]),
        "two_rows": raw_archive_csv(tmp_path / "two.csv", [[1.0, 2.0, 3.0], [2.0, 1.0, 3.0]]),
        "dominated": raw_archive_csv(tmp_path / "dominated.csv",
                                     [[1.0, 2.0, 3.0], [2.0, 3.0, 4.0]]),
        "nan": raw_archive_csv(tmp_path / "nan.csv",
                               [[1.0, 2.0, 3.0], [float("nan"), 1.0, 1.0]]),
        "short": short_row_csv(tmp_path / "short.csv"),
        "degenerate": raw_archive_csv(tmp_path / "degenerate.csv", [[1e-9, 1e-9, 1e-9]]),
        "empty": raw_archive_csv(tmp_path / "empty.csv", []),
        "config": write_point_config(tmp_path, REGRESSION["design"]),
        "nan_bounds": write_point_config(nan_dir, {"alpha": float("nan")}),
        "zero_workers": zero_workers,
        "trace_no_step": trace_file(tmp_path / "no_step.json", {
            **GOOD_TRACE, "centerlines": {**GOOD_TRACE["centerlines"], "deformed": []}}),
        "trace_list": trace_file(tmp_path / "list.json", [GOOD_TRACE]),
        "trace_one_height": trace_file(tmp_path / "one_height.json",
                                       {**GOOD_TRACE, "heights": [0.05]}),
        "trace_good": trace_file(tmp_path / "good.json", GOOD_TRACE),
        "dir": tmp_path,
        "out": tmp_path / "run",
    }
    rc = cli.main([arg.format(**paths) for arg in argv])
    captured = capsys.readouterr()
    assert rc == expected
    errors = [line for line in captured.err.splitlines() if line.startswith("error: ")]
    assert len(errors) == 1 and all(text in errors[0] for text in named)
    assert "Traceback" not in captured.err
    if expected == cli.EXIT_USAGE:
        # bad input is rejected before any work: no sweep runs, nothing is written
        assert not sweeps
        assert not pools
    if expected == cli.EXIT_USAGE or argv[0] == "optimize":
        # an optimize that fails before generation 0 completes writes nothing either
        assert not paths["out"].exists()


# malformed text for every free-form CLI string: arbitrary text, and joined
# lists of numeric, non-finite, empty and garbage tokens
TOKENS = st.sampled_from(["nan", "-inf", "inf", "1e309", "1e308", "-1", "0", "0.5",
                          "1", "2", "20", "1e-320", "", " ", "x", "1_0", "%", "\n"])
MALFORMED = st.one_of(
    st.text(max_size=12),
    st.builds(lambda sep, tokens: sep.join(tokens),
              st.sampled_from([",", ";"]), st.lists(TOKENS, max_size=4)),
)
# the regression design with one value replaced
DESIGN_TEXT = st.builds(
    lambda i, token: ",".join(token if j == i else v
                              for j, v in enumerate(REGRESSION_VALUES.split(","))),
    st.integers(0, 12), TOKENS)
SMALL = ["--elements", "2", "--steps", "2"]
SURFACES = {
    "--values": lambda text, d: ["evaluate", f"--values={text}", *SMALL],
    "--target-weights": lambda text, d: [
        "select", "--archive", d["archive"], f"--target-weights={text}"],
    "--weights": lambda text, d: [
        "refine", "--archive", d["archive"], "--row", "0", f"--weights={text}",
        "--iters", "1", *SMALL],
    "--rows": lambda text, d: [
        "render", "--archive", d["archive"], f"--rows={text}", "--out", d["out"]],
    "[bounds]": lambda text, d: [
        "optimize", "--config", d["config"](text), "--pop", "4", "--gens", "1",
        *SMALL, "--out", d["out"]],
    "archive row": lambda text, d: [
        "select", "--archive", d["row_archive"](text), "--target-weights", "1,1,1"],
}


@pytest.fixture(scope="module")
def fuzz_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    archive = raw_archive_csv(root / "archive.csv", [[1.0, 2.0, 3.0], [2.0, 1.0, 3.0]])

    def config(text: str) -> str:
        path = root / "bounds.ini"
        path.write_text(f"[bounds]\nalpha = {text}\n")
        return str(path)

    def row_archive(text: str) -> str:
        # the text stands for the design fields of a row with objectives 1,2,3
        path = root / "row.csv"
        path.write_text(",".join([*DESIGN_FIELDS, *pareto.OBJECTIVE_FIELDS])
                        + f"\n{text},1,2,3\n")
        return str(path)

    return {"archive": str(archive), "out": str(root / "out"), "config": config,
            "row_archive": row_archive}


@settings(max_examples=150, deadline=None)
@given(surface=st.sampled_from(sorted(SURFACES)),
       text=st.one_of(MALFORMED, DESIGN_TEXT))
@example(surface="[bounds]", text="nan,nan")
@example(surface="archive row", text="1,2,3")
def test_malformed_strings_never_raise(fuzz_paths, surface, text):
    """Any text for a free-form string exits 0, 1 or 2; a non-zero exit
    comes with an error line, never with an exception."""
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        rc = cli.main(SURFACES[surface](text, fuzz_paths))
    assert rc in (cli.EXIT_OK, cli.EXIT_FAILURE, cli.EXIT_USAGE)
    if rc != cli.EXIT_OK:
        assert any(line.startswith("error: ") for line in stderr.getvalue().splitlines())


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "crosshinge.cli", "--version"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert result.stdout.strip()
