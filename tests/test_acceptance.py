"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The desk-scale synthesis
campaign (criterion 7) runs once as a session fixture and is reused by the
refinement and determinism criteria.
"""

import itertools
import json
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from crosshinge import beam_fem as bf
from crosshinge import cli, kinetostatics as ks, moo, pareto, refine
from crosshinge import geometry as geo
import oracles
from zdt import ZDT1, generational_distance

DATA = Path(__file__).parent / "data"
REGRESSION = json.loads((DATA / "regression_cross_hinge.json").read_text())

L, H, W, E, NU = 1.0, 0.1, 1.0, 1.0, 0.49
EA = E * W * H
GAS = (5.0 / 6.0) * (E / (2 * (1 + NU))) * W * H
EI = E * W * H ** 3 / 12.0


def report(number: int, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="session")
def desk_campaign(tmp_path_factory):
    out = tmp_path_factory.mktemp("desk") / "run"
    t0 = time.perf_counter()
    rc = cli.main(["optimize", "--algorithm", "both", "--pop", "40",
                   "--gens", "30", "--seed", "7", "--workers", "2",
                   "--out", str(out)])
    elapsed = time.perf_counter() - t0
    assert rc == 0
    return out, elapsed


def test_criterion_1_beam_closed_forms():
    t0 = time.perf_counter()
    model = oracles.assemble_cantilever([0, 0, 0, 0], length=L, height=H, width=W)
    # tip rotation under a pure moment is M l / EI
    moment = 0.5 * EI / L
    state = oracles.solve_tip_moment(model, moment, n_steps=5, tol=1e-13)
    rot_err = abs(state.z[model.idx_phi] - moment * L / EI)

    # full-circle roll-up
    moment = 2 * math.pi * EI / L
    state = oracles.solve_tip_moment(model, moment, n_steps=40, tol=1e-12)
    mesh = model.meshes[0]
    pos = mesh.node_pos + model.full_displacements(state.z)[0][:, :2]
    kappa = moment / EI
    s = np.linspace(0, L, mesh.n_nodes)
    exact = np.stack([np.sin(kappa * s) / kappa,
                      (1 - np.cos(kappa * s)) / kappa], axis=1)
    roll_err = float(np.max(np.linalg.norm(pos - exact, axis=1)))

    # Timoshenko cantilever compliances from the Schur complement
    k_t, _ = bf.condense_translational_stiffness(model, oracles.zero_state(model))
    c_ax_err = abs(1 / k_t[0, 0] - L / EA) * EA / L
    c_lat = L ** 3 / (3 * EI) + L / GAS
    c_lat_err = abs(1 / k_t[1, 1] - c_lat) / c_lat
    elapsed = time.perf_counter() - t0

    ok = (rot_err < 1e-8 and roll_err < 1e-4 * L
          and c_ax_err < 1e-4 and c_lat_err < 1e-4 and elapsed < 1.0)
    report(1, ok, f"tip rotation err {rot_err:.2e} (<1e-8), roll-up nodal err "
                  f"{roll_err:.2e} (<1e-4), compliance errs {c_ax_err:.2e}/"
                  f"{c_lat_err:.2e} (<1e-4), runtime {elapsed:.2f}s (<1s)")


@pytest.mark.usefixtures("tight_newton")
def test_criterion_2_tangent_consistency():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)

    # element tangents on 100 random element states
    model = oracles.assemble_cantilever([0.2, 0.9, -0.5, 0.3], length=L, height=H)
    mesh = model.meshes[0]
    element_worst = 0.0
    h = 1e-6
    for _ in range(100):
        e = int(rng.integers(0, mesh.n_elements))
        ue = np.zeros((4, 3))
        ue[:, :2] = rng.uniform(-0.1, 0.1, (4, 2))
        ue[:, 2] = rng.uniform(-0.5, 0.5, 4)
        _, tangent = oracles.element_forces(mesh, e, ue)
        fd = np.zeros((12, 12))
        for j in range(12):
            comp, node = divmod(j, 4)
            up, um = ue.copy(), ue.copy()
            up[node, comp] += h
            um[node, comp] -= h
            fp, _ = oracles.element_forces(mesh, e, up)
            fm, _ = oracles.element_forces(mesh, e, um)
            fd[:, j] = (fp - fm) / (2 * h)
        element_worst = max(element_worst,
                            np.max(np.abs(tangent - fd)) / np.max(np.abs(tangent)))

    # condensed tangents on 100 equilibrium states (2 designs x 50 angles)
    designs = [
        geo.DesignVector(**REGRESSION["design"]),
        geo.DesignVector(0.9, 1.3, -0.3, 0.1, 2.4, 2.0, 0.3, -0.2,
                         alpha=1.2, beta1=15.0, beta2=12.0, gamma=1.1, delta=0.5),
    ]
    condensed_worst = 0.0
    for design in designs:
        hinge = geo.build_hinge(design)
        assert geo.check_feasibility(hinge).feasible
        model = bf.assemble_model(hinge)
        phis = np.sort(rng.uniform(0.02, math.pi / 2, 50))
        state = oracles.zero_state(model)
        for phi in phis:
            state = bf.solve_step(model, state, float(phi))
            k_t, _ = bf.condense_translational_stiffness(model, state)
            moment = bf.reaction_moment(model, state)
            external = np.zeros(model.n_reduced)
            external[model.idx_phi] = moment
            step = 1e-5
            fd = np.zeros((2, 2))
            for j, idx in enumerate((model.idx_mx, model.idx_my)):
                reactions = []
                for sign in (+1.0, -1.0):
                    prescribed = {model.idx_mx: state.z[model.idx_mx],
                                  model.idx_my: state.z[model.idx_my]}
                    prescribed[idx] = state.z[idx] + sign * step
                    pert = bf.solve_equilibrium(oracles.Loaded(model, external), state.z,
                                                prescribed=prescribed)
                    residual, _, _ = model.assemble(pert.z)
                    reactions.append(residual[[model.idx_mx, model.idx_my]])
                fd[:, j] = (reactions[0] - reactions[1]) / (2 * step)
            condensed_worst = max(condensed_worst,
                                  np.max(np.abs(fd - k_t)) / np.max(np.abs(k_t)))
    elapsed = time.perf_counter() - t0
    ok = element_worst < 1e-6 and condensed_worst < 1e-5 and elapsed < 10.0
    report(2, ok, f"element FD rel err {element_worst:.2e} (<1e-6), condensed "
                  f"FD rel err {condensed_worst:.2e} (<1e-5), "
                  f"runtime {elapsed:.1f}s (<10s)")


def _brute_force_radius(points: np.ndarray) -> float:
    """Vectorized enumeration of all 2- and 3-point support circles."""
    n = len(points)
    tol = 1e-10
    best = np.inf
    if n == 1:
        return 0.0
    pairs = np.array(list(itertools.combinations(range(n), 2)))
    centers = 0.5 * (points[pairs[:, 0]] + points[pairs[:, 1]])
    radii = np.linalg.norm(points[pairs[:, 0]] - centers, axis=1)
    contains = np.all(
        np.linalg.norm(points[None, :, :] - centers[:, None, :], axis=2)
        <= radii[:, None] + tol, axis=1)
    if contains.any():
        best = radii[contains].min()
    if n >= 3:
        triples = np.array(list(itertools.combinations(range(n), 3)))
        p, q, r = (points[triples[:, i]] for i in range(3))
        d = 2 * (p[:, 0] * (q[:, 1] - r[:, 1]) + q[:, 0] * (r[:, 1] - p[:, 1])
                 + r[:, 0] * (p[:, 1] - q[:, 1]))
        valid = np.abs(d) > 1e-14
        p2 = (p ** 2).sum(axis=1)
        q2 = (q ** 2).sum(axis=1)
        r2 = (r ** 2).sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            ux = (p2 * (q[:, 1] - r[:, 1]) + q2 * (r[:, 1] - p[:, 1])
                  + r2 * (p[:, 1] - q[:, 1])) / d
            uy = (p2 * (r[:, 0] - q[:, 0]) + q2 * (p[:, 0] - r[:, 0])
                  + r2 * (q[:, 0] - p[:, 0])) / d
        centers = np.stack([ux, uy], axis=1)
        radii = np.linalg.norm(p - centers, axis=1)
        contains = valid & np.all(
            np.linalg.norm(points[None, :, :] - centers[:, None, :], axis=2)
            <= radii[:, None] + tol, axis=1)
        if contains.any():
            best = min(best, radii[contains].min())
    return float(best)


def test_criterion_3_welzl_vs_brute_force():
    rng = np.random.default_rng(2024)
    sets = [rng.uniform(-1, 1, (int(rng.integers(1, 13)), 2)) for _ in range(200)]
    t0 = time.perf_counter()
    radii = [ks.min_enclosing_circle(points)[1] for points in sets]
    elapsed = time.perf_counter() - t0
    worst = max(abs(r - _brute_force_radius(points))
                for r, points in zip(radii, sets))
    ok = worst < 1e-12 and elapsed < 1.0
    report(3, ok, f"max |radius - brute force| {worst:.2e} (<1e-12) on 200 sets, "
                  f"runtime {elapsed:.2f}s (<1s)")


def test_criterion_4_centrode():
    center = np.array([0.3, 0.7])
    start = np.array([1.2, 0.4])
    phis = np.arange(21) * math.pi / 40

    def rot(p):
        return np.array([[math.cos(p), -math.sin(p)],
                         [math.sin(p), math.cos(p)]])

    rigid = np.array([center + rot(p) @ (start - center) for p in phis])
    points = ks.centrode(rigid, math.pi / 40)
    _, radius = ks.min_enclosing_circle(points)

    direction = np.array([0.2, -0.1])
    translation = np.array([start + p * direction for p in phis])
    trans_points = ks.centrode(translation, math.pi / 40)
    mid = 0.5 * (translation[1:] + translation[:-1])
    expected = mid + np.array([-direction[1], direction[0]])
    trans_err = float(np.max(np.abs(trans_points - expected)))

    ok = radius <= 1e-3 and trans_err < 1e-12
    report(4, ok, f"rigid-rotation circumradius {radius:.2e} (<=1e-3), "
                  f"translation formula err {trans_err:.2e} (exact)")


def test_criterion_5_pseudo_weight_arithmetic():
    rows = np.array([
        [5.978e-2, 3.228e-2, 4.534e-2],
        [7.513e-3, 7.658e-1, 6.467e-3],
        [8.727e-1, 1.077e-4, 8.234e-1],
        [5.115e-1, 8.298e-1, 6.610e-5],
    ])
    pw = pareto.pseudo_weights(rows)
    err_a = np.max(np.abs(pw[0] - [0.328, 0.338, 0.333]))
    err_c = np.max(np.abs(pw[2] - [0.098, 0.767, 0.135]))

    weights = refine.inverse_normalization_weights(rows[0])
    err_w = np.max(np.abs(weights - [0.240, 0.444, 0.316]))
    scalar = refine.scalarize(rows[0], weights)
    err_s = abs(scalar - 4.300e-2)

    archive = pareto.nondominated_filter(np.repeat(np.arange(4.0)[:, None], 13, axis=1), rows)
    targets = [(1 / 3, 1 / 3, 1 / 3), (0.8, 0.1, 0.1),
               (0.1, 0.8, 0.1), (0.1, 0.1, 0.8)]
    pairings = [int(archive.designs[pareto.select_by_target(archive, np.array(t)), 0])
                for t in targets]

    ok = (err_a < 5e-4 and err_c < 5e-4 and err_w < 1e-3 and err_s < 2e-4
          and pairings == [0, 1, 2, 3])
    report(5, ok, f"pseudo-weight errs {err_a:.1e}/{err_c:.1e} (<5e-4), inverse-"
                  f"normalization err {err_w:.1e} (<1e-3), scalarized err "
                  f"{err_s:.1e} (<2e-4), target pairings {pairings}")


def test_criterion_6_zdt1_validation():
    t0 = time.perf_counter()
    cfg = moo.MooConfig(algorithm="nsga2", population=100, generations=250, seed=42)
    gd_nsga2 = generational_distance(moo.run(cfg, ZDT1()))
    gd_spea2 = generational_distance(moo.run(replace(cfg, algorithm="spea2"), ZDT1()))
    elapsed = time.perf_counter() - t0
    ok = gd_nsga2 < 0.01 and gd_spea2 < 0.01 and elapsed < 30.0
    report(6, ok, f"generational distance nsga2 {gd_nsga2:.5f}, spea2 "
                  f"{gd_spea2:.5f} (<0.01), runtime {elapsed:.1f}s (<30s)")


def test_criterion_7_desk_campaign(desk_campaign):
    out, elapsed = desk_campaign
    merged = pareto.read_archive_csv(out / "archive_merged.csv")

    # mutual non-domination of the merged archive
    mutual = not pareto.dominated_mask(merged.objectives).any()

    # every archived design satisfies the bending-strain bound
    worst_strain = 0.0
    for x in merged.designs:
        design = geo.DesignVector.from_array(x)
        _, sweep, _ = ks.evaluate_with_sweep(design)
        assert sweep is not None and sweep.failure is None
        worst_strain = max(worst_strain, sweep.max_strain)

    # non-decreasing archive hypervolume in both progress logs
    hv_ok = True
    for algorithm in ("nsga2", "spea2"):
        lines = (out / f"progress_{algorithm}.log").read_text().splitlines()
        hv = [float(line.split("hv=")[1]) for line in lines]
        hv_ok &= bool(np.all(np.diff(hv) >= -1e-12))

    # qualitative compliance/stiffness trade-off
    normalized = pareto.normalize_front(merged)
    corr = float(np.corrcoef(normalized[:, 1], normalized[:, 2])[0, 1])

    ok = (elapsed < 900.0 and len(merged) >= 20 and mutual
          and worst_strain <= 0.2 and hv_ok and corr < 0.0)
    report(7, ok, f"desk campaign {elapsed:.0f}s (<900s), {len(merged)} "
                  f"non-dominated feasible designs (>=20, mutual={mutual}), max "
                  f"strain {worst_strain:.3f} (<=0.2), hv non-decreasing "
                  f"{hv_ok}, corr(c,k) {corr:.2f} (<0)")


def test_criterion_8_per_design_cost():
    design = geo.DesignVector(**REGRESSION["design"])
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        report_obj = ks.evaluate_objectives(design)
        times.append(time.perf_counter() - t0)
        assert report_obj.feasible
    median = sorted(times)[1]
    ok = median <= 0.5
    report(8, ok, f"median full-sweep evaluation {median:.3f}s (<=0.5s)")


def test_criterion_9_refinement(desk_campaign):
    out, _ = desk_campaign
    merged = pareto.read_archive_csv(out / "archive_merged.csv")
    index = pareto.select_by_target(merged, np.ones(3) / 3)
    start = geo.DesignVector.from_array(merged.designs[index])
    result = refine.refine_design(start, merged, ks.HingeEvaluator(), max_iters=200)
    non_increase = result.value <= result.start_value + 1e-12

    def quadratic(x):
        return ks.Evaluation(y=np.array([np.sum((x - 0.7) ** 2)]), feasible=True)

    x0 = np.full(13, 0.65)
    quad = refine.nelder_mead(quadratic, lambda start: lambda y: y[0], x0,
                              np.zeros(13), np.ones(13), max_iters=200)
    ok = non_increase and quad.value < 1e-4
    report(9, ok, f"scalar {result.start_value:.4e} -> {result.value:.4e} "
                  f"(non-increasing={non_increase}), quadratic reaches "
                  f"{quad.value:.1e} (<1e-4)")


def test_criterion_10_determinism(tmp_path, desk_campaign, capsys):
    design = geo.DesignVector(**REGRESSION["design"])
    a = ks.evaluate_objectives(design)
    b = ks.evaluate_objectives(design)
    eval_ok = (a.r_bar, a.c_bar, a.k_bar) == (b.r_bar, b.c_bar, b.k_bar)

    csv_bytes = []
    for name, workers in (("s1", "1"), ("s2", "1"), ("p", "2")):
        run_dir = tmp_path / name
        rc = cli.main(["optimize", "--algorithm", "nsga2", "--pop", "8",
                       "--gens", "2", "--seed", "3", "--workers", workers,
                       "--out", str(run_dir)])
        assert rc == 0
        csv_bytes.append((run_dir / "archive_nsga2.csv").read_bytes())
    optimize_ok = csv_bytes[0] == csv_bytes[1] == csv_bytes[2]

    out, _ = desk_campaign
    merged_path = out / "archive_merged.csv"
    select_payloads = []
    for run_dir in (tmp_path / "sel1", tmp_path / "sel2"):
        rc = cli.main(["select", "--archive", str(merged_path),
                       "--target-weights", "0.3333333333,0.3333333333,0.3333333334",
                       "--out", str(run_dir)])
        assert rc == 0
        select_payloads.append((run_dir / "selection.json").read_bytes())
    select_ok = select_payloads[0] == select_payloads[1]

    svg_bytes = []
    for run_dir in (tmp_path / "r1", tmp_path / "r2"):
        rc = cli.main(["render", "--archive", str(merged_path), "--rows", "0",
                       "--out", str(run_dir)])
        assert rc == 0
        svg_bytes.append((run_dir / "design_0000.svg").read_bytes())
    render_ok = svg_bytes[0] == svg_bytes[1]
    capsys.readouterr()

    ok = eval_ok and optimize_ok and select_ok and render_ok
    report(10, ok, f"evaluate bit-identical {eval_ok}, optimize serial/serial/"
                   f"parallel identical {optimize_ok}, select identical "
                   f"{select_ok}, render identical {render_ok}")
