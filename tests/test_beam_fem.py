import json
import math
from pathlib import Path

import numpy as np
import pytest

from crosshinge import beam_fem as bf
from crosshinge import geometry as geo

DATA = Path(__file__).parent / "data"

L, H, W, E, NU = 1.0, 0.1, 1.0, 1.0, 0.49
G = E / (2 * (1 + NU))
EA = E * W * H
GAS = (5.0 / 6.0) * G * W * H
EI = E * W * H ** 3 / 12.0


@pytest.fixture(scope="module")
def cantilever():
    return bf.assemble_cantilever([0, 0, 0, 0], length=L, height=H, width=W,
                                  young_modulus=E, poisson_ratio=NU)


def cross_hinge_design():
    return geo.DesignVector(
        math.pi / 4, math.pi / 4, 0.0, 0.0,
        3 * math.pi / 4, 3 * math.pi / 4, 0.0, 0.0,
        alpha=1.0, beta1=20.0, beta2=20.0, gamma=1.0, delta=math.sqrt(2) / 2,
    )


@pytest.fixture(scope="module")
def cross_hinge_model():
    return bf.assemble_model(geo.build_hinge(cross_hinge_design()))


def random_element_state(rng):
    ue = np.zeros((4, 3))
    ue[:, :2] = rng.uniform(-0.1, 0.1, (4, 2))
    ue[:, 2] = rng.uniform(-0.5, 0.5, 4)
    return ue


class TestAssembly:
    def test_straight_flexure_uniform_grid(self, cantilever):
        mesh = cantilever.meshes[0]
        assert mesh.n_nodes == 91
        expected = np.stack([np.linspace(0, L, 91), np.zeros(91)], axis=1)
        assert mesh.node_pos == pytest.approx(expected, abs=1e-14)

    def test_quarter_circle_nodal_angles(self):
        coeffs = (0.0, math.pi / 2, 0.0, 0.0)
        model = bf.assemble_cantilever(coeffs)
        mesh = model.meshes[0]
        s = np.linspace(0, 1, mesh.n_nodes)
        assert mesh.node_angle == pytest.approx(geo.angle_profile(coeffs, s), abs=1e-12)

    def test_section_properties(self, cantilever):
        sec = cantilever.meshes[0].section
        assert sec.ea == pytest.approx(0.1)
        assert sec.ei == pytest.approx(8.3333333333e-5, rel=1e-6)
        assert sec.gas == pytest.approx((5 / 6) * 0.1 / (2 * 1.49), rel=1e-12)

    def test_free_dof_count(self, cross_hinge_model):
        # two clamped nodes removed, two tips replaced by one master triple
        assert cross_hinge_model.n_reduced == 2 * (91 - 2) * 3 + 3

    def test_reference_state_is_stress_free(self, cross_hinge_model):
        residual, _ = cross_hinge_model.assemble(
            np.zeros(cross_hinge_model.n_reduced), need_tangent=False)
        assert np.max(np.abs(residual)) < 1e-14

    def test_tangent_spd_at_reference(self, cross_hinge_model):
        _, dense = cross_hinge_model.residual_tangent(
            np.zeros(cross_hinge_model.n_reduced))
        assert np.max(np.abs(dense - dense.T)) < 1e-10 * np.max(np.abs(dense))
        eigvals = np.linalg.eigvalsh(0.5 * (dense + dense.T))
        assert eigvals[0] > 0.0


class TestElementForces:
    def test_zero_displacement_zero_force(self, cantilever):
        mesh = cantilever.meshes[0]
        f, _ = mesh.element_forces(3, np.zeros((4, 3)))
        assert np.max(np.abs(f)) == 0.0

    def test_rigid_translation_zero_force(self, cantilever):
        mesh = cantilever.meshes[0]
        ue = np.zeros((4, 3))
        ue[:, 0] = 0.37
        ue[:, 1] = -1.2
        f, _ = mesh.element_forces(7, ue)
        assert np.max(np.abs(f)) < 1e-14

    def test_objectivity_under_rigid_motion(self):
        model = bf.assemble_cantilever([0.3, 1.1, -0.4, 0.2])
        mesh = model.meshes[0]
        rng = np.random.default_rng(4)
        u = np.zeros((mesh.n_nodes, 3))
        u[:, :2] = rng.uniform(-0.05, 0.05, (mesh.n_nodes, 2))
        u[:, 2] = rng.uniform(-0.2, 0.2, mesh.n_nodes)
        base = mesh.strains(u)

        angle, shift = 0.83, np.array([0.5, -1.4])
        rot = np.array([[math.cos(angle), -math.sin(angle)],
                        [math.sin(angle), math.cos(angle)]])
        current = mesh.node_pos + u[:, :2]
        moved = np.empty_like(u)
        moved[:, :2] = current @ rot.T + shift - mesh.node_pos
        moved[:, 2] = u[:, 2] + angle
        superposed = mesh.strains(moved)
        for a, b in zip(base, superposed):
            assert np.max(np.abs(a - b)) < 1e-12

    def test_patch_constant_curvature_small(self, cantilever):
        # linearized pure bending is contained in the cubic basis, so axial
        # and shear strains vanish (second order in the curvature)
        mesh = cantilever.meshes[0]
        kappa = 1e-6
        s = np.linspace(0, L, mesh.n_nodes)
        u = np.zeros((mesh.n_nodes, 3))
        # cancellation-free forms of sin(ks)/k - s and (1 - cos(ks))/k
        u[:, 0] = -kappa ** 2 * s ** 3 / 6.0 + kappa ** 4 * s ** 5 / 120.0
        u[:, 1] = 2.0 * np.sin(kappa * s / 2.0) ** 2 / kappa
        u[:, 2] = kappa * s
        eps, gam, kap = mesh.strains(u)
        assert np.max(np.abs(eps)) < 1e-12
        assert np.max(np.abs(gam)) < 1e-12
        assert kap == pytest.approx(np.full_like(kap, kappa), rel=1e-6)

    def test_tangent_matches_finite_differences(self, cantilever):
        mesh = cantilever.meshes[0]
        rng = np.random.default_rng(7)
        h = 1e-6
        for _ in range(20):
            e = int(rng.integers(0, mesh.n_elements))
            ue = random_element_state(rng)
            _, tangent = mesh.element_forces(e, ue)
            fd = np.zeros((12, 12))
            for j in range(12):
                comp, node = divmod(j, 4)
                up, um = ue.copy(), ue.copy()
                up[node, comp] += h
                um[node, comp] -= h
                fp, _ = mesh.element_forces(e, up)
                fm, _ = mesh.element_forces(e, um)
                fd[:, j] = (fp - fm) / (2 * h)
            rel = np.max(np.abs(tangent - fd)) / np.max(np.abs(tangent))
            assert rel < 1e-6


class TestClosedForms:
    def test_tip_rotation_under_pure_moment(self, cantilever):
        moment = 0.5 * EI / L
        state = bf.solve_tip_moment(cantilever, moment, n_steps=5, tol=1e-13)
        assert state.rotation == pytest.approx(moment * L / EI, abs=1e-8)

    def test_full_circle_rollup(self, cantilever):
        moment = 2 * math.pi * EI / L
        state = bf.solve_tip_moment(cantilever, moment, n_steps=40, tol=1e-12)
        mesh = cantilever.meshes[0]
        disp = cantilever.full_displacements(state.z)[0]
        pos = mesh.node_pos + disp[:, :2]
        kappa = moment / EI
        s = np.linspace(0, L, mesh.n_nodes)
        exact = np.stack([np.sin(kappa * s) / kappa,
                          (1 - np.cos(kappa * s)) / kappa], axis=1)
        assert np.max(np.linalg.norm(pos - exact, axis=1)) < 1e-4 * L
        # tip returns to the base: displacement (-L, 0) relative to the tip
        assert disp[-1, :2] == pytest.approx([-L, 0.0], abs=1e-4 * L)

    def test_reaction_moment_recovers_applied(self, cantilever):
        moment = 0.8 * EI / L
        state = bf.solve_tip_moment(cantilever, moment, n_steps=5, tol=1e-13)
        assert bf.reaction_moment(cantilever, state) == pytest.approx(moment, abs=1e-10)

    def test_timoshenko_compliances_from_schur(self, cantilever):
        k_t = bf.condense_translational_stiffness(cantilever, cantilever.zero_state())
        c_lateral = L ** 3 / (3 * EI) + L / GAS
        assert k_t[0, 0] == pytest.approx(EA / L, rel=1e-4)
        assert k_t[1, 1] == pytest.approx(1.0 / c_lateral, rel=1e-4)
        assert abs(k_t[0, 1]) < 1e-10 * k_t[0, 0]

    def test_parallel_flexures_axial_stiffness_adds(self):
        d = geo.DesignVector(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                             alpha=1.5, beta1=10.0, beta2=15.0, gamma=0.8, delta=0.4)
        model = bf.assemble_model(geo.build_hinge(d))
        k_t = bf.condense_translational_stiffness(model, model.zero_state())
        ea1, l1 = model.meshes[0].section.ea, model.meshes[0].length
        ea2, l2 = model.meshes[1].section.ea, model.meshes[1].length
        assert k_t[0, 0] == pytest.approx(ea1 / l1 + ea2 / l2, rel=1e-4)


class TestEquilibriumSolver:
    def test_noop_step_zero_iterations(self, cross_hinge_model):
        state = bf.solve_step(cross_hinge_model, cross_hinge_model.zero_state(), 0.1)
        again = bf.solve_step(cross_hinge_model, state, 0.1)
        assert again.iterations <= 1
        assert again.z == pytest.approx(state.z, abs=0.0)

    def test_energy_consistent_reaction(self, cross_hinge_model):
        model = cross_hinge_model
        phi = 0.3
        state = bf.solve_step(model, model.zero_state(), phi, tol=1e-13)
        moment = bf.reaction_moment(model, state)
        h = 1e-4
        up = bf.solve_step(model, state, phi + h, tol=1e-13)
        down = bf.solve_step(model, state, phi - h, tol=1e-13)
        dU = (model.strain_energy(up) - model.strain_energy(down)) / (2 * h)
        assert moment == pytest.approx(dU, rel=1e-6)

    def test_condensed_stiffness_matches_reaction_differences(self, cross_hinge_model):
        model = cross_hinge_model
        state = bf.solve_step(model, model.zero_state(), 0.4, tol=1e-13)
        k_t = bf.condense_translational_stiffness(model, state)
        moment = bf.reaction_moment(model, state)
        external = np.zeros(model.n_reduced)
        external[model.idx_phi] = moment
        h = 1e-5
        fd = np.zeros((2, 2))
        for j, idx in enumerate((model.idx_mx, model.idx_my)):
            reactions = []
            for sign in (+1.0, -1.0):
                prescribed = {model.idx_mx: state.z[model.idx_mx],
                              model.idx_my: state.z[model.idx_my]}
                prescribed[idx] = state.z[idx] + sign * h
                pert = bf.solve_equilibrium(model, state.z, prescribed=prescribed,
                                            external=external, tol=1e-13)
                residual, _ = model.assemble(pert.z, need_tangent=False)
                reactions.append(residual[[model.idx_mx, model.idx_my]])
            fd[:, j] = (reactions[0] - reactions[1]) / (2 * h)
        assert np.max(np.abs(fd - k_t)) / np.max(np.abs(k_t)) < 1e-5


@pytest.fixture(scope="module")
def sweep(cross_hinge_model):
    return bf.run_sweep(cross_hinge_model)


class TestSweep:
    def test_step_schedule(self, sweep):
        assert sweep.converged
        assert len(sweep.records) == 21
        assert sweep.phi == pytest.approx(np.arange(21) * math.pi / 40, abs=1e-15)

    def test_zero_moment_at_reference(self, sweep):
        assert sweep.moments[0] == 0.0

    def test_stiffness_symmetry(self, sweep):
        for rec in sweep.records:
            scale = np.max(np.abs(rec.stiffness))
            assert abs(rec.stiffness[0, 1] - rec.stiffness[1, 0]) < 1e-10 * scale

    def test_resisting_moment_positive(self, sweep):
        assert np.all(sweep.moments[1:] > 0.0)

    def test_deterministic(self, cross_hinge_model):
        other = bf.run_sweep(cross_hinge_model)
        for a, b in zip(other.records, bf.run_sweep(cross_hinge_model).records):
            assert np.array_equal(a.stiffness, b.stiffness)
            assert a.moment == b.moment

    def test_matches_regression_baseline(self, sweep):
        # 1e-5 absorbs Newton-path noise (residual tolerance 1e-9 against
        # soft-direction stiffness ~1e-4) while staying far below the 0.1%
        # regression bound on the objectives
        golden = json.loads((DATA / "regression_cross_hinge.json").read_text())
        assert sweep.moments[1:] == pytest.approx(np.array(golden["moments"])[1:],
                                                  rel=1e-3)
        assert sweep.tip_positions == pytest.approx(
            np.array(golden["tip_positions"]), abs=1e-5)
        assert sweep.records[-1].max_strain == pytest.approx(
            golden["max_strain"], rel=1e-3)

    def test_strain_abort_marks_failure(self):
        # slender, strongly curved flexure pair exceeds the strain bound
        d = geo.DesignVector(0.0, math.pi, math.pi, 0.0,
                             1.0, 1.0, 0.0, 0.0,
                             alpha=1.0, beta1=5.0, beta2=5.0, gamma=1.0, delta=0.5)
        hinge = geo.build_hinge(d)
        assert geo.check_feasibility(hinge).feasible
        result = bf.run_sweep(bf.assemble_model(hinge))
        assert not result.converged
        assert result.failure == "strain"
        assert result.max_strain > bf.STRAIN_LIMIT
        assert len(result.records) < 21

    def test_first_step_failure_keeps_reference_record(self, cross_hinge_model,
                                                       monkeypatch):
        def always_fails(*args, **kwargs):
            raise bf.NonConverged("forced failure")

        monkeypatch.setattr(bf, "solve_step", always_fails)
        result = bf.run_sweep(cross_hinge_model)
        assert not result.converged
        assert result.failure == "nonconvergence"
        assert len(result.records) == 1

    def test_mesh_refinement_agreement(self, sweep):
        golden = json.loads((DATA / "regression_cross_hinge.json").read_text())
        fine = golden["refined_check"]["objectives"]
        from crosshinge import kinetostatics as ks
        coarse = ks.objectives_from_sweep(sweep)
        assert coarse.r_bar == pytest.approx(fine["r_bar"], rel=5e-3)
        assert coarse.c_bar == pytest.approx(fine["c_bar"], rel=5e-3)
        assert coarse.k_bar == pytest.approx(fine["k_bar"], rel=5e-3)
