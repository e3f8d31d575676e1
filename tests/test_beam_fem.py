import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from crosshinge import beam_fem as bf
from crosshinge import geometry as geo
import oracles

DATA = Path(__file__).parent / "data"

L, H, W, E, NU = 1.0, 0.1, 1.0, 1.0, 0.49
G = E / (2 * (1 + NU))
EA = E * W * H
GAS = (5.0 / 6.0) * G * W * H
EI = E * W * H ** 3 / 12.0


@pytest.fixture(scope="module")
def cantilever():
    return oracles.assemble_cantilever([0, 0, 0, 0], length=L, height=H, width=W)


def cross_hinge_design():
    return geo.DesignVector(
        math.pi / 4, math.pi / 4, 0.0, 0.0,
        3 * math.pi / 4, 3 * math.pi / 4, 0.0, 0.0,
        alpha=1.0, beta1=20.0, beta2=20.0, gamma=1.0, delta=math.sqrt(2) / 2,
    )


def strain_abort_design():
    """Slender, strongly curved flexure pair that exceeds the strain bound."""
    return geo.DesignVector(0.0, math.pi, math.pi, 0.0,
                            1.0, 1.0, 0.0, 0.0,
                            alpha=1.0, beta1=5.0, beta2=5.0, gamma=1.0, delta=0.5)


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
        model = oracles.assemble_cantilever(coeffs)
        mesh = model.meshes[0]
        s = np.linspace(0, 1, mesh.n_nodes)
        assert mesh.node_angle == pytest.approx(geo.angle_profile(coeffs, s), abs=1e-12)

    def test_section_properties(self, cantilever):
        ea, gas, ei = cantilever.meshes[0].elements.stiffness[:, 0]
        assert ea == pytest.approx(0.1)
        assert ei == pytest.approx(8.3333333333e-5, rel=1e-6)
        assert gas == pytest.approx((5 / 6) * 0.1 / (2 * 1.49), rel=1e-12)

    def test_free_dof_count(self, cross_hinge_model):
        # two clamped nodes removed, two tips replaced by one master triple
        assert cross_hinge_model.n_reduced == 2 * (91 - 2) * 3 + 3

    def test_reference_state_is_stress_free(self, cross_hinge_model):
        residual, _, _ = cross_hinge_model.assemble(np.zeros(cross_hinge_model.n_reduced))
        assert np.max(np.abs(residual)) < 1e-14

    def test_tangent_spd_at_reference(self, cross_hinge_model):
        _, dense = oracles.residual_tangent(
            cross_hinge_model, np.zeros(cross_hinge_model.n_reduced))
        assert np.max(np.abs(dense - dense.T)) < 1e-10 * np.max(np.abs(dense))
        eigvals = np.linalg.eigvalsh(0.5 * (dense + dense.T))
        assert eigvals[0] > 0.0


class TestElementForces:
    def test_zero_displacement_zero_force(self, cantilever):
        mesh = cantilever.meshes[0]
        f, _ = oracles.element_forces(mesh, 3, np.zeros((4, 3)))
        assert np.max(np.abs(f)) == 0.0

    def test_rigid_translation_zero_force(self, cantilever):
        mesh = cantilever.meshes[0]
        ue = np.zeros((4, 3))
        ue[:, 0] = 0.37
        ue[:, 1] = -1.2
        f, _ = oracles.element_forces(mesh, 7, ue)
        assert np.max(np.abs(f)) < 1e-14

    def test_objectivity_under_rigid_motion(self):
        model = oracles.assemble_cantilever([0.3, 1.1, -0.4, 0.2])
        mesh = model.meshes[0]
        rng = np.random.default_rng(4)
        u = np.zeros((mesh.n_nodes, 3))
        u[:, :2] = rng.uniform(-0.05, 0.05, (mesh.n_nodes, 2))
        u[:, 2] = rng.uniform(-0.2, 0.2, mesh.n_nodes)
        base = oracles.strains(mesh, u)

        angle, shift = 0.83, np.array([0.5, -1.4])
        rot = np.array([[math.cos(angle), -math.sin(angle)],
                        [math.sin(angle), math.cos(angle)]])
        current = mesh.node_pos + u[:, :2]
        moved = np.empty_like(u)
        moved[:, :2] = current @ rot.T + shift - mesh.node_pos
        moved[:, 2] = u[:, 2] + angle
        superposed = oracles.strains(mesh, moved)
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
        eps, gam, kap = oracles.strains(mesh, u)
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
            rel = np.max(np.abs(tangent - fd)) / np.max(np.abs(tangent))
            assert rel < 1e-6


class TestKernelReference:
    """element_kernel stacks its fields in pairs but keeps the operation
    sequence of every value, so it matches the per-field reference of
    tests/oracles.py byte for byte."""

    @staticmethod
    def assert_kernel_bytes(model, states):
        for z in states:
            z_ext, _ = model._extended(z)
            ue = z_ext[bf._topology(model.node_counts)[1]]
            got = bf.element_kernel(model.elements, ue)
            want = oracles.element_kernel(model.elements, ue)
            for name, a, b in zip(("forces", "tangents", "kap"), got, want):
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), name

    def test_golden_sweep_states(self):
        golden = json.loads((DATA / "regression_cross_hinge.json").read_text())
        model = bf.assemble_model(geo.build_hinge(geo.DesignVector(**golden["design"])),
                                  n_elements=golden["n_elements"])
        sweep = bf.run_sweep(model, n_steps=golden["n_steps"])
        assert sweep.failure is None
        self.assert_kernel_bytes(model, sweep.z)

    def test_strain_abort_sweep_states(self):
        model = bf.assemble_model(geo.build_hinge(strain_abort_design()))
        sweep = bf.run_sweep(model)
        assert sweep.failure == "strain"
        self.assert_kernel_bytes(model, sweep.z)

    def test_random_perturbations(self, cross_hinge_model):
        model = cross_hinge_model
        rng = np.random.default_rng(17)
        state = bf.solve_step(model, oracles.zero_state(model), 0.4)
        self.assert_kernel_bytes(model, [state.z + rng.normal(0.0, scale, model.n_reduced)
                                         for scale in (1e-6, 1e-3, 1e-2, 0.1, 1.0)])


class TestTopology:
    @staticmethod
    def arrays(model) -> list[np.ndarray]:
        """The index arrays of the model's node counts: the node reads, the
        element gather, the residual and band scatters and the unit rhs."""
        reads, *arrays = bf._topology(model.node_counts)
        assert model._node_reads is reads and model._unit_rhs is arrays[-1]
        return [*reads, *arrays]

    def test_index_arrays_shared_per_element_count_and_read_only(self):
        a = bf.assemble_model(geo.build_hinge(cross_hinge_design()), n_elements=5)
        b = bf.assemble_model(geo.build_hinge(strain_abort_design()), n_elements=5)
        other = bf.assemble_model(geo.build_hinge(cross_hinge_design()), n_elements=6)
        shared = self.arrays(a)
        assert all(x is y for x, y in zip(shared, self.arrays(b), strict=True))
        assert not any(x is y for x, y in zip(shared, self.arrays(other), strict=True))
        gather = bf._topology(other.node_counts)[1]
        assert len(gather[0]) == 2 * 6 != len(bf._topology(a.node_counts)[1][0])
        for array in shared:
            with pytest.raises(ValueError):
                array.flat[0] = 0

    def test_band_is_fortran_ordered_and_solves_leave_it(self, cross_hinge_model):
        model = cross_hinge_model
        state = bf.solve_step(model, oracles.zero_state(model), 0.5)
        ab = state.tangent_band
        assert ab.shape == (bf._BAND + 1, model.n_reduced)
        assert ab.flags.f_contiguous
        before = ab.copy()
        bf.condense_translational_stiffness(model, state)
        bf.solve_banded(ab, np.ones(model.n_reduced))
        assert np.array_equal(ab, before)


class TestClosedForms:
    def test_tip_rotation_under_pure_moment(self, cantilever):
        moment = 0.5 * EI / L
        state = oracles.solve_tip_moment(cantilever, moment, n_steps=5, tol=1e-13)
        assert state.z[cantilever.idx_phi] == pytest.approx(moment * L / EI, abs=1e-8)

    def test_full_circle_rollup(self, cantilever):
        moment = 2 * math.pi * EI / L
        state = oracles.solve_tip_moment(cantilever, moment, n_steps=40, tol=1e-12)
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
        state = oracles.solve_tip_moment(cantilever, moment, n_steps=5, tol=1e-13)
        assert bf.reaction_moment(cantilever, state) == pytest.approx(moment, abs=1e-10)

    def test_timoshenko_compliances_from_schur(self, cantilever):
        k_t, _ = bf.condense_translational_stiffness(cantilever, oracles.zero_state(cantilever))
        c_lateral = L ** 3 / (3 * EI) + L / GAS
        assert k_t[0, 0] == pytest.approx(EA / L, rel=1e-4)
        assert k_t[1, 1] == pytest.approx(1.0 / c_lateral, rel=1e-4)
        assert abs(k_t[0, 1]) < 1e-10 * k_t[0, 0]

    def test_parallel_flexures_axial_stiffness_adds(self):
        d = geo.DesignVector(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                             alpha=1.5, beta1=10.0, beta2=15.0, gamma=0.8, delta=0.4)
        model = bf.assemble_model(geo.build_hinge(d))
        k_t, _ = bf.condense_translational_stiffness(model, oracles.zero_state(model))
        ea1, l1 = model.meshes[0].elements.stiffness[0, 0], model.meshes[0].length
        ea2, l2 = model.meshes[1].elements.stiffness[0, 0], model.meshes[1].length
        assert k_t[0, 0] == pytest.approx(ea1 / l1 + ea2 / l2, rel=1e-4)


def symmetric_band(rng, n, definite):
    """Random symmetric matrix of half-bandwidth _BAND, strictly diagonally
    dominant (so nonsingular), with a positive diagonal when definite and
    alternating diagonal signs otherwise; returned dense and in the upper
    band storage of BeamModel.assemble."""
    band = bf._BAND
    dense = np.triu(np.tril(rng.uniform(-1.0, 1.0, (n, n)), band), 1)
    dense += dense.T
    diag = np.abs(dense).sum(axis=1) + 1.0
    dense[np.diag_indices(n)] = diag if definite else diag * (-1.0) ** np.arange(n)
    ab = np.zeros((band + 1, n))
    for d in range(band + 1):
        ab[band - d, d:] = np.diagonal(dense, d)
    assert np.array_equal(oracles.banded_to_dense(ab), dense)
    return dense, ab


class TestBandedSolve:
    N = 40

    @pytest.fixture
    def lu_calls(self, monkeypatch):
        """Records each dgbsv fallback of solve_banded."""
        calls, dgbsv = [], bf.dgbsv
        monkeypatch.setattr(bf, "dgbsv", lambda *a, **k: calls.append(a) or dgbsv(*a, **k))
        return calls

    def test_lapack_loads_without_scipy_linalg(self):
        """A fresh `import crosshinge.cli` leaves scipy/linalg/__init__.py
        unrun, and a later import of scipy.linalg hands out the very
        functions the solver calls."""
        script = ("import sys, crosshinge.cli\n"
                  "assert 'scipy.linalg' not in sys.modules\n"
                  "import scipy.linalg.lapack as lapack\n"
                  "from crosshinge import beam_fem as bf\n"
                  "assert bf.dpbsv is lapack.dpbsv and bf.dgbsv is lapack.dgbsv\n")
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr

    @pytest.mark.parametrize("definite", [True, False], ids=["cholesky", "lu-fallback"])
    @pytest.mark.parametrize("n_rhs", [None, 2])
    def test_matches_dense_solve(self, lu_calls, definite, n_rhs):
        rng = np.random.default_rng(3 if definite else 4)
        dense, ab = symmetric_band(rng, self.N, definite)
        rhs = rng.normal(size=self.N if n_rhs is None else (self.N, n_rhs))
        before = ab.copy()
        solution = bf.solve_banded(ab, rhs)
        assert solution.shape == rhs.shape
        np.testing.assert_allclose(solution, np.linalg.solve(dense, rhs),
                                   rtol=1e-10, atol=1e-12)
        assert np.array_equal(ab, before)
        assert len(lu_calls) == (0 if definite else 1)

    @pytest.mark.parametrize("definite", [True, False])
    def test_zero_column_is_singular(self, definite):
        _, ab = symmetric_band(np.random.default_rng(5), self.N, definite)
        p = 17  # zero row and column p of the symmetric matrix
        ab[:, p] = 0.0
        ab[bf._BAND - np.arange(1, bf._BAND + 1), p + np.arange(1, bf._BAND + 1)] = 0.0
        with pytest.raises(bf.SingularTangent):
            bf.solve_banded(ab, np.ones(self.N))

    def test_nan_entry_is_singular(self):
        _, ab = symmetric_band(np.random.default_rng(6), self.N, True)
        ab[bf._BAND - 3, 20] = np.nan
        with pytest.raises(bf.SingularTangent):
            bf.solve_banded(ab, np.ones(self.N))

    @pytest.mark.parametrize("fixed", [[0], [5, 21], [39], [bf._BAND, 39 - bf._BAND]])
    def test_constraints_clear_row_and_column(self, fixed):
        dense, ab = symmetric_band(np.random.default_rng(7), self.N, False)
        rhs = np.ones(self.N)
        bf._apply_constraints(ab, rhs, np.array(fixed))
        dense[fixed, :] = 0.0
        dense[:, fixed] = 0.0
        dense[fixed, fixed] = 1.0
        assert np.array_equal(oracles.banded_to_dense(ab), dense)
        assert np.array_equal(rhs == 0.0, np.isin(np.arange(self.N), fixed))


class TestEquilibriumSolver:
    def test_noop_step_zero_iterations(self, cross_hinge_model):
        state = bf.solve_step(cross_hinge_model, oracles.zero_state(cross_hinge_model), 0.1)
        again = bf.solve_step(cross_hinge_model, state, 0.1)
        assert again.iterations <= 1
        assert again.z == pytest.approx(state.z, abs=0.0)

    @pytest.mark.usefixtures("tight_newton")
    def test_energy_consistent_reaction(self, cross_hinge_model):
        model = cross_hinge_model
        phi = 0.3
        state = bf.solve_step(model, oracles.zero_state(model), phi)
        moment = bf.reaction_moment(model, state)
        h = 1e-4
        up = bf.solve_step(model, state, phi + h)
        down = bf.solve_step(model, state, phi - h)
        dU = (oracles.strain_energy(model, up) - oracles.strain_energy(model, down)) / (2 * h)
        assert moment == pytest.approx(dU, rel=1e-6)

    @pytest.mark.usefixtures("tight_newton")
    def test_assembled_tangent_matches_finite_differences(self, cross_hinge_model):
        # covers the stacked element order, the slaved-tip transform and the
        # curvature of the slaved-tip map at a deformed two-flexure state
        model = cross_hinge_model
        state = bf.solve_step(model, oracles.zero_state(model), 0.6)
        dense = oracles.banded_to_dense(state.tangent_band)
        rng = np.random.default_rng(11)
        around_master = np.arange(model.idx_mx - 6, model.idx_phi + 7)
        columns = np.union1d(around_master,
                             rng.choice(model.n_reduced, size=24, replace=False))
        assert len(columns) >= 30
        h = 1e-6
        for j in columns:
            up, um = state.z.copy(), state.z.copy()
            up[j] += h
            um[j] -= h
            fd = (model.assemble(up)[0] - model.assemble(um)[0]) / (2 * h)
            assert np.max(np.abs(dense[:, j] - fd)) < 1e-6 * np.max(np.abs(dense[:, j]))

    @pytest.mark.usefixtures("tight_newton")
    def test_condensed_stiffness_matches_reaction_differences(self, cross_hinge_model):
        model = cross_hinge_model
        state = bf.solve_step(model, oracles.zero_state(model), 0.4)
        k_t, _ = bf.condense_translational_stiffness(model, state)
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
                pert = bf.solve_equilibrium(oracles.Loaded(model, external), state.z,
                                            prescribed=prescribed)
                residual, _, _ = model.assemble(pert.z)
                reactions.append(residual[[model.idx_mx, model.idx_my]])
            fd[:, j] = (reactions[0] - reactions[1]) / (2 * h)
        assert np.max(np.abs(fd - k_t)) / np.max(np.abs(k_t)) < 1e-5

    @pytest.mark.usefixtures("tight_newton")
    def test_path_tangent_matches_path_differences(self, cross_hinge_model):
        # the sweep's predictor direction is dz/dphi along the equilibrium path
        model = cross_hinge_model
        phi, h = 0.4, 1e-4
        state = bf.solve_step(model, oracles.zero_state(model), phi)
        _, tangent = bf.condense_translational_stiffness(model, state)
        up = bf.solve_step(model, state, phi + h)
        down = bf.solve_step(model, state, phi - h)
        fd = (up.z - down.z) / (2 * h)
        assert tangent[model.idx_phi] == 1.0
        assert np.max(np.abs(tangent - fd)) < 1e-5 * np.max(np.abs(fd))


@pytest.fixture(scope="module")
def sweep(cross_hinge_model):
    return bf.run_sweep(cross_hinge_model)


def never_converges(model, z0, prescribed):
    """A Newton loop (bf._newton) that fails at once, in every attempt."""
    raise bf.NonConverged("forced failure")
    yield z0  # a generator, as _newton is


class TestSweep:
    def test_step_schedule(self, sweep):
        assert sweep.failure is None
        assert len(sweep.phi) == 21
        assert sweep.phi == pytest.approx(np.arange(21) * math.pi / 40, abs=1e-15)

    def test_zero_moment_at_reference(self, sweep):
        assert sweep.moments[0] == 0.0

    def test_stiffness_symmetry(self, sweep):
        for stiffness in sweep.stiffnesses:
            scale = np.max(np.abs(stiffness))
            assert abs(stiffness[0, 1] - stiffness[1, 0]) < 1e-10 * scale

    def test_resisting_moment_positive(self, sweep):
        assert np.all(sweep.moments[1:] > 0.0)

    def test_deterministic(self, cross_hinge_model):
        a, b = bf.run_sweep(cross_hinge_model), bf.run_sweep(cross_hinge_model)
        assert np.array_equal(a.stiffnesses, b.stiffnesses)
        assert np.array_equal(a.moments, b.moments)

    def test_matches_regression_baseline(self, sweep):
        # 1e-5 absorbs the Newton-path noise of the baseline (recorded at
        # residual tolerance 1e-9, against soft-direction stiffness ~1e-4)
        # while staying far below the 0.1% regression bound on the objectives
        golden = json.loads((DATA / "regression_cross_hinge.json").read_text())
        assert sweep.moments[1:] == pytest.approx(np.array(golden["moments"])[1:],
                                                  rel=1e-3)
        assert sweep.tip_positions == pytest.approx(
            np.array(golden["tip_positions"]), abs=1e-5)
        assert sweep.max_strains[-1] == pytest.approx(
            golden["max_strain"], rel=1e-3)

    def test_strain_abort_marks_failure(self):
        hinge = geo.build_hinge(strain_abort_design())
        assert geo.check_feasibility(hinge).feasible
        result = bf.run_sweep(bf.assemble_model(hinge))
        assert result.failure is not None
        assert result.failure == "strain"
        assert result.max_strain > bf.STRAIN_LIMIT
        assert len(result.phi) < 21

    def test_first_step_failure_keeps_reference_record(self, cross_hinge_model,
                                                       monkeypatch):
        monkeypatch.setattr(bf, "_newton", never_converges)
        result = bf.run_sweep(cross_hinge_model)
        assert result.failure is not None
        assert result.failure == "nonconvergence"
        assert len(result.phi) == 1

    def test_columns_align(self, sweep, cross_hinge_model, monkeypatch):
        strain_model = bf.assemble_model(geo.build_hinge(strain_abort_design()))
        strain = bf.run_sweep(strain_model)
        monkeypatch.setattr(bf, "_newton", never_converges)
        first_step = bf.run_sweep(cross_hinge_model)
        cases = ((sweep, cross_hinge_model, True), (strain, strain_model, False),
                 (first_step, cross_hinge_model, False))
        for result, model, full in cases:
            k = len(result.phi)
            assert result.phi.shape == result.moments.shape == result.max_strains.shape == (k,)
            assert result.tip_positions.shape == (k, 2)
            assert result.stiffnesses.shape == (k, 2, 2)
            assert result.z.shape == (k, model.n_reduced)
            assert np.all(np.diff(result.max_strains) >= 0.0)
            assert (result.failure is None) == full

    def test_peak_strain_is_the_states_own(self, sweep, cross_hinge_model):
        # a state's peak bending strain comes from the Newton assembly that
        # accepted it; recomputed from the state's z it agrees bit for bit
        model = cross_hinge_model
        zero = oracles.zero_state(model)
        assert zero.peak_strain == oracles.peak_strain(model, zero.z) == 0.0
        state = bf.solve_step(model, zero, 0.4)
        assert state.peak_strain == oracles.peak_strain(model, state.z) > 0.0
        peaks = [oracles.peak_strain(model, z) for z in sweep.z]
        assert np.array_equal(np.maximum.accumulate(peaks), sweep.max_strains)
        strain_model = bf.assemble_model(geo.build_hinge(strain_abort_design()))
        strain = bf.run_sweep(strain_model)
        assert strain.failure == "strain"
        last = oracles.peak_strain(strain_model, strain.z[-1])
        assert strain.max_strains[-1] == last > bf.STRAIN_LIMIT

    def test_assemblies_per_sweep(self, cross_hinge_model, monkeypatch):
        # from step 3 on the predictor leaves one Newton correction per step:
        # 1 + 4 + 3 + 18 * 2 = 44 assemblies
        calls = []
        assemble = bf.BeamModel.assemble
        monkeypatch.setattr(bf.BeamModel, "assemble",
                            lambda model, z: calls.append(z) or assemble(model, z))
        assert bf.run_sweep(cross_hinge_model).failure is None
        assert len(calls) <= 46

    def test_golden_newton_iterations_per_step(self):
        # Euler leaves step 1 three corrections, the cubic Hermite start
        # step 2 two, and the quartic Hermite start every later step one
        golden = json.loads((DATA / "regression_cross_hinge.json").read_text())
        model = bf.assemble_model(geo.build_hinge(geo.DesignVector(**golden["design"])))
        sweep = bf.run_sweep(model)
        assert sweep.failure is None
        assert sweep.iterations.tolist() == [0, 3, 2] + [1] * 18
        assert not sweep.bisected.any()

    @pytest.mark.parametrize("points, degree", [(1, 1), (2, 2), (2, 3), (3, 4)])
    def test_predictor_exact_on_polynomial_paths(self, points, degree):
        # Euler, the cubic and the quartic Hermite extrapolation reproduce
        # any path z(phi) of their degree, up to rounding
        coeffs = np.random.default_rng(degree).standard_normal((degree + 1, 5))
        path = np.polynomial.Polynomial
        z = [path(coeffs[:, i]) for i in range(5)]
        h, grid = 0.1, 0.3 + 0.1 * np.arange(points)
        zs = [np.array([zi(phi) for zi in z]) for phi in grid]
        ts = [np.array([zi.deriv()(phi) for zi in z]) for phi in grid]
        guess = bf.predict_state(zs, ts[-2:], h)
        exact = np.array([zi(grid[-1] + h) for zi in z])
        assert np.max(np.abs(guess - exact)) < 1e-12 * np.max(np.abs(exact))

    def test_mesh_refinement_agreement(self, sweep):
        golden = json.loads((DATA / "regression_cross_hinge.json").read_text())
        fine = golden["refined_check"]["objectives"]
        from crosshinge import kinetostatics as ks
        coarse = ks.objectives_from_sweep(sweep)
        assert coarse.r_bar == pytest.approx(fine["r_bar"], rel=5e-3)
        assert coarse.c_bar == pytest.approx(fine["c_bar"], rel=5e-3)
        assert coarse.k_bar == pytest.approx(fine["k_bar"], rel=5e-3)
