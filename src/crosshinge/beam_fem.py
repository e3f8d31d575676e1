"""Planar geometrically exact (shear-deformable) beam finite elements.

Each flexure is discretized with 4-node cubic Lagrange elements carrying
(u_x, u_y, theta) per node. Strain measures are the Reissner triple
(axial strain, shear strain, curvature change), evaluated relative to the
interpolated reference configuration so the undeformed state is exactly
stress free. Stress resultants follow from the linear constitutive map
(EA, GAs, EI).

Boundary conditions of the cross-hinge model: the s=0 end of every
flexure is clamped; the s=1 ends are condensed onto a single master node
with degrees of freedom (u_x, u_y, phi) by master-slave elimination, the
master reference point being the tip of the first flexure. A quasi-static
sweep imposes the master rotation phi in equal steps and records reaction
moment, condensed translational stiffness and peak bending strain.

The reduced system is assembled directly in LAPACK band storage (first
flexure ascending, master triple, second flexure descending, which keeps
the half-bandwidth at 11), so each Newton iteration costs a single banded
factorization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError, solve_banded

from .geometry import Flexure, HingeGeometry, centerline

SHEAR_CORRECTION = 5.0 / 6.0  # rectangular cross-section

DEFAULT_ELEMENTS = 30
DEFAULT_STEPS = 20
SWEEP_ANGLE = math.pi / 2.0
STRAIN_LIMIT = 0.2

NEWTON_MAX_ITER = 50
NEWTON_TOL_FACTOR = 1e-9
MAX_BISECTIONS = 2

_BAND = 11  # half-bandwidth of the reduced tangent in the chain ordering


class NonConverged(RuntimeError):
    """Newton iteration failed to reach equilibrium."""


class SingularTangent(RuntimeError):
    """Tangent stiffness could not be factorized."""


def _lagrange_matrices(xi_nodes: np.ndarray, xi_eval: np.ndarray):
    """Values and derivatives of the Lagrange basis at evaluation points."""
    n = len(xi_nodes)
    vals = np.empty((len(xi_eval), n))
    ders = np.empty((len(xi_eval), n))
    for k in range(n):
        others = [j for j in range(n) if j != k]
        denom = np.prod([xi_nodes[k] - xi_nodes[j] for j in others])
        vals[:, k] = np.prod([xi_eval - xi_nodes[j] for j in others], axis=0) / denom
        der = np.zeros(len(xi_eval))
        for m in others:
            rest = [j for j in others if j != m]
            der += np.prod([xi_eval - xi_nodes[j] for j in rest], axis=0) if rest else 1.0
        ders[:, k] = der / denom
    return vals, ders


_XI_NODES = np.array([-1.0, -1.0 / 3.0, 1.0 / 3.0, 1.0])
_XI_GAUSS, _W_GAUSS = np.polynomial.legendre.leggauss(4)
_SHAPE, _DSHAPE_DXI = _lagrange_matrices(_XI_NODES, _XI_GAUSS)


@dataclass(frozen=True)
class Section:
    """Linear constitutive constants of a rectangular cross-section."""

    ea: float
    gas: float
    ei: float
    height: float


class FlexureMesh:
    """One flexure meshed with cubic elements, with reference data cached."""

    def __init__(self, flexure: Flexure, young_modulus: float, shear_modulus: float,
                 n_elements: int):
        if n_elements < 2:
            raise ValueError("need at least two elements per flexure")
        self.n_elements = n_elements
        self.n_nodes = 3 * n_elements + 1
        self.length = flexure.length
        self.section = Section(
            ea=young_modulus * flexure.width * flexure.height,
            gas=SHEAR_CORRECTION * shear_modulus * flexure.width * flexure.height,
            ei=young_modulus * flexure.width * flexure.height ** 3 / 12.0,
            height=flexure.height,
        )
        # nodes on the exact centerline at the cubic element grid
        self.node_pos, self.node_angle = centerline(
            flexure.coeffs, flexure.length, flexure.base, self.n_nodes
        )

        self.conn = 3 * np.arange(n_elements)[:, None] + np.arange(4)[None, :]

        jac = (flexure.length / n_elements) / 2.0  # parent [-1, 1] -> arc length
        self.shape = _SHAPE
        self.dshape = _DSHAPE_DXI / jac
        self.weights = _W_GAUSS * jac

        # reference configuration interpolated at the Gauss points; strains
        # are measured relative to these so the reference is stress free
        xe = self.node_pos[self.conn]                      # (nel, 4, 2)
        th = self.node_angle[self.conn]                    # (nel, 4)
        self._ref_dx = np.einsum("gk,ekc->egc", self.dshape, xe)
        self._ref_theta = th @ self.shape.T
        self._ref_dtheta = th @ self.dshape.T
        c0, s0 = np.cos(self._ref_theta), np.sin(self._ref_theta)
        self._ref_a = c0 * self._ref_dx[..., 0] + s0 * self._ref_dx[..., 1]
        self._ref_g = -s0 * self._ref_dx[..., 0] + c0 * self._ref_dx[..., 1]

        # static outer products of the basis for the geometric tangent
        self._dn_outer = np.einsum("gk,gl->gkl", self.dshape, self.shape)
        self._nn_outer = np.einsum("gk,gl->gkl", self.shape, self.shape)

    def _gauss_state(self, displacements: np.ndarray):
        """Kinematic quantities at all Gauss points for nodal displacements."""
        ue = displacements[self.conn]                      # (nel, 4, 3)
        dx = self._ref_dx + np.einsum("gk,ekc->egc", self.dshape, ue[..., :2])
        theta = self._ref_theta + ue[..., 2] @ self.shape.T
        dtheta = self._ref_dtheta + ue[..., 2] @ self.dshape.T
        c, s = np.cos(theta), np.sin(theta)
        a = c * dx[..., 0] + s * dx[..., 1]
        g = -s * dx[..., 0] + c * dx[..., 1]
        return ue, dx, c, s, a, g, dtheta

    def strains(self, displacements: np.ndarray):
        """Reissner strain measures (axial, shear, curvature) at Gauss points."""
        _, _, _, _, a, g, dtheta = self._gauss_state(displacements)
        return a - self._ref_a, g - self._ref_g, dtheta - self._ref_dtheta

    def strain_energy(self, displacements: np.ndarray) -> float:
        eps, gam, kap = self.strains(displacements)
        sec = self.section
        density = sec.ea * eps ** 2 + sec.gas * gam ** 2 + sec.ei * kap ** 2
        return 0.5 * float(np.sum(density * self.weights[None, :]))

    def max_bending_strain(self, displacements: np.ndarray) -> float:
        """Peak outer-fiber bending strain |d kappa| * h / 2 over Gauss points."""
        _, _, kap = self.strains(displacements)
        return float(np.max(np.abs(kap))) * self.section.height / 2.0

    def element_kernels(self, displacements: np.ndarray, need_tangent: bool = True):
        """Per-element internal forces and tangents (before assembly).

        Returns:
            forces: (n_elements, 12) grouped as [ux(4), uy(4), theta(4)]
            tangents: (n_elements, 12, 12) in the same ordering, or None
        """
        ue, dx, c, s, a, g, dtheta = self._gauss_state(displacements)
        sec = self.section
        eps = a - self._ref_a
        gam = g - self._ref_g
        kap = dtheta - self._ref_dtheta
        nf = sec.ea * eps
        qf = sec.gas * gam
        mb = sec.ei * kap

        w = self.weights[None, :]
        fx = ((nf * c - qf * s) * w) @ self.dshape
        fy = ((nf * s + qf * c) * w) @ self.dshape
        ft = ((nf * g - qf * a) * w) @ self.shape + (mb * w) @ self.dshape
        forces = np.concatenate([fx, fy, ft], axis=1)
        if not need_tangent:
            return forces, None

        # material tangent: B^T D B with B rows for (eps, gam, kap)
        nel = self.n_elements
        b_eps = np.zeros((nel, 4, 12))
        b_gam = np.zeros((nel, 4, 12))
        b_kap = np.zeros((nel, 4, 12))
        d_, n_ = self.dshape[None, :, :], self.shape[None, :, :]
        b_eps[..., 0:4] = c[..., None] * d_
        b_eps[..., 4:8] = s[..., None] * d_
        b_eps[..., 8:12] = g[..., None] * n_
        b_gam[..., 0:4] = -s[..., None] * d_
        b_gam[..., 4:8] = c[..., None] * d_
        b_gam[..., 8:12] = -a[..., None] * n_
        b_kap[..., 8:12] = np.broadcast_to(d_, (nel, 4, 4))

        tangents = (
            sec.ea * np.einsum("egi,g,egj->eij", b_eps, self.weights, b_eps)
            + sec.gas * np.einsum("egi,g,egj->eij", b_gam, self.weights, b_gam)
            + sec.ei * np.einsum("egi,g,egj->eij", b_kap, self.weights, b_kap)
        )

        # geometric tangent from the second derivatives of the strains
        cxt = (-nf * s - qf * c) * w   # (ux, theta) block coefficient
        cyt = (nf * c - qf * s) * w    # (uy, theta)
        ctt = (-nf * a - qf * g) * w   # (theta, theta)
        block_xt = np.einsum("eg,gkl->ekl", cxt, self._dn_outer)
        block_yt = np.einsum("eg,gkl->ekl", cyt, self._dn_outer)
        tangents[:, 0:4, 8:12] += block_xt
        tangents[:, 8:12, 0:4] += np.swapaxes(block_xt, 1, 2)
        tangents[:, 4:8, 8:12] += block_yt
        tangents[:, 8:12, 4:8] += np.swapaxes(block_yt, 1, 2)
        tangents[:, 8:12, 8:12] += np.einsum("eg,gkl->ekl", ctt, self._nn_outer)

        return forces, tangents

    def element_forces(self, element: int, element_dofs: np.ndarray):
        """Internal force vector and consistent tangent of one element.

        `element_dofs` holds the nodal displacements of the element's four
        nodes as a (4, 3) array; results use the grouped 12-dof ordering
        [ux(4), uy(4), theta(4)].
        """
        displacements = np.zeros((self.n_nodes, 3))
        displacements[self.conn[element]] = element_dofs
        forces, tangents = self.element_kernels(displacements)
        return forces[element], tangents[element]


@dataclass
class BeamState:
    """Equilibrium on the reduced (constrained) degrees of freedom, with the
    residual and banded tangent assembled at z."""

    z: np.ndarray
    master_index: int           # position of the master triple within z
    residual: np.ndarray
    tangent_band: np.ndarray
    iterations: int = 0

    @property
    def rotation(self) -> float:
        return float(self.z[self.master_index + 2])


@dataclass
class SweepRecord:
    phi: float
    tip_position: np.ndarray
    moment: float
    stiffness: np.ndarray       # condensed 2x2 translational tangent
    max_strain: float           # running maximum up to this step


@dataclass
class SweepResult:
    """Per-step records of a quasi-static prescribed-rotation sweep."""

    records: list[SweepRecord]
    converged: bool
    failure: str | None = None  # None | "nonconvergence" | "strain"
    states: list[BeamState] = field(default_factory=list)

    @property
    def phi(self) -> np.ndarray:
        return np.array([r.phi for r in self.records])

    @property
    def tip_positions(self) -> np.ndarray:
        return np.array([r.tip_position for r in self.records])

    @property
    def moments(self) -> np.ndarray:
        return np.array([r.moment for r in self.records])

    @property
    def stiffnesses(self) -> np.ndarray:
        return np.array([r.stiffness for r in self.records])

    @property
    def max_strain(self) -> float:
        return self.records[-1].max_strain if self.records else 0.0


class BeamModel:
    """Assembled cross-hinge (or cantilever) model on reduced DOFs.

    Reduced dof ordering: interior nodes of the first flexure ascending,
    the master triple (u_x, u_y, phi), then interior nodes of the second
    flexure in descending node order. Clamped base nodes are eliminated;
    tip nodes are slaved to the master pose, which keeps the tangent
    banded with half-bandwidth 11.
    """

    def __init__(self, meshes: list[FlexureMesh]):
        if not 1 <= len(meshes) <= 2:
            raise ValueError("model supports one or two flexures")
        self.meshes = meshes

        n0 = meshes[0].n_nodes
        base_master = 3 * (n0 - 2)
        self.idx_mx = base_master
        self.idx_my = base_master + 1
        self.idx_phi = base_master + 2
        self.n_reduced = base_master + 3
        if len(meshes) == 2:
            self.n_reduced += 3 * (meshes[1].n_nodes - 2)

        self.master_ref = meshes[0].node_pos[-1].copy()
        # reference offsets of the slaved tips relative to the master point
        self.tip_offsets = [m.node_pos[-1] - self.master_ref for m in meshes[1:]]

        # reduced dof index per node and component; -1 marks eliminated dofs
        self._node_maps = []
        self._interior_gather = []
        for k, m in enumerate(meshes):
            node_map = np.full((m.n_nodes, 3), -1, dtype=np.int64)
            interior = np.arange(1, m.n_nodes - 1)
            if k == 0:
                node_map[interior] = (3 * (interior - 1))[:, None] + np.arange(3)
            else:
                start = base_master + 3
                node_map[interior] = (start + 3 * (m.n_nodes - 2 - interior))[:, None] \
                    + np.arange(3)
            node_map[-1] = (self.idx_mx, self.idx_my, self.idx_phi)
            self._node_maps.append(node_map)
            self._interior_gather.append(node_map[1:-1].ravel())

        # static scatter patterns: element dof ids in grouped ordering
        self._force_idx = []
        self._pair_mask = []
        self._band_idx = []
        n = self.n_reduced
        for m, node_map in zip(self.meshes, self._node_maps):
            edof = np.concatenate(
                [node_map[m.conn, 0], node_map[m.conn, 1], node_map[m.conn, 2]], axis=1
            )
            valid = edof >= 0
            self._force_idx.append((valid, edof[valid]))
            pmask = valid[:, :, None] & valid[:, None, :]
            i_idx = np.broadcast_to(edof[:, :, None], pmask.shape)[pmask]
            j_idx = np.broadcast_to(edof[:, None, :], pmask.shape)[pmask]
            if np.any(np.abs(i_idx - j_idx) > _BAND):
                raise AssertionError("band structure violated")
            self._pair_mask.append(pmask)
            self._band_idx.append((_BAND + i_idx - j_idx) * n + j_idx)

    @property
    def newton_tolerance(self) -> float:
        return NEWTON_TOL_FACTOR * max(1.0, max(m.section.ea for m in self.meshes))

    def zero_state(self) -> BeamState:
        z = np.zeros(self.n_reduced)
        residual, ab = self.assemble(z)
        return BeamState(z=z, master_index=self.idx_mx, residual=residual,
                         tangent_band=ab)

    def _tip_rotated(self, phi: float, k: int) -> np.ndarray:
        r0 = self.tip_offsets[k]
        cp, sp = math.cos(phi), math.sin(phi)
        return np.array([cp * r0[0] - sp * r0[1], sp * r0[0] + cp * r0[1]])

    def full_displacements(self, z: np.ndarray) -> list[np.ndarray]:
        """Nodal displacement arrays per flexure for a reduced vector."""
        mx, my, phi = z[self.idx_mx], z[self.idx_my], z[self.idx_phi]
        out = []
        for k, (m, gather) in enumerate(zip(self.meshes, self._interior_gather)):
            u = np.zeros((m.n_nodes, 3))
            u[1:-1] = z[gather].reshape(-1, 3)
            if k == 0:
                u[-1] = (mx, my, phi)
            else:
                rot = self._tip_rotated(phi, k - 1)
                u[-1, :2] = (mx, my) + rot - self.tip_offsets[k - 1]
                u[-1, 2] = phi
            out.append(u)
        return out

    def deformed_centerlines(self, state: BeamState) -> list[np.ndarray]:
        disp = self.full_displacements(state.z)
        return [m.node_pos + u[:, :2] for m, u in zip(self.meshes, disp)]

    def tip_position(self, state: BeamState) -> np.ndarray:
        return self.master_ref + state.z[self.idx_mx:self.idx_my + 1]

    def strain_energy(self, state: BeamState) -> float:
        disp = self.full_displacements(state.z)
        return sum(m.strain_energy(u) for m, u in zip(self.meshes, disp))

    def max_bending_strain(self, state: BeamState) -> float:
        disp = self.full_displacements(state.z)
        return max(m.max_bending_strain(u) for m, u in zip(self.meshes, disp))

    def assemble(self, z: np.ndarray, need_tangent: bool = True):
        """Reduced residual and banded tangent at state z.

        The banded tangent uses LAPACK storage: entry (i, j) of the
        reduced matrix sits in ab[_BAND + i - j, j].
        """
        phi = float(z[self.idx_phi])
        disp = self.full_displacements(z)
        n = self.n_reduced
        residual = np.zeros(n)
        ab = np.zeros((2 * _BAND + 1) * n) if need_tangent else None

        for k, (m, u) in enumerate(zip(self.meshes, disp)):
            forces, tangents = m.element_kernels(u, need_tangent=need_tangent)
            valid, idx = self._force_idx[k]
            slaved = k >= 1
            if slaved:
                rot = self._tip_rotated(phi, k - 1)
                w_vec = np.array([-rot[1], rot[0]])  # e_z x (R(phi) r0)
                f_tip = forces[-1].copy()
                # tip dofs fold into the master pose: the phi component
                # additionally picks up w . f_tip_translation
                residual[self.idx_phi] += w_vec[0] * f_tip[3] + w_vec[1] * f_tip[7]
            residual += np.bincount(idx, weights=forces[valid], minlength=n)

            if need_tangent:
                if slaved:
                    te = np.eye(12)
                    te[3, 11] = w_vec[0]
                    te[7, 11] = w_vec[1]
                    tangents = tangents.copy()
                    tangents[-1] = te.T @ tangents[-1] @ te
                ab += np.bincount(self._band_idx[k], weights=tangents[self._pair_mask[k]],
                                  minlength=ab.size)
                if slaved:
                    # curvature of the slaved-tip map: d^2 u_tip/d phi^2 = -R r0
                    corr = -(rot[0] * f_tip[3] + rot[1] * f_tip[7])
                    ab[_BAND * n + self.idx_phi] += corr

        if need_tangent:
            ab = ab.reshape(2 * _BAND + 1, n)
        return residual, ab

    def residual_tangent(self, z: np.ndarray):
        """Residual and dense tangent (test/oracle convenience)."""
        residual, ab = self.assemble(z)
        return residual, banded_to_dense(ab)


def banded_to_dense(ab: np.ndarray) -> np.ndarray:
    n = ab.shape[1]
    dense = np.zeros((n, n))
    for d in range(-_BAND, _BAND + 1):
        j = np.arange(max(0, -d), min(n, n - d))
        dense[j + d, j] = ab[_BAND + d, j]
    return dense


def _apply_constraints(ab: np.ndarray, rhs: np.ndarray, fixed: np.ndarray) -> None:
    """Zero rows/columns of fixed dofs in band storage, unit diagonal."""
    n = ab.shape[1]
    for p in fixed:
        ab[:, p] = 0.0
        j = np.arange(max(0, p - _BAND), min(n, p + _BAND + 1))
        ab[_BAND + p - j, j] = 0.0
        ab[_BAND, p] = 1.0
        rhs[p] = 0.0


def assemble_model(geometry: HingeGeometry, n_elements: int = DEFAULT_ELEMENTS) -> BeamModel:
    """Mesh a cross-hinge geometry into the two-flexure beam model."""
    meshes = [
        FlexureMesh(f, geometry.young_modulus, geometry.shear_modulus, n_elements)
        for f in geometry.flexures
    ]
    return BeamModel(meshes)


def assemble_cantilever(coeffs, length: float = 1.0, height: float = 0.1,
                        width: float = 1.0, young_modulus: float = 1.0,
                        poisson_ratio: float = 0.49,
                        n_elements: int = DEFAULT_ELEMENTS) -> BeamModel:
    """Single-flexure model clamped at s=0 with the master at its tip."""
    points, angles = centerline(coeffs, length, np.zeros(2), 3 * n_elements + 1)
    flexure = Flexure(coeffs=np.asarray(coeffs, dtype=float), length=length,
                      height=height, width=width, base=np.zeros(2),
                      points=points, angles=angles)
    shear_modulus = young_modulus / (2.0 * (1.0 + poisson_ratio))
    return BeamModel([FlexureMesh(flexure, young_modulus, shear_modulus, n_elements)])


def solve_equilibrium(model: BeamModel, z0: np.ndarray,
                      prescribed: dict[int, float] | None = None,
                      external: np.ndarray | None = None,
                      tol: float | None = None,
                      max_iter: int = NEWTON_MAX_ITER) -> BeamState:
    """Newton-Raphson equilibrium with selected reduced DOFs prescribed.

    Clearly diverging iterations (non-finite residual, or a residual that
    blows up past a thousandfold of its start value without recovering)
    fail early instead of exhausting the iteration budget; step bisection
    in the caller is the recovery path.

    Raises:
        NonConverged: residual tolerance not met within max_iter.
        SingularTangent: tangent factorization failed.
    """
    tol = model.newton_tolerance if tol is None else tol
    z = z0.copy()
    if prescribed:
        for idx, value in prescribed.items():
            z[idx] = value
    fixed = np.fromiter(prescribed or (), dtype=np.int64)
    mask = np.ones(model.n_reduced, dtype=bool)
    mask[fixed] = False

    norm0 = None
    for iteration in range(max_iter + 1):
        residual, ab = model.assemble(z)
        rhs = residual if external is None else residual - external
        norm = float(np.max(np.abs(rhs[mask]))) if mask.any() else 0.0
        if not np.isfinite(norm):
            raise NonConverged("residual diverged to non-finite values")
        if norm < tol:
            return BeamState(z=z, master_index=model.idx_mx, residual=residual,
                             tangent_band=ab, iterations=iteration)
        if norm0 is None:
            norm0 = max(norm, tol)
        elif iteration >= 10 and norm > 1e3 * norm0:
            raise NonConverged("residual diverging")
        if iteration == max_iter:
            break
        rhs = rhs.copy()
        _apply_constraints(ab, rhs, fixed)
        try:
            step = solve_banded((_BAND, _BAND), ab, rhs)
        except LinAlgError as err:
            raise SingularTangent(str(err)) from err
        if not np.all(np.isfinite(step)):
            raise SingularTangent("non-finite Newton step")
        z -= step
    raise NonConverged(f"no equilibrium within {max_iter} iterations")


def solve_step(model: BeamModel, state: BeamState, phi_target: float,
               tol: float | None = None,
               guess: np.ndarray | None = None) -> BeamState:
    """Advance to a prescribed master rotation, bisecting failed steps.

    Starting from an equilibrium, the rotation increment is halved up to
    MAX_BISECTIONS times before NonConverged propagates. An optional
    predictor `guess` seeds the first attempt; bisection always restarts
    from the converged state.
    """

    def advance(z_from: np.ndarray, phi_from: float, phi_to: float, depth: int):
        try:
            return solve_equilibrium(model, z_from, prescribed={model.idx_phi: phi_to},
                                     tol=tol)
        except NonConverged:
            if depth >= MAX_BISECTIONS:
                raise
            phi_mid = 0.5 * (phi_from + phi_to)
            mid = advance(state.z if depth == 0 else z_from,
                          phi_from, phi_mid, depth + 1)
            return advance(mid.z, phi_mid, phi_to, depth + 1)

    start = state.z if guess is None else guess
    return advance(start, state.rotation, phi_target, 0)


def reaction_moment(model: BeamModel, state: BeamState) -> float:
    """Internal generalized force conjugate to the master rotation."""
    return float(state.residual[model.idx_phi])


def condense_translational_stiffness(model: BeamModel, state: BeamState) -> np.ndarray:
    """Schur complement of the tangent onto the master translations.

    All remaining free DOFs, including the master rotation, are condensed
    out, so the result is the 2x2 stiffness seen by parasitic loads at
    the moving body under moment-free rotation increments. Computed via
    the block-inverse identity: the Schur complement is the inverse of
    the master-translation block of the full inverse tangent.
    """
    rhs = np.zeros((model.n_reduced, 2))
    rhs[model.idx_mx, 0] = 1.0
    rhs[model.idx_my, 1] = 1.0
    try:
        sol = solve_banded((_BAND, _BAND), state.tangent_band, rhs)
    except LinAlgError as err:
        raise SingularTangent(str(err)) from err
    compliance = sol[[model.idx_mx, model.idx_my], :]
    det = compliance[0, 0] * compliance[1, 1] - compliance[0, 1] * compliance[1, 0]
    if not np.isfinite(det) or det == 0.0:
        raise SingularTangent("singular condensed compliance")
    inv = np.array([[compliance[1, 1], -compliance[0, 1]],
                    [-compliance[1, 0], compliance[0, 0]]]) / det
    return inv


def run_sweep(model: BeamModel, n_steps: int = DEFAULT_STEPS) -> SweepResult:
    """Quasi-static sweep of the master rotation over SWEEP_ANGLE with
    per-step condensed data.

    Solver failures (non-convergence, singular tangent, a bending strain
    above STRAIN_LIMIT) are not raised: they end the sweep early with
    converged=False and a partial record list. Fewer than one step raises
    ValueError.
    """
    if n_steps < 1:
        raise ValueError("need at least one sweep step")
    state = model.zero_state()
    records: list[SweepRecord] = []
    states: list[BeamState] = []
    max_strain = 0.0

    def record(st: BeamState, phi: float) -> None:
        nonlocal max_strain
        k_t = condense_translational_stiffness(model, st)
        max_strain = max(max_strain, model.max_bending_strain(st))
        records.append(SweepRecord(phi=phi, tip_position=model.tip_position(st),
                                   moment=reaction_moment(model, st),
                                   stiffness=k_t, max_strain=max_strain))
        states.append(st)

    try:
        record(state, 0.0)
    except SingularTangent:
        return SweepResult(records=[], converged=False, failure="nonconvergence")

    previous = None
    for k in range(1, n_steps + 1):
        phi_k = k * SWEEP_ANGLE / n_steps
        guess = None
        if previous is not None:
            guess = 2.0 * state.z - previous  # secant predictor, uniform steps
        try:
            previous = state.z
            state = solve_step(model, state, phi_k, guess=guess)
            record(state, phi_k)
        except (NonConverged, SingularTangent):
            return SweepResult(records=records, converged=False,
                               failure="nonconvergence", states=states)
        if max_strain > STRAIN_LIMIT:
            return SweepResult(records=records, converged=False, failure="strain",
                               states=states)
    return SweepResult(records=records, converged=True, states=states)


def solve_tip_moment(model: BeamModel, moment: float, n_steps: int = 20,
                     tol: float | None = None) -> BeamState:
    """Ramp an external moment on the free master rotation (test harness)."""
    state = model.zero_state()
    external = np.zeros(model.n_reduced)
    for k in range(1, n_steps + 1):
        external[model.idx_phi] = moment * k / n_steps
        state = solve_equilibrium(model, state.z, external=external, tol=tol)
    return state
