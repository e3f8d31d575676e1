"""Planar geometrically exact (shear-deformable) beam finite elements.

Each flexure is discretized with 4-node cubic Lagrange elements carrying
(u_x, u_y, theta) per node. Strain measures are the Reissner triple
(axial strain, shear strain, curvature change), evaluated relative to the
interpolated reference configuration so the undeformed state is exactly
stress free. Stress resultants follow from the linear constitutive map
(EA, GAs, EI) of geometry's fixed YOUNG_MODULUS and SHEAR_MODULUS.

Boundary conditions of the cross-hinge model: the s=0 end of every
flexure is clamped; the s=1 ends are condensed onto a single master node
with degrees of freedom (u_x, u_y, phi) by master-slave elimination, the
master reference point being the tip of the first flexure. A quasi-static
sweep imposes the master rotation phi in equal steps and returns one row
per completed step in row-aligned arrays: rotation, tip position,
reaction moment, condensed translational stiffness, running peak bending
strain (from each step's last Newton assembly), the equilibrium state and
the solver's counts (Newton iterations, bisection).
Each step's Newton solve starts from a Hermite extrapolation along the
path tangents dz/dphi, cubic at step 2 and quartic from step 3 on, where
one correction per step reaches the tolerance.

The reduced tangent is symmetric, and only its upper band is assembled,
directly in LAPACK band storage and its column order (first flexure
ascending, master triple, second flexure descending, which keeps the
half-bandwidth at 11). Each Newton iteration costs one banded Cholesky
factorization, or banded LU when the tangent is indefinite; _lapack binds
both routines without importing scipy.linalg, an import that costs every
process ~19 MB and ~0.15 s. All elements are stacked into one call of the
element kernel: two matrix products with constant reference-element
operators (the forces, and the upper triangle of the tangents), on
field-major data (a row per field, a column per element, fields stacked
in pairs so one ufunc serves two).
Gather and scatter indices are built once per node count. The
cantilever, probes and per-field reference kernel that check all this
are in tests/oracles.py.

A sweep is one generator (_sweep) that yields each Newton iterate of a
step's first attempt and is sent the assembly at it: run_sweep answers a
model alone (BeamModel.assemble), and run_sweeps moves up to LOCKSTEP
models in lock-step, one kernel call per round on their stacked element
columns. One assembly body (_assemble) serves both, and each model keeps
its own constant-operator products, band, banded solves and condensation,
so every sweep keeps the bytes it has alone. A failed attempt bisects
alone from the last converged state (solve_step), and the model then
rejoins the lock-step.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, fields
from importlib.machinery import PathFinder
from importlib.util import module_from_spec

import numpy as np
import scipy

from .geometry import SHEAR_MODULUS, YOUNG_MODULUS, Flexure, HingeGeometry, centerline

SHEAR_CORRECTION = 5.0 / 6.0  # rectangular cross-section

DEFAULT_ELEMENTS = 30
DEFAULT_STEPS = 20
SWEEP_ANGLE = math.pi / 2.0
STRAIN_LIMIT = 0.2

NEWTON_MAX_ITER = 50
NEWTON_TOL_FACTOR = 5e-13
MAX_BISECTIONS = 2

_BAND = 11  # half-bandwidth of the reduced tangent in the chain ordering
LOCKSTEP = 4  # most sweeps run_sweeps moves in lock-step


def _lapack() -> tuple:
    """dgbsv and dpbsv of scipy.linalg._flapack, loaded from its file under its own name (a
    later import of scipy.linalg reuses it): scipy/linalg/__init__.py would load numpy.f2py,
    numpy.testing, numpy.ma and ~70 scipy modules through scipy's array-API layer."""
    name = "scipy.linalg._flapack"
    if name not in sys.modules:
        spec = PathFinder.find_spec(name, [f"{scipy.__path__[0]}/linalg"])
        sys.modules[name] = module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name].dgbsv, sys.modules[name].dpbsv


dgbsv, dpbsv = _lapack()


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


_TRIU = np.triu_indices(12)  # packing order of element tangents
_REPACK = _TRIU[0] * 12 + _TRIU[1]  # flat (12, 12) index of each packed entry
_UNPACK = np.empty((12, 12), dtype=np.intp)  # packed index of each (12, 12) entry
_UNPACK[_TRIU] = _UNPACK[_TRIU[::-1]] = np.arange(len(_REPACK))
_XI_NODES = np.array([-1.0, -1.0 / 3.0, 1.0 / 3.0, 1.0])
_XI_GAUSS, _W_GAUSS = np.polynomial.legendre.leggauss(4)
_SHAPE, _DSHAPE_DXI = _lagrange_matrices(_XI_NODES, _XI_GAUSS)


def _element_operators():
    """Constant maps of the reference element, Gauss weights folded in.

    Element dofs are grouped as [ux(4), uy(4), theta(4)]. Per Gauss point g
    the kernel interpolates the fields [dux/dxi, duy/dxi, theta, dtheta/dxi]
    (16 rows, field-major). The virtual-work force map is the transposed
    interpolation weighted by W_g. The tangent is a sum over six coefficient
    fields (xx, xy, yy, x-theta, y-theta, theta-theta) times the weighted
    outer products of the basis, plus one field for the state-independent
    curvature block EI * sum_g W_g D_g D_g^T. Only the 78 upper-triangle
    rows (_TRIU) of the symmetric tangents are kept.
    """
    interp = np.zeros((16, 12))
    interp[0:4, 0:4] = _DSHAPE_DXI
    interp[4:8, 4:8] = _DSHAPE_DXI
    interp[8:12, 8:12] = _SHAPE
    interp[12:16, 8:12] = _DSHAPE_DXI
    force = interp.T * np.tile(_W_GAUSS, 4)

    x, y, t = slice(0, 4), slice(4, 8), slice(8, 12)
    tangent = np.zeros((25, 12, 12))
    for g, w in enumerate(_W_GAUSS):
        dd = w * np.outer(_DSHAPE_DXI[g], _DSHAPE_DXI[g])
        dn = w * np.outer(_DSHAPE_DXI[g], _SHAPE[g])
        nn = w * np.outer(_SHAPE[g], _SHAPE[g])
        tangent[g, x, x] = dd
        tangent[4 + g, x, y] = tangent[4 + g, y, x] = dd
        tangent[8 + g, y, y] = dd
        tangent[12 + g, x, t], tangent[12 + g, t, x] = dn, dn.T
        tangent[16 + g, y, t], tangent[16 + g, t, y] = dn, dn.T
        tangent[20 + g, t, t] = nn
        tangent[24, t, t] += dd
    return interp, force, np.ascontiguousarray(tangent[:, _TRIU[0], _TRIU[1]].T)


_INTERP, _FORCE, _TANGENT = _element_operators()


@dataclass(frozen=True)
class ElementData:
    """Reference data of a stack of elements, field-major: one row per
    field, one column per element, so every kernel ufunc reads contiguous
    rows. The columns of several flexures, or of several models, can be
    stacked, so one kernel call serves them all.
    """

    gauss: np.ndarray      # (12, n_el) reference dx/dxi, dy/dxi, theta at Gauss points
    stretch: np.ndarray    # (8, n_el) reference axial and shear stretch (a, g)
    stiffness: np.ndarray  # (3, n_el) EA, GAs, EI
    jac: np.ndarray        # (1, n_el) arc length per unit xi
    per_jac: np.ndarray    # (5, n_el) 1, EA, GAs, EA - GAs and EI, each over jac

    @classmethod
    def stack(cls, parts: list["ElementData"]) -> "ElementData":
        return cls(*(np.concatenate([getattr(p, f.name) for p in parts], axis=1)
                     for f in fields(cls)))

    @functools.cached_property
    def work(self):
        """Rows element_kernel overwrites on every call: 16 force rows, 25
        coefficient rows (the last, EI / jac, filled here once) and 36 rows of
        stacked [c; s; c], [a; g; a], [nf; qf; nf]."""
        n = self.jac.shape[1]
        coeffs = np.empty((25, n))
        coeffs[24] = self.per_jac[4]
        return np.empty((16, n)), coeffs, np.empty((36, n))


def _product(op: np.ndarray, x: np.ndarray, blocks) -> np.ndarray:
    """op @ x, or with blocks (column slices) one product per block, so each
    block keeps the bytes of a product on its own columns."""
    if blocks is None:
        return op @ x
    out = np.empty((op.shape[0], x.shape[1]))
    for block in blocks:
        np.matmul(op, x[:, block], out=out[:, block])
    return out


def element_kernel(data: ElementData, ue: np.ndarray, blocks=None):
    """Internal forces and consistent tangents of a stack of elements.

    With blocks (the column slices of several models), each model gets its
    own constant-operator products, and all values keep the bytes of a call
    on its columns alone.

    Returns:
        forces: (12, n_el) grouped as [ux(4), uy(4), theta(4)]
        tangents: (78, n_el) upper triangles in the same ordering, packed
            in _TRIU order (see _unpack)
        kap: (4, n_el) curvature change at the Gauss points
    """
    # each ufunc serves a pair of stacked 4-row fields; every value keeps the
    # operation sequence of the per-field formulas (tests/oracles.py)
    forces, coeffs, rows = data.work
    cs, ag, nq = rows[0:12], rows[12:24], rows[24:36]
    du = _product(_INTERP, ue, blocks)
    current = data.gauss + du[:12]
    inv_j = data.per_jac[0:1]
    kap = du[12:16] * inv_j
    d = current[0:8] * inv_j  # [dx; dy]
    np.cos(current[8:12], out=cs[0:4])
    np.sin(current[8:12], out=cs[4:8])
    cs[8:12] = cs[0:4]
    pair = cs[0:8] * d  # [c dx; s dy]
    np.add(pair[0:4], pair[4:8], out=ag[0:4])
    pair = cs[4:12] * d  # [s dx; c dy]
    np.subtract(pair[4:8], pair[0:4], out=ag[4:8])
    ag[8:12] = ag[0:4]
    ea_gas = data.stiffness[0:2, None]
    np.multiply(ea_gas, (ag[0:8] - data.stretch).reshape(2, 4, -1),
                out=nq[0:8].reshape(2, 4, -1))  # [nf; qf] = [EA eps; GAs gam]
    nq[8:12] = nq[0:4]
    pair = nq[0:8] * cs[0:8]  # [nf c; qf s]
    np.subtract(pair[0:4], pair[4:8], out=forces[0:4])
    pair = nq[0:8] * cs[4:12]  # [nf s; qf c]
    np.add(pair[0:4], pair[4:8], out=forces[4:8])
    pair = nq[0:8] * ag[4:12]  # [nf g; qf a]
    np.multiply(data.jac, pair[0:4] - pair[4:8], out=forces[8:12])
    np.multiply(data.stiffness[2:3], kap, out=forces[12:16])

    # material part B^T D B (c^2 + s^2 = 1 folds it onto (EA - GAs) c^2) plus
    # the geometric part from second derivatives of the strains, with
    # u = EA g - Q, v = GAs a - N; d/ds = (1/j) d/dxi and ds = j dxi fold in
    per_jac = data.per_jac
    pair = cs[0:8].reshape(2, 4, -1) * cs[0:4]  # [c c; s c]
    np.multiply(per_jac[3:4], pair.reshape(8, -1), out=coeffs[0:8])  # [dcc; diff_j c s]
    np.subtract(per_jac[1:2], coeffs[0:4], out=coeffs[8:12])  # ea_j - dcc
    np.add(per_jac[2:3], coeffs[0:4], out=coeffs[0:4])  # gas_j + dcc
    uv = (ea_gas * ag[4:12].reshape(2, 4, -1)).reshape(8, -1)
    uv -= nq[4:12]  # [u; v]
    pair = cs[0:8] * uv  # [c u; s v]
    np.add(pair[0:4], pair[4:8], out=coeffs[12:16])
    pair = cs[4:12] * uv  # [s u; c v]
    np.subtract(pair[0:4], pair[4:8], out=coeffs[16:20])
    pair = ag[4:12] * uv  # [g u; a v]
    np.multiply(data.jac, pair[0:4] + pair[4:8], out=coeffs[20:24])
    return _product(_FORCE, forces, blocks), _product(_TANGENT, coeffs, blocks), kap


def _unpack(packed: np.ndarray) -> np.ndarray:
    """Full symmetric (12, 12) tangent of a packed upper triangle."""
    return packed.take(_UNPACK)


def _grouped(nodal: np.ndarray, conn: np.ndarray) -> np.ndarray:
    """Per-node (n_nodes, 3) values to grouped element columns (12, n_el)."""
    return nodal[conn].transpose(2, 1, 0).reshape(12, len(conn))


class FlexureMesh:
    """One flexure meshed with cubic elements, with reference data cached."""

    def __init__(self, flexure: Flexure, n_elements: int):
        self.n_elements = n_elements
        self.n_nodes = 3 * n_elements + 1
        self.length = flexure.length
        self.height = flexure.height
        # nodes on the exact centerline at the cubic element grid
        self.node_pos, self.node_angle = centerline(
            flexure.coeffs, flexure.length, flexure.base, self.n_nodes
        )

        self.conn = 3 * np.arange(n_elements)[:, None] + np.arange(4)[None, :]

        # reference configuration interpolated at the Gauss points; strains
        # are measured relative to it, through the kernel's 1 / jac, so the
        # reference is stress free
        jac = (flexure.length / n_elements) / 2.0
        nodal = np.column_stack([self.node_pos, self.node_angle])
        gauss = _INTERP[:12] @ _grouped(nodal, self.conn)
        dx, dy = gauss[0:4] * (1.0 / jac), gauss[4:8] * (1.0 / jac)
        c0, s0 = np.cos(gauss[8:12]), np.sin(gauss[8:12])
        w, h = flexure.width, flexure.height
        ea, gas = YOUNG_MODULUS * w * h, SHEAR_CORRECTION * SHEAR_MODULUS * w * h
        ei = YOUNG_MODULUS * w * h ** 3 / 12.0
        column = np.ones((1, n_elements))
        self.elements = ElementData(
            gauss=gauss,
            stretch=np.concatenate([c0 * dx + s0 * dy, c0 * dy - s0 * dx]),
            stiffness=np.array([[ea], [gas], [ei]]) * column,
            jac=jac * column,
            per_jac=np.array([[1.0], [ea], [gas], [ea - gas], [ei]]) / jac * column,
        )


@dataclass
class BeamState:
    """Equilibrium on the reduced (constrained) degrees of freedom, with the
    residual, banded tangent and peak bending strain assembled at z."""

    z: np.ndarray
    residual: np.ndarray
    tangent_band: np.ndarray
    peak_strain: float
    iterations: int = 0


@dataclass
class SweepResult:
    """A quasi-static prescribed-rotation sweep as row-aligned arrays.

    Row k holds step k, row 0 being the unloaded reference; a sweep that
    ends early (failure set) keeps the rows of the steps it completed.
    """

    phi: np.ndarray             # (k,) master rotation
    tip_positions: np.ndarray   # (k, 2) master point
    moments: np.ndarray         # (k,) reaction moment
    stiffnesses: np.ndarray     # (k, 2, 2) condensed translational tangent
    max_strains: np.ndarray     # (k,) running maximum of the peak bending strain
    z: np.ndarray               # (k, n_reduced) equilibrium state
    iterations: np.ndarray      # (k,) Newton iterations of the solve that accepted z, 0 at row 0
    bisected: np.ndarray        # (k,) the first attempt failed and its halves replaced it
    failure: str | None = None  # None | "nonconvergence" | "strain"

    @property
    def max_strain(self) -> float:
        return float(self.max_strains[-1]) if len(self.max_strains) else 0.0


@functools.lru_cache(maxsize=8)
def _topology(node_counts: tuple[int, ...]):
    """Index arrays of a model that depend only on its flexures' node counts,
    built once per count and read-only: per flexure the index of each nodal
    displacement in the extended vector of BeamModel._extended, the element
    gather, the scatters of the kernel outputs into the residual and the
    band, and the unit right-hand sides of the condensation."""
    base_master = 3 * (node_counts[0] - 2)
    n = base_master + 3 + sum(3 * (m - 2) for m in node_counts[1:])
    # reduced dof index per node and component, -1 marking eliminated dofs
    # (edof), and the index in the extended vector (read)
    edof, gather, reads = [], [], []
    for k, n_nodes in enumerate(node_counts):
        conn = 3 * np.arange((n_nodes - 1) // 3)[:, None] + np.arange(4)[None, :]
        node_map = np.full((n_nodes, 3), -1, dtype=np.int64)
        interior = np.arange(1, n_nodes - 1)
        first = 3 * (interior - 1) if k == 0 else base_master + 3 + 3 * (n_nodes - 2 - interior)
        node_map[interior] = first[:, None] + np.arange(3)
        node_map[-1] = base_master + np.arange(3)
        read = np.where(node_map >= 0, node_map, n)
        if k == 1:
            read[-1, :2] = (n + 1, n + 2)
        edof.append(_grouped(node_map, conn))
        gather.append(_grouped(read, conn))
        reads.append(read)

    # static scatter patterns from the field-major kernel outputs into the
    # residual and the band in LAPACK's column order; local pair (a, b),
    # a <= b, lands on reduced (min, max)
    edof = np.concatenate(edof, axis=1)
    valid = edof >= 0
    rows, cols = edof[_TRIU[0]], edof[_TRIU[1]]
    pmask = (rows >= 0) & (cols >= 0)
    i_idx = np.minimum(rows, cols)[pmask]
    j_idx = np.maximum(rows, cols)[pmask]
    if np.any(j_idx - i_idx > _BAND):
        raise AssertionError("band structure violated")
    unit_rhs = np.zeros((n, 3), order="F")
    unit_rhs[base_master + np.arange(3), np.arange(3)] = 1.0
    reads = tuple(reads)
    arrays = (np.concatenate(gather, axis=1), np.flatnonzero(valid), edof[valid],
              np.flatnonzero(pmask), j_idx * (_BAND + 1) + (_BAND + i_idx - j_idx), unit_rhs)
    for array in (*reads, *arrays):
        array.flags.writeable = False
    return (reads, *arrays)


def _slave_tip(rot: np.ndarray, forces: np.ndarray, tangents: np.ndarray, col: int) -> float:
    """Fold the slaved tip (local dofs 3, 7, 11 of element column col) into
    the master pose through te, in place: its translation picks up w * dphi
    with w = e_z x (R(phi) r0). Returns the curvature of the map, d^2
    u_tip/d phi^2 = -R r0, dotted with the tip force, which the phi diagonal
    of the band loses."""
    fx, fy = forces[3, col], forces[7, col]
    forces[11, col] += -rot[1] * fx + rot[0] * fy
    te = np.eye(12)
    te[3, 11] = -rot[1]
    te[7, 11] = rot[0]
    tangents[:, col] = (te.T @ _unpack(tangents[:, col]) @ te).take(_REPACK)
    return rot[0] * fx + rot[1] * fy


class BeamModel:
    """Assembled cross-hinge (or cantilever) model on reduced DOFs.

    Reduced dof ordering: interior nodes of the first flexure ascending,
    the master triple (u_x, u_y, phi), then interior nodes of the second
    flexure in descending node order. Clamped base nodes are eliminated;
    tip nodes are slaved to the master pose, which keeps the tangent
    banded with half-bandwidth 11. The elements of all flexures are
    stacked (first flexure, then second), so one kernel call serves both.
    """

    def __init__(self, meshes: list[FlexureMesh]):
        if not 1 <= len(meshes) <= 2:
            raise ValueError("model supports one or two flexures")
        self.meshes = meshes
        self.elements = ElementData.stack([m.elements for m in meshes])
        self._half_height = np.concatenate(
            [np.full(m.n_elements, m.height / 2.0) for m in meshes])

        self.idx_mx = 3 * (meshes[0].n_nodes - 2)
        self.idx_my = self.idx_mx + 1
        self.idx_phi = self.idx_mx + 2
        self.node_counts = tuple(m.n_nodes for m in meshes)
        topology = _topology(self.node_counts)
        self._node_reads, self._unit_rhs = topology[0], topology[-1]
        self._assembly = _stacked_topology((self.node_counts,))  # on the same arrays
        self.n_reduced = len(self._unit_rhs)
        self.newton_tolerance = NEWTON_TOL_FACTOR * max(1.0, self.elements.stiffness[0].max())

        self.master_ref = meshes[0].node_pos[-1].copy()
        # reference offset (x, y) of the slaved tip relative to the master point
        self.tip_offset = tuple((meshes[1].node_pos[-1] - self.master_ref).tolist()) \
            if len(meshes) == 2 else None

    def _extended(self, z: np.ndarray):
        """z followed by [0 (clamped dofs), slaved tip u_x, slaved tip u_y],
        and the rotated slaved-tip offset R(phi) r0 as (x, y) (None for one
        flexure). Scalar arithmetic, with the rounding of the array form."""
        n = self.n_reduced
        z_ext = np.zeros(n + 3)
        z_ext[:n] = z
        if self.tip_offset is None:
            return z_ext, None
        (r0x, r0y), phi = self.tip_offset, float(z[self.idx_phi])
        cp, sp = math.cos(phi), math.sin(phi)
        rot = (cp * r0x - sp * r0y, sp * r0x + cp * r0y)
        ux, uy = z[self.idx_mx:self.idx_my + 1].tolist()
        z_ext[n + 1] = ux + rot[0] - r0x
        z_ext[n + 2] = uy + rot[1] - r0y
        return z_ext, rot

    def full_displacements(self, z: np.ndarray) -> list[np.ndarray]:
        """Nodal displacement arrays per flexure for a reduced vector."""
        z_ext, _ = self._extended(z)
        return [z_ext[read] for read in self._node_reads]

    def deformed_centerlines(self, z: np.ndarray) -> list[np.ndarray]:
        disp = self.full_displacements(z)
        return [m.node_pos + u[:, :2] for m, u in zip(self.meshes, disp)]

    def tip_position(self, state: BeamState) -> np.ndarray:
        return self.master_ref + state.z[self.idx_mx:self.idx_my + 1]

    def assemble(self, z: np.ndarray):
        """Reduced residual, banded tangent and peak outer-fiber bending
        strain |d kappa| * h / 2 over the Gauss points, at state z.

        Only the upper band of the symmetric tangent is stored, in LAPACK
        storage: entry (i, j), i <= j, sits in ab[_BAND + i - j, j]. The band
        is F-contiguous (LAPACK's column order), so solvers copy it plainly.
        """
        z_ext, rot = self._extended(z)
        residual, ab, kap = _assemble(self.elements, self._half_height, self._assembly,
                                      z_ext, [rot])
        return residual, ab.reshape(self.n_reduced, _BAND + 1).T, float(kap.max())


def solve_banded(ab: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the reduced system in the upper band storage of assemble.

    LAPACK dpbsv (banded Cholesky) solves on a copy, a plain one for the
    F-contiguous band of assemble. An indefinite tangent
    fails it; the band is then mirrored into a work buffer for dgbsv (LU
    with partial pivoting), whose _BAND fill-in rows on top need not be set.

    Raises:
        SingularTangent: an exactly singular factor, or a non-finite
            matrix, right-hand side or solution.
    """
    if not (np.isfinite(ab).all() and np.isfinite(rhs).all()):
        raise SingularTangent("non-finite banded system")
    _, solution, info = dpbsv(np.array(ab, order="F"), rhs, overwrite_ab=1)
    if info:
        work = np.zeros((3 * _BAND + 1, ab.shape[1]), order="F")
        work[_BAND:2 * _BAND + 1] = ab
        for d in range(1, _BAND + 1):  # entry (j + d, j) mirrors (j, j + d)
            work[2 * _BAND + d, :-d] = ab[_BAND - d, d:]
        _, _, solution, info = dgbsv(_BAND, _BAND, work, rhs, overwrite_ab=1)
    if info != 0:
        raise SingularTangent(f"banded factorization failed (dgbsv info {info})")
    if not np.isfinite(solution).all():
        raise SingularTangent("non-finite banded solution")
    return solution


def _apply_constraints(ab: np.ndarray, rhs: np.ndarray, fixed: list[int]) -> None:
    """Zero rows/columns of fixed dofs in upper band storage, unit diagonal."""
    n = ab.shape[1]
    for p in fixed:
        ab[:, p] = 0.0
        for j in range(p + 1, min(n, p + _BAND + 1)):
            ab[_BAND + p - j, j] = 0.0
        ab[_BAND, p] = 1.0
        rhs[p] = 0.0


def assemble_model(geometry: HingeGeometry, n_elements: int = DEFAULT_ELEMENTS) -> BeamModel:
    """Mesh a cross-hinge geometry into the two-flexure beam model."""
    return BeamModel([FlexureMesh(f, n_elements) for f in geometry.flexures])


def _newton(model: BeamModel, z0: np.ndarray, prescribed: dict[int, float] | None):
    """The Newton loop of solve_equilibrium as a generator: it yields each
    state to assemble, is sent model.assemble's triple at it, and returns
    the BeamState (a sweep in run_sweeps is sent stacked assemblies)."""
    tol = model.newton_tolerance
    z = z0.copy()
    if prescribed:
        for idx, value in prescribed.items():
            z[idx] = value
    fixed = list(prescribed or ())

    norm0 = None
    for iteration in range(NEWTON_MAX_ITER + 1):
        residual, ab, peak = yield z
        rhs = residual.copy()
        rhs[fixed] = 0.0
        norm = float(np.abs(rhs).max())
        if not np.isfinite(norm):
            raise NonConverged("residual diverged to non-finite values")
        if norm < tol:
            return BeamState(z=z, residual=residual, tangent_band=ab,
                             peak_strain=peak, iterations=iteration)
        if norm0 is None:
            norm0 = max(norm, tol)
        elif iteration >= 10 and norm > 1e3 * norm0:
            raise NonConverged("residual diverging")
        if iteration == NEWTON_MAX_ITER:
            break
        _apply_constraints(ab, rhs, fixed)
        z -= solve_banded(ab, rhs)
    raise NonConverged(f"no equilibrium within {NEWTON_MAX_ITER} iterations")


def solve_equilibrium(model: BeamModel, z0: np.ndarray,
                      prescribed: dict[int, float] | None = None) -> BeamState:
    """Newton-Raphson equilibrium with selected reduced DOFs prescribed.

    Clearly diverging iterations (non-finite residual, or a residual that
    blows up past a thousandfold of its start value without recovering)
    fail early instead of exhausting the iteration budget; step bisection
    in the caller is the recovery path.

    Raises:
        NonConverged: residual tolerance not met within NEWTON_MAX_ITER.
        SingularTangent: tangent factorization failed.
    """
    return _alone(model, _newton(model, z0, prescribed))


def _alone(model: BeamModel, solver):
    """Run a generator of _newton or _sweep for one model: answer each state
    it yields with model.assemble at it, and return its result."""
    try:
        z = next(solver)
        while True:
            z = solver.send(model.assemble(z))
    except StopIteration as done:
        return done.value


def _halves(model: BeamModel, state: BeamState, phi_target: float, depth: int) -> BeamState:
    """The two half steps from the equilibrium state to phi_target that
    replace a failed attempt at depth, each a solve_step one level deeper."""
    if depth >= MAX_BISECTIONS:
        raise NonConverged(f"no equilibrium within {MAX_BISECTIONS} bisections")
    phi_mid = 0.5 * (float(state.z[model.idx_phi]) + phi_target)
    state = solve_step(model, state, phi_mid, depth + 1)
    return solve_step(model, state, phi_target, depth + 1)


def solve_step(model: BeamModel, state: BeamState, phi_target: float,
               depth: int = 0) -> BeamState:
    """Advance from an equilibrium to a prescribed master rotation, Newton
    starting at the equilibrium. A failed step is halved, each half from a
    converged state, up to MAX_BISECTIONS deep (depth counts the halvings
    above this step) before NonConverged propagates."""
    try:
        return solve_equilibrium(model, state.z, prescribed={model.idx_phi: phi_target})
    except NonConverged:
        return _halves(model, state, phi_target, depth)


def reaction_moment(model: BeamModel, state: BeamState) -> float:
    """Internal generalized force conjugate to the master rotation."""
    return float(state.residual[model.idx_phi])


def condense_translational_stiffness(model: BeamModel, state: BeamState
                                     ) -> tuple[np.ndarray, np.ndarray]:
    """(stiffness, path_tangent): the Schur complement (2, 2) of the tangent
    onto the master translations, and dz/dphi (n_reduced,) at the state.

    All remaining free DOFs, including the master rotation, are condensed
    out, so the stiffness is the one seen by parasitic loads at the moving
    body under moment-free rotation increments. One factorization serves
    both. By the block-inverse identity, the Schur complement is the
    inverse of the master-translation block of the inverse tangent. Free
    DOFs carry no load, so along the path K dz = e_phi dM: the e_phi
    column of the inverse, scaled to a unit phi entry, is dz/dphi.
    """
    # LAPACK solves on a copy of the right-hand side, so one read-only set serves
    sol = solve_banded(state.tangent_band, model._unit_rhs)
    c00, c01, c10, c11 = sol[model.idx_mx:model.idx_my + 1, :2].ravel().tolist()
    det = c00 * c11 - c01 * c10
    if not math.isfinite(det) or det == 0.0:
        raise SingularTangent("singular condensed compliance")
    inv = np.array([[c11, -c01], [-c10, c00]]) / det
    return inv, sol[:, 2] / sol[model.idx_phi, 2]


def predict_state(zs: list[np.ndarray], ts: list[np.ndarray], h: float) -> np.ndarray:
    """Next state on a uniform rotation grid of step h from the last converged
    states zs and path tangents ts = dz/dphi: Euler from one, cubic Hermite from
    two, quartic Hermite from three (exact to degree 3, 4; Allgower & Georg)."""
    if len(zs) == 1:
        return zs[0] + h * ts[0]
    if len(zs) == 2:
        return 5.0 * zs[0] - 4.0 * zs[1] + 2.0 * h * (ts[0] + 2.0 * ts[1])
    return -9.0 * zs[2] + 9.0 * zs[1] + zs[0] + 6.0 * h * (ts[0] + ts[1])


def _sweep(model: BeamModel, n_steps: int):
    """The sweep of run_sweep as a generator: it yields the zero state and
    each Newton iterate of a step's first attempt, started at the predictor
    (predict_state), and is sent model.assemble's triple at it. A failed
    attempt bisects alone from the last converged state (_halves, which
    does not yield); the next step yields again.
    """
    if n_steps < 1:
        raise ValueError("need at least one sweep step")
    rows, tangents = [], []
    max_strain = 0.0
    failure = None
    try:
        for k in range(n_steps + 1):
            phi = k * SWEEP_ANGLE / n_steps
            bisected = False
            if k == 0:
                z = np.zeros(model.n_reduced)
                state = BeamState(z, *(yield z))
            else:
                # converged rows sit on the uniform grid even after a bisected step
                guess = predict_state([row[5] for row in rows[-3:]], tangents[-2:],
                                      SWEEP_ANGLE / n_steps)
                try:
                    state = yield from _newton(model, guess, {model.idx_phi: phi})
                except NonConverged:
                    state, bisected = _halves(model, state, phi, 0), True
            k_t, tangent = condense_translational_stiffness(model, state)
            tangents.append(tangent)
            max_strain = max(max_strain, state.peak_strain)
            rows.append((phi, model.tip_position(state), reaction_moment(model, state),
                         k_t, max_strain, state.z, state.iterations, bisected))
            if max_strain > STRAIN_LIMIT:
                failure = "strain"
                break
    except (NonConverged, SingularTangent):
        failure = "nonconvergence"
    # one array per SweepResult field; the reshape also shapes empty columns
    columns = [(float, ()), (float, (2,)), (float, ()), (float, (2, 2)), (float, ()),
               (float, (model.n_reduced,)), (int, ()), (bool, ())]
    return SweepResult(*(np.array([row[i] for row in rows], dtype=dtype)
                         .reshape(len(rows), *shape)
                         for i, (dtype, shape) in enumerate(columns)), failure=failure)


def run_sweep(model: BeamModel, n_steps: int = DEFAULT_STEPS) -> SweepResult:
    """Quasi-static sweep of the master rotation over SWEEP_ANGLE in n_steps
    equal steps, as row-aligned per-step arrays (see SweepResult).

    Solver failures (non-convergence, singular tangent) and a bending
    strain above STRAIN_LIMIT are not raised: they end the sweep early,
    with failure set and the rows of the completed steps kept (the step
    that crossed the strain limit included). Fewer than one step raises
    ValueError. BeamModel.assemble answers the iterates of _sweep, on the
    model's own arrays.
    """
    return _alone(model, _sweep(model, n_steps))


@functools.lru_cache(maxsize=8)
def _stacked_topology(node_counts: tuple[tuple[int, ...], ...]):
    """Index arrays of a stack of models (see _assemble) that depend only on
    their node counts, built once per tuple and read-only: the gather from
    their joined extended vectors, the scatters of the stacked kernel
    outputs into the joined residuals and bands, whose bins each receive a
    model's own terms in its own order, and per model its element columns,
    residual and band slices and the band entry of its phi diagonal. A
    stack of one model has its model's arrays (_topology)."""
    parts = [_topology(counts) for counts in node_counts]
    gathers, force_sels, force_idxs, band_sels, band_idxs = zip(*(p[1:6] for p in parts))
    n_el = [gather.shape[1] for gather in gathers]
    n = [len(p[6]) for p in parts]
    width, cols, dofs = sum(n_el), np.cumsum([0] + n_el), np.cumsum([0] + n)
    bands = (_BAND + 1) * dofs

    def stacked(sels, idxs, offsets):  # flat indices in the stacked output, and their bins
        return (np.concatenate([s // m * width + c + s % m for s, m, c in zip(sels, n_el, cols)]),
                np.concatenate([i + o for i, o in zip(idxs, offsets)]))

    if len(parts) == 1:
        arrays = parts[0][1:6]
    else:
        extended = dofs[:-1] + 3 * np.arange(len(parts))  # offsets of the joined z_ext
        arrays = (np.concatenate([g + o for g, o in zip(gathers, extended)], axis=1),
                  *stacked(force_sels, force_idxs, dofs), *stacked(band_sels, band_idxs, bands))
        for array in arrays:
            array.flags.writeable = False
    slices = [[slice(int(a), int(b)) for a, b in zip(bounds, bounds[1:])]
              for bounds in (cols, dofs, bands)]
    phi_entries = [int(band) + (3 * (counts[0] - 2) + 2) * (_BAND + 1) + _BAND
                   for band, counts in zip(bands, node_counts)]
    return (*arrays, *slices, phi_entries)


def _assemble(elements: ElementData, half_height: np.ndarray, topology, z_ext: np.ndarray,
              rots: list, blocks=None):
    """The joined residuals, flat bands and outer-fiber bending strains at
    the Gauss points of a stack of models, at their joined extended states
    z_ext and rotated slaved-tip offsets rots (BeamModel._extended): one
    element_kernel call on their stacked element columns (with blocks, each
    model's columns, so each model gets its own constant-operator products)
    and one scatter each for all residuals and all bands (topology: see
    _stacked_topology). Every model's values keep the bytes of a stack of
    that model alone, which is BeamModel.assemble."""
    gather, force_sel, force_idx, band_sel, band_idx, cols, residuals, bands, phi_entries = topology
    forces, tangents, kap = element_kernel(elements, z_ext.take(gather), blocks)
    curvature = []
    for rot, col, entry in zip(rots, cols, phi_entries):
        if rot is not None:
            curvature.append((entry, _slave_tip(rot, forces, tangents, col.stop - 1)))
    residual = np.bincount(force_idx, weights=forces.take(force_sel),
                           minlength=residuals[-1].stop)
    ab = np.bincount(band_idx, weights=tangents.take(band_sel), minlength=bands[-1].stop)
    for entry, value in curvature:
        ab[entry] -= value
    np.abs(kap, out=kap)
    kap *= half_height
    return residual, ab, kap


class _Stack:
    """Several models assembled at once (_assemble), each on its own columns."""

    def __init__(self, models: list[BeamModel]):
        self.models = models
        self.elements = ElementData.stack([m.elements for m in models])
        self.half_height = np.concatenate([m._half_height for m in models])
        self.topology = _stacked_topology(tuple(m.node_counts for m in models))

    def assemble(self, zs: list[np.ndarray]) -> list[tuple]:
        """BeamModel.assemble's triple of each model at its state."""
        extended = [m._extended(z) for m, z in zip(self.models, zs)]
        cols, residuals, bands = self.topology[5:8]
        residual, ab, kap = _assemble(self.elements, self.half_height, self.topology,
                                      np.concatenate([z_ext for z_ext, _ in extended]),
                                      [rot for _, rot in extended], blocks=cols)
        return [(residual[r], ab[band].reshape(m.n_reduced, _BAND + 1).T,
                 float(kap[:, col].max()))
                for m, r, band, col in zip(self.models, residuals, bands, cols)]


def run_sweeps(models: list[BeamModel], n_steps: int = DEFAULT_STEPS) -> list[SweepResult]:
    """run_sweep of each model, up to LOCKSTEP of them in lock-step: each
    round gives every sweep in flight (_sweep) the assembly its Newton
    iterate needs, in one stacked element_kernel call, and a model that
    finishes makes room for the next. Each keeps its own band, banded
    solves, bisections and condensation, so every result is byte-identical
    to run_sweep's. One model is run_sweep.
    """
    if len(models) == 1:
        return [run_sweep(models[0], n_steps)]
    results = [None] * len(models)
    sweeps, waiting = {}, {}  # index -> generator, and the state it waits on

    def send(i, answer):
        try:
            waiting[i] = sweeps[i].send(answer)
        except StopIteration as done:
            results[i] = done.value
            waiting.pop(i, None)

    queue = list(range(len(models)))[::-1]
    stack = None
    while queue or waiting:
        while queue and len(waiting) < LOCKSTEP:
            i = queue.pop()
            sweeps[i] = _sweep(models[i], n_steps)
            send(i, None)
        batch = list(waiting)
        if len(batch) == 1:
            answers = [models[batch[0]].assemble(waiting[batch[0]])]
        else:
            if stack is None or stack.models != [models[i] for i in batch]:
                stack = _Stack([models[i] for i in batch])
            answers = stack.assemble([waiting[i] for i in batch])
        for i, answer in zip(batch, answers):
            send(i, answer)
    return results
