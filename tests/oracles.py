"""Reference implementations that only the tests call: the beam harness
(a clamped single-flexure cantilever, an applied tip moment, one-element
forces and tangents, strains, peak bending strain and strain energy) that
checks beam_fem against closed forms and finite differences, the
unloaded reference state of a model, the element
kernel as per-field formulas that beam_fem's stacked-row kernel must match
bit for bit, a dense view
of the banded tangent, dominance of one objective vector over another,
the broadcast dominance matrix that pareto's dominance sweep replaced,
constraint domination one pair at a time, the NSGA-II tournament keys
one front at a time and the survivors they give with every front ranked,
the archive insert of every feasible offspring, the per-level hypervolume that
pareto's dimension sweep replaced, the full SPEA2 distance matrix, the
truncation that re-sorts it every round and the environmental selection
that gives every member a fitness from that matrix, the Welzl loop on numpy
norms that the float containment checks replaced, and the design
variables read back from realized geometry."""

import random
from dataclasses import fields

import numpy as np

from crosshinge import beam_fem, kinetostatics, moo, pareto
from crosshinge.geometry import DesignVector, Flexure, HingeGeometry, centerline


def assemble_cantilever(coeffs, length: float = 1.0, height: float = 0.1,
                        width: float = 1.0,
                        n_elements: int = beam_fem.DEFAULT_ELEMENTS) -> beam_fem.BeamModel:
    """Single-flexure model clamped at s=0 with the master at its tip, of
    the fixed material of geometry."""
    points, _ = centerline(coeffs, length, np.zeros(2), 3 * n_elements + 1)
    flexure = Flexure(coeffs=np.asarray(coeffs, dtype=float), length=length,
                      height=height, width=width, base=np.zeros(2), points=points)
    return beam_fem.BeamModel([beam_fem.FlexureMesh(flexure, n_elements)])


class Loaded:
    """A model under a fixed external load on its reduced dofs: assemble
    returns the residual minus the load, so solve_equilibrium on it finds
    the loaded equilibrium (and its states carry that loaded residual). A
    given tol replaces the model's Newton tolerance."""

    def __init__(self, model: beam_fem.BeamModel, external: np.ndarray,
                 tol: float | None = None):
        self.model, self.external = model, external
        self.n_reduced = model.n_reduced
        self.newton_tolerance = model.newton_tolerance if tol is None else tol

    def assemble(self, z: np.ndarray):
        residual, ab, peak = self.model.assemble(z)
        return residual - self.external, ab, peak


def zero_state(model: beam_fem.BeamModel) -> beam_fem.BeamState:
    """The unloaded reference equilibrium z = 0, assembled there."""
    z = np.zeros(model.n_reduced)
    residual, ab, peak = model.assemble(z)
    return beam_fem.BeamState(z=z, residual=residual, tangent_band=ab, peak_strain=peak)


def solve_tip_moment(model: beam_fem.BeamModel, moment: float, n_steps: int = 20,
                     tol: float | None = None) -> beam_fem.BeamState:
    """Ramp an external moment on the free master rotation in n_steps equal
    increments. The returned state holds the unloaded residual, so
    reaction_moment reads the reaction."""
    state = zero_state(model)
    for k in range(1, n_steps + 1):
        external = np.zeros(model.n_reduced)
        external[model.idx_phi] = moment * k / n_steps
        state = beam_fem.solve_equilibrium(Loaded(model, external, tol), state.z)
    residual, ab, peak = model.assemble(state.z)
    return beam_fem.BeamState(z=state.z, residual=residual, tangent_band=ab,
                              peak_strain=peak, iterations=state.iterations)


def kinematics(data: beam_fem.ElementData, ue: np.ndarray):
    """Gauss-point strains (axial, shear, curvature) and the rotated frame
    (c, s, a, g), each (4, n_el), for grouped element displacements ue (12, n_el)."""
    du = beam_fem._INTERP @ ue
    current = data.gauss + du[:12]
    inv_j = data.per_jac[0:1]
    dx, dy = current[0:4] * inv_j, current[4:8] * inv_j
    c, s = np.cos(current[8:12]), np.sin(current[8:12])
    a = c * dx + s * dy
    g = c * dy - s * dx
    strains = (a - data.stretch[0:4], g - data.stretch[4:8], du[12:16] * inv_j)
    return strains, (c, s, a, g)


def element_kernel(data: beam_fem.ElementData, ue: np.ndarray):
    """beam_fem.element_kernel one field at a time: (forces (12, n_el),
    packed tangents (78, n_el), kap (4, n_el))."""
    (eps, gam, kap), (c, s, a, g) = kinematics(data, ue)
    ea, gas, ei = data.stiffness[:, None]
    j = data.jac
    nf, qf = ea * eps, gas * gam
    forces = [nf * c - qf * s, nf * s + qf * c, j * (nf * g - qf * a), ei * kap]
    _, ea_j, gas_j, diff_j, ei_j = data.per_jac[:, None]
    dcc = diff_j * (c * c)
    u, v = ea * g - qf, gas * a - nf
    coeffs = [gas_j + dcc, diff_j * (c * s), ea_j - dcc,
              c * u + s * v, s * u - c * v, j * (g * u + a * v), ei_j]
    return (beam_fem._FORCE @ np.concatenate(forces),
            beam_fem._TANGENT @ np.concatenate(coeffs), kap)


def element_forces(mesh: beam_fem.FlexureMesh, element: int, element_dofs: np.ndarray):
    """Internal force vector and consistent (12, 12) tangent of one element.

    `element_dofs` holds the nodal displacements of the element's four
    nodes as a (4, 3) array; results use the grouped 12-dof ordering
    [ux(4), uy(4), theta(4)].
    """
    data = beam_fem.ElementData(*(getattr(mesh.elements, f.name)[:, element:element + 1]
                                  for f in fields(beam_fem.ElementData)))
    forces, tangents, _ = beam_fem.element_kernel(data, np.asarray(element_dofs).T.reshape(12, 1))
    return forces[:, 0], beam_fem._unpack(tangents[:, 0])


def strains(mesh: beam_fem.FlexureMesh, displacements: np.ndarray):
    """Reissner strain measures (axial, shear, curvature) at Gauss points
    for nodal displacements of shape (n_nodes, 3)."""
    return kinematics(mesh.elements, beam_fem._grouped(displacements, mesh.conn))[0]


def model_strains(model: beam_fem.BeamModel, z: np.ndarray):
    """Reissner strain measures at the Gauss points of all elements of a
    model, at the reduced state z, read from its nodal displacements."""
    rows = [beam_fem._grouped(u, m.conn)
            for m, u in zip(model.meshes, model.full_displacements(z))]
    return kinematics(model.elements, np.concatenate(rows, axis=1))[0]


def peak_strain(model: beam_fem.BeamModel, z: np.ndarray) -> float:
    """Peak outer-fiber bending strain |d kappa| * h / 2 over all Gauss
    points of a model at the reduced state z."""
    _, _, kap = model_strains(model, z)
    half_height = np.concatenate([np.full(m.n_elements, m.height / 2.0)
                                  for m in model.meshes])
    return float(np.max(np.abs(kap) * half_height))


def strain_energy(model: beam_fem.BeamModel, state: beam_fem.BeamState) -> float:
    """Stored elastic energy of a state, Gauss-integrated over all elements."""
    eps, gam, kap = model_strains(model, state.z)
    ea, gas, ei = (model.elements.stiffness[k:k + 1] for k in range(3))
    density = ea * eps ** 2 + gas * gam ** 2 + ei * kap ** 2
    return 0.5 * float(np.sum(density * beam_fem._W_GAUSS[:, None] * model.elements.jac))


def banded_to_dense(ab: np.ndarray) -> np.ndarray:
    """Dense symmetric matrix of a tangent in BeamModel.assemble's upper
    band storage, the lower triangle mirrored from the upper."""
    band = beam_fem._BAND
    n = ab.shape[1]
    dense = np.zeros((n, n))
    for d in range(band + 1):
        j = np.arange(d, n)
        dense[j - d, j] = dense[j, j - d] = ab[band - d, j]
    return dense


def residual_tangent(model: beam_fem.BeamModel, z: np.ndarray):
    """Residual and dense tangent of the model at the reduced state z."""
    residual, ab, _ = model.assemble(z)
    return residual, banded_to_dense(ab)


def dominates(y: np.ndarray, y_other: np.ndarray) -> bool:
    """Pareto dominance of one objective vector over another."""
    return bool(dominance(np.atleast_2d(y), np.atleast_2d(y_other))[0, 0])


def dominance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """d[i, j] == True iff row a[i] Pareto-dominates row b[j], from one
    (n_a, n_b, m) broadcast comparison."""
    a = np.asarray(a, dtype=float)[:, None, :]
    b = np.asarray(b, dtype=float)[None, :, :]
    return np.all(a <= b, axis=2) & np.any(a < b, axis=2)


def constraint_dominates(a: kinetostatics.Evaluation, b: kinetostatics.Evaluation) -> bool:
    """Constraint domination of one record over another: a feasible record
    beats an infeasible one, infeasible records compare by violation and
    feasible ones by Pareto dominance."""
    if a.feasible != b.feasible:
        return a.feasible
    if not a.feasible:
        return a.violation < b.violation
    return dominates(a.y, b.y)


def domination_matrix(evals: list) -> np.ndarray:
    """d[i, j] == True iff record i constraint-dominates record j, one pair
    at a time."""
    return np.array([[constraint_dominates(a, b) for b in evals] for a in evals],
                    dtype=bool).reshape(len(evals), len(evals))


def crowding_distance(coords: np.ndarray) -> np.ndarray:
    """Crowding distance within one front from its coordinate rows."""
    n, m = coords.shape
    distance = np.zeros(n)
    if n <= 2:
        return np.full(n, np.inf)
    for j in range(m):
        order = np.argsort(coords[:, j], kind="stable")
        col = coords[order, j]
        span = col[-1] - col[0]
        distance[order[0]] = np.inf
        distance[order[-1]] = np.inf
        if span > 0.0:
            interior = order[1:-1]
            distance[interior] += (col[2:] - col[:-2]) / span
    return distance


def nsga2_keys(feasible: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """NSGA-II tournament keys (rank, -crowding) one front at a time: fronts
    peeled off the whole constraint-domination matrix, infeasible members
    included, and each crowded alone (over objectives for feasible fronts,
    violation otherwise)."""
    d = moo._domination_matrix(keys)
    n_dom = d.sum(axis=0).astype(np.int64)
    ranks = np.full(len(keys), -1, dtype=np.int64)
    current = np.flatnonzero(n_dom == 0)
    front = 0
    while current.size:
        ranks[current] = front
        n_dom[current] = -1  # retired
        n_dom -= d[current].sum(axis=0)
        current = np.flatnonzero(n_dom == 0)
        front += 1
    tournament = np.column_stack([ranks, np.zeros(len(ranks))])
    for front in range(int(ranks.max()) + 1):
        idx = np.flatnonzero(ranks == front)
        coords = keys[idx, 1:] if feasible[idx[0]] else keys[idx, :1]
        tournament[idx, 1] = -crowding_distance(coords)
    return tournament


def nsga2_survivors(feasible: np.ndarray, keys: np.ndarray, size: int):
    """The size best members by nsga2_keys of the whole pool (rank, then
    -crowding, then index), their tournament keys, and the mask of the
    feasible rank-0 members."""
    tournament = nsga2_keys(feasible, keys)
    chosen = np.lexsort((np.arange(len(keys)), tournament[:, 1], tournament[:, 0]))[:size]
    return chosen, tournament[chosen], feasible & (tournament[:, 0] == 0)


def archive_every_feasible(archive: pareto.ParetoArchive, xs: np.ndarray,
                           evals: list) -> pareto.ParetoArchive:
    """The archive after offering it every feasible offspring record, where
    moo._advance offers only those that selection finds undominated."""
    feasible, keys = moo._keys(evals)
    return pareto.archive_insert(archive, xs[feasible], keys[feasible, 1:])


def staircase_area(points: np.ndarray, reference: np.ndarray) -> float:
    """Area dominated by 2D points up to the reference corner."""
    inside = np.all(points < reference[None, :], axis=1)
    pts = points[inside]
    if pts.size == 0:
        return 0.0
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order]
    area = 0.0
    best_y = np.inf
    xs, ys = pts[:, 0], pts[:, 1]
    for i in range(len(pts)):
        if ys[i] >= best_y:
            continue
        next_x = xs[i + 1:][ys[i + 1:] < ys[i]]
        right = next_x[0] if next_x.size else reference[0]
        area += (right - xs[i]) * (reference[1] - ys[i])
        best_y = ys[i]
    return float(area)


def hypervolume(points: np.ndarray, reference: np.ndarray) -> float:
    """Hypervolume of 2 or 3 objectives: in 3D, the staircase area of the
    points at or below each distinct z level times the gap to the next."""
    pts = np.asarray(points, dtype=float)
    ref = np.asarray(reference, dtype=float)
    if pts.shape[1] == 2:
        return staircase_area(pts, ref)
    pts = pts[np.all(pts < ref[None, :], axis=1)]
    if pts.size == 0:
        return 0.0
    levels = np.unique(pts[:, 2])
    volume = 0.0
    for i, z in enumerate(levels):
        z_next = levels[i + 1] if i + 1 < len(levels) else ref[2]
        active = pts[pts[:, 2] <= z][:, :2]
        volume += staircase_area(active, ref[:2]) * (z_next - z)
    return float(volume)


def distances(coords: np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distances with an infinite diagonal, the (n, n)
    matrix that moo._distance_blocks yields in row blocks. The squared
    distance is summed one coordinate column at a time, in column order,
    so it equals np.linalg.norm over the (n, n, m) difference array bit for
    bit without building that array."""
    squared = np.zeros((len(coords), len(coords)))
    for j in range(coords.shape[1]):
        squared += (coords[:, j, None] - coords[None, :, j]) ** 2
    dist = np.sqrt(squared)
    np.fill_diagonal(dist, np.inf)
    return dist


def spea2_truncate(evals: list, size: int) -> np.ndarray:
    """Indices that survive iteratively dropping the member with the
    lexicographically smallest sorted distance vector until size remain,
    re-sorting the alive distance submatrix for every deletion."""
    dist = distances(moo._density_coordinates(*moo._keys(evals)))
    alive = list(range(len(evals)))
    while len(alive) > size:
        sub = dist[np.ix_(alive, alive)]
        ordered = np.sort(sub, axis=1)
        # lexicographic comparison over ascending neighbor distances
        victim = np.lexsort(ordered.T[::-1])[0]
        del alive[victim]
    return np.array(alive)


def spea2_environmental(evals: list, size: int):
    """The SPEA2 environmental archive with every member's fitness taken
    from the full distance matrix: raw fitness (the summed strengths of a
    member's dominators, one pair at a time) plus 1 / (sigma_k + 2), sigma_k
    the k-th smallest distance of its row, k the rounded root of n. The
    non-dominated members (fitness < 1) are truncated by spea2_truncate, or
    filled up with dominated members in stable fitness order. Returns the
    indices and their fitness as (n, 1) keys."""
    n = len(evals)
    d = domination_matrix(evals)
    raw = d.sum(axis=1).astype(float) @ d
    sigma_k = np.zeros(n)
    if n > 1:
        k = int(round(np.sqrt(n)))
        dist = distances(moo._density_coordinates(*moo._keys(evals)))
        sigma_k = np.sort(dist, axis=1)[:, k - 1]
    fitness = raw + 1.0 / (sigma_k + 2.0)
    chosen = np.flatnonzero(fitness < 1.0)
    if len(chosen) > size:
        chosen = chosen[spea2_truncate([evals[i] for i in chosen], size)]
    elif len(chosen) < size:
        dominated = np.flatnonzero(fitness >= 1.0)
        order = np.argsort(fitness[dominated], kind="stable")
        chosen = np.concatenate([chosen, dominated[order[:size - len(chosen)]]])
    return chosen, fitness[chosen, None]


def min_enclosing_circle(points: np.ndarray):
    """Welzl with move-to-front, each containment check an np.linalg.norm of
    a numpy row, on the permutation and circle constructors of
    kinetostatics.min_enclosing_circle."""
    pts = np.asarray(points, dtype=float)
    order = list(range(len(pts)))
    random.Random(len(pts)).shuffle(order)
    shuffled = pts[order]

    center, radius = np.zeros(2), 0.0
    tol = 1e-12 * max(1.0, float(np.max(np.abs(pts))))
    for i in range(len(shuffled)):
        if np.linalg.norm(shuffled[i] - center) <= radius + tol:
            continue
        center, radius = shuffled[i].copy(), 0.0
        for j in range(i):
            if np.linalg.norm(shuffled[j] - center) <= radius + tol:
                continue
            center, radius = kinetostatics._circle_two(shuffled[i], shuffled[j])
            for k in range(j):
                if np.linalg.norm(shuffled[k] - center) <= radius + tol:
                    continue
                center, radius = kinetostatics._circle_three(shuffled[i], shuffled[j],
                                                             shuffled[k])
    return center, radius


def design_parameters(geometry: HingeGeometry) -> DesignVector:
    """Read the 13 design variables back from realized geometry."""
    f1, f2 = geometry.flexures
    return DesignVector(
        *(float(c) for c in f1.coeffs),
        *(float(c) for c in f2.coeffs),
        alpha=f2.length / f1.length,
        beta1=f1.length / f1.height,
        beta2=f2.length / f2.height,
        gamma=f2.width / f1.width,
        delta=float(f2.base[0]) / f1.length,
    )
