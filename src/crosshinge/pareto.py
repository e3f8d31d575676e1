"""Pareto dominance, front normalization and pseudo-weight selection.

An archive holds the designs and objectives of mutually non-dominated
points as two row-aligned arrays; one O(n log n) dominance sweep
(_sweep_dominated) serves nondominated_filter and dominated_mask. The
componentwise best (ideal) and worst (nadir) objective values normalize
the front to the unit cube. Pseudo-weights locate each solution's
implicit objective weighting from its normalized distance to the nadir
point; selection picks the archive member whose pseudo-weights are
L1-closest to a requested target weighting.
"""

from __future__ import annotations

import bisect
import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .geometry import DESIGN_FIELDS

OBJECTIVE_FIELDS = ("r_bar", "c_bar", "k_bar")
NORMALIZED_FIELDS = ("r_norm", "c_norm", "k_norm")
PSEUDO_WEIGHT_FIELDS = ("w_pseudo_r", "w_pseudo_c", "w_pseudo_k")


class EmptyArchive(ValueError):
    """Operation requires a non-empty archive."""


class DegenerateInput(ValueError):
    """Input admits no meaningful result (too few points, all-nadir point)."""


class DegenerateObjective(ValueError):
    """An objective coordinate carries no information (ideal == nadir)."""


@dataclass(frozen=True)
class ParetoArchive:
    """Mutually non-dominated points: designs (n, d) and objectives (n, m),
    one row per point; the default archive is empty (zero rows).

    Archives built by nondominated_filter are in canonical order (ascending
    objectives, then designs, lexicographically); archives read by
    read_archive_csv keep their file's row order.
    """

    designs: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    objectives: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))

    def __len__(self) -> int:
        return len(self.objectives)

    @property
    def ideal(self) -> np.ndarray:
        if len(self) == 0:
            raise EmptyArchive("empty archive has no ideal point")
        return self.objectives.min(axis=0)

    @property
    def nadir(self) -> np.ndarray:
        if len(self) == 0:
            raise EmptyArchive("empty archive has no nadir point")
        return self.objectives.max(axis=0)


def _distinct(ys: np.ndarray) -> np.ndarray:
    """First row of each run of equal rows in lexsorted objectives."""
    first = np.ones(len(ys), dtype=bool)
    first[1:] = np.any(ys[1:] != ys[:-1], axis=1)
    return first


def _sweep_dominated(ys: np.ndarray) -> np.ndarray:
    """Dominated flags of distinct, NaN-free objective rows (at most three
    columns, fewer padded with zeros) in ascending lexicographic order.

    The maxima sweep of Kung, Luccio & Preparata (JACM 1975): a row's
    dominators all come before it, so it is dominated iff the (y1, y2)
    staircase of the rows seen so far holds a point no worse in both. The
    staircase is kept as two bisected lists (y1 ascending, y2 descending),
    as in hypervolume.
    """
    if ys.shape[1] > 3:
        raise ValueError("the dominance sweep supports up to 3 objectives")
    ys = np.column_stack([ys, np.zeros((len(ys), 3 - ys.shape[1]))])
    s1: list[float] = []
    s2: list[float] = []
    out = []
    for _, a, b in ys.tolist():
        i = bisect.bisect_right(s1, a)
        out.append(bool(i) and s2[i - 1] <= b)
        if not out[-1]:
            # steps j..k-1 lie at or beyond the new point in y1 and y2: it replaces them
            j = k = bisect.bisect_left(s1, a)
            while k < len(s2) and s2[k] >= b:
                k += 1
            s1[j:k], s2[j:k] = [a], [b]
    return np.array(out, dtype=bool)


def dominated_mask(objectives: np.ndarray) -> np.ndarray:
    """Boolean mask of rows dominated by some other row, in input order.

    The distinct rows are swept in lexicographic order and the flags are
    mapped back, so rows with equal objectives (signed zeros included)
    share a flag and do not dominate each other.
    """
    ys = np.asarray(objectives, dtype=float)
    if len(ys) == 0:
        return np.zeros(0, dtype=bool)
    order = np.lexsort(ys.T[::-1])  # np.lexsort sorts by its last key first
    ys = ys[order]
    first = _distinct(ys)
    out = np.empty(len(ys), dtype=bool)
    out[order] = _sweep_dominated(ys[first])[np.cumsum(first) - 1]
    return out


def nondominated_filter(designs: np.ndarray, objectives: np.ndarray) -> ParetoArchive:
    """Non-dominated subset of the rows, in canonical order.

    Rows are sorted by objectives, then designs (lexicographically); of
    rows with exactly equal objectives only the first, the one with the
    smallest design, is kept, and the kept rows go through the dominance
    sweep. The result is permutation invariant. Designs are sorted only
    within the runs of equal objectives, by one lexsort of (run, design)
    over the tied rows.
    """
    ys = np.asarray(objectives, dtype=float)
    if len(ys) == 0:
        return ParetoArchive()
    xs = np.asarray(designs, dtype=float)
    order = np.lexsort(ys.T[::-1])
    keep = _distinct(ys[order])
    tied = ~keep
    tied[:-1] |= ~keep[1:]
    if tied.any():
        rows = np.flatnonzero(tied)
        run = np.cumsum(keep)[rows]
        order[rows] = order[rows[np.lexsort((*xs[order[rows]].T[::-1], run))]]
    xs, ys = xs[order[keep]], ys[order[keep]]
    keep = ~_sweep_dominated(ys)
    return ParetoArchive(designs=xs[keep], objectives=ys[keep])


def archive_insert(archive: ParetoArchive, designs: np.ndarray,
                   objectives: np.ndarray) -> ParetoArchive:
    """Non-dominated set of the archive plus the new rows; an empty side
    contributes nothing, so only the other side is filtered."""
    if len(archive) and len(objectives):
        designs = np.concatenate([archive.designs, designs])
        objectives = np.concatenate([archive.objectives, objectives])
    elif len(archive):
        designs, objectives = archive.designs, archive.objectives
    return nondominated_filter(designs, objectives)


def normalize(objectives: np.ndarray, ideal: np.ndarray, nadir: np.ndarray):
    """Objectives (one vector or rows) mapped to the unit cube of (ideal,
    nadir), shaped like objectives. A coordinate with nadir <= ideal
    carries no information and maps to 0."""
    ideal = np.asarray(ideal, dtype=float)
    span = np.asarray(nadir, dtype=float) - ideal
    degenerate = span <= 0.0
    normalized = (np.asarray(objectives, dtype=float) - ideal) / np.where(degenerate, 1.0, span)
    normalized[..., degenerate] = 0.0
    return normalized


def normalize_front(archive: ParetoArchive) -> np.ndarray:
    """Archive objectives (n, m) normalized by its own ideal/nadir (normalize)."""
    if len(archive) == 0:
        raise EmptyArchive("cannot normalize an empty archive")
    return normalize(archive.objectives, archive.ideal, archive.nadir)


def pseudo_weights(normalized: np.ndarray) -> np.ndarray:
    """Pseudo-weights of rows of normalized objectives (n, m): w_i ~ (1 - y_i),
    each row summing to one.

    Raises:
        DegenerateInput: if a row equals the nadir point (all ones).
    """
    distance = 1.0 - np.asarray(normalized, dtype=float)
    totals = distance.sum(axis=1)
    if np.any(totals <= 0.0):
        raise DegenerateInput("pseudo-weights undefined at the nadir point")
    return distance / totals[:, None]


def select_by_target(archive: ParetoArchive, target: np.ndarray) -> int:
    """Index of the archive row whose pseudo-weights are L1-closest to the
    target; ties break toward the lowest index."""
    if len(archive) == 0:
        raise EmptyArchive("cannot select from an empty archive")
    target = np.asarray(target, dtype=float)
    weights = pseudo_weights(normalize_front(archive))
    distances = np.sum(np.abs(weights - target[None, :]), axis=1)
    return int(np.argmin(distances))  # argmin returns the first minimum


def hypervolume(points: np.ndarray, reference: np.ndarray) -> float:
    """Lebesgue measure of the region dominated by the points.

    Supports two or three objectives; points at or beyond the reference
    in any coordinate contribute nothing. Three objectives use the
    dimension sweep of Fonseca, Paquete & Lopez-Ibanez (CEC 2006): points
    enter in ascending z, the (x, y) staircase of the points seen so far
    is kept as two bisected lists (x ascending, y descending) whose
    dominated area is updated on each insert, and the volume adds
    area * (z - z_prev) between levels. Two objectives are one level of
    unit depth.
    """
    pts = np.asarray(points, dtype=float)
    ref = np.asarray(reference, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be a 2D array")
    if pts.shape[1] == 2:
        pts, ref = np.column_stack([pts, np.zeros(len(pts))]), np.append(ref, 1.0)
    elif pts.shape[1] != 3:
        raise ValueError("hypervolume supports 2 or 3 objectives")
    pts = pts[np.all(pts < ref[None, :], axis=1)]
    xs: list[float] = []
    ys: list[float] = []
    area = volume = z_prev = 0.0
    for x, y, z in pts[np.argsort(pts[:, 2], kind="stable")].tolist():
        volume += area * (z - z_prev)
        z_prev = z
        i = bisect.bisect_right(xs, x)
        if i and ys[i - 1] <= y:
            continue  # weakly dominated by a staircase point
        # steps j..k-1 lie at or beyond the new point in x and y: it replaces them
        j = k = bisect.bisect_left(xs, x)
        while k < len(xs) and ys[k] >= y:
            k += 1
        left, height = x, ys[j - 1] if j else float(ref[1])
        for q in range(j, k):
            area += (xs[q] - left) * (height - y)
            left, height = xs[q], ys[q]
        area += ((xs[k] if k < len(xs) else float(ref[0])) - left) * (height - y)
        xs[j:k], ys[j:k] = [x], [y]
    return float(volume + area * (ref[2] - z_prev)) if xs else 0.0


def write_archive_csv(path, archive: ParetoArchive) -> None:
    """Archive CSV (designs, objectives, normalized, pseudo-weights) + sidecar."""
    path = Path(path)
    header = list(DESIGN_FIELDS) + list(OBJECTIVE_FIELDS) \
        + list(NORMALIZED_FIELDS) + list(PSEUDO_WEIGHT_FIELDS)
    rows = []
    if len(archive) > 0:
        normalized = normalize_front(archive)
        rows = np.hstack([archive.designs, archive.objectives,
                          normalized, pseudo_weights(normalized)])
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{float(v):.17g}" for v in row])
    sidecar = {
        "count": len(archive),
        "objectives": list(OBJECTIVE_FIELDS),
        "ideal": [float(v) for v in archive.ideal] if len(archive) else None,
        "nadir": [float(v) for v in archive.nadir] if len(archive) else None,
    }
    sidecar_path(path).write_text(json.dumps(sidecar, indent=2) + "\n")


def sidecar_path(csv_path) -> Path:
    csv_path = Path(csv_path)
    return csv_path.with_suffix(csv_path.suffix + ".meta.json")


def read_archive_csv(path) -> ParetoArchive:
    """Read an archive CSV back in file row order; only the design and
    objective columns matter.

    Raises:
        ValueError: naming the first row (0-based) that is shorter than the
            header, holds a non-finite value or is dominated by another row.
    """
    path = Path(path)
    columns = (*DESIGN_FIELDS, *OBJECTIVE_FIELDS)
    with path.open(newline="") as handle:
        reader = csv.DictReader(handle)
        missing = [c for c in columns if c not in (reader.fieldnames or [])]
        if missing:
            raise ValueError(f"archive CSV missing columns: {', '.join(missing)}")
        rows = []
        for i, row in enumerate(reader):
            cells = [row[c] for c in columns]
            if None in cells:  # DictReader fills absent fields with None
                raise ValueError(f"{path}: row {i} has fewer fields than the header")
            rows.append([float(v) for v in cells])
    values = np.array(rows, dtype=float).reshape(len(rows), len(columns))
    non_finite = np.flatnonzero(~np.all(np.isfinite(values), axis=1))
    if non_finite.size:
        raise ValueError(f"{path}: row {non_finite[0]} holds a non-finite value")
    archive = ParetoArchive(designs=values[:, :len(DESIGN_FIELDS)],
                            objectives=values[:, len(DESIGN_FIELDS):])
    dominated = np.flatnonzero(dominated_mask(archive.objectives))
    if dominated.size:
        raise ValueError(f"{path}: row {dominated[0]} is dominated by another row")
    return archive
