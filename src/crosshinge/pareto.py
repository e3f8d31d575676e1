"""Pareto dominance, front normalization and pseudo-weight selection.

An archive holds mutually non-dominated (design, objectives) pairs
together with the componentwise best (ideal) and worst (nadir) objective
values, which normalize the front to the unit cube. Pseudo-weights
locate each solution's implicit objective weighting from its normalized
distance to the nadir point; selection picks the archive member whose
pseudo-weights are L1-closest to a requested target weighting.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
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
class ArchiveEntry:
    x: np.ndarray
    y: np.ndarray


@dataclass(frozen=True)
class ParetoArchive:
    """Mutually non-dominated entries in canonical (objective, design) order."""

    entries: tuple[ArchiveEntry, ...]

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def objectives(self) -> np.ndarray:
        return np.array([e.y for e in self.entries])

    @property
    def designs(self) -> np.ndarray:
        return np.array([e.x for e in self.entries])

    @property
    def ideal(self) -> np.ndarray:
        if not self.entries:
            raise EmptyArchive("empty archive has no ideal point")
        return self.objectives.min(axis=0)

    @property
    def nadir(self) -> np.ndarray:
        if not self.entries:
            raise EmptyArchive("empty archive has no nadir point")
        return self.objectives.max(axis=0)


def dominates(y: np.ndarray, y_other: np.ndarray) -> bool:
    """Pareto dominance: no worse in all objectives, better in at least one."""
    y = np.asarray(y, dtype=float)
    y_other = np.asarray(y_other, dtype=float)
    return bool(np.all(y <= y_other) and np.any(y < y_other))


def _canonical_sort(entries: list[ArchiveEntry]) -> tuple[ArchiveEntry, ...]:
    return tuple(sorted(entries, key=lambda e: (tuple(e.y), tuple(e.x))))


def _dedupe_objective_ties(entries: list[ArchiveEntry]) -> list[ArchiveEntry]:
    """Keep the lexicographically smallest design per exact objective vector."""
    best: dict[tuple, ArchiveEntry] = {}
    for e in entries:
        key = tuple(e.y)
        kept = best.get(key)
        if kept is None or tuple(e.x) < tuple(kept.x):
            best[key] = e
    return list(best.values())


def _entry_list(entries) -> list[ArchiveEntry]:
    return [
        e if isinstance(e, ArchiveEntry)
        else ArchiveEntry(x=np.asarray(e[0], dtype=float), y=np.asarray(e[1], dtype=float))
        for e in entries
    ]


def dominated_mask(objectives: np.ndarray) -> np.ndarray:
    """Boolean mask of rows dominated by some other row (chunked)."""
    ys = np.asarray(objectives, dtype=float)
    n = len(ys)
    out = np.zeros(n, dtype=bool)
    for start in range(0, n, 256):
        chunk = ys[start:start + 256]
        le = np.all(chunk[:, None, :] <= ys[None, :, :], axis=2)
        lt = np.any(chunk[:, None, :] < ys[None, :, :], axis=2)
        out |= np.any(le & lt, axis=0)
    return out


def nondominated_filter(entries) -> ParetoArchive:
    """Non-dominated subset of (design, objective) pairs.

    Accepts ArchiveEntry instances or (x, y) pairs. Exact duplicates in
    objective space are deduplicated by lexicographic design tie-break;
    the result is canonically ordered, so it is permutation invariant.
    """
    normalized = _dedupe_objective_ties(_entry_list(entries))
    if not normalized:
        return ParetoArchive(entries=())
    ys = np.array([e.y for e in normalized])
    dominated = dominated_mask(ys)
    keep = [e for e, d in zip(normalized, dominated) if not d]
    return ParetoArchive(entries=_canonical_sort(keep))


def archive_insert(archive: ParetoArchive, entries) -> ParetoArchive:
    """Insert new entries, keeping only the non-dominated set.

    Equivalent to nondominated_filter over the union, but only compares
    newcomers against the current front.
    """
    new = _dedupe_objective_ties(_entry_list(entries))
    if not new:
        return archive
    new = nondominated_filter(new).entries
    current = list(archive.entries)
    if not current:
        return ParetoArchive(entries=_canonical_sort(list(new)))
    cur_y = np.array([e.y for e in current])
    keep = np.ones(len(current), dtype=bool)
    added = []
    for e in new:
        # a stale (already removed) dominator implies a new dominator by
        # transitivity, so checking against the full original front is sound
        if np.any(np.all(cur_y <= e.y, axis=1) & np.any(cur_y < e.y, axis=1)):
            continue
        equal = keep & np.all(cur_y == e.y, axis=1)
        if np.any(equal):
            j = int(np.argmax(equal))
            if tuple(e.x) < tuple(current[j].x):
                keep[j] = False
                added.append(e)
            continue
        keep &= ~(np.all(e.y <= cur_y, axis=1) & np.any(e.y < cur_y, axis=1))
        added.append(e)
    survivors = [c for c, k in zip(current, keep) if k] + added
    return ParetoArchive(entries=_canonical_sort(survivors))


def normalize_front(archive: ParetoArchive):
    """Map archive objectives to the unit cube via ideal/nadir.

    Coordinates with nadir == ideal carry no information; they map to 0
    and are flagged in the returned mask.

    Returns:
        (normalized (n, m) array, degenerate (m,) bool mask)
    """
    if len(archive) == 0:
        raise EmptyArchive("cannot normalize an empty archive")
    ideal, nadir = archive.ideal, archive.nadir
    span = nadir - ideal
    degenerate = span <= 0.0
    safe = np.where(degenerate, 1.0, span)
    normalized = (archive.objectives - ideal) / safe
    normalized[:, degenerate] = 0.0
    return normalized, degenerate


def pseudo_weights(normalized: np.ndarray) -> np.ndarray:
    """Pseudo-weights from normalized objectives: w_i ~ (1 - y_i).

    Supports a single vector or a stack of rows; rows sum to one.

    Raises:
        DegenerateInput: if a row equals the nadir point (all ones).
    """
    y = np.asarray(normalized, dtype=float)
    single = y.ndim == 1
    rows = np.atleast_2d(y)
    distance = 1.0 - rows
    totals = distance.sum(axis=1)
    if np.any(totals <= 0.0):
        raise DegenerateInput("pseudo-weights undefined at the nadir point")
    weights = distance / totals[:, None]
    return weights[0] if single else weights


def select_by_target(archive: ParetoArchive, target: np.ndarray):
    """Archive entry whose pseudo-weights are L1-closest to the target.

    Ties break toward the lowest archive index.

    Returns:
        (index, entry)
    """
    if len(archive) == 0:
        raise EmptyArchive("cannot select from an empty archive")
    target = np.asarray(target, dtype=float)
    normalized, _ = normalize_front(archive)
    weights = pseudo_weights(normalized)
    distances = np.sum(np.abs(weights - target[None, :]), axis=1)
    index = int(np.argmin(distances))  # argmin returns the first minimum
    return index, archive.entries[index]


def _staircase_area(points: np.ndarray, reference: np.ndarray) -> float:
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
    """Lebesgue measure of the region dominated by the points.

    Supports two or three objectives; points at or beyond the reference
    in any coordinate contribute nothing.
    """
    pts = np.asarray(points, dtype=float)
    ref = np.asarray(reference, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be a 2D array")
    if pts.shape[1] == 2:
        return _staircase_area(pts, ref)
    if pts.shape[1] != 3:
        raise ValueError("hypervolume supports 2 or 3 objectives")
    inside = np.all(pts < ref[None, :], axis=1)
    pts = pts[inside]
    if pts.size == 0:
        return 0.0
    levels = np.unique(pts[:, 2])
    volume = 0.0
    for i, z in enumerate(levels):
        z_next = levels[i + 1] if i + 1 < len(levels) else ref[2]
        active = pts[pts[:, 2] <= z][:, :2]
        volume += _staircase_area(active, ref[:2]) * (z_next - z)
    return float(volume)


def write_archive_csv(path, archive: ParetoArchive) -> None:
    """Archive CSV (designs, objectives, normalized, pseudo-weights) + sidecar."""
    path = Path(path)
    header = list(DESIGN_FIELDS) + list(OBJECTIVE_FIELDS) \
        + list(NORMALIZED_FIELDS) + list(PSEUDO_WEIGHT_FIELDS)
    rows = []
    if len(archive) > 0:
        normalized, _ = normalize_front(archive)
        weights = pseudo_weights(normalized)
        for entry, norm, w in zip(archive.entries, normalized, weights):
            rows.append([*entry.x, *entry.y, *norm, *w])
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
    """Read an archive CSV back; only design and objective columns matter.

    Raises:
        ValueError: naming the first row (0-based) that holds a non-finite
            value or is dominated by another row.
    """
    path = Path(path)
    with path.open(newline="") as handle:
        reader = csv.DictReader(handle)
        missing = [c for c in (*DESIGN_FIELDS, *OBJECTIVE_FIELDS)
                   if c not in (reader.fieldnames or [])]
        if missing:
            raise ValueError(f"archive CSV missing columns: {', '.join(missing)}")
        entries = []
        for i, row in enumerate(reader):
            x = np.array([float(row[c]) for c in DESIGN_FIELDS])
            y = np.array([float(row[c]) for c in OBJECTIVE_FIELDS])
            if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
                raise ValueError(f"{path}: row {i} holds a non-finite value")
            entries.append(ArchiveEntry(x=x, y=y))
    archive = ParetoArchive(entries=tuple(entries))
    if entries:
        dominated = np.flatnonzero(dominated_mask(archive.objectives))
        if dominated.size:
            raise ValueError(f"{path}: row {dominated[0]} is dominated by another row")
    return archive
