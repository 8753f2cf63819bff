"""Periodic colored tilings: fundamental block, lattice, point coloring, JSON I/O."""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, InvalidTilingError, RangeError
from .geom import EPS_GEOM, convex_cells, convex_intersection_area

# the colors, highest priority first: a boundary point gets the first incident one
COLORS = ("red", "orange", "green", "blue", "yellow", "turquoise")

# Tiling.from_points' length tolerance; roundoff is about 1e-16, so it catches a wrong vertex only
LENGTH_TOL = 1e-10

# two cells overlap when their intersection has more than this area
OVERLAP_AREA_TOL = 1e-12

# the most lattice offsets one neighbourhood may hold; a larger radius raises
# RangeError instead of filling memory
MAX_OFFSETS = 1 << 20


def _lattice_offsets(v1: np.ndarray, v2: np.ndarray, radius: float):
    """Integer arrays (a, b) of every offset with |a v1 + b v2| <= radius, in
    lexicographic order.

    Row a of the disk is the b-interval of half-width
    sqrt(|v2|^2 r^2 - a^2 det^2) / |v2|^2 centred on -a (v1.v2) / |v2|^2, and
    rows with |a| > r |v2| / |det| are empty, so memory grows with the rows
    and offsets returned, not with a bounding square.
    """
    g22 = float(v2 @ v2)
    det = abs(float(v1[0] * v2[1] - v1[1] * v2[0]))
    extent = radius * math.sqrt(g22) / det
    if not 2 * extent + 3 <= MAX_OFFSETS:
        raise RangeError(f"lattice neighbourhood of radius {radius} is too large")
    a_max = math.floor(extent) + 1
    a = np.arange(-a_max, a_max + 1)
    centre = -a * float(v1 @ v2) / g22
    half = np.sqrt(np.maximum(0.0, g22 * radius ** 2 - (a * det) ** 2)) / g22
    # one spare b at each end absorbs rounding; the exact test below decides
    lo = np.floor(centre - half).astype(np.int64) - 1
    hi = np.ceil(centre + half).astype(np.int64) + 1
    count = hi - lo + 1
    total = int(count.sum())
    if total > MAX_OFFSETS:
        raise RangeError(f"lattice neighbourhood of radius {radius} is too large")
    # row a's offsets lo, ..., hi start at entry cumsum(count) - count
    a = np.repeat(a, count)
    b = np.arange(total) - np.repeat(np.cumsum(count) - count - lo, count)
    # the offsets' lengths, from vectors made coordinates first and in place,
    # so that at most five values per offset are held at once, a and b among them
    xy = v1[:, None] * a
    for k in range(2):
        xy[k] += v2[k] * b
    length = np.vecdot(xy, xy, axis=0)
    del xy
    keep = np.sqrt(length, out=length) <= radius
    return a[keep], b[keep]


@lru_cache(maxsize=None)
def _name_table(rows: tuple, pairs: tuple) -> tuple:
    """Tiling.from_points' names resolved once per table: the distinct names' base points, the
    moved ones' indices and moves a, b as columns, and the rows and pairs as indices."""
    names = list(dict.fromkeys(n for row in [r for _, r in rows] + list(pairs) for n in row))
    step = {"+v1": (1, 0), "-v1": (-1, 0), "+v2": (0, 1), "-v2": (0, -1)}
    split = [re.split(r"(?=[+-])", n) for n in names]
    moves = np.array([np.sum([(0, 0)] + [step[m] for m in ms], axis=0) for _, *ms in split])
    moved = np.flatnonzero(moves.any(axis=1))
    return ([base for base, *_ in split], moved, *moves[moved].T[:, :, None],
            [np.array([*map(names.index, r)]) for _, r in rows],
            np.array([[*map(names.index, p)] for p in pairs], dtype=np.intp).reshape(-1, 2).T)


@dataclass(frozen=True)
class ColoringType:
    """Avoided distance per color; color i must not realize distances[i]."""

    distances: dict

    @classmethod
    def unit_except(cls, red: float) -> "ColoringType":
        """Five colors avoiding unit distance, red avoiding `red`."""
        return cls({c: 1.0 for c in COLORS} | {"red": float(red)})

    def __post_init__(self):
        if not all(math.isfinite(v) and v > 0 for v in self.distances.values()):
            raise ValueError("avoided distances must be finite and positive")


class Tiling:
    """Colored polygons of one fundamental block plus two lattice vectors."""

    def __init__(self, cells, v1, v2, priority=COLORS):
        """cells: (vertices, color) pairs, the vertices a ConvexPolygon or an
        (n, 2) array; geom.convex_cells checks them all at once."""
        cells = list(cells)
        polys, pv, areas = convex_cells([getattr(p, "vertices", p) for p, _ in cells])
        self.cells = [(poly, str(color)) for poly, (_, color) in zip(polys, cells)]
        # per-cell data: the vertices padded as geom.polygon_distances takes
        # them, and the bounding boxes with their centres and diagonals
        self.padded_vertices = pv
        self.box_lo, self.box_hi = pv.min(axis=1), pv.max(axis=1)
        self._box_centres = (self.box_lo + self.box_hi) / 2
        self._box_diags = np.hypot(*(self.box_hi - self.box_lo).T)
        self._areas = areas.tolist()
        self.v1, self.v2 = np.asarray(v1, dtype=float), np.asarray(v2, dtype=float)
        if not (np.isfinite(self.v1).all() and np.isfinite(self.v2).all()):
            raise InvalidTilingError(f"lattice vectors {v1}, {v2} must be finite")
        self.priority = tuple(priority)
        unknown = {c for _, c in self.cells} - set(self.priority)
        if unknown:
            raise InvalidTilingError(f"cell colors {sorted(unknown)} are not in the priority")
        if abs(self.cell_area()) <= 0:
            raise InvalidTilingError("lattice vectors are linearly dependent")
        self._L = np.column_stack([self.v1, self.v2])
        self._Linv = np.linalg.inv(self._L)
        self._locator = None

    def cell_area(self) -> float:
        return abs(float(self.v1[0] * self.v2[1] - self.v1[1] * self.v2[0]))

    def block_area(self) -> float:
        return sum(self._areas)

    def translates_near(self, lo, hi, pad, cells):
        """Integer arrays row, a, b: for each row k, every offset (a, b) at
        which the bounding box of cell cells[k], moved by a v1 + b v2, comes
        within pad[k] (or a scalar pad) of the box [lo[k], hi[k]], in row
        order and then lexicographically.

        Such a moved box has its centre within pad + both half diagonals of
        [lo[k], hi[k]]'s centre. So the offsets lie in the disk of that
        radius plus |c - n| around n, the lattice point nearest the
        difference c of the two box centres. The coordinates in play are
        below |lo| + |hi| + |c|, and 16 eps of that bounds the rounding of c,
        n and the moved boxes. One disk from _lattice_offsets, of the largest
        radius, serves every row, so MAX_OFFSETS bounds the query wherever
        the boxes lie.
        """
        lo, hi = (np.asarray(x, dtype=float).reshape(-1, 2) for x in (lo, hi))
        pad, cells = np.asarray(pad, dtype=float).reshape(-1, 1), np.asarray(cells)
        c = (lo + hi) / 2 - self._box_centres[cells]
        n = np.rint(c @ self._Linv.T)
        radius = pad[:, 0] + (np.hypot(*(hi - lo).T) + self._box_diags[cells]) / 2 \
            + np.hypot(*(c - n @ self._L.T).T)
        size = (abs(lo) + abs(hi) + abs(c)).max(initial=0.0)
        radius = radius.max(initial=0.0) + 16 * np.finfo(float).eps * size
        a, b = _lattice_offsets(self.v1, self.v2, float(radius))
        # the moved boxes, coordinates first, and their gaps, 0 where the boxes meet, made
        # in place so that few (row, offset) arrays are held; n holds integers, so a + n rounds
        # once, as the integer sum does, and moved box corners are the moved vertices' extremes
        lo2 = self.v1[:, None, None] * (a.astype(float) + n[:, :1])
        lo2 += self.v2[:, None, None] * (b.astype(float) + n[:, 1:])
        hi2 = lo2 + self.box_hi.T[:, cells, None]
        lo2 += self.box_lo.T[:, cells, None]
        gap = np.maximum(np.subtract(lo2, hi.T[:, :, None], out=lo2),
                         np.subtract(lo.T[:, :, None], hi2, out=hi2), out=lo2)
        del hi2
        row, k = np.nonzero(np.hypot(*np.maximum(gap, 0.0, out=gap)) <= pad)
        n = n.astype(np.int64)
        return row, a[k] + n[row, 0], b[k] + n[row, 1]

    def validate(self) -> None:
        """Check the partition invariants; raise InvalidTilingError on failure.

        The block must have the lattice cell's area, and no two cell
        translates may overlap by more than OVERLAP_AREA_TOL. Cells i <= j are
        clipped at every offset where their bounding boxes meet, in the order
        of translates_near, and the first overlap raises. Each pair is clipped
        about cell i's vertex 0, so its rounding is that of cells near the
        origin wherever the block lies.
        """
        if abs(self.block_area() - self.cell_area()) > EPS_GEOM:
            raise InvalidTilingError(f"block area {self.block_area()} != lattice cell area "
                                     f"{self.cell_area()}")
        pi, pj = np.triu_indices(len(self.cells))
        row, pa, pb = self.translates_near(self.box_lo[pi], self.box_hi[pi], 0.0, pj)
        pi, pj = pi[row], pj[row]
        meet = ~((pi == pj) & (pa == 0) & (pb == 0))
        pi, pj, pa, pb = pi[meet], pj[meet], pa[meet], pb[meet]
        origin = self.padded_vertices[:, 0]
        off = pa[:, None] * self.v1 + pb[:, None] * self.v2 + (origin[pj] - origin[pi])
        local = [(p.vertices - p.vertices[0]).tolist() for p, _ in self.cells]
        for i, j, (dx, dy) in zip(pi.tolist(), pj.tolist(), off.tolist()):
            moved = [(x + dx, y + dy) for x, y in local[j]]
            if convex_intersection_area(local[i], moved) > OVERLAP_AREA_TOL:
                raise InvalidTilingError(f"cells {i} and {j} overlap")

    # --- point coloring -------------------------------------------------

    def rank_at_many(self, pts: np.ndarray):
        """Priority ranks of many points at once.

        Returns (ranks, interior): indices into `priority` of the points'
        colors and a bool mask marking points strictly interior to their cell
        (by EPS_GEOM). A point inside some cell takes the highest-priority
        color among the cells containing it; a boundary point, among the cells
        it touches. locate.rank_at_many finds them.
        """
        from . import locate  # imported here: validate and verify locate no point
        return locate.rank_at_many(self, pts)

    def color_at_many(self, pts: np.ndarray):
        """Colors of many points at once.

        Returns (colors, interior): an object array of color names and a bool
        mask marking points strictly interior to their cell (by EPS_GEOM).
        """
        ranks, interior = self.rank_at_many(pts)
        return np.array(self.priority, dtype=object)[ranks], interior

    def color_at(self, pt) -> str:
        colors, _ = self.color_at_many(np.asarray(pt, dtype=float)[None, :])
        return colors[0]

    # --- serialization --------------------------------------------------

    def to_json(self) -> str:
        def fmt(point):
            return [float(f"{x:.17g}") for x in point]

        return json.dumps({
            "lattice": [fmt(self.v1), fmt(self.v2)],
            "cells": [{"color": color, "vertices": [fmt(v) for v in poly.vertices]}
                      for poly, color in self.cells],
            "priority": list(self.priority),
        }, indent=2)

    @classmethod
    def from_points(cls, pts: dict, rows, v1, v2, lengths) -> "Tiling":
        """Cells from a tuple of (color, vertex names) rows over the named points
        pts. The name "W3+v2-v1" is pts["W3"] + (v2 - v1), its moves summed into
        one offset a v1 + b v2. Once the cells are built, DomainError names the
        first (name, name, length) tuple of `lengths` off by more than LENGTH_TOL."""
        bases, moved, a, b, cell_index, (i, j) = _name_table(rows, tuple(s[:2] for s in lengths))
        at = np.array([pts[n] for n in bases], dtype=float)
        at[moved] += a * v1 + b * v2
        t = cls([(at[k], color) for k, (color, _) in zip(cell_index, rows)], v1, v2)
        ok = np.abs(np.hypot(*(at[i] - at[j]).T) - [s[2] for s in lengths]) <= LENGTH_TOL
        if not ok.all():
            raise DomainError("{}-{} is not of length {}".format(*lengths[np.argmin(ok)]))
        return t

    @classmethod
    def from_json(cls, text: str) -> "Tiling":
        doc = json.loads(text)
        cells = [(c["vertices"], c["color"]) for c in doc["cells"]]
        return cls(cells, doc["lattice"][0], doc["lattice"][1], tuple(doc["priority"]))
