"""Periodic colored tilings: fundamental block, lattice, point coloring, JSON I/O."""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DomainError, InvalidTilingError, RangeError
from .geom import (
    EPS_GEOM,
    convex_cells,
    convex_intersection_area,
    edge_lines,
    line_distances,
    penetration_depths,
    polygon_distances,
)

# the colors, highest priority first: a boundary point gets the first incident one
COLORS = ("red", "orange", "green", "blue", "yellow", "turquoise")

# Tiling.from_points' length tolerance; roundoff is about 1e-16, so it catches a wrong vertex only
LENGTH_TOL = 1e-10

# point location uses a uniform grid of LOCATE_GRID x LOCATE_GRID buckets over fractional
# lattice coordinates (Edahiro, Kokubo and Asano, ACM TOG 3(2), 1984); its slow path, and
# monte_carlo_check's sample, go LOCATE_CHUNK points at a time, so memory does not grow with n;
# monte_carlo_check runs at most LOCATE_THREADS blocks at once, so it does not grow with the cores
LOCATE_GRID = 64
LOCATE_CHUNK = 1 << 16
LOCATE_THREADS = 2

# two cells overlap when their intersection has more than this area
OVERLAP_AREA_TOL = 1e-12

# the most lattice offsets one neighbourhood may hold; a larger radius raises
# RangeError instead of filling memory
MAX_OFFSETS = 1 << 20


def _lattice_offsets(v1: np.ndarray, v2: np.ndarray, radius: float):
    """Integer arrays (a, b) of every offset with |a v1 + b v2| <= radius, in
    lexicographic order, and the float array of those lengths.

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
    start = np.repeat(np.cumsum(count) - count, count)
    a, b = np.repeat(a, count), np.arange(total) - start + np.repeat(lo, count)
    vec = a[:, None] * v1 + b[:, None] * v2
    # np.vecdot reduces each row with the dot kernel np.linalg.norm uses on
    # one vector, so the lengths agree with it bit for bit
    length = np.sqrt(np.vecdot(vec, vec))
    keep = length <= radius
    return a[keep], b[keep], length[keep]


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


def _box_gap(lo, hi, lo2, hi2):
    """Distances between the boxes [lo, hi] and [lo2, hi2]; 0 where they meet."""
    gap = np.maximum(0.0, np.maximum(lo2 - hi, lo - hi2))
    return np.hypot(gap[..., 0], gap[..., 1])


def _at_all_corners(grid: np.ndarray) -> np.ndarray:
    """Bucket (i, j) of a bool array over grid points: whether it holds at all
    four of the bucket's corners, the grid points (i + di, j + dj)."""
    return grid[:-1, :-1] & grid[1:, :-1] & grid[:-1, 1:] & grid[1:, 1:]


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


class _Locator(NamedTuple):
    """Tiling._build_locator's tables."""

    L: np.ndarray             # lattice vectors as columns
    Linv: np.ndarray
    candidates: list          # (rank, geom.edge_lines) of each listed translate
    listed: list              # per candidate, a bool mask over the buckets
    bucket_rank: np.ndarray   # rank of each resolved bucket, else len(priority)


class Tiling:
    """Colored polygons of one fundamental block plus two lattice vectors."""

    def __init__(self, cells, v1, v2, priority=COLORS):
        """cells: (vertices, color) pairs, the vertices a ConvexPolygon or an
        (n, 2) array; geom.convex_cells checks them all at once."""
        cells = list(cells)
        polys, pv, counts, areas = convex_cells([getattr(p, "vertices", p) for p, _ in cells])
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
        a, b, _ = _lattice_offsets(self.v1, self.v2, float(radius))
        n = n.astype(np.int64)
        a, b = a + n[:, :1], b + n[:, 1:]
        off = a[..., None] * self.v1 + b[..., None] * self.v2
        # moved box corners are the moved vertices' extremes: rounding is monotone
        lo2, hi2 = self.box_lo[cells, None] + off, self.box_hi[cells, None] + off
        row, k = np.nonzero(_box_gap(lo[:, None], hi[:, None], lo2, hi2) <= pad)
        return row, a[row, k], b[row, k]

    def translates_meeting(self, lo, hi, pad):
        """Integer arrays cell, a, b of every cell translate whose bounding box
        comes within `pad` of the box [lo, hi], ordered by cell and offset.
        It asks translates_near one cell at a time, which keeps the
        temporaries to one per offset."""
        found = [self.translates_near(lo, hi, pad, [k])[1:] for k in range(len(self.cells))]
        cell = np.repeat(np.arange(len(found)), [len(a) for a, _ in found])
        return cell, *(np.concatenate(x) for x in zip(*found))

    def validate(self) -> None:
        """Check the partition invariants; raise InvalidTilingError on failure.

        The block must have the lattice cell's area, and no two cell
        translates may overlap by more than OVERLAP_AREA_TOL. Cells i <= j are
        compared at every offset where their bounding boxes meet (see
        translates_near). Their intersection lies in a slab as wide as their
        penetration depth, raised by 8 eps max(|x| + |y|) for rounding, and
        spans at most the smaller box diagonal across it. A pair whose area
        bound is at most OVERLAP_AREA_TOL / 2 cannot overlap: the other half
        covers the clip's own rounding, for cells of size near 1. Only the
        other pairs are clipped, in order.
        """
        if abs(self.block_area() - self.cell_area()) > EPS_GEOM:
            raise InvalidTilingError(f"block area {self.block_area()} != lattice cell area "
                                     f"{self.cell_area()}")
        pi, pj = np.triu_indices(len(self.cells))
        row, pa, pb = self.translates_near(self.box_lo[pi], self.box_hi[pi], 0.0, pj)
        pi, pj = pi[row], pj[row]
        meet = ~((pi == pj) & (pa == 0) & (pb == 0))
        pi, pj, pa, pb = pi[meet], pj[meet], pa[meet], pb[meet]
        p = self.padded_vertices[pi]
        q = self.padded_vertices[pj] + (pa[:, None] * self.v1 + pb[:, None] * self.v2)[:, None]
        size = np.maximum(abs(p).sum(axis=2).max(axis=1), abs(q).sum(axis=2).max(axis=1))
        depth = np.maximum(penetration_depths(p, q), 0.0) + 8 * np.finfo(float).eps * size
        clip = depth * np.minimum(self._box_diags[pi], self._box_diags[pj]) > OVERLAP_AREA_TOL / 2
        for i, j, a, b in zip(*(x[clip].tolist() for x in (pi, pj, pa, pb))):
            q = self.cells[j][0].translated(a * self.v1 + b * self.v2)
            if convex_intersection_area(self.cells[i][0], q) > OVERLAP_AREA_TOL:
                raise InvalidTilingError(f"cells {i} and {j} overlap")

    # --- point coloring -------------------------------------------------

    def _build_locator(self):
        """Cell translates covering the base lattice parallelogram, bucketed,
        and the rank of every bucket that one cell holds whole.

        Each translate is kept as a polygon with its priority rank, and its
        signed edge distances are taken once, at the (g + 1)^2 corners of a
        g x g grid of buckets over fractional lattice coordinates, g being
        LOCATE_GRID. A translate is inside a bucket when all four of the
        bucket's corners lie more than 2 EPS_GEOM inside it, and outside when
        one of its edges has all four corners more than 2 EPS_GEOM beyond it.
        A bucket lists every translate that is not outside it. It is resolved
        when every translate is inside or outside it and at least one is
        inside; its rank is then the least rank of the inside ones, and
        unresolved buckets hold len(priority). rank_at_many gives the
        argument that makes both sound.
        """
        L = self._L
        corners = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float) @ L.T
        g = LOCATE_GRID
        nc = len(self.priority)
        # grid point (i, j) at fractional coordinates (i / g, j / g)
        f = np.arange(g + 1) / g
        grid = np.stack(np.meshgrid(f, f, indexing="ij"), axis=-1).reshape(-1, 2) @ L.T
        bucket_rank = np.full((g, g), nc, dtype=np.intp)
        resolved = np.ones((g, g), dtype=bool)
        candidates, listed = [], []
        cell, a, b = self.translates_near(corners.min(axis=0), corners.max(axis=0), EPS_GEOM,
                                          np.arange(len(self.cells)))
        off = a[:, None] * self.v1 + b[:, None] * self.v2
        gap, _ = polygon_distances(self.padded_vertices[cell] + off[:, None], corners[None])
        for k, o in zip(cell[gap <= EPS_GEOM].tolist(), off[gap <= EPS_GEOM]):
            t, color = self.cells[k][0].translated(o), self.cells[k][1]
            r = self.priority.index(color)
            lines = edge_lines(t)
            dist = line_distances(grid[:, 0], grid[:, 1], lines).T.reshape(g + 1, g + 1, -1)
            inside = _at_all_corners((dist > 2 * EPS_GEOM).all(axis=2))
            outside = _at_all_corners(dist < -2 * EPS_GEOM).any(axis=2)
            candidates.append((r, lines))
            listed.append(~outside.ravel())
            resolved &= inside | outside
            bucket_rank[inside] = np.minimum(bucket_rank[inside], r)
        bucket_rank[~resolved] = nc
        self._locator = _Locator(L, self._Linv, candidates, listed, bucket_rank.ravel())
        return self._locator

    def rank_at_many(self, pts: np.ndarray):
        """Priority ranks of many points at once.

        Returns (ranks, interior): indices into `priority` of the points'
        colors and a bool mask marking points strictly interior to their cell
        (by EPS_GEOM). A point inside some cell takes the highest-priority
        color among the cells containing it; a boundary point, among the cells
        it touches.

        A point lists its bucket's translates (see _build_locator), and a
        point in a resolved bucket takes the bucket's rank and is interior.
        Both give the answer the per-point test gives it: a signed edge
        distance is affine in the point and a bucket is convex, so over the
        bucket it lies between its values at the four corners. A translate
        the point touches has every edge distance >= -EPS_GEOM there, so each
        edge has a corner above -2 EPS_GEOM and the translate is listed. In a
        resolved bucket every point is more than 2 EPS_GEOM inside each
        inside translate, and more than 2 EPS_GEOM beyond an edge of each
        outside one. The per-point test asks only for EPS_GEOM, and the
        other EPS_GEOM is far more than the rounding of the matmuls
        `frac = Linv @ P` and `L @ frac` and of line_distances: about 1e-15
        for cells and lattice vectors of size near 1, growing in proportion
        to their size. So ranks and masks are the same bits as the per-point
        test's, overlapping cells included.

        The points travel as (2, n) rows P = pts.T, coordinates first, so
        each numpy pass runs over n contiguous values instead of n pairs; a
        caller holding (2, n) rows passes their transpose, and no copy is
        made. The other points are located LOCATE_CHUNK at a time, each
        tested only against the translates listed in its bucket.
        """
        pts = np.asarray(pts, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError(f"points must have shape (n, 2), got {pts.shape}")
        if self._locator is None:
            self._build_locator()
        L, Linv, candidates, listed, bucket_rank = self._locator
        frac = Linv @ pts.T
        if not np.isfinite(frac).all():
            raise InvalidTilingError("point not covered by any cell translate")
        frac -= np.floor(frac)
        g = LOCATE_GRID
        # the cast to intp truncates as astype does; no float temporary is made
        ij = np.multiply(frac, g, out=np.empty(frac.shape, dtype=np.intp), casting="unsafe")
        np.minimum(ij, g - 1, out=ij)
        bucket = ij[0]
        bucket *= g
        bucket += ij[1]
        nc = len(self.priority)
        ranks = bucket_rank[bucket]
        interior = ranks < nc
        slow = np.flatnonzero(~interior)
        # only the other points' coordinates and buckets outlive the lookup
        base, slow_bucket = L @ frac[:, slow], bucket[slow]
        del frac, ij, bucket
        for start in range(0, len(slow), LOCATE_CHUNK):
            chunk = slow[start:start + LOCATE_CHUNK]
            p, bk = base[:, start:start + LOCATE_CHUNK], slow_bucket[start:start + LOCATE_CHUNK]
            interior_rank = np.full(len(chunk), nc, dtype=np.intp)
            boundary_rank = np.full(len(chunk), nc, dtype=np.intp)
            for (r, lines), in_bucket in zip(candidates, listed):
                sel = np.flatnonzero(in_bucket[bk])
                mindist = line_distances(p[0, sel], p[1, sel], lines).min(axis=0)
                hit = sel[mindist >= -EPS_GEOM]
                boundary_rank[hit] = np.minimum(boundary_rank[hit], r)
                inside = sel[mindist > EPS_GEOM]
                interior_rank[inside] = np.minimum(interior_rank[inside], r)
            interior[chunk] = interior_rank < nc
            ranks[chunk] = np.where(interior[chunk], interior_rank, boundary_rank)
        if np.any(ranks >= nc):
            raise InvalidTilingError("point not covered by any cell translate")
        return ranks, interior

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
