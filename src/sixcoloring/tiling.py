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
)

# the colors, highest priority first: a boundary point gets the first incident one
COLORS = ("red", "orange", "green", "blue", "yellow", "turquoise")

# Tiling.from_points' length tolerance; roundoff is about 1e-16, so it catches a wrong vertex only
LENGTH_TOL = 1e-10

# point location looks a point up in one table over fractional lattice coordinates: a uniform
# grid of LOCATE_GRID x LOCATE_GRID buckets (Edahiro, Kokubo and Asano, ACM TOG 3(2), 1984),
# each split again LOCATE_REFINE x LOCATE_REFINE ways (Samet, 1990), and tests the points
# of sub-buckets that one cell does not hold against the lines that cross them, at most LOCATE_CHUNK
# line distances at a time; monte_carlo_check draws its sample LOCATE_CHUNK points at a time,
# so memory does not grow with n, and runs at most LOCATE_THREADS blocks at once
LOCATE_GRID = 64
LOCATE_REFINE = 8
LOCATE_CHUNK = 1 << 16
LOCATE_THREADS = 2

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


def _per_entry(pe: np.ndarray, n: int):
    """Pairs grouped by entry, pe their entries, at least one for each of n
    entries: each entry's pair indices (n, K), padded by repeating its last,
    and the mask of the real ones."""
    count = np.bincount(pe, minlength=n)
    j = np.arange(count.max(initial=1))
    return (np.cumsum(count) - count)[:, None] + np.minimum(j, count[:, None] - 1), \
        j < count[:, None]


def _refine(L, lines, rank, n, ij, R, ec, et, pe, pl):
    """One level of point location's classification, over the cells
    [i, i + 1] x [j, j + 1] / R of fractional lattice coordinates, (i, j)
    the columns of ij. Entry k lists translate et[k] in cell ec[k]; pair k
    gives entry pe[k] an edge, column pl[k] of `lines`. Pairs are grouped
    by entry, at least one each; an entry's other edges lie more than
    2 EPS_GEOM inside the whole cell.

    Cell c splits into n x n children, (u, w) at (c n + u) n + w. An edge's
    signed distance is affine, so over a child it is least and greatest at
    the corners picked by the signs of its steps along the axes. The edge
    crosses the child unless the least exceeds 2 EPS_GEOM; the translate is
    listed unless an edge's greatest is below -2 EPS_GEOM. Returns the
    children's ranks, the least of those listed if one is and no edge
    crosses, else rank[-1] plus the child's index among these mixed ones;
    and the next level's (ij, R, ec, et, pe, pl) for the mixed children,
    keeping per entry the edges that cross, or its first edge if none does.
    """
    nc, line = rank[-1], lines[:, pl]
    dist = line_distances(*L @ (ij[:, ec[pe]] / R), line)
    step = (np.outer(L[1], line[2]) - np.outer(L[0], line[3])) / (line[4] * (R * n))
    # along each axis, the change from the cell's corner to its children's, (pairs, n)
    along_i, along_j = step[..., None] * np.arange(n)
    low = 2 * EPS_GEOM - dist - np.minimum(step, 0).sum(axis=0)
    high = -2 * EPS_GEOM - dist - np.maximum(step, 0).sum(axis=0)
    crossing = (along_i[:, :, None] <= (low[:, None] - along_j)[:, None]).reshape(len(pe), -1)
    beyond = (along_i[:, :, None] < (high[:, None] - along_j)[:, None]).reshape(len(pe), -1)
    dense, real = _per_entry(pe, len(ec))
    crossing = crossing[dense]  # (entry, pair, child)
    inside, listed = ~crossing.any(axis=1), ~beyond[dense].any(axis=1)
    out = np.full(ij.shape[1] * n * n, nc)
    e, k = np.nonzero(inside)
    np.minimum.at(out, ec[e] * (n * n) + k, rank[et[e]])
    e, k = np.nonzero(listed & ~inside)
    out[ec[e] * (n * n) + k] = nc
    mixed = out == nc
    order = np.cumsum(mixed) - 1  # a mixed child's index among them
    e, k = np.nonzero(listed & mixed.reshape(-1, n * n)[ec])
    cross = crossing[e, :, k] & real[e]
    cross[:, 0] |= ~cross.any(axis=1)
    q, j = np.nonzero(cross)
    c, u, w = np.unravel_index(np.flatnonzero(mixed), (ij.shape[1], n, n))
    return np.where(mixed, nc + order, out), (ij[:, c] * n + [u, w], R * n,
                                              order[ec[e] * (n * n) + k], et[e], q,
                                              pl[dense[e[q], j]])


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

    grid: int                 # LOCATE_GRID * LOCATE_REFINE at the build
    reach: float              # the largest |fractional coordinate| located
    cell_rank: np.ndarray     # rank of each resolved cell, else len(priority) + its row
    table: np.ndarray         # (rows, slots, lines): per translate, the lines crossing a row
    lines: np.ndarray         # (5, lines): x, y, dx, dy and length of each line
    line_rank: np.ndarray     # the rank of each line's translate


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

    def _build_locator(self):
        """The point locator's tables: one table of cell ranks, and the lines
        crossing the cells left mixed.

        The table's (g s) x (g s) cells, g = LOCATE_GRID and s = LOCATE_REFINE,
        split the base lattice parallelogram in fractional lattice
        coordinates: g x g buckets, each split into s x s sub-buckets.
        _refine's rule builds it in three steps, g1 x g1, g / g1 x g / g1 and
        s x s, g1 the largest divisor of g up to its square root. Each step
        repeats the table onto the children, writes the children of the cells
        left mixed in place, and evaluates only the edges crossing the cell it
        splits, so each entry is a bucket or sub-bucket resolved or left mixed
        by one rule. A mixed entry holds len(priority) plus its index among
        those of its step; after the last step that index is its row of the
        table, a slot per translate it lists with the edges crossing it, or
        one if none does. rank_at_many gives the argument that makes it sound.
        """
        g, s, nc = LOCATE_GRID, LOCATE_REFINE, len(self.priority)
        L = self._L
        corners = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float) @ L.T
        cell, a, b = self.translates_near(corners.min(axis=0), corners.max(axis=0), EPS_GEOM,
                                          np.arange(len(self.cells)))
        off = a[:, None] * self.v1 + b[:, None] * self.v2
        # the translates' edges without the padding's, then a last line of
        # distance 0 everywhere, for the table's empty slots
        lines = edge_lines(self.padded_vertices[cell] + off[:, None])
        t, k = np.nonzero(lines[4] > 0)
        lines = np.c_[lines[:, t, k], [0, 0, 0, 0, 1]]
        rank = np.array([self.priority.index(self.cells[c][1]) for c in cell.tolist()] + [nc])
        # the whole parallelogram, one mixed cell, lists every translate with all its edges
        cell_rank = np.full((1, 1), nc, dtype=np.int32)
        level = np.zeros((2, 1), dtype=np.intp), 1, np.zeros_like(cell), np.arange(len(cell)), \
            t, np.arange(len(t))
        g1 = max(d for d in range(1, math.isqrt(g) + 1) if g % d == 0)
        for n in (g1, g // g1, s):
            (i, j), m = level[0], len(cell_rank)
            out, level = _refine(L, lines, rank, n, *level)
            cell_rank = np.repeat(np.repeat(cell_rank, n, 0), n, 1)
            cell_rank.reshape(m, n, m, n)[i, :, j] = out.reshape(-1, n, n)
        ij, _, row, _, pe, pl = level
        # a row's slots, each a translate's lines padded by repeating its last
        dense, _ = _per_entry(pe, len(row))
        order = np.argsort(row, kind="stable")
        count = np.bincount(row, minlength=ij.shape[1])
        slot = np.arange(len(row)) - np.repeat(np.cumsum(count) - count, count)
        table = np.full((ij.shape[1], count.max(initial=1), dense.shape[1]), len(t))
        table[row[order], slot] = pl[dense[order]]
        reach = EPS_GEOM / (4 * np.finfo(float).eps * (np.hypot(*self.v1) + np.hypot(*self.v2)))
        self._locator = _Locator(g * s, float(reach), cell_rank.ravel(), table, lines,
                                 rank[np.r_[t, len(cell)]])
        return self._locator

    def rank_at_many(self, pts: np.ndarray):
        """Priority ranks of many points at once.

        Returns (ranks, interior): indices into `priority` of the points'
        colors and a bool mask marking points strictly interior to their cell
        (by EPS_GEOM). A point inside some cell takes the highest-priority
        color among the cells containing it; a boundary point, among the cells
        it touches.

        A point in a resolved cell of the rank table, a bucket or sub-bucket
        (see _build_locator), takes its rank and is interior; another point
        takes the per-point test over its cell's row of the table. Both give
        the per-point test's answer over every edge of every translate. A
        signed edge distance is affine in the point and a bucket is a
        parallelogram, so over the bucket it lies between its values at the
        four corners. A translate the point touches has every edge distance
        >= -EPS_GEOM there, so no edge has all four corners below -2 EPS_GEOM
        and it is listed at every level. In a resolved bucket every point is
        more than 2 EPS_GEOM inside each listed translate, and an edge left
        out of a row is more than 2 EPS_GEOM inside at the whole sub-bucket,
        so it changes neither comparison with +-EPS_GEOM. The per-point test
        asks only for EPS_GEOM, and the other EPS_GEOM is far more than the
        rounding of the matmuls `frac = Linv @ P` and `L @ frac`, of the
        corner values and of the distances: about 1e-15 for cells and lattice
        vectors of size near 1, growing in proportion to their size. So ranks
        and masks are the same bits as the per-point test's, overlapping
        cells included. Reducing a point to the parallelogram rounds it by
        about eps |frac| (|v1| + |v2|), so RangeError refuses points where
        that could exceed EPS_GEOM / 4.

        The points travel as (2, n) rows P = pts.T, coordinates first, so
        each numpy pass runs over n contiguous values instead of n pairs; a
        caller holding (2, n) rows passes their transpose, and no copy is
        made. The points left to the table take one gathered pass over their
        rows' lines, at most LOCATE_CHUNK line distances at a time.
        """
        pts = np.asarray(pts, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError(f"points must have shape (n, 2), got {pts.shape}")
        if self._locator is None:
            self._build_locator()
        g, reach, cell_rank, table, lines, line_rank = self._locator
        frac = self._Linv @ pts.T
        far = np.maximum(frac.max(initial=0.0), -frac.min(initial=0.0))  # NaN stays NaN
        if not far <= reach:
            if not np.isfinite(far):
                raise InvalidTilingError("point not covered by any cell translate")
            raise RangeError(f"fractional lattice coordinate {far:.6g} is beyond {reach:.6g}, "
                             "where reducing a point rounds by more than EPS_GEOM / 4")
        frac -= np.floor(frac)
        # the cast to intp truncates as astype does; no float temporary is made
        ij = np.multiply(frac, g, out=np.empty(frac.shape, dtype=np.intp), casting="unsafe")
        np.minimum(ij, g - 1, out=ij)
        cell = ij[0]
        cell *= g
        cell += ij[1]
        nc = len(self.priority)
        ranks = cell_rank[cell].astype(np.intp)
        interior = ranks < nc
        slow = np.flatnonzero(~interior)
        # only the other points' coordinates and rows outlive the lookup
        rows, base = ranks[slow] - nc, self._L @ frac[:, slow]
        del frac, ij, cell
        step = max(1, LOCATE_CHUNK // (table.shape[1] * table.shape[2]))
        for start in range(0, len(slow), step):
            chunk, idx = slow[start:start + step], table[rows[start:start + step]]
            x, y = base[:, start:start + step, None, None]
            mindist = line_distances(x, y, lines[:, idx]).min(axis=2)  # (point, slot)
            rank = line_rank[idx[..., 0]]
            interior_rank = np.where(mindist > EPS_GEOM, rank, nc).min(axis=1)
            boundary_rank = np.where(mindist >= -EPS_GEOM, rank, nc).min(axis=1)
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
