"""Periodic colored tilings: fundamental block, lattice, point coloring, JSON I/O."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidTilingError, RangeError
from .geom import (
    EPS_GEOM,
    ConvexPolygon,
    convex_intersection_area,
    edge_distances,
    polygon_area,
    polygon_distances,
)

COLORS = ("red", "orange", "green", "blue", "yellow", "turquoise")

# boundary points get the highest-priority incident color (red shapes first)
DEFAULT_PRIORITY = ("red", "orange", "green", "blue", "yellow", "turquoise")

# point location uses a uniform grid of LOCATE_GRID x LOCATE_GRID buckets over
# fractional lattice coordinates (Edahiro, Kokubo and Asano, ACM TOG 3(2),
# 1984) and works through LOCATE_CHUNK points at a time to bound temporaries
LOCATE_GRID = 64
LOCATE_CHUNK = 1 << 16

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


def _box_gap(lo, hi, lo2, hi2):
    """Distances between the boxes [lo, hi] and [lo2, hi2]; 0 where they meet."""
    gap = np.maximum(0.0, np.maximum(lo2 - hi, lo - hi2))
    return np.hypot(gap[..., 0], gap[..., 1])


@dataclass(frozen=True)
class ColoringType:
    """Avoided distance per color; color i must not realize distances[i]."""

    distances: dict

    @classmethod
    def unit_except(cls, red: float) -> "ColoringType":
        """Five colors avoiding unit distance, red avoiding `red`."""
        d = {c: 1.0 for c in COLORS}
        d["red"] = float(red)
        return cls(d)

    def __post_init__(self):
        if not all(math.isfinite(v) and v > 0 for v in self.distances.values()):
            raise ValueError("avoided distances must be finite and positive")


class _Locator(NamedTuple):
    """Tiling._build_locator's tables."""

    L: np.ndarray             # lattice vectors as columns
    Linv: np.ndarray
    candidates: list          # (translate, rank) of each listed translate
    listed: list              # per candidate, a bool mask over the buckets
    bucket_rank: np.ndarray   # rank of each resolved bucket, else len(priority)


class Tiling:
    """Colored polygons of one fundamental block plus two lattice vectors."""

    def __init__(self, cells, v1, v2, priority=DEFAULT_PRIORITY):
        self.cells = [(poly, str(color)) for poly, color in cells]
        # per-cell data, with the vertices padded as geom.polygon_distances takes them
        polys = [p.vertices for p, _ in self.cells]
        m = max(map(len, polys), default=3)
        pv = np.array([np.vstack([v, v[[0] * (m - len(v))]]) for v in polys]).reshape(-1, m, 2)
        self.padded_vertices = pv
        self._box_lo, self._box_hi = pv.min(axis=1), pv.max(axis=1)
        self._centers = np.array([v.mean(axis=0) for v in polys])
        self._areas = [polygon_area(p) for p, _ in self.cells]
        diff = pv[:, :, None] - pv[:, None]
        self._diams = np.sqrt((diff ** 2).sum(axis=3)).max(axis=(1, 2))
        self.v1 = np.asarray(v1, dtype=float)
        self.v2 = np.asarray(v2, dtype=float)
        self.priority = tuple(priority)
        unknown = {c for _, c in self.cells} - set(self.priority)
        if unknown:
            raise InvalidTilingError(f"cell colors {sorted(unknown)} are not in the priority")
        if abs(self.cell_area()) <= 0:
            raise InvalidTilingError("lattice vectors are linearly dependent")
        self._locator = None

    def cell_area(self) -> float:
        return abs(float(self.v1[0] * self.v2[1] - self.v1[1] * self.v2[0]))

    def block_area(self) -> float:
        return sum(self._areas)

    def translate_pairs(self, pi, pj, pad):
        """The candidate translate pairs of the cell pairs (pi[k], pj[k]).

        For each pair (i, j) of the integer arrays pi, pj and the matching
        entry of `pad` (a scalar or one per pair), every offset (a, b) with
        |a v1 + b v2| <= pad + diam_i + diam_j + |c_i - c_j|, c being a
        cell's vertex mean: since
        dist(P_i, P_j + off) >= |off| - |c_i - c_j| - diam_i - diam_j, the
        offsets left out keep the two cells more than pad apart. Returns the
        integer arrays i, j, a, b, ordered by pair and then lexicographically
        by offset, and the distance between the bounding box of cell i and
        that of cell j moved by a v1 + b v2.
        """
        dc = self._centers[pi] - self._centers[pj]
        shift = np.sqrt(np.vecdot(dc, dc))
        radius = np.asarray(pad, dtype=float) + self._diams[pi] + self._diams[pj] + shift
        a, b, length = _lattice_offsets(self.v1, self.v2, float(radius.max(initial=0.0)))
        pair, k = np.nonzero(length[None, :] <= radius[:, None])
        i, j, a, b = pi[pair], pj[pair], a[k], b[k]
        off = a[:, None] * self.v1 + b[:, None] * self.v2
        lo, hi = self._box_lo, self._box_hi
        return i, j, a, b, _box_gap(lo[i], hi[i], lo[j] + off, hi[j] + off)

    def translates_meeting(self, lo, hi, pad):
        """Integer arrays cell, a, b of every cell translate whose bounding box
        comes within `pad` of the box [lo, hi], ordered by cell and offset.

        The offsets come from _lattice_offsets on a disk around the lattice
        point nearest the box, wide enough for the farthest cell box, so
        MAX_OFFSETS bounds the query wherever the box lies.
        """
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        near = np.rint(np.linalg.solve(np.column_stack([self.v1, self.v2]), (lo + hi) / 2))
        # cell box centres seen from the box centre, moved by near
        rel = (self._box_lo + self._box_hi - lo - hi) / 2 + near @ np.array([self.v1, self.v2])
        reach = np.hypot(*rel.T) + np.hypot(*(self._box_hi - self._box_lo).T) / 2
        a, b, _ = _lattice_offsets(self.v1, self.v2, pad + np.hypot(*(hi - lo)) / 2 + reach.max())
        a, b = a + int(near[0]), b + int(near[1])
        off = a[:, None] * self.v1 + b[:, None] * self.v2
        # moved box corners are the moved vertices' extremes: rounding is
        # monotone; one cell at a time keeps the temporaries to one per offset
        k = [np.flatnonzero(_box_gap(lo, hi, box_lo + off, box_hi + off) <= pad)
             for box_lo, box_hi in zip(self._box_lo, self._box_hi)]
        cell = np.repeat(np.arange(len(k)), [len(x) for x in k])
        k = np.concatenate(k)
        return cell, a[k], b[k]

    def validate(self, eps: float = EPS_GEOM) -> None:
        """Check the partition invariants; raise InvalidTilingError on failure.

        The block must have the lattice cell's area, and no two cell
        translates may overlap. Cells i <= j are compared at every offset
        that can bring them within distance 0 (see translate_pairs), but
        only where their bounding boxes meet are they clipped.
        """
        if abs(self.block_area() - self.cell_area()) > eps:
            raise InvalidTilingError(f"block area {self.block_area()} != lattice cell area "
                                     f"{self.cell_area()}")
        pi, pj, pa, pb, gap = self.translate_pairs(*np.triu_indices(len(self.cells)), 0.0)
        meet = (gap <= 0.0) & ~((pi == pj) & (pa == 0) & (pb == 0))
        for i, j, a, b in zip(*(x[meet].tolist() for x in (pi, pj, pa, pb))):
            q = self.cells[j][0].translated(a * self.v1 + b * self.v2)
            if convex_intersection_area(self.cells[i][0], q) > OVERLAP_AREA_TOL:
                raise InvalidTilingError(f"cells {i} and {j} overlap")

    # --- point coloring -------------------------------------------------

    def _build_locator(self):
        """Cell translates covering the base lattice parallelogram, bucketed,
        and the rank of every bucket that one cell holds whole.

        Each translate is kept as a polygon with its priority rank. It is
        listed in every bucket of a LOCATE_GRID x LOCATE_GRID grid over
        fractional lattice coordinates that its fractional bounding box meets
        once widened by the reach of the EPS_GEOM boundary test, so a bucket
        lists every translate that can contain or touch a point in it.

        A listed translate is inside a bucket when all four of the bucket's
        corners lie more than 2 EPS_GEOM inside it, and outside when one of
        its edges has all four corners more than 2 EPS_GEOM beyond it. A
        bucket is resolved when every translate it lists is inside or
        outside and at least one is inside; its rank is then the least rank
        of the inside ones, and unresolved buckets hold len(priority).
        """
        L = np.column_stack([self.v1, self.v2])
        Linv = np.linalg.inv(L)
        corners = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float) @ L.T
        base = ConvexPolygon(corners)
        g = LOCATE_GRID
        nc = len(self.priority)
        # a Euclidean step of length r moves fractional coordinate k by at
        # most r * |Linv[k]|
        frac_per_length = np.hypot(Linv[:, 0], Linv[:, 1])
        # the corners of bucket (i, j) are grid points (i + di, j + dj)
        corner_step = np.array([[0, 0], [1, 0], [0, 1], [1, 1]])
        bucket_rank = np.full(g * g, nc, dtype=np.intp)
        mixed = np.zeros(g * g, dtype=bool)
        candidates, listed = [], []
        cell, a, b = self.translates_meeting(corners.min(axis=0), corners.max(axis=0), EPS_GEOM)
        off = a[:, None] * self.v1 + b[:, None] * self.v2
        gap, _ = polygon_distances(self.padded_vertices[cell] + off[:, None], base.vertices[None])
        for k, o in zip(cell[gap <= EPS_GEOM].tolist(), off[gap <= EPS_GEOM]):
            t, color = self.cells[k][0].translated(o), self.cells[k][1]
            # the points passing the boundary test (every signed edge distance
            # >= -EPS_GEOM) form the polygon grown by EPS_GEOM along each edge
            # normal; its corner where the boundary turns by phi lies
            # EPS_GEOM / cos(phi / 2) out
            u = t.edge_vectors / t.edge_lengths[:, None]
            cos_turn = (u * np.roll(u, 1, axis=0)).sum(axis=1)
            reach = EPS_GEOM * float(np.sqrt(2.0 / (1.0 + cos_turn)).max())
            # doubled so that rounding in either coordinate system
            # cannot move a touching point outside the listed buckets
            margin = 2.0 * reach * frac_per_length
            f = t.vertices @ Linv.T
            lo = np.clip(np.floor((f.min(axis=0) - margin) * g), 0, g - 1).astype(int)
            hi = np.clip(np.floor((f.max(axis=0) + margin) * g), 0, g - 1).astype(int)
            buckets = np.zeros((g, g), dtype=bool)
            buckets[lo[0]:hi[0] + 1, lo[1]:hi[1] + 1] = True
            r = self.priority.index(color)
            candidates.append((t, r))
            listed.append(buckets.ravel())
            # signed edge distances at the corners of the listed buckets,
            # shape (bucket, corner, edge)
            ij = np.argwhere(buckets)
            grid_pts = (ij[:, None, :] + corner_step).reshape(-1, 2) / g
            dist = edge_distances(grid_pts @ L.T, t).reshape(len(ij), 4, -1)
            inside = (dist > 2 * EPS_GEOM).all(axis=(1, 2))
            outside = (dist < -2 * EPS_GEOM).all(axis=1).any(axis=1)
            idx = ij[:, 0] * g + ij[:, 1]
            mixed[idx[~inside & ~outside]] = True
            bucket_rank[idx[inside]] = np.minimum(bucket_rank[idx[inside]], r)
        bucket_rank[mixed] = nc
        self._locator = _Locator(L, Linv, candidates, listed, bucket_rank)
        return self._locator

    def rank_at_many(self, pts: np.ndarray):
        """Priority ranks of many points at once.

        Returns (ranks, interior): indices into `priority` of the points'
        colors and a bool mask marking points strictly interior to their cell
        (by EPS_GEOM). A point inside some cell takes the highest-priority
        color among the cells containing it; a boundary point, among the cells
        it touches.

        A point in a resolved bucket (see _build_locator) takes the bucket's
        rank and is interior. That is the answer the per-point test gives it:
        a signed edge distance is affine in the point and a bucket is convex,
        so over the bucket it lies between its values at the four corners.
        Every point of the bucket is thus more than 2 EPS_GEOM inside each
        inside translate, and more than 2 EPS_GEOM beyond an edge of each
        outside one. The per-point test asks only for EPS_GEOM, and the
        other EPS_GEOM is far more than the rounding of `frac @ L.T` and of
        edge_distances: about 1e-15 for cells and lattice vectors of size
        near 1, growing in proportion to their size. So ranks and masks are
        the same bits as the per-point test's, overlapping cells included.

        The other points are located LOCATE_CHUNK at a time, each tested
        only against the translates listed in its bucket.
        """
        pts = np.asarray(pts, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError(f"points must have shape (n, 2), got {pts.shape}")
        if self._locator is None:
            self._build_locator()
        L, Linv, candidates, listed, bucket_rank = self._locator
        frac = pts @ Linv.T
        if not np.isfinite(frac).all():
            raise InvalidTilingError("point not covered by any cell translate")
        frac -= np.floor(frac)
        g = LOCATE_GRID
        ij = np.minimum((frac * g).astype(np.intp), g - 1)
        bucket = ij[:, 0] * g + ij[:, 1]
        nc = len(self.priority)
        ranks = bucket_rank[bucket]
        interior = ranks < nc
        slow = np.flatnonzero(~interior)
        base = frac[slow] @ L.T
        for start in range(0, len(slow), LOCATE_CHUNK):
            chunk = slow[start:start + LOCATE_CHUNK]
            p, bk = base[start:start + LOCATE_CHUNK], bucket[chunk]
            interior_rank = np.full(len(p), nc, dtype=np.intp)
            boundary_rank = np.full(len(p), nc, dtype=np.intp)
            for (t, r), in_bucket in zip(candidates, listed):
                sel = np.flatnonzero(in_bucket[bk])
                mindist = edge_distances(p[sel], t).min(axis=1)
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
        def fmt(x):
            return float(f"{x:.17g}")

        doc = {
            "lattice": [[fmt(self.v1[0]), fmt(self.v1[1])],
                        [fmt(self.v2[0]), fmt(self.v2[1])]],
            "cells": [
                {"color": color, "vertices": [[fmt(x), fmt(y)] for x, y in poly.vertices]}
                for poly, color in self.cells
            ],
            "priority": list(self.priority),
        }
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "Tiling":
        doc = json.loads(text)
        cells = [(ConvexPolygon(np.array(c["vertices"], dtype=float)), c["color"])
                 for c in doc["cells"]]
        return cls(cells, doc["lattice"][0], doc["lattice"][1], tuple(doc["priority"]))
