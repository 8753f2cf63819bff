"""Point location in a periodic tiling: the priority rank of the cell at each point.

One table over fractional lattice coordinates holds a rank per cell: a
uniform grid of LOCATE_GRID x LOCATE_GRID buckets (Edahiro, Kokubo and Asano,
ACM TOG 3(2), 1984), each split again LOCATE_REFINE x LOCATE_REFINE ways
(Samet, 1990). The points of sub-buckets that one cell does not hold are
tested against the lines that cross them, at most LOCATE_CHUNK line distances
at a time. Tiling.rank_at_many imports this module on first use, so a process
that only validates or verifies never loads it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import InvalidTilingError, RangeError
from .geom import EPS_GEOM, edge_lines, line_distances

# monte_carlo_check draws its sample LOCATE_CHUNK points at a time, so its memory does not grow with n
LOCATE_GRID = 64
LOCATE_REFINE = 8
LOCATE_CHUNK = 1 << 16


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


class _Locator(NamedTuple):
    """build's tables."""

    grid: int                 # LOCATE_GRID * LOCATE_REFINE at the build
    reach: float              # the largest |fractional coordinate| located
    cell_rank: np.ndarray     # rank of each resolved cell, else len(priority) + its row
    table: np.ndarray         # (rows, slots, lines): per translate, the lines crossing a row
    lines: np.ndarray         # (5, lines): x, y, dx, dy and length of each line
    line_rank: np.ndarray     # the rank of each line's translate


def build(tiling) -> _Locator:
    """The point locator's tables for a Tiling: one table of cell ranks, and
    the lines crossing the cells left mixed.

    The table's (g s) x (g s) cells, g = LOCATE_GRID and s = LOCATE_REFINE,
    split the base lattice parallelogram in fractional lattice coordinates:
    g x g buckets, each split into s x s sub-buckets. _refine's rule builds
    it in three steps, g1 x g1, g / g1 x g / g1 and s x s, g1 the largest
    divisor of g up to its square root. Each step repeats the table onto the
    children, writes the children of the cells left mixed in place, and
    evaluates only the edges crossing the cell it splits, so each entry is a
    bucket or sub-bucket resolved or left mixed by one rule. A mixed entry
    holds len(priority) plus its index among those of its step; after the
    last step that index is its row of the table, a slot per translate it
    lists with the edges crossing it, or one if none does. rank_at_many
    gives the argument that makes it sound.
    """
    g, s, nc = LOCATE_GRID, LOCATE_REFINE, len(tiling.priority)
    L = tiling._L
    corners = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float) @ L.T
    cell, a, b = tiling.translates_near(corners.min(axis=0), corners.max(axis=0), EPS_GEOM,
                                        np.arange(len(tiling.cells)))
    off = a[:, None] * tiling.v1 + b[:, None] * tiling.v2
    # the translates' edges without the padding's, then a last line of
    # distance 0 everywhere, for the table's empty slots
    lines = edge_lines(tiling.padded_vertices[cell] + off[:, None])
    t, k = np.nonzero(lines[4] > 0)
    lines = np.c_[lines[:, t, k], [0, 0, 0, 0, 1]]
    rank = np.array([tiling.priority.index(tiling.cells[c][1]) for c in cell.tolist()] + [nc])
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
    reach = EPS_GEOM / (4 * np.finfo(float).eps * (np.hypot(*tiling.v1) + np.hypot(*tiling.v2)))
    return _Locator(g * s, float(reach), cell_rank.ravel(), table, lines, rank[np.r_[t, len(cell)]])


def rank_at_many(tiling, pts: np.ndarray):
    """Tiling.rank_at_many's ranks and interior mask for the points pts
    (n, 2), from the tables of build, made on the first call and kept in
    tiling._locator.

    A point in a resolved cell of the rank table, a bucket or sub-bucket,
    takes its rank and is interior; another point takes the per-point test
    over its cell's row of the table. Both give the per-point test's answer
    over every edge of every translate. A signed edge distance is affine in
    the point and a bucket is a parallelogram, so over the bucket it lies
    between its values at the four corners. A translate the point touches
    has every edge distance >= -EPS_GEOM there, so no edge has all four
    corners below -2 EPS_GEOM and it is listed at every level. In a resolved
    bucket every point is more than 2 EPS_GEOM inside each listed translate,
    and an edge left out of a row is more than 2 EPS_GEOM inside at the whole
    sub-bucket, so it changes neither comparison with +-EPS_GEOM. The
    per-point test asks only for EPS_GEOM, and the other EPS_GEOM is far more
    than the rounding of the matmuls `frac = Linv @ P` and `L @ frac`, of the
    corner values and of the distances: about 1e-15 for cells and lattice
    vectors of size near 1, growing in proportion to their size. So ranks and
    masks are the same bits as the per-point test's, overlapping cells
    included. Reducing a point to the parallelogram rounds it by about
    eps |frac| (|v1| + |v2|), so RangeError refuses points where that could
    exceed EPS_GEOM / 4.

    The points travel as (2, n) rows P = pts.T, coordinates first, so each
    numpy pass runs over n contiguous values instead of n pairs; a caller
    holding (2, n) rows passes their transpose, and no copy is made. The
    points left to the table take one gathered pass over their rows' lines,
    at most LOCATE_CHUNK line distances at a time.
    """
    pts = np.asarray(pts, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"points must have shape (n, 2), got {pts.shape}")
    if tiling._locator is None:
        tiling._locator = build(tiling)
    g, reach, cell_rank, table, lines, line_rank = tiling._locator
    frac = tiling._Linv @ pts.T
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
    nc = len(tiling.priority)
    ranks = cell_rank[cell].astype(np.intp)
    interior = ranks < nc
    slow = np.flatnonzero(~interior)
    # only the other points' coordinates and rows outlive the lookup
    rows, base = ranks[slow] - nc, tiling._L @ frac[:, slow]
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
