"""Planar geometry kernel: convex polygons, translation, distance queries.

All angles are in degrees; conversion to radians happens inside the
trigonometric helpers.  Coordinates are doubles; EPS_GEOM is the global
geometric tolerance.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

EPS_GEOM = 1e-9


def dsin(a: float) -> float:
    return math.sin(math.radians(a))


def dcos(a: float) -> float:
    return math.cos(math.radians(a))


def dirvec(a: float) -> np.ndarray:
    """Unit vector at angle `a` degrees from the positive x axis."""
    return np.array([dcos(a), dsin(a)])


# convex_cells' messages, in the order it checks each cell
CELL_CHECKS = ("polygon needs at least 3 planar vertices", "polygon vertices must be finite",
               "consecutive vertices closer than EPS_GEOM",
               "polygon is not convex within tolerance")


def _succ(a: np.ndarray, axis: int) -> np.ndarray:
    """Entry k + 1 of a at each k along axis, cyclically: a vertex's successor."""
    return np.take(a, [*range(1, a.shape[axis]), 0], axis=axis)


def _areas(v: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Shoelace areas of the padded polygons v (k, m, 2) with counts[r] vertices,
    each summed over its own terms alone: the bits of np.sum unpadded."""
    w = _succ(v, 1)
    terms = v[..., 0] * w[..., 1] - w[..., 0] * v[..., 1]
    return 0.5 * np.array([t[:n].sum() for t, n in zip(terms, counts.tolist())])


class ConvexPolygon:
    """Convex polygon with vertices in counterclockwise order, read-only.

    ConvexPolygon(v) is convex_cells on a batch of one.
    """

    __slots__ = ("vertices",)

    def __new__(cls, vertices):
        return convex_cells([vertices])[0][0]

    @classmethod
    def _of(cls, v: np.ndarray) -> "ConvexPolygon":
        """The polygon with vertices v, unchecked."""
        p = object.__new__(cls)
        p.vertices = v
        v.setflags(write=False)
        return p

    def translated(self, offset) -> "ConvexPolygon":
        """This polygon moved by `offset`, unchecked: a translation keeps
        orientation and convexity."""
        return ConvexPolygon._of(self.vertices + np.asarray(offset, dtype=float))

    def __reduce__(self):
        return ConvexPolygon._of, (np.array(self.vertices),)


def convex_cells(polys) -> tuple:
    """Check vertex arrays as convex polygons, all at once, in one padded table.

    Returns (polygons, vertices, counts, areas): a ConvexPolygon per array,
    and their counterclockwise vertices, padded by repeating vertex 0 as
    polygon_distances takes them, with their counts and areas. Each array
    needs at least 3 planar vertices, all finite; clockwise ones are reversed;
    no edge may be shorter than EPS_GEOM, nor a corner turn right by more.
    The padding adds only zero-length edges, masked out. DomainError names
    the first failed check of the first failing array.
    """
    polys = [np.asarray(v, dtype=float) for v in polys]
    counts = np.array([len(v) if v.ndim == 2 and v.shape[1] == 2 and len(v) > 2 else 0
                       for v in polys], dtype=np.intp)
    k, m = len(polys), max(3, counts.max(initial=0))
    e, rows = np.arange(m), np.arange(k)[:, None]
    real = e < counts[:, None]
    v = np.zeros((k, m, 2))
    for r, n in enumerate(counts.tolist()):
        if n:
            v[r, :n], v[r, n:] = polys[r], polys[r][0]
    finite = np.isfinite(v).all(axis=(1, 2))
    areas = _areas(v, counts)
    if (areas < 0).any():
        # a reversed row takes vertex n - 1 - e as vertex e, and pads with the new vertex 0
        new = np.where(real, e, 0)
        v = v[rows, np.where(areas[:, None] < 0, counts[:, None] - 1 - new, new)]
        areas = _areas(v, counts)
    edges = _succ(v, 1) - v
    turn = edges[rows, np.where(e + 1 < counts[:, None], e + 1, 0)]
    short = np.hypot(edges[..., 0], edges[..., 1]) < EPS_GEOM
    reflex = edges[..., 0] * turn[..., 1] - edges[..., 1] * turn[..., 0] < -EPS_GEOM
    failed = np.column_stack([counts == 0, ~finite, (real & short).any(1), (real & reflex).any(1)])
    if failed.any():
        raise DomainError(CELL_CHECKS[failed[failed.any(1).argmax()].argmax()])
    v.setflags(write=False)
    return [ConvexPolygon._of(v[r, :n]) for r, n in enumerate(counts.tolist())], v, counts, areas


def polygon_distances(p, q):
    """Minimum and maximum distances between the closed regions p[k] and q[k]
    for every k at once, and their depth; the minimum is 0 where they meet.

    p (k, m, 2) and q (k, m', 2), or arrays broadcasting to those, hold convex
    polygons counterclockwise, padded by repeating vertex 0. That adds only
    zero-length edges (edge e runs from vertex e to e + 1), which a
    ConvexPolygon never has; masked out, they leave every result unchanged.

    The depth is the least, over the edges of both, of the largest signed
    distance (line_distances) of the other's vertices from the edge's line.
    They meet iff it is at least 0, as the separating-axis theorem gives: 0
    lies outside p - q iff one of its edges leaves 0 strictly outside, and
    each is an edge of p or of -q. Where they meet, their intersection lies
    in a slab that wide along that edge.
    """
    # coordinates first: numpy reduces a leading axis of length 2 far faster
    # than a trailing one; axis 2 runs over p's vertices or edges, 3 over q's
    p, q = p.transpose(2, 0, 1), q.transpose(2, 0, 1)
    a0, a1 = p[..., None], _succ(p, 2)[..., None]
    b0, b1 = q[:, :, None], _succ(q, 2)[:, :, None]
    ea, eb, ab, ba = a1 - a0, b1 - b0, a0 - b0, b0 - a0
    near, depth = [], np.inf
    # p's vertices against q's edges, then q's against p's: the vertices run
    # over axis 1, then 2, of the (k, m, m') results
    for pts, s0, e, rel, axis in ((a0, b0, eb, ab, 1), (b0, a0, ea, ba, 2)):
        denom = (e ** 2).sum(axis=0)
        real = denom > 0
        denom = np.where(real, denom, 1.0)
        t = np.clip((rel * e).sum(axis=0) / denom, 0.0, 1.0)
        r = pts - (s0 + t * e)
        near.append(np.where(real, np.sqrt((r ** 2).sum(axis=0)), np.inf))
        inner = line_distances(*rel, (0.0, 0.0, *e, np.sqrt(denom)))
        depth = np.minimum(depth, np.where(real, inner, np.inf).max(axis=axis).min(axis=1))
    # where they are apart a vertex and an edge of the other realize the minimum
    return (np.where(depth >= 0, 0.0, np.minimum(*near).min(axis=(1, 2))),
            np.sqrt((ab ** 2).sum(axis=0)).max(axis=(1, 2)), depth)


def polygon_max_distance(p: ConvexPolygon, q: ConvexPolygon) -> float:
    """Maximum distance between the closed regions (max over vertex pairs)."""
    return float(polygon_distances(p.vertices[None], q.vertices[None])[1][0])


def edge_lines(v: np.ndarray) -> np.ndarray:
    """The lines through the edges of the polygons v (..., m, 2), as
    line_distances takes them: rows (5, ..., m) of the vertex x and y, the
    edge vector's dx and dy and the edge length. Edge k runs from vertex k
    to vertex k + 1, cyclically, so a padding vertex repeating vertex 0
    adds edges of length 0."""
    e = _succ(v, v.ndim - 2) - v
    return np.stack([v[..., 0], v[..., 1], e[..., 0], e[..., 1], np.hypot(e[..., 0], e[..., 1])])


def line_distances(x: np.ndarray, y: np.ndarray, lines: np.ndarray) -> np.ndarray:
    """Signed distances from the points (x, y) to the lines of edge_lines,
    broadcast together: positive on the inner side, so a point is in a
    polygon iff all its edges' are >= 0.

    Points come as coordinate rows, not (n, 2): a trailing axis of length 2
    would cost an inner loop per point.
    """
    vx, vy, dx, dy, length = lines
    return (dx * (y - vy) - dy * (x - vx)) / length


def polygon_min_distance(p: ConvexPolygon, q: ConvexPolygon) -> float:
    """Minimum distance between the closed regions; 0 if they intersect."""
    return float(polygon_distances(p.vertices[None], q.vertices[None])[0][0])


def convex_intersection_area(p: ConvexPolygon, q: ConvexPolygon) -> float:
    """Area of the intersection of two convex polygons (Sutherland-Hodgman)."""
    # Python floats: the same IEEE arithmetic as numpy scalars, done faster
    poly = p.vertices.tolist()
    clip = q.vertices.tolist()
    for (cx0, cy0), (cx1, cy1) in zip(clip, clip[1:] + clip[:1]):
        if not poly:
            return 0.0
        ex, ey = cx1 - cx0, cy1 - cy0
        out = []
        for i in range(len(poly)):
            ax, ay = poly[i]
            bx, by = poly[(i + 1) % len(poly)]
            sa = ex * (ay - cy0) - ey * (ax - cx0)
            sb = ex * (by - cy0) - ey * (bx - cx0)
            # a point on the clip line is outside: a crossing restores it where
            # the intersection has area, so cells sharing only an edge give none
            if sa > 0:
                out.append((ax, ay))
            if (sa > 0) != (sb > 0):
                t = sa / (sa - sb)
                out.append((ax + t * (bx - ax), ay + t * (by - ay)))
        poly = out
    return abs(0.5 * sum(x0 * y1 - x1 * y0
                         for (x0, y0), (x1, y1) in zip(poly, poly[1:] + poly[:1])))
