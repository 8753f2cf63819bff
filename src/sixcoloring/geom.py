"""Planar geometry kernel: convex polygons, rigid transforms, distance queries.

All angles are in degrees; conversion to radians happens inside the
trigonometric helpers.  Coordinates are doubles; EPS_GEOM is the global
geometric tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def _shoelace(vertices: np.ndarray) -> float:
    x, y = vertices[:, 0], vertices[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


@dataclass(frozen=True)
class ConvexPolygon:
    """Convex polygon with vertices in counterclockwise order.

    Clockwise input is silently reversed; non-convex or degenerate input
    raises DomainError. `edge_vectors[k]` runs from vertex k to vertex k + 1
    and `edge_lengths[k]` is its length.
    """

    vertices: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
            raise DomainError("polygon needs at least 3 planar vertices")
        if not np.all(np.isfinite(v)):
            raise DomainError("polygon vertices must be finite")
        if _shoelace(v) < 0:
            v = v[::-1].copy()
        self._store(v)
        if np.any(self.edge_lengths < EPS_GEOM):
            raise DomainError("consecutive vertices closer than EPS_GEOM")
        edges = self.edge_vectors
        cross = edges[:, 0] * np.roll(edges[:, 1], -1) - edges[:, 1] * np.roll(edges[:, 0], -1)
        if np.any(cross < -EPS_GEOM):
            raise DomainError("polygon is not convex within tolerance")

    def _store(self, v: np.ndarray) -> None:
        """Keep vertices v with their edge vectors and lengths, read-only."""
        edges = np.roll(v, -1, axis=0) - v
        lengths = np.hypot(edges[:, 0], edges[:, 1])
        for name, a in (("vertices", v), ("edge_vectors", edges), ("edge_lengths", lengths)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    def translated(self, offset) -> "ConvexPolygon":
        """This polygon moved by `offset`. A translation keeps orientation and
        convexity, so the constructor's checks are not run again."""
        moved = object.__new__(ConvexPolygon)
        moved._store(self.vertices + np.asarray(offset, dtype=float))
        return moved


@dataclass(frozen=True)
class RigidTransform:
    """Mirror across the vertical axis (optional), then rotate, then translate."""

    rotation: float = 0.0
    translation: tuple = (0.0, 0.0)
    mirror: bool = False

    def matrix(self) -> np.ndarray:
        c, s = dcos(self.rotation), dsin(self.rotation)
        rot = np.array([[c, -s], [s, c]])
        if self.mirror:
            rot = rot @ np.array([[-1.0, 0.0], [0.0, 1.0]])
        return rot

    def apply_points(self, pts: np.ndarray) -> np.ndarray:
        return pts @ self.matrix().T + np.asarray(self.translation, dtype=float)


def apply_transform(t: RigidTransform, p: ConvexPolygon) -> ConvexPolygon:
    """Apply a rigid transform; the constructor re-normalizes orientation."""
    return ConvexPolygon(t.apply_points(p.vertices))


def polygon_area(p: ConvexPolygon) -> float:
    return _shoelace(p.vertices)


def polygon_distances(p, q):
    """Minimum and maximum distances between the closed regions p[k] and q[k]
    for every k at once; the minimum is 0 where they intersect.

    p (k, m, 2) and q (k, m', 2), or arrays broadcasting to those, hold convex
    polygons counterclockwise, padded by repeating vertex 0. That adds only
    zero-length edges (edge e runs from vertex e to e + 1), which a
    ConvexPolygon never has; masked out, they leave every result unchanged.
    """
    # coordinates first: numpy reduces a leading axis of length 2 far faster
    # than a trailing one; axis 2 runs over p's vertices or edges, 3 over q's
    p, q = p.transpose(2, 0, 1), q.transpose(2, 0, 1)
    a0, a1 = p[..., None], np.roll(p, -1, axis=2)[..., None]
    b0, b1 = q[:, :, None], np.roll(q, -1, axis=2)[:, :, None]
    ea, eb, ab, ba = a1 - a0, b1 - b0, a0 - b0, b0 - a0

    def cross(u, v):
        return u[0] * v[1] - u[1] * v[0]

    # they intersect if one holds the other's vertex 0 (on the inner side of
    # every edge; a zero-length edge has every point on it) or two edges
    # cross properly; otherwise a vertex and an edge of the other realize it
    meet = ((cross(ea[..., 0], q[:, :, :1] - p) >= 0).all(axis=1)
            | (cross(eb[:, :, 0], p[:, :, :1] - q) >= 0).all(axis=1)
            | ((cross(ea, ba) * cross(ea, b1 - a0) < 0)
               & (cross(eb, ab) * cross(eb, a1 - b0) < 0)).any(axis=(1, 2)))
    near = []
    for pts, s0, e, rel in ((a0, b0, eb, ab), (b0, a0, ea, ba)):
        denom = (e ** 2).sum(axis=0)
        real = denom > 0
        t = np.clip((rel * e).sum(axis=0) / np.where(real, denom, 1.0), 0.0, 1.0)
        r = pts - (s0 + t * e)
        near.append(np.where(real, np.sqrt((r ** 2).sum(axis=0)), np.inf))
    return (np.where(meet, 0.0, np.minimum(*near).min(axis=(1, 2))),
            np.sqrt((ab ** 2).sum(axis=0)).max(axis=(1, 2)))


def polygon_max_distance(p: ConvexPolygon, q: ConvexPolygon) -> float:
    """Maximum distance between the closed regions (max over vertex pairs)."""
    return float(polygon_distances(p.vertices[None], q.vertices[None])[1][0])


def edge_distances(pts: np.ndarray, p: ConvexPolygon) -> np.ndarray:
    """Signed distances (n, E) from points (n, 2) to the lines through p's
    edges: positive on the inner side, so a point is in p iff all are >= 0."""
    rel = pts[:, None, :] - p.vertices[None, :, :]
    e = p.edge_vectors
    return (e[:, 0] * rel[:, :, 1] - e[:, 1] * rel[:, :, 0]) / p.edge_lengths


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
            if sa >= 0:
                out.append((ax, ay))
            if (sa >= 0) != (sb >= 0):
                t = sa / (sa - sb)
                out.append((ax + t * (bx - ax), ay + t * (by - ay)))
        poly = out
    if len(poly) < 3:
        return 0.0
    arr = np.array(poly)
    return abs(_shoelace(arr))
