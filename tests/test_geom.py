"""Tests for the planar geometry kernel."""

import math

import numpy as np
import pytest

from sixcoloring.errors import DomainError
from sixcoloring.geom import (
    ConvexPolygon,
    RigidTransform,
    apply_transform,
    convex_intersection_area,
    edge_distances,
    polygon_area,
    polygon_max_distance,
    polygon_min_distance,
)

UNIT_SQUARE = ConvexPolygon(np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float))


def random_convex_polygon(rng, n=5):
    """Points on a random ellipse at sorted angles are in convex position."""
    angles = np.sort(rng.uniform(0, 2 * np.pi, n))
    # reject angle clusters that would make near-degenerate edges
    while np.min(np.diff(np.concatenate([angles, [angles[0] + 2 * np.pi]]))) < 0.2:
        angles = np.sort(rng.uniform(0, 2 * np.pi, n))
    a, b = rng.uniform(0.5, 2.0, 2)
    phi = rng.uniform(0, np.pi)
    c, s = np.cos(phi), np.sin(phi)
    pts = np.column_stack([a * np.cos(angles), b * np.sin(angles)])
    pts = pts @ np.array([[c, -s], [s, c]]).T + rng.uniform(-3, 3, 2)
    return ConvexPolygon(pts)


def sample_boundary(p, per_edge=2000):
    ts = np.linspace(0, 1, per_edge, endpoint=False)[:, None]
    segs = [v0 + ts * e for v0, e in zip(p.vertices, p.edge_vectors)]
    return np.vstack(segs)


def brute_force_min_distance(p, q):
    """Independent oracle: exhaustive pairwise segment distances, pure python."""

    def seg_dist(a0, a1, b0, b1):
        def pt_seg(pt, s0, s1):
            d = s1 - s0
            t = np.dot(pt - s0, d) / np.dot(d, d)
            t = min(1.0, max(0.0, t))
            return np.linalg.norm(pt - (s0 + t * d))

        def orient(a, b, c):
            return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

        if (orient(a0, a1, b0) * orient(a0, a1, b1) < 0
                and orient(b0, b1, a0) * orient(b0, b1, a1) < 0):
            return 0.0
        return min(pt_seg(a0, b0, b1), pt_seg(a1, b0, b1),
                   pt_seg(b0, a0, a1), pt_seg(b1, a0, a1))

    def inside(pt, poly):
        v = poly.vertices
        for i in range(len(v)):
            a, b = v[i], v[(i + 1) % len(v)]
            if (b[0] - a[0]) * (pt[1] - a[1]) - (b[1] - a[1]) * (pt[0] - a[0]) < 0:
                return False
        return True

    if inside(p.vertices[0], q) or inside(q.vertices[0], p):
        return 0.0
    best = math.inf
    for a0, a1 in zip(p.vertices, np.roll(p.vertices, -1, axis=0)):
        for b0, b1 in zip(q.vertices, np.roll(q.vertices, -1, axis=0)):
            best = min(best, seg_dist(a0, a1, b0, b1))
    return best


class TestConstruction:
    def test_ccw_normalization(self):
        cw = ConvexPolygon(np.array([[0, 0], [0, 1], [1, 1], [1, 0]], dtype=float))
        assert polygon_area(cw) == pytest.approx(1.0)

    def test_rejects_nonconvex(self):
        with pytest.raises(DomainError):
            ConvexPolygon(np.array([[0, 0], [2, 0], [1, 0.1], [2, 2], [0, 2]], dtype=float))

    def test_rejects_short_edge(self):
        with pytest.raises(DomainError):
            ConvexPolygon(np.array([[0, 0], [1e-12, 0], [1, 0], [0, 1]], dtype=float))

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            ConvexPolygon(np.array([[0, 0], [1, np.nan], [0, 1]]))

    def test_translated_matches_constructor(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = random_convex_polygon(rng, n=int(rng.integers(3, 9)))
            off = rng.normal(size=2) * 10.0 ** rng.integers(-3, 3)
            moved, built = p.translated(off), ConvexPolygon(p.vertices + off)
            for name in ("vertices", "edge_vectors", "edge_lengths"):
                np.testing.assert_array_equal(getattr(moved, name), getattr(built, name))
                assert not getattr(moved, name).flags.writeable


class TestMinDistance:
    def test_translated_square_gap(self):
        assert polygon_min_distance(UNIT_SQUARE, UNIT_SQUARE.translated((3, 0))) == pytest.approx(2.0)

    def test_self_is_zero(self):
        assert polygon_min_distance(UNIT_SQUARE, UNIT_SQUARE) == 0.0

    def test_containment_is_zero(self):
        small = ConvexPolygon(np.array([[0.4, 0.4], [0.6, 0.4], [0.5, 0.6]]))
        assert polygon_min_distance(UNIT_SQUARE, small) == 0.0
        assert polygon_min_distance(small, UNIT_SQUARE) == 0.0

    def test_matches_brute_force_and_sampling(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            p = random_convex_polygon(rng)
            q = random_convex_polygon(rng)
            got = polygon_min_distance(p, q)
            assert got == pytest.approx(brute_force_min_distance(p, q), abs=1e-12)
            if got > 0:
                bp, bq = sample_boundary(p, 100), sample_boundary(q, 100)
                diff = bp[:, None, :] - bq[None, :, :]
                sampled = np.sqrt((diff ** 2).sum(axis=2)).min()
                assert got <= sampled + 1e-12
                assert sampled - got < 0.05  # sampling is an upper bound, close by

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p, q = random_convex_polygon(rng), random_convex_polygon(rng)
            assert polygon_min_distance(p, q) == pytest.approx(
                polygon_min_distance(q, p), abs=1e-14)


class TestMaxDistance:
    def test_square_diameter(self):
        assert polygon_max_distance(UNIT_SQUARE, UNIT_SQUARE) == pytest.approx(math.sqrt(2))

    def test_translated_square(self):
        assert polygon_max_distance(UNIT_SQUARE, UNIT_SQUARE.translated((3, 0))) == pytest.approx(math.sqrt(17))

    def test_equilateral_triangle_diameter(self):
        s = 0.7
        tri = ConvexPolygon(np.array([[0, 0], [s, 0], [s / 2, s * math.sqrt(3) / 2]]))
        assert polygon_max_distance(tri, tri) == pytest.approx(s)

    def test_matches_boundary_sampling(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            p, q = random_convex_polygon(rng), random_convex_polygon(rng)
            got = polygon_max_distance(p, q)
            bp, bq = sample_boundary(p, 100), sample_boundary(q, 100)
            diff = bp[:, None, :] - bq[None, :, :]
            sampled = np.sqrt((diff ** 2).sum(axis=2)).max()
            assert sampled <= got + 1e-12
            assert got - sampled < 1e-6 * 100  # vertices included in sampling grid

    def test_min_le_max(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p, q = random_convex_polygon(rng), random_convex_polygon(rng)
            assert polygon_min_distance(p, q) <= polygon_max_distance(p, q)

    def test_translation_changes_distance_by_at_most_shift(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            p, q = random_convex_polygon(rng), random_convex_polygon(rng)
            v = rng.uniform(-1, 1, 2)
            shift = np.linalg.norm(v)
            for fn in (polygon_min_distance, polygon_max_distance):
                assert abs(fn(p, q.translated(v)) - fn(p, q)) <= shift + 1e-9


class TestEdgeDistances:
    def test_unit_square(self):
        pts = np.array([[0.5, 0.25], [0.0, 0.0], [2.0, 0.5]])
        # edges of UNIT_SQUARE: bottom, right, top, left
        np.testing.assert_allclose(edge_distances(pts, UNIT_SQUARE), [
            [0.25, 0.5, 0.75, 0.5],
            [0.0, 1.0, 1.0, 0.0],
            [0.5, -1.0, 0.5, 2.0],
        ], atol=1e-15)

    def test_matches_inner_unit_normals(self):
        # counterclockwise order puts each edge's inner normal on its left
        rng = np.random.default_rng(17)
        for _ in range(20):
            p = random_convex_polygon(rng)
            pts = rng.uniform(-5, 5, (50, 2))
            v, e = p.vertices, p.edge_vectors
            normal = np.column_stack([-e[:, 1], e[:, 0]]) / p.edge_lengths[:, None]
            want = ((pts[:, None, :] - v[None, :, :]) * normal[None, :, :]).sum(axis=2)
            np.testing.assert_allclose(edge_distances(pts, p), want, atol=1e-12)
            assert (edge_distances(v.mean(axis=0)[None, :], p) > 0).all()


class TestTransforms:
    def test_identity(self):
        out = apply_transform(RigidTransform(), UNIT_SQUARE)
        np.testing.assert_allclose(out.vertices, UNIT_SQUARE.vertices)

    def test_full_turn(self):
        out = apply_transform(RigidTransform(rotation=360), UNIT_SQUARE)
        np.testing.assert_allclose(out.vertices, UNIT_SQUARE.vertices, atol=1e-9)

    def test_double_mirror(self):
        m = RigidTransform(mirror=True)
        out = apply_transform(m, apply_transform(m, UNIT_SQUARE))
        np.testing.assert_allclose(
            np.sort(out.vertices, axis=0), np.sort(UNIT_SQUARE.vertices, axis=0), atol=1e-12)

    def test_isometry_preserves_area_and_distances(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            p = random_convex_polygon(rng)
            t = RigidTransform(rotation=rng.uniform(0, 360),
                               translation=tuple(rng.uniform(-2, 2, 2)),
                               mirror=bool(rng.integers(2)))
            out = apply_transform(t, p)
            assert polygon_area(out) == pytest.approx(polygon_area(p), abs=1e-12)
            d0 = np.linalg.norm(p.vertices[0] - p.vertices[2])
            pairs0 = sorted(np.linalg.norm(a - b)
                            for i, a in enumerate(p.vertices)
                            for b in p.vertices[i + 1:])
            pairs1 = sorted(np.linalg.norm(a - b)
                            for i, a in enumerate(out.vertices)
                            for b in out.vertices[i + 1:])
            np.testing.assert_allclose(pairs0, pairs1, atol=1e-12)


class TestAreaAndIntersection:
    def test_unit_square_area(self):
        assert polygon_area(UNIT_SQUARE) == pytest.approx(1.0)

    def test_triangle_area(self):
        tri = ConvexPolygon(np.array([[0, 0], [1, 0], [0, 1]], dtype=float))
        assert polygon_area(tri) == pytest.approx(0.5)

    def test_intersection_area_against_shapely(self):
        shapely = pytest.importorskip("shapely.geometry")
        rng = np.random.default_rng(31)
        for _ in range(50):
            p, q = random_convex_polygon(rng), random_convex_polygon(rng)
            want = shapely.Polygon(p.vertices).intersection(shapely.Polygon(q.vertices)).area
            assert convex_intersection_area(p, q) == pytest.approx(want, abs=1e-9)
