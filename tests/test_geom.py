"""Tests for the planar geometry kernel."""

import copy
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest

from sixcoloring.errors import DomainError
from sixcoloring.geom import (
    ConvexPolygon,
    convex_intersection_area,
    edge_lines,
    line_distances,
    polygon_distances,
    polygon_max_distance,
    polygon_min_distance,
)

UNIT_SQUARE = ConvexPolygon(np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float))


def polygon_area(p):
    """Signed shoelace area of p's stored vertices: positive if counterclockwise."""
    x, y = p.vertices.T
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


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
    edges = np.roll(p.vertices, -1, axis=0) - p.vertices
    segs = [v0 + ts * e for v0, e in zip(p.vertices, edges)]
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
            # exact, so that collinear edges are never taken for crossing ones
            a, b, c = ([Fraction(float(x)) for x in pt] for pt in (a, b, c))
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
        # a translation gives the constructor's polygon bit for bit, vertex
        # order included
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = random_convex_polygon(rng, n=int(rng.integers(3, 9)))
            off = rng.normal(size=2) * 10.0 ** rng.integers(-3, 3)
            moved = p.translated(off)
            built = ConvexPolygon(p.vertices + off)
            np.testing.assert_array_equal(moved.vertices, built.vertices)
            assert not moved.vertices.flags.writeable


    def test_pickle_round_trip(self):
        # cells pickle and copy (so Tilings do) and stay read-only
        p = random_convex_polygon(np.random.default_rng(9), n=6)
        for q in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
            np.testing.assert_array_equal(q.vertices, p.vertices)
            assert not q.vertices.flags.writeable


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

    @pytest.mark.parametrize("angle, side, step, x0, y0", [
        (57.0, 1.0, 3.0, -0.125, -0.5), (106.0, 1.0, 2.5, 0.0, -0.75),
        (162.0, 0.5, 3.0, 0.375, -0.25), (204.0, 1.0, 2.5, -0.625, -0.25),
        (211.0, 1.0, 2.0, 0.875, -0.25)])
    def test_collinear_disjoint_edges(self, angle, side, step, x0, y0):
        # a rotated square and its copy moved `step` sides along one of its
        # edges: those edges lie on one line, and their cross products round
        # to about 1e-17 with signs that once made them cross
        c, s = math.cos(math.radians(angle)), math.sin(math.radians(angle))
        rot = np.array([[c, -s], [s, c]])
        sq = (np.array([[0, 0], [side, 0], [side, side], [0, side]]) + [x0, y0]) @ rot.T
        p = ConvexPolygon(sq)
        q = ConvexPolygon(sq + np.array([step * side, 0.0]) @ rot.T)
        got = polygon_min_distance(p, q)
        assert got == pytest.approx(brute_force_min_distance(p, q), abs=1e-12)
        assert got == pytest.approx((step - 1) * side, abs=1e-12)

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


def edge_distances(pts, p):
    """Signed distances (n, E) from points (n, 2) to the lines through p's edges."""
    return line_distances(pts[:, 0], pts[:, 1], edge_lines(p.vertices)[..., None]).T


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
            v = p.vertices
            e = np.roll(v, -1, axis=0) - v
            normal = np.column_stack([-e[:, 1], e[:, 0]]) / np.hypot(*e.T)[:, None]
            want = ((pts[:, None, :] - v[None, :, :]) * normal[None, :, :]).sum(axis=2)
            np.testing.assert_allclose(edge_distances(pts, p), want, atol=1e-12)
            assert (edge_distances(v.mean(axis=0)[None, :], p) > 0).all()


class TestTransforms:
    def test_isometry_preserves_area_and_distances(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            p = random_convex_polygon(rng)
            out = p.translated(rng.uniform(-2, 2, 2))
            assert polygon_area(out) == pytest.approx(polygon_area(p), abs=1e-12)
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

    def test_intersection_area_on_shared_boundaries(self):
        # the clip counts a point on a clip line as outside; crossings restore
        # it, so only a zero-area contact comes out empty
        tri = ConvexPolygon(np.array([[0, 0], [1, 0], [0.5, 0.5]]))
        for p, q, want in [(UNIT_SQUARE, UNIT_SQUARE, 1.0),
                           (UNIT_SQUARE, UNIT_SQUARE.translated((1, 0)), 0.0),
                           (UNIT_SQUARE, UNIT_SQUARE.translated((1, 1)), 0.0),
                           (UNIT_SQUARE, UNIT_SQUARE.translated((0.5, 0)), 0.5),
                           (tri, UNIT_SQUARE, 0.25), (UNIT_SQUARE, tri, 0.25)]:
            assert convex_intersection_area(p, q) == pytest.approx(want, abs=1e-15)
            assert convex_intersection_area(q, p) == pytest.approx(want, abs=1e-15)

    def test_penetration_depth_bounds_area(self):
        # the intersection lies in a slab as wide as the depth and spans at
        # most the smaller diameter; the depth is negative iff they are apart
        rng = np.random.default_rng(37)
        for _ in range(200):
            p, q = random_convex_polygon(rng), random_convex_polygon(rng)
            q = q.translated(p.vertices.mean(axis=0) - q.vertices.mean(axis=0)
                             + rng.uniform(-3, 3, 2))
            depth = polygon_distances(p.vertices[None], q.vertices[None])[2][0]
            diam = min(polygon_max_distance(p, p), polygon_max_distance(q, q))
            assert convex_intersection_area(p, q) <= max(depth, 0.0) * diam + 1e-12
            assert (depth < 0) == (brute_force_min_distance(p, q) > 0)

    def test_intersection_area_against_shapely(self):
        shapely = pytest.importorskip("shapely.geometry")
        rng = np.random.default_rng(31)
        for _ in range(50):
            p, q = random_convex_polygon(rng), random_convex_polygon(rng)
            want = shapely.Polygon(p.vertices).intersection(shapely.Polygon(q.vertices)).area
            assert convex_intersection_area(p, q) == pytest.approx(want, abs=1e-9)
