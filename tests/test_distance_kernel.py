"""Property test of the batched distance kernel against independent references."""

import math
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
spatial = pytest.importorskip("scipy.spatial")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sixcoloring.coloring_one import (  # noqa: E402
    D_HIGH,
    D_LOW,
    Params1,
    assemble_block,
    default_alpha1,
)
from sixcoloring.coloring_two import assemble_block2, constants  # noqa: E402
from sixcoloring.geom import (  # noqa: E402
    ConvexPolygon,
    polygon_distances,
    polygon_max_distance,
    polygon_min_distance,
)

# quarter-unit coordinates are exact in binary, so a polygon moved by the
# difference of two vertices lands exactly on the other polygon's vertex
COORD = st.integers(-16, 16).map(lambda x: x / 4)
POINTS = st.lists(st.tuples(COORD, COORD), min_size=3, max_size=12, unique=True)
PLACEMENTS = ("contained", "overlapping", "touching", "apart", "anywhere")


def hull(points):
    """The convex hull of the points, or None when they are collinear."""
    pts = np.array(points)
    try:
        return ConvexPolygon(pts[spatial.ConvexHull(pts).vertices])
    except spatial.QhullError:
        return None


def place(p, q, how, shift):
    """A polygon placed relative to p as `how` says, from q and shift."""
    v, w = p.vertices, q.vertices
    if how == "contained":  # p shrunk by half about its vertex mean
        return ConvexPolygon((v + v.mean(axis=0)) / 2)
    if how == "overlapping":
        return ConvexPolygon(w + (v.mean(axis=0) - w.mean(axis=0) + shift / 4))
    if how == "touching":  # q's leftmost vertex on p's rightmost one
        return ConvexPolygon(w + (v[np.argmax(v[:, 0])] - w[np.argmin(w[:, 0])]))
    if how == "apart":
        return ConvexPolygon(w + (v.max(axis=0) - w.min(axis=0) + np.abs(shift) + 0.25))
    return ConvexPolygon(w + shift)


def exact_intersect(p, q):
    """Separating-axis test in rationals: two closed convex polygons meet
    unless the normal of some edge separates their projections."""
    pv = [tuple(map(Fraction, v)) for v in p.vertices.tolist()]
    qv = [tuple(map(Fraction, v)) for v in q.vertices.tolist()]
    for poly in (pv, qv):
        for (x0, y0), (x1, y1) in zip(poly, poly[1:] + poly[:1]):
            sp = [(y1 - y0) * x - (x1 - x0) * y for x, y in pv]
            sq = [(y1 - y0) * x - (x1 - x0) * y for x, y in qv]
            if max(sp) < min(sq) or max(sq) < min(sp):
                return False
    return True


def plain_min_distance(p, q):
    """Least distance from a vertex of either polygon to an edge of the other."""
    def point_segment(pt, a, b):
        ex, ey = b[0] - a[0], b[1] - a[1]
        t = ((pt[0] - a[0]) * ex + (pt[1] - a[1]) * ey) / (ex * ex + ey * ey)
        t = min(1.0, max(0.0, t))
        return math.hypot(pt[0] - a[0] - t * ex, pt[1] - a[1] - t * ey)

    best = math.inf
    for u, w in ((p, q), (q, p)):
        ends = w.vertices.tolist()
        for pt in u.vertices.tolist():
            for a, b in zip(ends, ends[1:] + ends[:1]):
                best = min(best, point_segment(pt, a, b))
    return best


def plain_max_distance(p, q):
    return max(math.dist(a, b) for a in p.vertices.tolist() for b in q.vertices.tolist())


def padded(polys):
    """Vertex arrays padded to the largest count by repeating vertex 0."""
    m = max(len(p.vertices) for p in polys)
    return np.array([np.vstack([p.vertices, p.vertices[[0] * (m - len(p.vertices))]])
                     for p in polys])


@settings(max_examples=75, deadline=None, database=None)
@given(st.lists(st.tuples(POINTS, POINTS, st.sampled_from(PLACEMENTS),
                          st.tuples(COORD, COORD), st.booleans()), min_size=1, max_size=6))
def test_kernel_matches_references(cases):
    pairs = []
    for pts_p, pts_q, how, shift, swap in cases:
        p, q = hull(pts_p), hull(pts_q)
        assume(p is not None and q is not None)
        q = place(p, q, how, np.array(shift))
        pairs.append((q, p) if swap else (p, q))
    mn, mx = polygon_distances(padded([p for p, _ in pairs]), padded([q for _, q in pairs]))
    for (p, q), lo, hi in zip(pairs, mn, mx):
        # padding moves no bit: the batch gives each pair's own k = 1 answer
        assert lo == polygon_min_distance(p, q)
        assert hi == polygon_max_distance(p, q)
        # the minimum is the same bits either way round
        assert lo == polygon_distances(q.vertices[None], p.vertices[None])[0][0]
        # the cross products of quarter units are exact, and the division
        # by the edge length keeps their sign
        assert (lo == 0.0) == exact_intersect(p, q)
        if not exact_intersect(p, q):
            assert lo == pytest.approx(plain_min_distance(p, q), rel=1e-12, abs=1e-12)
        assert hi == pytest.approx(plain_max_distance(p, q), rel=1e-12)


def test_proper_crossing_without_contained_vertex():
    # a plus sign: neither bar holds a vertex of the other, yet they meet
    bar = ConvexPolygon(np.array([[-2, -0.25], [2, -0.25], [2, 0.25], [-2, 0.25]]))
    upright = ConvexPolygon(bar.vertices[:, ::-1])
    assert exact_intersect(bar, upright)
    mn, mx = polygon_distances(padded([bar, upright]), padded([upright, bar]))
    assert mn.tolist() == [0.0, 0.0]
    assert mx == pytest.approx([math.hypot(2.25, 2.25)] * 2, rel=1e-15)


def test_cells_meet_themselves():
    # each vertex lies on its own edge's line at distance exactly 0, so the
    # verifier's pair table takes a cell's minimum with itself as exactly 0
    tilings = [assemble_block(Params1(d, default_alpha1(d))) for d in (D_LOW, 0.45, D_HIGH)]
    for t in tilings + [assemble_block2(constants())]:
        mn, _ = polygon_distances(t.padded_vertices, t.padded_vertices)
        assert mn.tolist() == [0.0] * len(t.cells)
