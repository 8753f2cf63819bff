"""Tests for the distance-avoidance verifier and Monte Carlo cross-check."""

import numpy as np
import pytest

from sixcoloring.coloring_one import Params1, assemble_block, default_alpha1
from sixcoloring import tiling
from sixcoloring.coloring_two import assemble_block2, constants
from sixcoloring.errors import InvalidTilingError
from sixcoloring.geom import (
    EPS_GEOM,
    ConvexPolygon,
    polygon_max_distance,
    polygon_min_distance,
)
from sixcoloring.tiling import ColoringType, Tiling
from sixcoloring.verifier import VIOLATION_TOL, critical_witnesses, monte_carlo_check, verify


def square_lattice_tiling(side=1.0):
    """One square cell tiling the plane on an axis-aligned lattice."""
    sq = ConvexPolygon(np.array([[0, 0], [side, 0], [side, side], [0, side]], dtype=float))
    return Tiling([(sq, "red")], (side, 0.0), (0.0, side))


def brute_force_color_at_many(t, pts, reach=2):
    """Reference locator: every point is tested against every cell translate
    with |a|, |b| <= reach touching the base lattice parallelogram, with the
    signed-distance expression of Tiling.rank_at_many."""
    L = np.column_stack([t.v1, t.v2])
    base_cell = ConvexPolygon(np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float) @ L.T)
    frac = pts @ np.linalg.inv(L).T
    frac -= np.floor(frac)
    base = frac @ L.T
    nc = len(t.priority)
    interior_rank = np.full(len(base), nc)
    boundary_rank = np.full(len(base), nc)
    for poly, color in t.cells:
        r = t.priority.index(color)
        for a in range(-reach, reach + 1):
            for b in range(-reach, reach + 1):
                q = poly.translated(a * t.v1 + b * t.v2)
                if polygon_min_distance(q, base_cell) > EPS_GEOM:
                    continue
                v = q.vertices
                e = np.roll(v, -1, axis=0) - v
                lengths = np.hypot(e[:, 0], e[:, 1])
                rel = base[:, None, :] - v[None, :, :]
                signed = (e[:, 0] * rel[:, :, 1] - e[:, 1] * rel[:, :, 0]) / lengths
                mindist = signed.min(axis=1)
                interior_rank = np.where(mindist > EPS_GEOM,
                                         np.minimum(interior_rank, r), interior_rank)
                boundary_rank = np.where(mindist >= -EPS_GEOM,
                                         np.minimum(boundary_rank, r), boundary_rank)
    interior = interior_rank < nc
    final = np.where(interior, interior_rank, boundary_rank)
    assert (final < nc).all()
    return np.array([t.priority[r] for r in final], dtype=object), interior


class TestColoringType:
    @pytest.mark.parametrize("d", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_rejects_non_finite_or_non_positive(self, d):
        with pytest.raises(ValueError, match="finite and positive"):
            ColoringType.unit_except(red=d)


class TestSingleSquare:
    def test_small_avoided_distance_violates(self):
        # every distance below the diagonal is realized within the square itself
        t = square_lattice_tiling()
        report = verify(t, ColoringType(distances={"red": 0.5}))
        assert not report.valid
        assert any(w.offset == (0, 0) and w.pair == (0, 0) for w in report.witnesses)

    def test_no_gap_ever_valid(self):
        # the square lattice leaves no gap: every distance is realized
        t = square_lattice_tiling()
        for d in (0.3, 1.0, 1.7):
            assert not verify(t, ColoringType(distances={"red": d})).valid

    def test_sparse_squares_valid_in_gap(self):
        # small squares far apart: distances in (diag, gap) are avoided
        sq = ConvexPolygon(np.array([[0, 0], [0.1, 0], [0.1, 0.1], [0, 0.1]]))
        t = Tiling([(sq, "red")], (3.0, 0.0), (0.0, 3.0))
        assert verify(t, ColoringType(distances={"red": 1.0}), validate=False).valid
        assert not verify(t, ColoringType(distances={"red": 0.05}), validate=False).valid
        assert not verify(t, ColoringType(distances={"red": 3.0}), validate=False).valid

    def test_closed_strictness_flags_endpoints(self):
        sq = ConvexPolygon(np.array([[0, 0], [0.1, 0], [0.1, 0.1], [0, 0.1]]))
        t = Tiling([(sq, "red")], (3.0, 0.0), (0.0, 3.0))
        diag = 0.1 * np.sqrt(2)
        assert verify(t, ColoringType(distances={"red": diag}),
                      strictness="open", validate=False).valid
        assert not verify(t, ColoringType(distances={"red": diag}),
                          strictness="closed", validate=False).valid

    def test_unknown_strictness(self):
        with pytest.raises(ValueError):
            verify(square_lattice_tiling(), ColoringType(distances={"red": 1.0}),
                   strictness="fuzzy")


class TestColorings:
    def test_coloring_one_valid(self):
        for d in (0.354, 0.45, 0.553):
            t = assemble_block(Params1(d, default_alpha1(d)))
            assert verify(t, ColoringType.unit_except(red=d)).valid

    def test_coloring_two_valid_and_invalid(self):
        t = assemble_block2(constants())
        assert verify(t, ColoringType.unit_except(red=0.5)).valid
        report = verify(t, ColoringType.unit_except(red=0.3))
        assert not report.valid
        assert report.witnesses  # square diameter d_min exceeds 0.3

    def test_witnesses_sorted(self):
        report = verify(assemble_block2(constants()), ColoringType.unit_except(red=0.3))
        keys = [(w.color, w.pair, w.offset) for w in report.witnesses]
        assert keys == sorted(keys)

    def test_translation_invariance(self):
        d = 0.45
        t = assemble_block(Params1(d, default_alpha1(d)))
        shift = np.array([0.123, -0.456])
        moved = Tiling([(p.translated(shift), c) for p, c in t.cells], t.v1, t.v2, t.priority)
        r0 = verify(t, ColoringType.unit_except(red=d))
        r1 = verify(moved, ColoringType.unit_except(red=d))
        assert r0.valid == r1.valid
        assert r0.pairs_checked == r1.pairs_checked

    def test_enumeration_radius_invariance(self):
        # verify enumerates offsets with |a|, |b| <= 1 here; its verdict must
        # equal one taken over every offset with |a|, |b| <= 4
        ct2 = constants()
        cases = [(assemble_block(Params1(d, default_alpha1(d))), d)
                 for d in (0.354, 0.45, 0.553)]
        cases += [(assemble_block2(ct2), d) for d in (0.3, ct2.d_min, 0.5, ct2.d_max, 0.7)]
        for t, d in cases:
            ct = ColoringType.unit_except(red=d)
            valid = True
            for i, (p, color) in enumerate(t.cells):
                dd = ct.distances[color]
                for j in range(i, len(t.cells)):
                    if t.cells[j][1] != color:
                        continue
                    for a in range(-4, 5):
                        for b in range(-4, 5):
                            q = t.cells[j][0].translated(a * t.v1 + b * t.v2)
                            mn = 0.0 if i == j and a == b == 0 else polygon_min_distance(p, q)
                            mx = polygon_max_distance(p, q)
                            valid &= not (dd - mn > VIOLATION_TOL and mx - dd > VIOLATION_TOL)
            assert verify(t, ct, validate=False).valid == valid, d


class TestCriticalWitnesses:
    def test_binding_at_dmax(self):
        c = constants()
        binding = critical_witnesses(assemble_block2(c), ColoringType.unit_except(red=c.d_max))
        assert binding
        assert any(w.color == "red" for w in binding)

    def test_binding_on_interpolation_line(self):
        d = 0.45
        t = assemble_block(Params1(d, default_alpha1(d)))
        assert critical_witnesses(t, ColoringType.unit_except(red=d))

    def test_slack_tiling_has_none(self):
        sq = ConvexPolygon(np.array([[0, 0], [0.1, 0], [0.1, 0.1], [0, 0.1]]))
        t = Tiling([(sq, "red")], (3.0, 0.0), (0.0, 3.0))
        assert critical_witnesses(t, ColoringType(distances={"red": 1.0})) == []


class TestColorAt:
    def test_total_and_periodic(self):
        t = assemble_block2(constants())
        rng = np.random.default_rng(61)
        pts = rng.uniform(-5, 5, (10_000, 2))
        colors, _ = t.color_at_many(pts)
        assert set(np.unique(colors)) <= {"red", "orange", "green", "blue",
                                          "yellow", "turquoise"}
        for a in (-2, 0, 2):
            for b in (-2, 1):
                shifted, _ = t.color_at_many(pts[:200] + a * t.v1 + b * t.v2)
                assert (shifted == colors[:200]).all()

    def test_known_points(self):
        t1 = assemble_block(Params1(0.45, default_alpha1(0.45)))
        assert t1.color_at((0.0, 0.0)) == "red"  # center triangle
        t2 = assemble_block2(constants())
        assert t2.color_at((0.5, 0.05)) == "red"  # square
        hex_centroid = (1.5, 0.0)  # blue hexagon center shifted by (1, -sqrt3)
        assert t2.color_at(hex_centroid) == "blue"

    @pytest.mark.parametrize("which", ["coloring 1", "coloring 2", "json round-trip",
                                       "edges on bucket boundaries"])
    def test_bucket_locator_matches_brute_force(self, which):
        if which == "coloring 1":
            t = assemble_block(Params1(0.45, default_alpha1(0.45)))
        elif which == "edges on bucket boundaries":
            # the shared edge x = 0.5 is a bucket boundary; a point just left
            # of it touches the red cell, whose bounding box starts at it
            left = ConvexPolygon(np.array([[0, 0], [0.5, 0], [0.5, 1], [0, 1]], dtype=float))
            right = ConvexPolygon(np.array([[0.5, 0], [1, 0], [1, 1], [0.5, 1]], dtype=float))
            t = Tiling([(left, "orange"), (right, "red")], (1.0, 0.0), (0.0, 1.0))
        else:
            t = assemble_block2(constants())
            if which == "json round-trip":
                t = Tiling.from_json(t.to_json())
        # cell vertices and edge midpoints, each nudged by up to EPS_GEOM / 2
        # per axis, probe the boundary cases of the bucket margins
        h = EPS_GEOM / 2
        nudges = np.array([(a, b) for a in (-h, 0, h) for b in (-h, 0, h)])
        special = np.concatenate([np.concatenate([p.vertices, 0.5 * (
            p.vertices + np.roll(p.vertices, -1, axis=0))]) for p, _ in t.cells])
        special = (special[:, None, :] + nudges[None, :, :]).reshape(-1, 2)
        rng = np.random.default_rng(5)
        pts = np.concatenate([rng.uniform(-3, 3, (20_000, 2)), special])
        colors, interior = t.color_at_many(pts)
        ref_colors, ref_interior = brute_force_color_at_many(t, pts)
        assert (colors == ref_colors).all()
        assert (interior == ref_interior).all()
        assert not interior[-len(special):].all()  # boundary cases were hit

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_cell_moved_by_lattice_vectors(self, k):
        # moving a cell by k (v1 + v2) leaves the coloring of the plane as it
        # was, so the locator must find the moved cell's translates wherever
        # they lie
        t = assemble_block2(constants())
        cells = list(t.cells)
        cells[0] = (cells[0][0].translated(k * (t.v1 + t.v2)), cells[0][1])
        moved = Tiling(cells, t.v1, t.v2, t.priority)
        moved.validate()
        for d in (0.55, 0.3):
            ct = ColoringType.unit_except(red=d)
            assert verify(moved, ct).verdict == verify(t, ct).verdict
            assert monte_carlo_check(moved, ct, 20_000, seed=4) == monte_carlo_check(
                t, ct, 20_000, seed=4)
        pts = np.random.default_rng(9).uniform(-3, 3, (5_000, 2))
        colors, interior = moved.color_at_many(pts)
        ref_colors, ref_interior = brute_force_color_at_many(moved, pts, reach=k + 2)
        assert (colors == ref_colors).all()
        assert (interior == ref_interior).all()

    def test_non_finite_point_not_covered(self):
        t = assemble_block2(constants())
        for pt in ((np.nan, 0.0), (0.0, np.inf)):
            with pytest.raises(InvalidTilingError):
                t.color_at(pt)

    def test_boundary_priority(self):
        # a point on the square/heptagon edge takes red, the higher priority
        t = assemble_block2(constants())
        pts = t.cells[7][0].vertices  # the red square
        mid = 0.5 * (pts[0] + pts[3])
        assert t.color_at(mid) == "red"


class TestMonteCarlo:
    def test_valid_tiling_has_zero(self):
        d = 0.45
        t = assemble_block(Params1(d, default_alpha1(d)))
        assert monte_carlo_check(t, ColoringType.unit_except(red=d), 50_000, seed=7) == 0

    def test_sabotage_detected(self):
        t = assemble_block2(constants())
        cells = list(t.cells)
        idx = next(i for i, (_, c) in enumerate(cells) if c == "yellow")
        cells[idx] = (cells[idx][0], "green")
        bad = Tiling(cells, t.v1, t.v2, t.priority)
        assert monte_carlo_check(bad, ColoringType.unit_except(red=0.5), 50_000, seed=7) > 0

    def test_reproducible(self):
        t = assemble_block2(constants())
        ct = ColoringType.unit_except(red=0.3)
        a = monte_carlo_check(t, ct, 10_000, seed=123)
        b = monte_carlo_check(t, ct, 10_000, seed=123)
        assert a == b > 0  # invalid tiling: hits expected

    def test_counts_independent_of_chunk_size(self, monkeypatch):
        t = assemble_block2(constants())
        ct = ColoringType.unit_except(red=0.3)
        n = 5_000
        monkeypatch.setattr(tiling, "LOCATE_CHUNK", 37)
        small = monte_carlo_check(t, ct, n, seed=11)
        monkeypatch.setattr(tiling, "LOCATE_CHUNK", 10 * n)
        large = monte_carlo_check(t, ct, n, seed=11)
        assert small == large > 0

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            monte_carlo_check(assemble_block2(constants()),
                              ColoringType.unit_except(red=0.5), 0, seed=1)


class TestSerialization:
    def test_json_roundtrip(self):
        t = assemble_block(Params1(0.45, default_alpha1(0.45)))
        back = Tiling.from_json(t.to_json())
        assert len(back.cells) == len(t.cells)
        np.testing.assert_allclose(back.v1, t.v1)
        np.testing.assert_allclose(back.v2, t.v2)
        assert back.priority == t.priority
        for (p0, c0), (p1, c1) in zip(t.cells, back.cells):
            assert c0 == c1
            np.testing.assert_allclose(p0.vertices, p1.vertices, atol=1e-15)
        d = 0.45
        assert verify(back, ColoringType.unit_except(red=d)).valid
