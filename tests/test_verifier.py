"""Tests for the distance-avoidance verifier and Monte Carlo cross-check."""

import re

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
from sixcoloring.verifier import (
    BINDING_TOL,
    VIOLATION_TOL,
    VerificationReport,
    Witness,
    critical_witnesses,
    monte_carlo_check,
    verify,
)


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


def bucket_probes(t):
    """Every corner and edge midpoint of the point locator's buckets in the
    base lattice parallelogram, each nudged by 0 or +-EPS_GEOM / 2 per axis."""
    g = tiling.LOCATE_GRID
    k = np.arange(2 * g + 1)
    i, j = (x.ravel() for x in np.meshgrid(k, k, indexing="ij"))
    keep = (i % 2 == 0) | (j % 2 == 0)  # leave out the bucket centres
    frac = np.column_stack([i[keep], j[keep]]) / (2 * g)
    h = EPS_GEOM / 2
    nudges = np.array([(a, b) for a in (-h, 0, h) for b in (-h, 0, h)])
    pts = frac @ np.column_stack([t.v1, t.v2]).T
    return (pts[:, None, :] + nudges[None, :, :]).reshape(-1, 2)


def overlapping_tiling():
    """An unvalidated tiling: an orange cell that tiles the plane alone and,
    listed after it, a red hexagon lying on it, so the overlap covers whole
    buckets and has its boundary run through others."""
    v1, v2 = np.array([1.0, 0.0]), np.array([0.3, 1.0])
    orange = ConvexPolygon(np.array([[0, 0], v1, v1 + v2, v2]))
    angles = np.arange(6) * np.pi / 3 + 0.1
    red = ConvexPolygon(np.column_stack([0.65 + 0.3 * np.cos(angles),
                                         0.5 + 0.3 * np.sin(angles)]))
    return Tiling([(orange, "orange"), (red, "red")], v1, v2)


def scalar_intervals(t, ct, reach):
    """(color, d, i, j, offset, interval) of every same-color translate pair
    that Tiling.translate_pairs lists, from one ConvexPolygon and one scalar
    distance call per translate; interval is None where the bounding boxes
    are more than d + reach apart."""
    by_color = {}
    for idx, (_, color) in enumerate(t.cells):
        by_color.setdefault(color, []).append(idx)
    pairs = np.array([(i, j) for idxs in by_color.values()
                      for ii, i in enumerate(idxs) for j in idxs[ii:]])
    pad = [ct.distances[t.cells[i][1]] for i in pairs[:, 0]]
    candidates = t.translate_pairs(pairs[:, 0], pairs[:, 1], pad)
    for i, j, a, b, gap in zip(*(x.tolist() for x in candidates)):
        if i == j and (a, b) < (0, 0):
            continue  # offsets of a cell to itself come in +- pairs
        color = t.cells[i][1]
        d = ct.distances[color]
        if gap > d + reach:
            yield color, d, i, j, (a, b), None
            continue
        p, q = t.cells[i][0], t.cells[j][0].translated(a * t.v1 + b * t.v2)
        mn = 0.0 if i == j and a == b == 0 else polygon_min_distance(p, q)
        yield color, d, i, j, (a, b), (mn, polygon_max_distance(p, q))


def per_pair_verify(t, ct, strictness):
    witnesses, pairs, translates = [], 0, set()
    for color, d, i, j, offset, interval in scalar_intervals(t, ct, 0.0):
        pairs += 1
        translates.add(offset)
        if interval is None:
            continue
        mn, mx = interval
        if strictness == "open":
            bad = d - mn > VIOLATION_TOL and mx - d > VIOLATION_TOL
        else:
            bad = d >= mn - VIOLATION_TOL and d <= mx + VIOLATION_TOL
        if bad:
            witnesses.append(Witness(color, (i, j), offset, interval, d))
    witnesses.sort(key=lambda w: (w.color, w.pair, w.offset))
    return VerificationReport(not witnesses, tuple(witnesses), pairs, len(translates))


def per_pair_critical_witnesses(t, ct):
    return sorted((Witness(color, (i, j), offset, interval, d)
                   for color, d, i, j, offset, interval in scalar_intervals(t, ct, BINDING_TOL)
                   if interval is not None and min(abs(x - d) for x in interval) <= BINDING_TOL),
                  key=lambda w: (w.color, w.pair, w.offset))


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


class TestPairTable:
    @pytest.mark.parametrize("case", ["coloring 1 valid", "coloring 1 invalid", "d_min",
                                      "d_max", "0.40", "0.70"])
    def test_matches_per_pair_loop(self, case):
        # the batched pair table gives the same bits as one scalar call per pair
        if case.startswith("coloring 1"):
            d = 0.45
            alpha1 = 140.0 if case.endswith("invalid") else default_alpha1(d)
            t = assemble_block(Params1(d, alpha1))
        else:
            c = constants()
            d = {"d_min": c.d_min, "d_max": c.d_max}.get(case) or float(case)
            t = assemble_block2(c)
        ct = ColoringType.unit_except(red=d)
        reports = {}
        for strictness in ("open", "closed"):
            reports[strictness] = verify(t, ct, strictness=strictness)
            assert reports[strictness] == per_pair_verify(t, ct, strictness)
        assert critical_witnesses(t, ct) == per_pair_critical_witnesses(t, ct)
        assert reports["open"].valid == (case not in ("coloring 1 invalid", "0.40", "0.70"))
        assert not reports["closed"].valid


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
                                       "edges on bucket boundaries", "overlapping cells"])
    def test_bucket_locator_matches_brute_force(self, which):
        if which == "coloring 1":
            t = assemble_block(Params1(0.45, default_alpha1(0.45)))
        elif which == "overlapping cells":
            t = overlapping_tiling()
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
        # per axis, probe the boundary cases of the bucket margins; bucket
        # corners and edge midpoints, those of the resolved buckets
        h = EPS_GEOM / 2
        nudges = np.array([(a, b) for a in (-h, 0, h) for b in (-h, 0, h)])
        special = np.concatenate([np.concatenate([p.vertices, 0.5 * (
            p.vertices + np.roll(p.vertices, -1, axis=0))]) for p, _ in t.cells])
        special = (special[:, None, :] + nudges[None, :, :]).reshape(-1, 2)
        rng = np.random.default_rng(5)
        pts = np.concatenate([rng.uniform(-3, 3, (20_000, 2)), bucket_probes(t), special])
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

    def test_overlap_resolved_to_least_rank(self):
        # whole buckets lie inside both cells; they resolve to red, the
        # higher priority, although orange is listed first
        t = overlapping_tiling()
        bucket_rank = t._build_locator().bucket_rank
        assert (bucket_rank == t.priority.index("red")).any()
        assert (bucket_rank == t.priority.index("orange")).any()

    @pytest.mark.parametrize("which", ["coloring 1", "coloring 2"])
    def test_most_buckets_resolved(self, which):
        # the point locator's speed rests on this; a bucket classification
        # that resolves nothing would still give right answers, slowly
        if which == "coloring 1":
            t = assemble_block(Params1(0.45, default_alpha1(0.45)))
        else:
            t = assemble_block2(constants())
        bucket_rank = t._build_locator().bucket_rank
        assert np.mean(bucket_rank < len(t.priority)) >= 0.85

    def test_resolved_buckets_keep_spare_margin(self):
        # the shared edge lies 1.5 EPS_GEOM right of the bucket column
        # ending at grid line 40: the per-point test calls those corners
        # interior to the left cell, but a bucket is resolved only with
        # EPS_GEOM to spare, so the column is left to the per-point test
        g = tiling.LOCATE_GRID
        rot = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])
        x = 40 / g + 1.5 * EPS_GEOM
        left = ConvexPolygon(np.array([[0, 0], [x, 0], [x, 1], [0, 1]]) @ rot.T)
        right = ConvexPolygon(np.array([[x, 0], [1, 0], [1, 1], [x, 1]]) @ rot.T)
        t = Tiling([(left, "orange"), (right, "red")], rot[:, 0], rot[:, 1])
        bucket_rank = t._build_locator().bucket_rank.reshape(g, g)
        assert (bucket_rank[38, 1:-1] == t.priority.index("orange")).all()
        assert (bucket_rank[39] == len(t.priority)).all()
        pts = bucket_probes(t)
        colors, interior = t.color_at_many(pts)
        ref_colors, ref_interior = brute_force_color_at_many(t, pts)
        assert (colors == ref_colors).all()
        assert (interior == ref_interior).all()

    @pytest.mark.parametrize("shape", [(2,), (3, 3), (4, 1), (2, 2, 2)])
    def test_points_not_n_by_2(self, shape):
        t = assemble_block2(constants())
        with pytest.raises(ValueError, match=rf"shape \(n, 2\), got {re.escape(str(shape))}"):
            t.color_at_many(np.zeros(shape))

    def test_no_points(self):
        t = assemble_block2(constants())
        colors, interior = t.color_at_many(np.empty((0, 2)))
        assert colors.shape == interior.shape == (0,)
        ranks, interior = t.rank_at_many(np.empty((0, 2)))
        assert ranks.shape == interior.shape == (0,)

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

    @pytest.mark.parametrize("n, seed, error, message", [
        (1000, 1.9, TypeError, "seed must be an int"),
        (1000, True, TypeError, "seed must be an int"),
        (1000, "1", TypeError, "seed must be an int"),
        (1000, -1, ValueError, "seed must be in"),
        (1000, 2 ** 128, ValueError, "seed must be in"),
        (True, 1, TypeError, "n must be an int"),
        (1000.0, 1, TypeError, "n must be an int"),
        (-5, 1, ValueError, "n must be >= 1"),
    ])
    def test_rejects_bad_n_or_seed(self, n, seed, error, message):
        # a float seed used to run silently as its integer part
        with pytest.raises(error, match=re.escape(message)):
            monte_carlo_check(assemble_block2(constants()),
                              ColoringType.unit_except(red=0.5), n, seed=seed)

    def test_numpy_integers_accepted(self):
        t = assemble_block2(constants())
        ct = ColoringType.unit_except(red=0.3)
        assert monte_carlo_check(t, ct, np.int64(2_000), seed=np.uint64(2 ** 64 - 1)) == (
            monte_carlo_check(t, ct, 2_000, seed=2 ** 64 - 1))
        assert monte_carlo_check(t, ct, 2_000, seed=2 ** 128 - 1) > 0


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
