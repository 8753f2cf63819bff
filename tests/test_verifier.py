"""Tests for the distance-avoidance verifier and Monte Carlo cross-check."""

import collections
import hashlib
import os
import re
import signal
import sys
import threading
import time
import traceback
import tracemalloc

import numpy as np
import pytest

from sixcoloring.coloring_one import Params1, assemble_block, default_alpha1
from sixcoloring import locate, verifier
from sixcoloring.coloring_two import assemble_block2, constants
from sixcoloring.errors import InvalidTilingError, RangeError
from sixcoloring.geom import (
    EPS_GEOM,
    ConvexPolygon,
    edge_lines,
    line_distances,
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
                q = ConvexPolygon(poly.vertices + (a * t.v1 + b * t.v2))
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


def sabotaged_coloring_two():
    """Coloring 2 with its yellow cell recolored green, criterion 7's invalid tiling."""
    t = assemble_block2(constants())
    cells = list(t.cells)
    idx = next(i for i, (_, c) in enumerate(cells) if c == "yellow")
    cells[idx] = (cells[idx][0], "green")
    return Tiling(cells, t.v1, t.v2, t.priority)


def one_pass_monte_carlo(t, ct, n, seed):
    """Reference Monte Carlo: the whole sample drawn in one pass, random((n, 2))
    then random(n) from Philox(key=seed), and located by brute force."""
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    u = rng.random((n, 2))
    theta = rng.random(n) * (2 * np.pi)
    p1 = u[:, :1] * t.v1 + u[:, 1:] * t.v2
    colors1, interior1 = brute_force_color_at_many(t, p1)
    dist = np.array([ct.distances[c] for c in colors1])
    p2 = p1 + dist[:, None] * np.column_stack([np.cos(theta), np.sin(theta)])
    colors2, interior2 = brute_force_color_at_many(t, p2)
    return int(np.count_nonzero((colors1 == colors2) & interior1 & interior2))


def nudged(pts):
    """Each point of pts (n, 2) nudged by 0 or +-EPS_GEOM / 2 per axis."""
    h = EPS_GEOM / 2
    nudges = np.array([(a, b) for a in (-h, 0, h) for b in (-h, 0, h)])
    return (pts[:, None, :] + nudges[None, :, :]).reshape(-1, 2)


def bucket_probes(t):
    """Every corner and edge midpoint of the point locator's buckets in the
    base lattice parallelogram, each nudged by 0 or +-EPS_GEOM / 2 per axis."""
    g = locate.LOCATE_GRID
    k = np.arange(2 * g + 1)
    i, j = (x.ravel() for x in np.meshgrid(k, k, indexing="ij"))
    keep = (i % 2 == 0) | (j % 2 == 0)  # leave out the bucket centres
    frac = np.column_stack([i[keep], j[keep]]) / (2 * g)
    return nudged(frac @ np.column_stack([t.v1, t.v2]).T)


def bucket_ranks(t):
    """Per bucket of the point locator's g x g grid, (g, g): the rank its
    s x s cells of the rank table hold if they hold one rank below
    len(priority), else len(priority)."""
    g, s, nc = locate.LOCATE_GRID, locate.LOCATE_REFINE, len(t.priority)
    cells = locate.build(t).cell_rank.reshape(g, s, g, s)
    lo, hi = cells.min(axis=(1, 3)), cells.max(axis=(1, 3))
    return np.where((lo == hi) & (hi < nc), hi, nc)


def sub_bucket_probes(t, mixed=None):
    """Every corner and edge midpoint of the sub-buckets of the unresolved
    buckets `mixed`, by default 24 spread evenly over them in index order,
    each nudged by 0 or +-EPS_GEOM / 2 per axis."""
    g, s = locate.LOCATE_GRID, locate.LOCATE_REFINE
    if mixed is None:
        mixed = np.flatnonzero(bucket_ranks(t) == len(t.priority))
        mixed = mixed[np.unique(np.linspace(0, len(mixed) - 1, 24).astype(int))]
    k = np.arange(2 * s + 1)
    i, j = (x.ravel() for x in np.meshgrid(k, k, indexing="ij"))
    keep = (i % 2 == 0) | (j % 2 == 0)  # leave out the sub-bucket centres
    frac = np.stack([(mixed // g * 2 * s)[:, None] + i[keep],
                     (mixed % g * 2 * s)[:, None] + j[keep]], axis=-1).reshape(-1, 2) / (2 * g * s)
    return nudged(frac @ np.column_stack([t.v1, t.v2]).T)


def vertex_probes(t):
    """Every cell vertex and edge midpoint, each nudged by 0 or
    +-EPS_GEOM / 2 per axis."""
    return nudged(np.concatenate([np.concatenate([p.vertices, 0.5 * (
        p.vertices + np.roll(p.vertices, -1, axis=0))]) for p, _ in t.cells]))


def locator_case(which):
    """Coloring 1 at d = 0.45, coloring 2, or overlapping_tiling()."""
    if which == "coloring 1":
        return assemble_block(Params1(0.45, default_alpha1(0.45)))
    if which == "coloring 2":
        return assemble_block2(constants())
    return overlapping_tiling()


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


def scalar_intervals(t, ct, reach=4):
    """(color, d, i, j, offset, interval) of every same-color translate pair
    whose bounding boxes are at most d + BINDING_TOL apart, from a loop over
    the offsets |a|, |b| <= reach and one ConvexPolygon and one scalar
    distance call per pair. It asserts that no such pair lies on the loop's
    edge, so the loop reaches every one."""
    for i, (p, color) in enumerate(t.cells):
        d = ct.distances[color]
        lo, hi = p.vertices.min(axis=0), p.vertices.max(axis=0)
        for j in [j for j, (_, c) in enumerate(t.cells) if j >= i and c == color]:
            for a in range(-reach, reach + 1):
                for b in range(-reach, reach + 1):
                    if i == j and (a, b) < (0, 0):
                        continue  # offsets of a cell to itself come in +- pairs
                    # unchecked, as a translate of a checked cell needs no check
                    q = ConvexPolygon._of(t.cells[j][0].vertices + (a * t.v1 + b * t.v2))
                    gap = np.maximum(0.0, np.maximum(q.vertices.min(axis=0) - hi,
                                                     lo - q.vertices.max(axis=0)))
                    if np.hypot(*gap) > d + BINDING_TOL:
                        continue
                    assert max(abs(a), abs(b)) < reach
                    mn = 0.0 if i == j and a == b == 0 else polygon_min_distance(p, q)
                    yield color, d, i, j, (a, b), (mn, polygon_max_distance(p, q))


def per_pair_verify(t, ct, strictness, reach=4):
    witnesses, pairs, translates = [], 0, set()
    for color, d, i, j, offset, interval in scalar_intervals(t, ct, reach):
        pairs += 1
        translates.add(offset)
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
                   for color, d, i, j, offset, interval in scalar_intervals(t, ct)
                   if min(abs(x - d) for x in interval) <= BINDING_TOL),
                  key=lambda w: (w.color, w.pair, w.offset))


class TestColoringType:
    @pytest.mark.parametrize("d", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_rejects_non_finite_or_non_positive(self, d):
        with pytest.raises(ValueError, match="finite and positive"):
            ColoringType.unit_except(red=d)

    @pytest.mark.parametrize("check", [
        verify,
        critical_witnesses,
        lambda t, ct: monte_carlo_check(t, ct, 1_000, seed=1),
    ])
    def test_missing_cell_colors_named(self, check):
        # used to surface as a bare KeyError from deep inside
        t = assemble_block2(constants())
        distances = ColoringType.unit_except(red=0.55).distances
        ct = ColoringType({c: d for c, d in distances.items() if c not in ("orange", "blue")})
        with pytest.raises(ValueError, match=re.escape("['blue', 'orange']")):
            check(t, ct)


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

    def test_collinear_edges_do_not_cross(self):
        # blue cell 2 and its translate by v2 have an edge each on one line,
        # 1.09 apart; their cross products round to about 1e-17, either sign
        p = Params1(0.5066458200085932, 117.55837612933705)
        report = verify(assemble_block(p), ColoringType.unit_except(red=p.d))
        assert report.verdict == "valid"

    def test_witnesses_sorted(self):
        report = verify(assemble_block2(constants()), ColoringType.unit_except(red=0.3))
        keys = [(w.color, w.pair, w.offset) for w in report.witnesses]
        assert keys == sorted(keys)

    def test_translation_invariance(self):
        # far from the origin validate still clips each pair about a vertex
        # of its own, and sums each cell's area about a vertex of its own, so
        # both colorings stay valid, coloring 2 with its 19 pairs
        t2, far = assemble_block2(constants()), ((1000.0, 1000.0), (-317.25, 2048.5), (1e4, 1e4))
        t1 = assemble_block(Params1(0.45, default_alpha1(0.45)))
        cases = [(t1, 0.45, shift) for shift in ((0.123, -0.456), (1e4, 1e4))]
        cases += [(t2, 0.5, shift) for shift in far]
        for t, d, shift in cases:
            moved = Tiling([(p.vertices + shift, c) for p, c in t.cells], t.v1, t.v2, t.priority)
            r0 = verify(t, ColoringType.unit_except(red=d))
            r1 = verify(moved, ColoringType.unit_except(red=d))
            assert r0.valid == r1.valid
            assert r0.pairs_checked == r1.pairs_checked
        assert r1.valid and r1.pairs_checked == 19
        # and with cell 3 moved onto cell 0 it still overlaps
        for shift in far:
            moved = Tiling([(p.vertices + (np.add(shift, (0.05, 0.0)) if k == 3 else shift), c)
                            for k, (p, c) in enumerate(t2.cells)], t2.v1, t2.v2, t2.priority)
            with pytest.raises(InvalidTilingError, match="cells 0 and 3 overlap"):
                moved.validate()

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
                            # unchecked, as a translate of a checked cell needs no check
                            q = ConvexPolygon._of(t.cells[j][0].vertices + (a * t.v1 + b * t.v2))
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

    def test_closed_counts_pairs_just_beyond_d(self):
        # the red strips x in [0, 1] and [1.5, 2.5] lie 0.5 apart, just over
        # red's avoided distance but within VIOLATION_TOL of it, so the
        # closed check must compute their interval and report it
        def strip(x0, x1):
            return ConvexPolygon(np.array([[x0, 0], [x1, 0], [x1, 1], [x0, 1]], dtype=float))

        t = Tiling([(strip(0, 1), "red"), (strip(1, 1.5), "blue"), (strip(1.5, 2.5), "red")],
                   (2.5, 0.0), (0.0, 1.0))
        ct = ColoringType(distances={"red": 0.5 - 5e-10, "blue": 7.0})
        report = verify(t, ct, strictness="closed")
        assert report == per_pair_verify(t, ct, "closed", reach=9)  # blue reaches 7 strips up
        w = next(w for w in report.witnesses if w.pair == (0, 2) and w.offset == (0, 0))
        assert w.interval[0] == 0.5
        assert not any(w.pair == (0, 2) and w.offset == (0, 0)
                       for w in verify(t, ct).witnesses)


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


def witness_bits(witnesses):
    return [(w.color, w.pair, w.offset, *(x.hex() for x in (*w.interval, w.distance)))
            for w in witnesses]


def verdict_records(t, d):
    """validate's message and the open, closed and binding verdicts of t at
    red distance d, every interval as its bits."""
    try:
        t.validate()
        records = ["partition"]
    except InvalidTilingError as e:
        records = [str(e)]
    ct = ColoringType.unit_except(red=d)
    for strictness in ("open", "closed"):
        r = verify(t, ct, strictness, validate=False)
        records.append((r.verdict, r.pairs_checked, witness_bits(r.witnesses)))
    return records + [witness_bits(critical_witnesses(t, ct))]


class TestPinnedVerdicts:
    # SHA-1 of the records below, as the two-sided separating-axis kernel
    # gave them; a change to the pair kernel must keep every bit
    PINNED = "52c4ac44fa0004cde43ca10c78c6010845de9d38"

    def test_grid_verdicts_unchanged(self):
        t0 = time.perf_counter()
        records = []
        # coloring 1 across its feasible band and beyond it on both sides
        for d in np.linspace(0.30, 0.60, 13).tolist():
            for alpha1 in np.linspace(95.0, 150.0, 23).tolist():
                try:
                    t = assemble_block(Params1(d, alpha1))
                except ValueError as e:
                    records.append((d, alpha1, type(e).__name__, str(e)))
                    continue
                records.append((d, alpha1, verdict_records(t, d)))
        # coloring 2, the same recolored, the same with cell 3 moved onto a
        # neighbour, and a block of the wrong area
        t2 = assemble_block2(constants())
        moved = Tiling([(p.vertices + (0.05, 0.0) if k == 3 else p, c)
                        for k, (p, c) in enumerate(t2.cells)], t2.v1, t2.v2, t2.priority)
        for t in (t2, sabotaged_coloring_two(), moved, overlapping_tiling()):
            records += [(d, verdict_records(t, d)) for d in np.linspace(0.35, 0.70, 15).tolist()]
        elapsed = time.perf_counter() - t0
        assert hashlib.sha1(repr(records).encode()).hexdigest() == self.PINNED
        assert elapsed < 5.0


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
        # nudged cell vertices and edge midpoints probe the boundary cases of
        # bucket listing; bucket and sub-bucket corners and edge midpoints,
        # those of the resolved buckets and sub-buckets
        special = vertex_probes(t)
        rng = np.random.default_rng(5)
        pts = np.concatenate([rng.uniform(-3, 3, (20_000, 2)), bucket_probes(t),
                              sub_bucket_probes(t), special])
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
        cells[0] = (cells[0][0].vertices + k * (t.v1 + t.v2), cells[0][1])
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
        ranks = bucket_ranks(t)
        assert (ranks == t.priority.index("red")).any()
        assert (ranks == t.priority.index("orange")).any()

    @pytest.mark.parametrize("which", ["coloring 1", "coloring 2", "overlapping cells"])
    def test_buckets_list_every_touching_translate(self, which):
        # every translate whose boundary test a probe passes must be tested
        # for it, whether or not its color would win there: in a resolved
        # bucket or sub-bucket the probe lies inside it, with EPS_GEOM to
        # spare, and its rank is no less than the bucket's; otherwise the
        # probe's row of the table has a slot of its rank and its edges
        t = locator_case(which)
        loc = locate.build(t)
        g, nc = loc.grid, len(t.priority)
        pts = np.concatenate([bucket_probes(t), sub_bucket_probes(t)])
        # the probe's cell of the rank table and base point as rank_at_many finds them
        frac = t._Linv @ pts.T
        frac -= np.floor(frac)
        ij = np.minimum((frac * g).astype(np.intp), g - 1)
        code = loc.cell_rank[ij[0] * g + ij[1]]
        x, y = t._L @ frac
        base_cell = ConvexPolygon(np.array([[0, 0], [1, 0], [1, 1], [0, 1]]) @ t._L.T)
        touched = 0
        for poly, color in t.cells:
            r = t.priority.index(color)
            for a in range(-2, 3):
                for b in range(-2, 3):
                    q = ConvexPolygon(poly.vertices + (a * t.v1 + b * t.v2))
                    if polygon_min_distance(q, base_cell) > EPS_GEOM:
                        continue
                    edges = edge_lines(q.vertices)
                    mindist = line_distances(x, y, edges[..., None]).min(axis=0)
                    touching = mindist >= -EPS_GEOM
                    held = touching & (code < nc)
                    assert (mindist[held] > EPS_GEOM).all()
                    assert (code[held] <= r).all()
                    # the table's lines that are edges of q, and the probes' slots
                    own = (loc.lines[:, :, None] == edges[:, None, :]).all(axis=0).any(axis=1)
                    slots = loc.table[code[touching & (code >= nc)] - nc]
                    assert (own[slots].all(axis=2)
                            & (loc.line_rank[slots[..., 0]] == r)).any(axis=1).all()
                    touched += np.count_nonzero(touching)
        assert touched > len(x)  # boundary probes touch several translates

    @pytest.mark.parametrize("which", ["coloring 1", "coloring 2", "overlapping cells"])
    def test_results_independent_of_grid_size(self, which, monkeypatch):
        t = locator_case(which)
        rng = np.random.default_rng(17)
        pts = np.concatenate([rng.uniform(-3, 3, (20_000, 2)), vertex_probes(t)])
        want_ranks, want_interior = t.rank_at_many(pts)
        for g in (1, 7, 16, 64):
            for s in (1, 2, 8):  # 1: no sub-buckets
                monkeypatch.setattr(locate, "LOCATE_GRID", g)
                monkeypatch.setattr(locate, "LOCATE_REFINE", s)
                ranks, interior = Tiling(t.cells, t.v1, t.v2, t.priority).rank_at_many(pts)
                assert (ranks == want_ranks).all()
                assert (interior == want_interior).all()

    @pytest.mark.parametrize("which", ["coloring 1", "coloring 2"])
    def test_most_buckets_resolved(self, which):
        # the point locator's speed rests on this; a bucket classification
        # that resolves nothing would still give right answers, slowly
        t = locator_case(which)
        assert np.mean(bucket_ranks(t) < len(t.priority)) >= 0.85

    def test_resolved_buckets_keep_spare_margin(self):
        # the shared edge lies 1.5 EPS_GEOM right of the bucket column
        # ending at grid line 40: the per-point test calls those corners
        # interior to the left cell, but a bucket is resolved only with
        # EPS_GEOM to spare, so the column is left to the per-point test
        g, s = locate.LOCATE_GRID, locate.LOCATE_REFINE
        rot = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])
        x = 40 / g + 1.5 * EPS_GEOM
        left = ConvexPolygon(np.array([[0, 0], [x, 0], [x, 1], [0, 1]]) @ rot.T)
        right = ConvexPolygon(np.array([[x, 0], [1, 0], [1, 1], [x, 1]]) @ rot.T)
        t = Tiling([(left, "orange"), (right, "red")], rot[:, 0], rot[:, 1])
        cells = locate.build(t).cell_rank.reshape(g, s, g, s)
        assert (cells[38, :, 1:-1] == t.priority.index("orange")).all()
        assert (bucket_ranks(t)[39] == len(t.priority)).all()
        pts = bucket_probes(t)
        colors, interior = t.color_at_many(pts)
        ref_colors, ref_interior = brute_force_color_at_many(t, pts)
        assert (colors == ref_colors).all()
        assert (interior == ref_interior).all()

    def test_resolved_sub_buckets_keep_spare_margin(self):
        # as above one level down: the shared edge lies 1.5 EPS_GEOM right of
        # sub-grid line 4 inside bucket column 40, so sub-columns 3 and 4 are
        # left to the per-point test and the others resolve
        g, s = locate.LOCATE_GRID, locate.LOCATE_REFINE
        rot = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])
        x = (40 + 4 / s) / g + 1.5 * EPS_GEOM
        left = ConvexPolygon(np.array([[0, 0], [x, 0], [x, 1], [0, 1]]) @ rot.T)
        right = ConvexPolygon(np.array([[x, 0], [1, 0], [1, 1], [x, 1]]) @ rot.T)
        t = Tiling([(left, "orange"), (right, "red")], rot[:, 0], rot[:, 1])
        cells = locate.build(t).cell_rank.reshape(g, s, g, s)
        nc = len(t.priority)
        assert (cells[39, :, 1:-1] == t.priority.index("orange")).all()
        assert (bucket_ranks(t)[40] == nc).all()
        sub = cells[40, :, 1:-1]  # (sub-row, bucket column, sub-column)
        assert (sub[:3] == t.priority.index("orange")).all()
        assert (sub[3:5] >= nc).all()
        assert (sub[5:] == t.priority.index("red")).all()
        pts = sub_bucket_probes(t, 40 * g + np.arange(1, g - 1, 4))
        colors, interior = t.color_at_many(pts)
        ref_colors, ref_interior = brute_force_color_at_many(t, pts)
        assert (colors == ref_colors).all()
        assert (interior == ref_interior).all()

    @pytest.mark.parametrize("which", ["coloring 1", "coloring 2"])
    def test_few_points_left_to_the_table(self, which):
        # the crossing-line test's share of the parallelogram: about 1.5%
        loc = locate.build(locator_case(which))
        assert len(loc.table) / loc.grid ** 2 <= 0.025

    @pytest.mark.parametrize("which", ["coloring 1", "coloring 2", "overlapping cells"])
    def test_far_points(self, which):
        # moved by a whole lattice vector to just inside the locator's bound,
        # nudged vertices keep the brute-force answer; just beyond it, the
        # locator refuses them
        t = locator_case(which)
        reach = locate.build(t).reach
        pts = vertex_probes(t)
        for k in (int(reach) - 2, -int(reach) + 2):
            far = pts + k * (t.v1 + t.v2)
            assert np.abs(far @ t._Linv.T).max() <= reach
            colors, interior = t.color_at_many(far)
            ref_colors, ref_interior = brute_force_color_at_many(t, far)
            assert (colors == ref_colors).all()
            assert (interior == ref_interior).all()
        with pytest.raises(RangeError, match=f"beyond {reach:.6g}, where reducing a point"):
            t.color_at_many(pts + (int(reach) + 2) * t.v1)

    @pytest.mark.parametrize("which", ["coloring 1", "coloring 2"])
    def test_input_layout_does_not_matter(self, which):
        # the locator works on (2, n) rows; every layout of the same points
        # must reach the same bits
        t = locator_case(which)
        rng = np.random.default_rng(12)
        pts = np.concatenate([rng.uniform(-3, 3, (50_000, 2)), bucket_probes(t)])
        want_ranks, want_interior = t.rank_at_many(pts)
        for layout in (np.asfortranarray(pts), np.ascontiguousarray(pts.T).T,
                       np.repeat(pts, 2, axis=0)[::2]):
            ranks, interior = t.rank_at_many(layout)
            assert (ranks == want_ranks).all()
            assert (interior == want_interior).all()
        ints = rng.integers(-3, 4, (2_000, 2))
        want_ranks, want_interior = t.rank_at_many(ints.astype(float))
        for layout in (ints, np.asfortranarray(ints), np.ascontiguousarray(ints.T).T):
            ranks, interior = t.rank_at_many(layout)
            assert (ranks == want_ranks).all()
            assert (interior == want_interior).all()

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
        bad = sabotaged_coloring_two()
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
        monkeypatch.setattr(locate, "LOCATE_CHUNK", 37)
        small = monte_carlo_check(t, ct, n, seed=11)
        monkeypatch.setattr(locate, "LOCATE_CHUNK", 10 * n)
        large = monte_carlo_check(t, ct, n, seed=11)
        assert small == large > 0

    def test_counts_pinned(self):
        # exact counts, where criterion 7 asks only for 0 and > 0, so a
        # change in the sample or in how its points are located shows; the
        # tilings are criterion 7's, the sabotaged one with coloring 2's
        # yellow cell recolored green, and two with red distances realized
        t1 = assemble_block(Params1(0.45, default_alpha1(0.45)))
        t2 = assemble_block2(constants())
        sabotaged = sabotaged_coloring_two()
        for t, red, seed, count in [(t1, 0.45, 1, 0), (t1, 0.45, 42, 0),
                                    (t2, 0.55, 1, 0), (t2, 0.55, 42, 0),
                                    (sabotaged, 0.55, 1, 21541), (sabotaged, 0.55, 42, 21478),
                                    (t1, 0.6, 1, 180), (t2, 0.3, 1, 769)]:
            ct = ColoringType.unit_except(red=red)
            assert monte_carlo_check(t, ct, 200_000, seed=seed) == count

    def test_locates_through_rank_at_many(self, monkeypatch):
        # bench/tracing.py counts located points by wrapping this attribute
        # and taking len() of the points argument
        calls = []
        rank_at_many = Tiling.rank_at_many

        def spy(self, pts):
            calls.append(len(pts))
            return rank_at_many(self, pts)

        monkeypatch.setattr(Tiling, "rank_at_many", spy)
        t, ct = assemble_block2(constants()), ColoringType.unit_except(red=0.55)
        monte_carlo_check(t, ct, 3_000, seed=1)
        assert calls == [3_000, 3_000]
        # across blocks each call gets at most one block, and together they
        # get both endpoints of every point, so the tracer still reads 2n
        calls.clear()
        monkeypatch.setattr(locate, "LOCATE_CHUNK", 1_000)
        monte_carlo_check(t, ct, 3_000, seed=1)
        assert max(calls) <= 1_000 and sum(calls) == 6_000

    @pytest.mark.parametrize("which, block, n, seed", [
        *[(which, block, 3_001, 5) for which in ("sabotaged", "red 0.3")
          for block in (1, 7, 4_093)],
        ("sabotaged", 1_000, np.int64(3_001), 2 ** 128 - 1),
        ("sabotaged", 1_000, np.int64(3_001), np.uint64(2 ** 64 - 1)),
    ])
    def test_blocks_match_one_pass_oracle(self, monkeypatch, which, block, n, seed):
        # odd block sizes make blocks straddle Philox's 4-double counter steps;
        # the last cases take numpy integers and the largest key over four blocks
        if which == "sabotaged":
            t, ct = sabotaged_coloring_two(), ColoringType.unit_except(red=0.55)
        else:
            t, ct = assemble_block2(constants()), ColoringType.unit_except(red=0.3)
        want = one_pass_monte_carlo(t, ct, n, seed)
        monkeypatch.setattr(locate, "LOCATE_CHUNK", block)
        assert monte_carlo_check(t, ct, n, seed=seed) == want > 0

    @pytest.mark.parametrize("which", ["sabotaged", "red 0.3"])
    def test_crossing_lines_alone_match_one_pass_oracle(self, monkeypatch, which):
        # one bucket and no sub-buckets: every point takes the crossing-line test
        if which == "sabotaged":
            t, ct = sabotaged_coloring_two(), ColoringType.unit_except(red=0.55)
        else:
            t, ct = assemble_block2(constants()), ColoringType.unit_except(red=0.3)
        monkeypatch.setattr(locate, "LOCATE_GRID", 1)
        monkeypatch.setattr(locate, "LOCATE_REFINE", 1)
        fresh = Tiling(t.cells, t.v1, t.v2, t.priority)
        assert monte_carlo_check(fresh, ct, 20_000, seed=6) == one_pass_monte_carlo(
            t, ct, 20_000, 6) > 0
        loc = fresh._locator
        assert loc.cell_rank.tolist() == [len(t.priority)] and len(loc.table) == 1

    @pytest.mark.parametrize("which", ["sabotaged", "red 0.3"])
    @pytest.mark.parametrize("block, n", [(1, 3_001), (7, 3_001), (4_093, 9_001)])
    def test_pool_matches_one_pass_oracle(self, monkeypatch, which, block, n):
        # three workers on any host, so a one-CPU machine runs the pool too
        if which == "sabotaged":
            t, ct = sabotaged_coloring_two(), ColoringType.unit_except(red=0.55)
        else:
            t, ct = assemble_block2(constants()), ColoringType.unit_except(red=0.3)
        seed = 5
        want = one_pass_monte_carlo(t, ct, n, seed)
        builds, threads = [], set()
        build, rank_at_many = locate.build, Tiling.rank_at_many

        def build_spy(t):
            builds.append(threading.get_ident())
            return build(t)

        def locate_spy(self, pts):
            threads.add(threading.get_ident())
            return rank_at_many(self, pts)

        monkeypatch.setattr(locate, "build", build_spy)
        monkeypatch.setattr(Tiling, "rank_at_many", locate_spy)
        monkeypatch.setattr(verifier, "_worker_count", lambda blocks: 3)
        monkeypatch.setattr(locate, "LOCATE_CHUNK", block)
        fresh = Tiling(t.cells, t.v1, t.v2, t.priority)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, so that a race would show
        try:
            count = monte_carlo_check(fresh, ct, n, seed=seed)
        finally:
            sys.setswitchinterval(interval)
        assert count == want > 0
        # the caller's thread builds the locator, once, and the workers share it
        assert builds == [threading.get_ident()]
        assert threads - {threading.get_ident()}

    def test_pool_raises_as_serial(self, monkeypatch):
        # with the smallest cell removed, some points lie in no cell translate;
        # at this seed blocks 0 and 1 of 10 points are covered and block 2 is
        # not, so with three workers only a pool thread raises
        t = assemble_block2(constants())
        hole = int(np.argmin(t._areas))
        holed = Tiling(t.cells[:hole] + t.cells[hole + 1:], t.v1, t.v2, t.priority)
        ct = ColoringType.unit_except(red=0.55)
        raised_in, rank_at_many = [], Tiling.rank_at_many

        def spy(self, pts):
            try:
                return rank_at_many(self, pts)
            except InvalidTilingError:
                raised_in.append(threading.get_ident())
                raise

        monkeypatch.setattr(Tiling, "rank_at_many", spy)
        monkeypatch.setattr(locate, "LOCATE_CHUNK", 10)
        errors = []
        for workers in (1, 3):
            monkeypatch.setattr(verifier, "_worker_count", lambda blocks, w=workers: w)
            raised_in.clear()
            before = threading.active_count()
            with pytest.raises(InvalidTilingError) as info:
                monte_carlo_check(holed, ct, 30, seed=4)
            assert threading.active_count() == before
            errors.append((info.type, str(info.value), raised_in == [threading.get_ident()]))
            assert len(raised_in) == 1
        message = "point not covered by any cell translate"
        assert errors == [(InvalidTilingError, message, True), (InvalidTilingError, message, False)]

    @pytest.mark.parametrize("raiser", ["pool", "caller"])
    def test_no_block_starts_after_a_raise(self, monkeypatch, raiser):
        # once a block raises, each other thread ends at most the block it is
        # in, so it makes at most that block's two rank_at_many calls
        t, ct = assemble_block2(constants()), ColoringType.unit_except(red=0.55)

        class Raised(BaseException):  # as an interrupt is: not an Exception
            pass

        class Stop(threading.Event):
            def __init__(self):
                super().__init__()
                stops.append(self)

        caller, rank_at_many = threading.get_ident(), Tiling.rank_at_many
        stops, raised, unstopped = [], [], []
        calls, late = collections.Counter(), collections.Counter()

        def spy(self, pts):
            me = threading.get_ident()
            if raised and not unstopped and not stops[-1].wait(1):
                unstopped.append(me)  # the raising thread sets the stop as it unwinds
            late[me] += bool(raised)
            calls[me] += 1
            # a pool thread's first block, or the caller's second: a stride's first
            if not raised and (me != caller if raiser == "pool" else me == caller and calls[me] == 3):
                raised.append(me)
                raise Raised
            return rank_at_many(self, pts)

        monkeypatch.setattr(verifier, "Event", Stop)
        monkeypatch.setattr(verifier, "_worker_count", lambda blocks: 3)
        monkeypatch.setattr(locate, "LOCATE_CHUNK", 10)
        monkeypatch.setattr(Tiling, "rank_at_many", spy)
        before, interval = threading.active_count(), sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, so that the strides interleave
        try:
            with pytest.raises(Raised):
                monte_carlo_check(t, ct, 2_000, seed=3)
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == before
        assert (raised[0] == caller) == (raiser == "caller")
        assert len(stops) == 1 and stops[0].is_set() and not unstopped
        assert max(late.values()) <= 2

    @pytest.mark.skipif(not hasattr(signal, "pthread_kill"), reason="needs pthread_kill")
    def test_interrupt_while_waiting_stops_the_pool(self, monkeypatch):
        # two threads, 20 blocks: the pool thread holds its first block until
        # the caller, its own stride done, waits for it and is interrupted
        t, ct = assemble_block2(constants()), ColoringType.unit_except(red=0.55)

        class Raised(BaseException):  # as an interrupt is: not an Exception
            pass

        class Stop(threading.Event):
            def __init__(self):
                super().__init__()
                stops.append(self)

        def interrupt(signum, frame):
            if not interrupted:  # the first signal only: a later one may land while unwinding
                interrupted.append(signum)
                raise Raised

        def waiting_in(frame):  # names of the functions on a thread's stack
            return {f.f_code.co_name for f, _ in traceback.walk_stack(frame)}

        caller, rank_at_many = threading.get_ident(), Tiling.rank_at_many
        stops, pool_calls, interrupted = [], [], []

        def spy(self, pts):
            if threading.get_ident() != caller:
                pool_calls.append(stops[-1].is_set())
                if len(pool_calls) == 1:
                    while "result" not in waiting_in(sys._current_frames()[caller]):
                        time.sleep(1e-3)
                    # sent until the stop is set, for up to 5 s: a signal that
                    # lands just before the caller blocks on a lock waits with it
                    for _ in range(500):
                        signal.pthread_kill(caller, signal.SIGUSR1)
                        if stops[-1].wait(0.01):
                            break
            return rank_at_many(self, pts)

        assert threading.current_thread() is threading.main_thread()  # signals go there
        monkeypatch.setattr(verifier, "Event", Stop)
        monkeypatch.setattr(verifier, "_worker_count", lambda blocks: 2)
        monkeypatch.setattr(locate, "LOCATE_CHUNK", 10)
        monkeypatch.setattr(Tiling, "rank_at_many", spy)
        handler = signal.signal(signal.SIGUSR1, interrupt)
        try:
            with pytest.raises(Raised):
                monte_carlo_check(t, ct, 200, seed=3)
        finally:
            signal.signal(signal.SIGUSR1, handler)
        # the pool thread ends the block it holds and starts none of its other 8
        assert pool_calls == [False, True]

    def test_worker_count_capped(self, monkeypatch):
        # on many CPUs, at most LOCATE_THREADS blocks are in flight at once
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
        assert verifier._worker_count(1_000) == verifier.LOCATE_THREADS == 2
        assert verifier._worker_count(1) == 1
        monkeypatch.setattr(verifier, "LOCATE_THREADS", 5)
        assert verifier._worker_count(1_000) == 5
        # without sched_getaffinity the CPU count is used, and an unknown one is 1
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert verifier._worker_count(1_000) == 1
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert verifier._worker_count(1_000) == 3

    def test_memory_does_not_grow_with_n(self):
        # holding the whole sample of 10**6 points at once peaked at 94.6 MiB
        t, ct = assemble_block2(constants()), ColoringType.unit_except(red=0.55)
        t.rank_at_many(np.zeros((1, 2)))  # build the point locator beforehand
        tracemalloc.start()
        try:
            count = monte_carlo_check(t, ct, 10 ** 6, seed=42)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 0
        assert peak < 16 << 20

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
