"""Tests for the partition check, the lattice neighbourhoods and tiling input."""

import json
import math
import re
import time
import tracemalloc

import numpy as np
import pytest

from sixcoloring import tiling
from sixcoloring.coloring_one import Params1, assemble_block, default_alpha1
from sixcoloring.coloring_two import assemble_block2, constants
from sixcoloring.errors import DomainError, InvalidTilingError, RangeError
from sixcoloring.geom import ConvexPolygon, convex_intersection_area
from sixcoloring.tiling import OVERLAP_AREA_TOL, ColoringType, Tiling, _lattice_offsets
from sixcoloring.verifier import verify


def box(x0, x1, y0=0.0, y1=1.0):
    return ConvexPolygon(np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]], dtype=float))


def far_overlap_tiling():
    """Block area equals the cell area, but A overlaps B + 2 v1 only."""
    return Tiling([(box(0.0, 0.5), "red"), (box(-1.75, -1.25), "blue")], (1.0, 0.0), (0.0, 1.0))


def moved_cell(t, k, shift):
    """t with cell k translated by `shift`: same block area, overlapping cells."""
    cells = [(p.vertices + shift if i == k else p, c) for i, (p, c) in enumerate(t.cells)]
    return Tiling(cells, t.v1, t.v2, t.priority)


def clipped_translates(t, i, reach):
    """(j, q) for every cell j and translate q = cell j + a v1 + b v2, |a|, |b|
    <= reach, in lexicographic order, leaving out cell i itself and the
    translates whose bounding boxes are apart from cell i's: those cannot
    overlap it."""
    p = t.cells[i][0].vertices
    ab = np.array([(a, b) for a in range(-reach, reach + 1) for b in range(-reach, reach + 1)])
    off = ab[:, :1] * t.v1 + ab[:, 1:] * t.v2
    for j, (q, _) in enumerate(t.cells):
        near = ((q.vertices.min(axis=0) + off <= p.max(axis=0)).all(axis=1)
                & (p.min(axis=0) <= q.vertices.max(axis=0) + off).all(axis=1))
        for (a, b), o in zip(ab[near].tolist(), off[near]):
            if (j, a, b) != (i, 0, 0):
                yield j, ConvexPolygon._of(q.vertices + o)  # a translate needs no check


def brute_force_validate(t, reach=3):
    """Reference partition check: clip every cell pair i <= j at every offset
    with |a|, |b| <= reach whose bounding boxes meet, in the order
    Tiling.validate reports."""
    if abs(t.block_area() - t.cell_area()) > 1e-9:
        return "area"
    for i, (p, _) in enumerate(t.cells):
        for j, q in clipped_translates(t, i, reach):
            if j >= i and convex_intersection_area(p.vertices.tolist(),
                                                   q.vertices.tolist()) > OVERLAP_AREA_TOL:
                return f"cells {i} and {j} overlap"
    return None


def largest_overlap(t, k):
    """The largest clip area of cell k with another cell translate."""
    p = t.cells[k][0].vertices.tolist()
    return max(convex_intersection_area(p, q.vertices.tolist())
               for _, q in clipped_translates(t, k, 1))


def bricks(s):
    """Two rows of unit bricks, the upper shifted by s: cells meet at T-junctions."""
    return Tiling([(box(0.0, 1.0, 0.0, 0.5), "red"), (box(s, 1.0 + s, 0.5, 1.0), "blue")],
                  (1.0, 0.0), (0.0, 1.0))


def validate_outcome(t):
    try:
        t.validate()
    except InvalidTilingError as exc:
        return "area" if str(exc).startswith("block area") else str(exc)
    return None


class TestValidate:
    def test_overlap_beyond_adjacent_translates(self):
        # the hard-coded |a|, |b| <= 1 neighbourhood missed this overlap
        t = far_overlap_tiling()
        assert t.block_area() == pytest.approx(t.cell_area())
        with pytest.raises(InvalidTilingError, match="cells 0 and 1 overlap"):
            t.validate()

    def test_matches_brute_force(self):
        start = time.perf_counter()
        # coloring 1 inside and outside its feasible band, and coloring 2
        c1 = [assemble_block(Params1(d, a))
              for d in (0.36, 0.45, 0.50) for a in (106.0, 120.0, 140.0)]
        t2 = assemble_block2(constants())
        # moving one cell keeps the block area but makes it overlap a neighbour
        moved = [moved_cell(t, k, shift) for t in (c1[4], t2)
                 for k in (0, 3) for shift in ((0.05, 0.0), (0.0, -0.2))]
        # both colorings are edge-to-edge; in the bricks cells meet along part
        # of an edge, and moving brick 0 makes it overlap brick 1
        brick = [bricks(s) for s in (0.5, 1 / 3)]
        brick += [moved_cell(t, 0, shift) for t in brick[:2]
                  for shift in ((0.0, 1e-9), (0.01, 0.01))]
        assert [validate_outcome(t) for t in brick] == [None] * 2 + ["cells 0 and 1 overlap"] * 4
        # every cell of both colorings moved in three directions, from 1e-9
        # to 1e-3 and so that its largest overlap is 0.6 and 1.6 times
        # OVERLAP_AREA_TOL, on both sides of the clip's threshold. For shifts
        # this small the overlap grows linearly. In the thin strips an
        # overlap spans nearly the whole cell.
        strips = Tiling([(box(0.0, 1.0, 0.0, 0.01), "red"), (box(0.0, 1.0, 0.01, 0.02), "blue")],
                        (1.0, 0.0), (0.0, 0.02))
        near = []
        for t in (c1[4], t2, strips):
            for k in range(len(t.cells)):
                for angle in (20.0, 140.0, 260.0):
                    u = np.array([math.cos(math.radians(angle)), math.sin(math.radians(angle))])
                    moved += [moved_cell(t, k, s * u) for s in (1e-9, 1e-7, 1e-5, 1e-3)]
                    rate = largest_overlap(moved_cell(t, k, 1e-6 * u), k) / 1e-6
                    near += [(moved_cell(t, k, f * OVERLAP_AREA_TOL / rate * u), k, f)
                             for f in (0.6, 1.6)]
        for t, k, f in near:
            assert largest_overlap(t, k) / OVERLAP_AREA_TOL == pytest.approx(f, rel=0.1)
        cases = c1 + [t2, far_overlap_tiling()] + brick + moved + [t for t, _, _ in near]
        outcomes = [brute_force_validate(t) for t in cases]
        assert None in outcomes and any(o and "overlap" in o for o in outcomes)
        assert [validate_outcome(t) for t in cases] == outcomes
        assert [o is None for o in outcomes[-len(near):]] == [f < 1 for _, _, f in near]
        assert time.perf_counter() - start < 10

    @pytest.mark.parametrize("which", ["coloring 1", "coloring 2"])
    def test_valid_colorings_clip_every_pair(self, which, monkeypatch):
        # validate clips each pair whose boxes meet, once; on a valid
        # coloring each clip is rounding alone: a count, not a time
        t, pairs = ((assemble_block(Params1(0.45, default_alpha1(0.45))), 27)
                    if which == "coloring 1" else (assemble_block2(constants()), 26))
        areas = []

        def counted(p, q):
            areas.append(convex_intersection_area(p, q))
            return areas[-1]

        monkeypatch.setattr(tiling, "convex_intersection_area", counted)
        t.validate()
        assert len(areas) == pairs
        assert max(areas) <= 1e-15


class TestLatticeOffsets:
    @staticmethod
    def loop_offsets(v1, v2, radius, bound):
        return [(a, b) for a in range(-bound, bound + 1) for b in range(-bound, bound + 1)
                if np.linalg.norm(a * v1 + b * v2) <= radius]

    def test_matches_loop(self):
        rng = np.random.default_rng(11)
        t1 = assemble_block(Params1(0.45, 120.0))
        lattices = [(t1.v1, t1.v2), (np.array([1.0, 0.0]), np.array([0.0, 1.0]))]
        lattices += [(rng.normal(size=2), rng.normal(size=2)) for _ in range(30)]
        for v1, v2 in lattices:
            s = np.linalg.svd(np.column_stack([v1, v2]), compute_uv=False)[-1]
            for radius in (0.0, 0.7, 2.5, float(np.hypot(*v1))):
                a, b = _lattice_offsets(v1, v2, radius)
                bound = int(np.ceil(radius / s)) + 1
                assert list(zip(a.tolist(), b.tolist())) == \
                    self.loop_offsets(v1, v2, radius, bound)

    def test_memory_follows_offsets_returned(self):
        # a bounding square of this skewed lattice at radius 5 holds ~10^8
        # offsets; the disk holds about 80
        v1, v2 = np.array([1.0, 0.0]), np.array([1000.0, 1.0])
        tracemalloc.start()
        try:
            a, b = _lattice_offsets(v1, v2, 5.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 60 < len(a) < 100
        assert np.all(np.hypot(a + 1000.0 * b, b) <= 5.0)
        assert peak < 4 << 20

    def test_huge_radius_rejected(self):
        t2 = assemble_block2(constants())
        t0 = time.perf_counter()
        with pytest.raises(RangeError, match="too large"):
            verify(t2, ColoringType.unit_except(1e6), validate=False)
        assert time.perf_counter() - t0 < 5


class TestTranslatesMeeting:
    """translates_near asked for every cell against one box, as render asks it."""

    @staticmethod
    def square_loop(t, lo, hi, pad, bound=6):
        """(cell, a, b) of every translate with |a - a_c|, |b - b_c| <= bound
        around the box centre's lattice coordinates (a_c, b_c) whose moved
        vertices' box comes within pad of [lo, hi]."""
        ac, bc = np.rint(np.linalg.solve(np.column_stack([t.v1, t.v2]), (lo + hi) / 2))
        found = []
        for k, (p, _) in enumerate(t.cells):
            for a in range(int(ac) - bound, int(ac) + bound + 1):
                for b in range(int(bc) - bound, int(bc) + bound + 1):
                    v = p.vertices + (a * t.v1 + b * t.v2)
                    gap = np.maximum(0.0, np.maximum(v.min(axis=0) - hi, lo - v.max(axis=0)))
                    if np.hypot(*gap) <= pad:
                        found.append((k, a, b))
        return found

    def test_matches_square_loop(self):
        # boxes of up to 3 x 3 anywhere in a 200 x 200 square, near and apart,
        # and out near 1e16, where coordinates are rounded to 2
        rng = np.random.default_rng(23)
        tilings = [assemble_block(Params1(0.45, 120.0)), assemble_block2(constants()),
                   far_overlap_tiling()]
        for t in tilings:
            for pad in (0.0, 1e-9, 0.4):
                for scale in [100.0] * 6 + [1e16] * 3:
                    lo = rng.uniform(-scale, scale, 2)
                    hi = lo + rng.uniform(0, 3, 2)
                    cell, a, b = t.translates_near(lo, hi, pad, np.arange(len(t.cells)))
                    assert list(zip(cell.tolist(), a.tolist(), b.tolist())) == \
                        self.square_loop(t, lo, hi, pad)
                    assert len(cell) > 0 or t is tilings[-1]  # its cells leave gaps
                # the pair form: every cell's own box against every cell, a pad per row
                pi, pj = (x.ravel() for x in np.indices((len(t.cells),) * 2))
                pads = np.full(len(pi), pad)
                row, a, b = t.translates_near(t.box_lo[pi], t.box_hi[pi], pads, pj)
                for i, (p, _) in enumerate(t.cells):
                    mine = pi[row] == i
                    assert list(zip(pj[row][mine].tolist(), a[mine].tolist(), b[mine].tolist())) \
                        == self.square_loop(t, p.vertices.min(axis=0), p.vertices.max(axis=0), pad)

    def test_huge_box_rejected(self):
        t2 = assemble_block2(constants())
        with pytest.raises(RangeError, match="too large"):
            t2.translates_near((0.0, 0.0), (1e7, 1e7), 0.0, np.arange(len(t2.cells)))


class TestCellColors:
    def test_unknown_color_rejected_on_load(self):
        doc = json.loads(far_overlap_tiling().to_json())
        doc["cells"][1]["color"] = "purple"
        with pytest.raises(InvalidTilingError, match="purple"):
            Tiling.from_json(json.dumps(doc))


class TestLatticeVectors:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected_on_load(self, bad):
        doc = json.loads(far_overlap_tiling().to_json())
        doc["lattice"][1][0] = bad
        with pytest.raises(InvalidTilingError, match="must be finite"):
            Tiling.from_json(json.dumps(doc))


class TestFromPoints:
    """A sheared lattice cell cut into two triangles, named from one point O."""

    V1, V2 = np.array([math.sqrt(2), 0.1]), np.array([0.3, math.sqrt(3)])
    PTS = {"O": np.array([0.1, 0.7])}
    ROWS = (("red", ("O", "O+v1", "O+v2")), ("blue", ("O+v1", "O+v1+v2", "O+v2")))

    def build(self, lengths):
        return Tiling.from_points(self.PTS, self.ROWS, self.V1, self.V2, lengths)

    def test_moved_names_bits(self):
        t = self.build([("O", "O+v2-v1", float(np.hypot(*(self.V2 - self.V1))))])
        moved = {(a, b): self.PTS["O"] + (a * self.V1 + b * self.V2)
                 for a, b in ((1, 0), (1, 1), (0, 1))}
        np.testing.assert_array_equal(t.cells[0][0].vertices,
                                      [self.PTS["O"], moved[1, 0], moved[0, 1]])
        np.testing.assert_array_equal(t.cells[1][0].vertices,
                                      [moved[1, 0], moved[1, 1], moved[0, 1]])
        assert [c for _, c in t.cells] == ["red", "blue"]
        t.validate()

    def test_wrong_length_names_first_segment(self):
        lengths = [("O", "O+v1", float(np.hypot(*self.V1))), ("O+v1", "O+v2", 1.0),
                   ("O", "O+v2", 5.0)]
        with pytest.raises(DomainError, match=re.escape("O+v1-O+v2 is not of length 1.0")):
            self.build(lengths)

    def test_unknown_move_rejected(self):
        with pytest.raises(KeyError, match=r"\+v3"):
            self.build([("O", "O+v3", 1.0)])
