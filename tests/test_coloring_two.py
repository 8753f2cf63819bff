"""Tests for the fixed pentagon/square/heptagon/hexagon coloring."""

import numpy as np
import pytest

from sixcoloring import coloring_two
from sixcoloring.coloring_two import (
    CELLS2,
    HEPTAGON_UNIT_DIAGONALS,
    HEXAGON_UNIT_DIAGONALS,
    SQRT3,
    _heptagon_points,
    assemble_block2,
    closed_form_dmax,
    constants,
    quartic,
    solve_dmax,
)
from sixcoloring.errors import DomainError
from sixcoloring.geom import ConvexPolygon, polygon_max_distance
from sixcoloring.tiling import ColoringType
from sixcoloring.verifier import verify


# rows of CELLS2: the blue hexagon, the red pentagon with apex PD, the
# yellow base-row heptagon and the red square
HEXAGON, PENTAGON, HEPTAGON, SQUARE = 3, 4, 6, 7


def diameter(p):
    return polygon_max_distance(p, p)


def shape(row):
    """The cell in row `row` of CELLS2, without its shift."""
    pts = _heptagon_points(constants().d_max)
    return ConvexPolygon(np.array([pts[n] for n in CELLS2[row][1]]))


class TestRoots:
    def test_residual(self):
        assert abs(quartic(solve_dmax())) < 1e-12

    def test_bracket(self):
        assert 0.656 < solve_dmax() < 0.658

    def test_closed_form_matches(self):
        assert abs(closed_form_dmax() - solve_dmax()) < 1e-10

    def test_dmin(self):
        d_min = SQRT3 - 2 * solve_dmax()
        assert 0.417 < d_min < 0.419
        assert constants().d_min == pytest.approx(d_min)

    def test_only_root_in_unit_interval(self):
        roots = np.roots([1, 5 * SQRT3, 18, -3 * SQRT3, -7])
        real = [r.real for r in roots if abs(r.imag) < 1e-9 and 0 < r.real < 1]
        assert len(real) == 1
        assert real[0] == pytest.approx(solve_dmax(), abs=1e-9)


class TestShapes:
    def test_square_diagonals_are_dmin(self):
        c = constants()
        v = shape(SQUARE).vertices
        assert np.linalg.norm(v[0] - v[2]) == pytest.approx(c.d_min, abs=1e-12)
        assert np.linalg.norm(v[1] - v[3]) == pytest.approx(c.d_min, abs=1e-12)
        assert diameter(shape(SQUARE)) == pytest.approx(c.d_min, abs=1e-12)

    def test_square_center(self):
        v = shape(SQUARE).vertices
        np.testing.assert_allclose(v.mean(axis=0), [0.5, 0.0], atol=1e-12)

    def test_hexagon_unit_diagonals(self):
        c = constants()
        pts = _heptagon_points(c.d_max)
        assemble_block2(c)  # raises if any diagonal is off
        for a, b in HEXAGON_UNIT_DIAGONALS:
            assert np.linalg.norm(pts[a] - pts[b]) == pytest.approx(1.0, abs=1e-10)

    def test_hexagon_centrosymmetric(self):
        v = shape(HEXAGON).vertices
        center = np.array([0.5, SQRT3])
        np.testing.assert_allclose(v[:3] + v[3:], np.tile(2 * center, (3, 1)), atol=1e-12)

    def test_hexagon_diameter_unit(self):
        assert diameter(shape(HEXAGON)) == pytest.approx(1.0, abs=1e-10)

    def test_heptagon_unit_diagonals(self):
        c = constants()
        pts = _heptagon_points(c.d_max)
        assemble_block2(c)  # raises if any diagonal is off
        for a, b in HEPTAGON_UNIT_DIAGONALS:
            assert np.linalg.norm(pts[a] - pts[b]) == pytest.approx(1.0, abs=1e-10)

    def test_heptagon_top_edge_is_dmax(self):
        c = constants()
        pts = _heptagon_points(c.d_max)
        assert np.linalg.norm(pts["I4"] - pts["I3"]) == pytest.approx(c.d_max, abs=1e-10)

    def test_heptagon_diameter_unit(self):
        assert diameter(shape(HEPTAGON)) == pytest.approx(1.0, abs=1e-10)

    def test_shared_side_lengths_consistent(self):
        # the sides the heptagon shares with its translated neighbors must
        # match the lengths measured on the base heptagon itself
        pts = _heptagon_points(constants().d_max)
        u2 = np.linalg.norm(pts["I4"] - pts["NNN"])
        u3 = np.linalg.norm(pts["I3"] - pts["PA"])
        u2_again = np.linalg.norm((pts["NN"] + [1, -SQRT3]) - pts["I4"])
        assert u2 == pytest.approx(u2_again, abs=1e-12)
        # mirror symmetry: the left-side partners have the same lengths
        assert np.linalg.norm((pts["MM"] + [-1, -SQRT3]) - pts["I1"]) == pytest.approx(
            u2, abs=1e-10)
        assert np.linalg.norm(pts["I2"] - pts["PA"]) == pytest.approx(u3, abs=1e-10)

    def test_pentagon_axisymmetric(self):
        v = shape(PENTAGON).vertices
        mirrored = v.copy()
        mirrored[:, 0] = 1.0 - mirrored[:, 0]
        got = {tuple(np.round(p, 10)) for p in v}
        want = {tuple(np.round(p, 10)) for p in mirrored}
        assert got == want

    def test_pentagon_diameter_at_most_dmax(self):
        c = constants()
        assert diameter(shape(PENTAGON)) <= c.d_max + 1e-10


class TestBlock:
    def test_area_is_lattice_cell(self):
        t = assemble_block2(constants())
        assert t.cell_area() == pytest.approx(2 * SQRT3, abs=1e-12)
        assert abs(t.block_area() - t.cell_area()) < 1e-9

    def test_validate_partition(self):
        assemble_block2(constants()).validate()

    def test_cell_census(self):
        t = assemble_block2(constants())
        from collections import Counter

        counts = Counter(c for _, c in t.cells)
        assert counts == {"red": 3, "orange": 1, "green": 1, "blue": 1,
                          "turquoise": 1, "yellow": 1}
        sides = Counter(len(p.vertices) for p, _ in t.cells)
        assert sides == {7: 4, 5: 2, 6: 1, 4: 1}

    def test_valid_across_range(self):
        c = constants()
        for d in (c.d_min, 0.5, 0.6, c.d_max):
            t = assemble_block2(c)
            assert verify(t, ColoringType.unit_except(red=d)).valid, d

    @pytest.mark.parametrize("moved, segment", [("C", "B-C"), ("I4", "I4-I3")],
                             ids=["unit diagonal", "edge d_max"])
    def test_checks_lengths(self, monkeypatch, moved, segment):
        # move one point by 1e-8: C lies only on the unit diagonal B-C; I4
        # moves at right angles to its unit diagonal X-I4, so only I4-I3 is off
        real = coloring_two._heptagon_points

        def nudged(d_max):
            pts = real(d_max)
            if moved == "C":
                pts["C"] = pts["C"] + [1e-8, 0.0]
            else:
                u = (pts["I4"] - pts["X"]) / np.linalg.norm(pts["I4"] - pts["X"])
                pts["I4"] = pts["I4"] + 1e-8 * np.array([-u[1], u[0]])
            return pts

        monkeypatch.setattr(coloring_two, "_heptagon_points", nudged)
        with pytest.raises(DomainError, match=segment):
            assemble_block2(constants())

    def test_invalid_below_dmin(self):
        c = constants()
        report = verify(assemble_block2(c), ColoringType.unit_except(red=0.3))
        assert not report.valid
        # the red square (diameter d_min) realizes every distance below d_min
        assert any(w.color == "red" for w in report.witnesses)
