"""Tests for the parameterized pentagon/triangle/octagon/hexagon coloring."""

import math

import numpy as np
import pytest

from sixcoloring.coloring_one import (
    D_HIGH,
    D_LOW,
    Params1,
    assemble_block,
    build_hexagon,
    build_octagon,
    build_pentagon,
    build_triangle,
    constraints,
    default_alpha1,
    derive_quantities,
    feasible_region,
    _feasible,
)
from sixcoloring.errors import RangeError
from sixcoloring.geom import polygon_area, polygon_max_distance
from sixcoloring.tiling import ColoringType
from sixcoloring.verifier import verify


def diameter(p):
    return polygon_max_distance(p, p)


def random_feasible_pairs(rng, n):
    """Draw (d, alpha1) pairs near the default interpolation line, all feasible."""
    out = []
    while len(out) < n:
        d = rng.uniform(D_LOW, D_HIGH)
        a = default_alpha1(d) + rng.uniform(-0.5, 0.5)
        if _feasible(d, a):
            out.append((d, a))
    return out


class TestDefaultAlpha:
    def test_endpoints(self):
        assert default_alpha1(D_LOW) == pytest.approx(113.7)
        assert default_alpha1(D_HIGH) == pytest.approx(113.7 + 14.11)

    def test_linear(self):
        mid = 0.5 * (D_LOW + D_HIGH)
        assert default_alpha1(mid) == pytest.approx(113.7 + 14.11 / 2)

    def test_out_of_range(self):
        with pytest.raises(RangeError):
            default_alpha1(0.3)
        with pytest.raises(RangeError):
            default_alpha1(0.6)

    def test_default_is_feasible_everywhere(self):
        for d in np.linspace(D_LOW, D_HIGH, 41):
            assert _feasible(float(d), default_alpha1(float(d)))


class TestDerivedQuantities:
    def test_angle_sums(self):
        rng = np.random.default_rng(41)
        for d, a1 in random_feasible_pairs(rng, 10):
            q = derive_quantities(Params1(d, a1))
            # pentagon interior angles: alpha1 + 2*alpha2 + 2*alpha3 = 540
            assert a1 + 2 * q.alpha2 + 2 * q.alpha3 == pytest.approx(540, abs=1e-9)
            # hexagon interior angles alternate alpha7/alpha8 and sum to 720
            assert 3 * (q.alpha7 + q.alpha8) == pytest.approx(720, abs=1e-9)
            v = build_hexagon(q).vertices
            for i in range(6):
                u, w = v[(i - 1) % 6] - v[i], v[(i + 1) % 6] - v[i]
                got = math.degrees(math.acos(
                    np.dot(u, w) / (np.linalg.norm(u) * np.linalg.norm(w))))
                want = q.alpha7 if i % 2 == 0 else q.alpha8
                assert got == pytest.approx(want, abs=1e-6)

    def test_positive_lengths(self):
        rng = np.random.default_rng(43)
        for d, a1 in random_feasible_pairs(rng, 10):
            q = derive_quantities(Params1(d, a1))
            for name in ("s1", "s2", "s3", "s5", "t2", "h1", "h4", "w1", "w2", "w3", "H"):
                assert getattr(q, name) > 0, name

    def test_triangle_side_is_s4(self):
        q = derive_quantities(Params1(0.4, default_alpha1(0.4)))
        tri = build_triangle(q)
        side = np.linalg.norm(tri.vertices[0] - tri.vertices[1])
        assert side == pytest.approx(q.s4, abs=1e-12)


class TestShapes:
    def test_pentagon_equidiagonal(self):
        rng = np.random.default_rng(47)
        for d, a1 in random_feasible_pairs(rng, 20):
            pent = build_pentagon(derive_quantities(Params1(d, a1)), d)
            v = pent.vertices
            for i in range(5):
                assert np.linalg.norm(v[i] - v[(i + 2) % 5]) == pytest.approx(d, abs=1e-9)

    def test_pentagon_diameter_is_d(self):
        d = 0.5
        pent = build_pentagon(derive_quantities(Params1(d, default_alpha1(d))), d)
        assert diameter(pent) == pytest.approx(d, abs=1e-9)

    def test_octagon_unit_diagonals(self):
        rng = np.random.default_rng(53)
        for d, a1 in random_feasible_pairs(rng, 20):
            octagon = build_octagon(derive_quantities(Params1(d, a1)), d)
            v = octagon.vertices
            for i in range(4):  # the four opposite-vertex diagonals are unit
                assert np.linalg.norm(v[i] - v[i + 4]) == pytest.approx(1.0, abs=1e-9)

    def test_octagon_diameter_is_unit(self):
        d = 0.45
        octagon = build_octagon(derive_quantities(Params1(d, default_alpha1(d))), d)
        assert diameter(octagon) == pytest.approx(1.0, abs=1e-9)

    def test_hexagon_opposite_vertices_span_w3(self):
        rng = np.random.default_rng(59)
        for d, a1 in random_feasible_pairs(rng, 10):
            q = derive_quantities(Params1(d, a1))
            v = build_hexagon(q).vertices
            for i in range(3):
                assert np.linalg.norm(v[i] - v[i + 3]) == pytest.approx(q.w3, abs=1e-9)

    def test_hexagon_diameter_is_w3(self):
        q = derive_quantities(Params1(0.45, default_alpha1(0.45)))
        assert diameter(build_hexagon(q)) == pytest.approx(q.w3, abs=1e-9)

    def test_triangle_absent_when_t2_below_d(self):
        # at the lower end of the d range, c = max(t2 - d, 0) can vanish
        q = derive_quantities(Params1(0.553, default_alpha1(0.553)))
        if q.c == 0:
            assert build_triangle(q) is None
        else:
            assert build_triangle(q) is not None


class TestConstraints:
    def test_satisfied_on_interpolation_line(self):
        for d in (0.354, 0.40, 0.45, 0.50, 0.553):
            assert constraints(Params1(d, default_alpha1(d))).satisfied()

    def test_violated_outside_range(self):
        for d in (0.30, 0.62):
            r = constraints(Params1(d, 120.0))
            assert not r.satisfied()

    def test_residual_order(self):
        p = Params1(0.45, default_alpha1(0.45))
        q = derive_quantities(p)
        r = constraints(p)
        assert r.r1 == pytest.approx(p.d - q.s4)
        assert r.r2 == pytest.approx(q.s5 - p.d)
        assert r.r3 == pytest.approx(1 - q.w1)
        assert r.r4 == pytest.approx(1 - q.w2)
        assert r.r5 == pytest.approx(1 - q.w3)
        assert r.r6 == pytest.approx(q.h1 + q.h3 + p.d - 1)


class TestBlock:
    def test_partition_area(self):
        for d in np.linspace(D_LOW, D_HIGH, 10):
            t = assemble_block(Params1(float(d), default_alpha1(float(d))))
            assert abs(t.block_area() - t.cell_area()) < 1e-9
            t.validate()

    def test_cell_count_and_colors(self):
        t = assemble_block(Params1(0.45, default_alpha1(0.45)))
        colors = sorted(c for _, c in t.cells)
        assert colors == ["blue", "green", "orange", "red", "red", "red", "red",
                          "turquoise", "yellow"]

    def test_lattice_hexagonal(self):
        t = assemble_block(Params1(0.45, default_alpha1(0.45)))
        assert np.linalg.norm(t.v1) == pytest.approx(np.linalg.norm(t.v2))
        cos_angle = np.dot(t.v1, t.v2) / (np.linalg.norm(t.v1) * np.linalg.norm(t.v2))
        assert math.degrees(math.acos(cos_angle)) == pytest.approx(60.0)

    def test_verifies_at_endpoints(self):
        for d in (D_LOW, D_HIGH):
            t = assemble_block(Params1(d, default_alpha1(d)))
            assert verify(t, ColoringType.unit_except(red=d)).valid


class TestFeasibleRegion:
    def test_bands_exist_in_range(self):
        fm = feasible_region([0.40, 0.45, 0.50], np.arange(95, 165.01, 0.5))
        for d in (0.40, 0.45, 0.50):
            band = fm.band(d)
            assert band is not None
            lo, hi = band
            assert lo < default_alpha1(d) < hi

    def test_no_band_outside_range(self):
        fm = feasible_region([0.34, 0.60], np.arange(95, 165.01, 0.1))
        assert fm.band(0.34) is None
        assert fm.band(0.60) is None

    def test_band_edges_are_boundary(self):
        fm = feasible_region([0.45], np.arange(95, 165.01, 0.5))
        lo, hi = fm.band(0.45)
        assert _feasible(0.45, lo) and _feasible(0.45, hi)
        assert not _feasible(0.45, lo - 1e-6)
        assert not _feasible(0.45, hi + 1e-6)
