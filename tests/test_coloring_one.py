"""Tests for the parameterized pentagon/triangle/octagon/hexagon coloring."""

import hashlib
import math

import numpy as np
import pytest

from sixcoloring import coloring_one
from sixcoloring.coloring_one import (
    D_HIGH,
    D_LOW,
    Params1,
    assemble_block,
    constraints,
    default_alpha1,
    derive_quantities,
    feasible_region,
    _feasible,
    _refine_edge,
)
from sixcoloring.errors import DomainError, RangeError
from sixcoloring.geom import polygon_max_distance
from sixcoloring.tiling import ColoringType
from sixcoloring.verifier import verify


def diameter(p):
    return polygon_max_distance(p, p)


def cells_with(d, alpha1, n_vertices):
    """The block's (polygon, color) cells with n_vertices vertices."""
    return [(p, c) for p, c in assemble_block(Params1(d, alpha1)).cells
            if len(p.vertices) == n_vertices]


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
            # hexagon interior angles alternate alpha7/alpha8 and sum to 720;
            # the yellow hexagon, a mirror image, starts on alpha8
            assert 3 * (q.alpha7 + q.alpha8) == pytest.approx(720, abs=1e-9)
            hexagons = cells_with(d, a1, 6)
            assert [c for _, c in hexagons] == ["turquoise", "yellow"]
            for (hexagon, _), want in zip(hexagons, ((q.alpha7, q.alpha8), (q.alpha8, q.alpha7))):
                v = hexagon.vertices
                for i in range(6):
                    u, w = v[(i - 1) % 6] - v[i], v[(i + 1) % 6] - v[i]
                    got = math.degrees(math.acos(
                        np.dot(u, w) / (np.linalg.norm(u) * np.linalg.norm(w))))
                    assert got == pytest.approx(want[i % 2], abs=1e-6)

    def test_positive_lengths(self):
        rng = np.random.default_rng(43)
        for d, a1 in random_feasible_pairs(rng, 10):
            q = derive_quantities(Params1(d, a1))
            for name in ("s1", "s2", "s3", "s5", "t2", "h1", "h4", "w1", "w2", "w3", "H"):
                assert getattr(q, name) > 0, name

    def test_triangle_side_is_s4(self):
        d = 0.4
        q = derive_quantities(Params1(d, default_alpha1(d)))
        [(tri, color)] = cells_with(d, default_alpha1(d), 3)
        assert color == "red"
        edges = np.roll(tri.vertices, -1, axis=0) - tri.vertices
        np.testing.assert_allclose(np.hypot(*edges.T), q.s4, rtol=0, atol=1e-12)


# every copy of a shape in the block: 3 pentagons, 3 octagons, 2 hexagons
class TestShapes:
    def test_pentagon_equidiagonal(self):
        rng = np.random.default_rng(47)
        for d, a1 in random_feasible_pairs(rng, 20):
            pentagons = cells_with(d, a1, 5)
            assert len(pentagons) == 3
            for pent, _ in pentagons:
                v = pent.vertices
                for i in range(5):
                    assert np.linalg.norm(v[i] - v[(i + 2) % 5]) == pytest.approx(d, abs=1e-9)

    def test_pentagon_diameter_is_d(self):
        d = 0.5
        for pent, _ in cells_with(d, default_alpha1(d), 5):
            assert diameter(pent) == pytest.approx(d, abs=1e-9)

    def test_octagon_unit_diagonals(self):
        rng = np.random.default_rng(53)
        for d, a1 in random_feasible_pairs(rng, 20):
            octagons = cells_with(d, a1, 8)
            assert [c for _, c in octagons] == ["green", "blue", "orange"]
            for octagon, _ in octagons:
                v = octagon.vertices
                for i in range(4):  # the four opposite-vertex diagonals are unit
                    assert np.linalg.norm(v[i] - v[i + 4]) == pytest.approx(1.0, abs=1e-9)

    def test_octagon_diameter_is_unit(self):
        d = 0.45
        for octagon, _ in cells_with(d, default_alpha1(d), 8):
            assert diameter(octagon) == pytest.approx(1.0, abs=1e-9)

    def test_hexagon_opposite_vertices_span_w3(self):
        rng = np.random.default_rng(59)
        for d, a1 in random_feasible_pairs(rng, 10):
            q = derive_quantities(Params1(d, a1))
            hexagons = cells_with(d, a1, 6)
            assert len(hexagons) == 2
            for hexagon, _ in hexagons:
                v = hexagon.vertices
                for i in range(3):
                    assert np.linalg.norm(v[i] - v[i + 3]) == pytest.approx(q.w3, abs=1e-9)

    def test_hexagon_diameter_is_w3(self):
        d = 0.45
        q = derive_quantities(Params1(d, default_alpha1(d)))
        for hexagon, _ in cells_with(d, default_alpha1(d), 6):
            assert diameter(hexagon) == pytest.approx(q.w3, abs=1e-9)

    def test_no_triangle_raises(self):
        # c = max(t2 - d, 0) vanishes where t2 <= d; the triangle and the
        # octagons' bottom sides shrink to a point and the block cannot form
        p = Params1(0.6, 120.0)
        assert derive_quantities(p).c == 0
        with pytest.raises(DomainError, match=r"no red triangle: t2 = .* <= d = 0\.6"):
            assemble_block(p)


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

    def test_zero_divisor_is_a_domain_error(self):
        # w1 = 0 on the curve d = 2 sin(alpha1/2), and t3 divides by w1
        for d, a in ((0.9998367536161386, 59.9892), (0.808432734508, 47.68406)):
            with pytest.raises(DomainError, match="zero divisor"):
                constraints(Params1(d, a))
            assert not _feasible(d, a)
            assert feasible_region([d], [a]).band(d) is None


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

    @pytest.mark.parametrize("d", [D_LOW, 0.45, D_HIGH])
    def test_shared_vertices_bit_identical(self, d):
        # a corner that several cells share is one named point, so every copy
        # of it has the same bits; the block has 34 such pairs of copies
        t = assemble_block(Params1(d, default_alpha1(d)))
        v = np.vstack([p.vertices for p, _ in t.cells])
        i, j = np.triu_indices(len(v), 1)
        close = np.hypot(*(v[i] - v[j]).T) < 1e-9
        assert close.sum() == 34
        np.testing.assert_array_equal(v[i[close]], v[j[close]])

    # SHA-256 of to_json() at the two interval ends and at an infeasible
    # point that still assembles; every vertex bit goes into the JSON
    PINNED_JSON = {
        (D_LOW, default_alpha1(D_LOW)):
            "e3c701dc06d3995fe097fb09404982808088cc6900449326fe99ac8358dc8c58",
        (D_HIGH, default_alpha1(D_HIGH)):
            "04e3a1e07743425601a5a6d0bd11254d547f5f335361c42b8cb9ecdf5786b777",
        (0.45, 130.0):
            "689ae947a69e6151020f983be3dc876b3b4ec032f9ad4d4ecb74e89ca0cf62c5",
    }

    @pytest.mark.parametrize("d, alpha1", sorted(PINNED_JSON))
    def test_json_bytes_pinned(self, d, alpha1):
        text = assemble_block(Params1(d, alpha1)).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == self.PINNED_JSON[d, alpha1]

    # c = 0 at (0.5, 40) and (0.6, 120), so the triangle's absence is named
    # before any cell is built; at (0.3, 40) and (0.3, 60) c > 0 and a cell's
    # own check fails
    @pytest.mark.parametrize("d, alpha1, message", [
        (0.5, 40.0, "no red triangle: t2 = 0.20708754763129572 <= d = 0.5, so c = 0"),
        (0.6, 120.0, "no red triangle: t2 = 0.5416025603090641 <= d = 0.6, so c = 0"),
        (0.3, 40.0, "polygon is not convex within tolerance"),
        (0.3, 60.0, "consecutive vertices closer than EPS_GEOM"),
        (0.8, 20.0, "acos argument out of range in t1: 1.4396926207859084"),
        (0.9, 30.0, "negative sqrt argument in t2: -0.5114805770653952"),
    ])
    def test_domain_error_pinned(self, d, alpha1, message):
        with pytest.raises(DomainError) as err:
            assemble_block(Params1(d, alpha1))
        assert str(err.value) == message


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

    def test_band_reaching_past_the_grid(self):
        lo, hi = feasible_region([0.45], [118, 119, 120, 121, 122]).band(0.45)
        assert lo < 117 and hi > 123
        assert _feasible(0.45, lo) and _feasible(0.45, hi)
        assert not _feasible(0.45, lo - 1e-6)
        assert not _feasible(0.45, hi + 1e-6)
        fine = feasible_region([0.45], np.arange(95, 165.01, 0.5)).band(0.45)
        assert (lo, hi) == pytest.approx(fine, abs=1e-9)

    def test_descending_grid(self):
        # the band used to come out reversed, as (126.36..., 105.22...)
        down = feasible_region([0.45], [122, 121, 120])
        assert down.band(0.45) == feasible_region([0.45], [120, 121, 122]).band(0.45)
        lo, hi = down.band(0.45)
        assert lo < 106 < 126 < hi
        assert [a for _, a, _ in down.grid] == [122, 121, 120]

    def test_shuffled_grid(self):
        alphas = np.arange(95, 165.01, 0.5)
        shuffled = np.random.default_rng(3).permutation(alphas).tolist()
        fm = feasible_region([0.45], shuffled)
        lo, hi = fm.band(0.45)
        assert lo < hi
        assert (lo, hi) == pytest.approx(feasible_region([0.45], alphas).band(0.45), abs=1e-9)
        assert _feasible(0.45, lo) and _feasible(0.45, hi)
        assert not _feasible(0.45, lo - 1e-6)
        assert not _feasible(0.45, hi + 1e-6)
        assert [a for _, a, _ in fm.grid] == shuffled

    def test_matches_per_point_loop_on_criterion_8_grid(self):
        d_grid = [round(d, 3) for d in np.arange(D_LOW, D_HIGH + 1e-9, 0.001)][::20]
        assert_region_matches(d_grid + [0.34, 0.60], list(np.arange(95.0, 165.01, 0.5)))

    def test_matches_per_point_loop_on_irregular_grids(self):
        rng = np.random.default_rng(8)
        for _ in range(12):
            lo = rng.uniform(60, 125)
            alphas = np.sort(rng.uniform(lo, lo + rng.uniform(0.5, 60), rng.integers(2, 40)))
            assert_region_matches(rng.uniform(0.30, 0.62, 2).tolist(), alphas.tolist())

    def test_matches_per_point_loop_on_wider_corpus(self):
        rng = np.random.default_rng(23)
        outside = [0.30, 0.34, 0.353, 0.556, 0.60]
        for k in range(10):
            # ascending, with a first step of 20 to 80 degrees in half of them
            # so that the 50-step cap ends bisection or the outer end raises;
            # in multiples of 2^-10 degrees, so that every difference is exact
            lo = rng.uniform(60, 120)
            first = rng.uniform(20, 80) if k % 2 else rng.uniform(0.2, 5)
            steps = [lo, first, *rng.uniform(0.2, 30, rng.integers(0, 8))]
            alphas = np.cumsum(np.round(np.array(steps) * 1024) / 1024)
            first = alphas[1] - alphas[0]
            d_grid = rng.uniform(D_LOW, D_HIGH, 2).tolist() + [outside[k % 5]]
            assert_region_matches(d_grid, alphas.tolist())
            assert_reordered_matches(rng, d_grid, alphas.tolist(), first)
        # d just outside [D_LOW, D_HIGH], where a band exists but only a grid hit finds it
        fm = feasible_region([0.3536, 0.5531], [113.7327, 127.8879, 150.0])
        assert None not in fm.bands.values()
        assert_region_matches([0.3536, 0.5531], [113.7327, 127.8879, 150.0])
        # no grid point is feasible, so default_alpha1(d) seeds each band
        grid = [95.0, 100.0, 140.0]
        d_grid = [D_LOW, 0.45, 0.553, D_HIGH]
        assert all(not ok for _, _, ok in feasible_region(d_grid, grid).grid)
        assert_region_matches(d_grid, grid)

    def test_at_most_40_evaluations_per_d(self, monkeypatch):
        # plain bisection made 92 per d here, 46 for each edge
        calls = []
        least_residual = coloring_one._least_residual

        def counted(d, alpha1):
            calls.append(alpha1)
            return least_residual(d, alpha1)

        monkeypatch.setattr(coloring_one, "_least_residual", counted)
        d_grid = [round(d, 3) for d in np.arange(D_LOW, D_HIGH + 1e-9, 0.001)]
        fm = feasible_region(d_grid, np.arange(95.0, 165.01, 0.5))
        assert all(fm.band(d) is not None for d in d_grid)
        assert len(calls) <= 40 * len(d_grid)


def plain_edge(g, inside, step):
    """_refine_edge's bracket, then 50 bisection steps that evaluate every midpoint."""
    def feasible(a):
        return g(a) is not None and g(a) >= 0

    outside = inside + step
    while outside != inside and feasible(outside):
        inside, step = outside, 2 * step
        outside = inside + step
    for _ in range(50):
        mid = 0.5 * (inside + outside)
        if feasible(mid):
            inside = mid
        else:
            outside = mid
    return inside


def last_bit(a):
    return int(math.frexp(a)[0] * 2 ** 53) & 1


LO, HI = 105.2468013579, 126.3579024681


def linear(a):
    return 0.01 * min(a - LO, HI - a)


def noisy(a):
    # the sign flips with the last mantissa bit within 6 ulps of either edge
    near = min(abs(a - LO) / math.ulp(LO), abs(a - HI) / math.ulp(HI)) <= 6
    return (1e-15 if last_bit(a) else -1e-15) if near else linear(a)


def raising_outside(a):
    return linear(a) if LO - 0.3 < a < HI + 0.3 else None


class TestRefineEdge:
    """_refine_edge against a plain bisection loop, on synthetic least residuals."""

    @pytest.mark.parametrize("g", [linear, noisy, raising_outside])
    @pytest.mark.parametrize("inside, step", [
        (120.0, 0.5), (120.0, -0.5), (126.1, 0.5), (105.5, -0.5),
        (115.0, 3.0), (115.0, -3.0), (120.0, 40.0), (110.0, -70.0), (HI, 1e-9),
    ])
    def test_matches_plain_bisection(self, monkeypatch, g, inside, step):
        monkeypatch.setattr(coloring_one, "_least_residual", lambda d, a: g(a))
        assert _refine_edge(0.45, inside, g(inside), step) == plain_edge(g, inside, step)


def assert_reordered_matches(rng, d_grid, alphas, first):
    """feasible_region over `alphas` descending, and shuffled with the first two
    swapped, against per_point_region over `alphas` ascending: the first step
    of each order has the same size, `first`, so the bands must be equal."""
    descending = [*alphas, alphas[-1] + first][::-1]
    shuffled = [alphas[1], alphas[0], *rng.permutation(alphas[2:]).tolist()]
    for grid, ascending in ((descending, sorted(descending)), (shuffled, alphas)):
        fm = feasible_region(d_grid, grid)
        records, bands = per_point_region(d_grid, ascending)
        feasible = {(d, a): ok for d, a, ok in records}
        assert list(fm.grid) == [(d, a, feasible[d, a]) for d in d_grid for a in grid]
        assert fm.bands == bands


def per_point_region(d_grid, alpha_grid):
    """feasible_region as one constraints() call per point: each edge is
    bracketed by testing inside +- step and doubling the step while that is
    feasible, then bisected for all 50 steps."""
    def feasible(d, a):
        try:
            return constraints(Params1(d, a)).satisfied()
        except (DomainError, RangeError):
            return False

    def edge(d, inside, step):
        outside = inside + step
        while outside != inside and feasible(d, outside):
            inside, step = outside, 2 * step
            outside = inside + step
        for _ in range(50):
            mid = 0.5 * (inside + outside)
            if feasible(d, mid):
                inside = mid
            else:
                outside = mid
        return inside

    step = alpha_grid[1] - alpha_grid[0] if len(alpha_grid) > 1 else 1.0
    records, bands = [], {}
    for d in d_grid:
        row = [(d, a, feasible(d, a)) for a in alpha_grid]
        records += row
        hits = [a for _, a, ok in row if ok]
        if not hits and D_LOW <= d <= D_HIGH and feasible(d, default_alpha1(d)):
            hits = [default_alpha1(d)]
        bands[d] = (edge(d, hits[0], -step), edge(d, hits[-1], step)) if hits else None
    return records, bands


def assert_region_matches(d_grid, alpha_grid):
    fm = feasible_region(d_grid, alpha_grid)
    records, bands = per_point_region(d_grid, alpha_grid)
    assert list(fm.grid) == records
    assert fm.bands == bands
