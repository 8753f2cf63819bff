"""First six-coloring: pentagon/triangle/octagon/hexagon tiling parameterized by (d, alpha1).

The construction avoids distance d in red and unit distance in the other five
colors for d in [0.354, 0.553], given a suitable pentagon apex angle alpha1.
Its block is the table CELLS1, rows of vertex names over points computed from (d, alpha1).
Tiling.from_points builds it in row order, as it does the second coloring's block, with
moves written in names (W3+v2) and the lengths checked within tiling.LENGTH_TOL.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .errors import DomainError, RangeError
from .geom import EPS_GEOM, dcos, dirvec, dsin
from .tiling import Tiling

D_LOW = 0.354
D_HIGH = 0.553

# alpha1 rises by 14.11 degrees across [0.354, 0.553]; the slope uses the
# interval width 0.199 (the figure sources use 70.9 deg per unit d)
ALPHA1_BASE = 113.7
ALPHA1_RISE = 14.11
ALPHA1_SLOPE = ALPHA1_RISE / (D_HIGH - D_LOW)

# sqrt and acos/asin arguments at most DOMAIN_ROUNDOFF outside their domain
# are roundoff at binding configurations and are clamped
DOMAIN_ROUNDOFF = 1e-12

# the most bisection steps that refine one feasibility band edge, and the
# width in ulps about its crossing inside which each bisection midpoint is evaluated
REFINE_ITERS = 50
REFINE_MARGIN_ULPS = 1024


@dataclass(frozen=True)
class Params1:
    """Avoided red distance d and pentagon apex angle alpha1 (degrees)."""

    d: float
    alpha1: float

    def __post_init__(self):
        if not (0.0 < self.d < 1.0):
            raise RangeError(f"d must be in (0, 1), got {self.d}")
        if not (0.0 < self.alpha1 < 180.0):
            raise RangeError(f"alpha1 must be in (0, 180) degrees, got {self.alpha1}")


# Every scalar derived from (d, alpha1); lengths in plane units, angles in
# degrees. From `derive_quantities` the fields are floats; from the array
# backend they are arrays over alpha1.
DerivedQuantities1 = namedtuple("DerivedQuantities1", (
    "s1 s2 s3 s4 s5 t1 t2 t3 t4 t5 h1 h2 h3 h4 h5 h6 h7 w1 w2 w3 "
    "alpha2 alpha3 alpha5 alpha7 alpha8 c H"))


class ConstraintResiduals(NamedTuple):
    """Signed residuals of the six validity constraints; >= 0 means satisfied."""

    r1: float  # d - s4
    r2: float  # s5 - d
    r3: float  # 1 - w1
    r4: float  # 1 - w2
    r5: float  # 1 - w3
    r6: float  # h1 + h3 + d - 1

    def as_tuple(self) -> tuple:
        return tuple(self)

    def satisfied(self) -> bool:
        return min(self) >= -EPS_GEOM


# --- the formulas, over a numeric backend --------------------------------
# FLOATS evaluates one alpha1 with `math` and raises where a formula leaves
# its domain; `_Arrays` evaluates many with numpy and clears their `ok` flag
# instead. Both give the same bits (tests/test_coloring_one_backends.py):
# numpy's sin, cos, sqrt, radians and degrees match `math`, squares go through
# libm `pow` as Python's `**` does, and acos, asin and atan2 call `math`.


def _checked_sqrt(x: float, what: str) -> float:
    if x < 0:
        if x > -DOMAIN_ROUNDOFF:
            return 0.0
        raise DomainError(f"negative sqrt argument in {what}: {x}")
    return math.sqrt(x)


def _checked_arc(fn, x: float, what: str) -> float:
    """Degrees of fn (math.acos or math.asin) at x, clamped into [-1, 1]."""
    if not abs(x) <= 1.0 + DOMAIN_ROUNDOFF:
        raise DomainError(f"{fn.__name__} argument out of range in {what}: {x}")
    return math.degrees(fn(max(-1.0, min(1.0, x))))


FLOATS = SimpleNamespace(
    dsin=dsin, dcos=dcos, sqrt=math.sqrt, pow=math.pow, max=max, degrees=math.degrees,
    acos=math.acos, asin=math.asin, atan2=math.atan2,
    checked_sqrt=_checked_sqrt, checked_arc=_checked_arc)


def _elementwise(fn, nin: int):
    ufunc = np.frompyfunc(fn, nin, 1)
    return staticmethod(lambda *xs: ufunc(*xs).astype(float))


class _Arrays:
    """numpy backend; `ok` is False where the float backend would raise."""

    sqrt, pow, max, degrees = np.sqrt, np.float_power, np.maximum, np.degrees
    acos, asin, atan2 = (_elementwise(math.acos, 1), _elementwise(math.asin, 1),
                         _elementwise(math.atan2, 2))
    dsin = staticmethod(lambda a: np.sin(np.radians(a)))
    dcos = staticmethod(lambda a: np.cos(np.radians(a)))

    def __init__(self, ok: np.ndarray):
        self.ok = ok

    def checked_sqrt(self, x, what):
        self.ok &= ~(x <= -DOMAIN_ROUNDOFF)
        return np.sqrt(np.where(x < 0, 0.0, x))

    def checked_arc(self, fn, x, what):
        self.ok &= np.abs(x) <= 1.0 + DOMAIN_ROUNDOFF
        return np.degrees(fn(np.maximum(-1.0, np.minimum(1.0, x))))


def _quantities(m, d, a1) -> DerivedQuantities1:
    """Coloring 1's derived lengths and angles at (d, a1) over backend m.

    A zero divisor (w1 = 0 in t3, or sin(alpha1/2) rounding to 0) raises
    ZeroDivisionError on floats; on arrays it gives an inf or nan that the
    next arc check rejects.
    """
    sin_half = m.dsin(a1 / 2)
    s1 = d / 2 / sin_half
    t1 = 2 * m.checked_arc(m.acos, (1 / sin_half) / 4, "t1") - a1
    s3 = 2 * d * m.dsin(t1 / 2)
    h1 = d * m.dcos(t1 / 2)
    h2 = h1 - (d / 2) * m.dcos(a1 / 2) / sin_half
    s2 = m.sqrt(m.pow(h2, 2) + m.pow(d - s3, 2) / 4)
    alpha2 = 90 - a1 / 2 + m.checked_arc(m.asin, h2 / s2, "alpha2")
    alpha3 = 270 - a1 / 2 - alpha2
    t2 = (m.checked_sqrt(1 - m.pow(s1 * m.dsin(30 + a1 / 2), 2), "t2")
          - s1 * m.dcos(30 + a1 / 2)) / math.sqrt(3)
    c = m.max(t2 - d, 0.0)
    s4 = math.sqrt(3) * c
    h3 = 1.5 * c
    w1 = math.sqrt(3) * t2
    t3 = 180 - m.checked_arc(m.acos, (1 - m.pow(w1, 2) - m.pow(s1, 2)) / (-2 * w1 * s1), "t3")
    w2 = s1 * m.dcos(t3) + m.checked_sqrt(1 - m.pow(s1 * m.dsin(t3), 2), "w2")
    h4 = m.checked_sqrt(1 - m.pow(s4 + s3, 2) / 4, "h4")
    h5 = m.checked_sqrt(m.pow(t2, 2) - m.pow(w1, 2) / 4, "h5") - h3 + c
    h6 = m.checked_sqrt(m.pow(s1, 2) - m.pow(w1 - w2, 2) / 4, "h6")
    h7 = h4 - h5 - h6
    s5 = m.sqrt(m.pow(h7, 2) + m.pow(w2 - s3, 2) / 4)
    alpha5 = m.degrees(m.atan2(2 * h7, w2 - s3)) + t3
    alpha7 = 360 - alpha2 - alpha5
    alpha8 = 240 - alpha7
    t4 = m.checked_sqrt(m.pow(s2, 2) + m.pow(s5, 2) - 2 * s2 * s5 * m.dcos(alpha7), "t4")
    t5 = m.checked_arc(m.asin, s5 * m.dsin(alpha7) / t4, "t5")
    w3 = m.checked_sqrt(m.pow(t4, 2) + m.pow(s2, 2) + 2 * t4 * s2 * m.dcos(alpha7 + alpha8 + t5),
                        "w3")
    H = h1 + h4 + c / 2 + t2
    return DerivedQuantities1(s1, s2, s3, s4, s5, t1, t2, t3, t4, t5, h1, h2, h3, h4, h5, h6, h7,
                              w1, w2, w3, alpha2, alpha3, alpha5, alpha7, alpha8, c, H)


def _residuals(q: DerivedQuantities1, d) -> tuple:
    """The six constraint residuals, in ConstraintResiduals order."""
    return (d - q.s4, q.s5 - d, 1 - q.w1, 1 - q.w2, 1 - q.w3, q.h1 + q.h3 + d - 1)


def derive_quantities(p: Params1) -> DerivedQuantities1:
    """Evaluate all derived lengths and angles for the first coloring."""
    try:
        return _quantities(FLOATS, p.d, p.alpha1)
    except ZeroDivisionError:
        raise DomainError(f"zero divisor at d={p.d}, alpha1={p.alpha1}") from None


def default_alpha1(d: float) -> float:
    """Linear interpolation fixing the pentagon apex angle for a given d."""
    if not (D_LOW <= d <= D_HIGH):
        raise RangeError(f"d must lie in [{D_LOW}, {D_HIGH}], got {d}")
    return ALPHA1_BASE + (d - D_LOW) * ALPHA1_SLOPE


def constraints(p: Params1) -> ConstraintResiduals:
    """Residuals of the six validity constraints at (d, alpha1)."""
    return ConstraintResiduals(*_residuals(derive_quantities(p), p.d))


def constraints_along(d: float, alpha1s) -> tuple:
    """Residuals (n x 6) and feasibility (n bools) at d over n values of alpha1.

    Row k equals `constraints(Params1(d, alpha1s[k])).as_tuple()` bit for bit;
    where that raises, row k is nan and infeasible.
    """
    a1 = np.asarray(alpha1s, dtype=float)
    m = _Arrays((0.0 < d < 1.0) & (0.0 < a1) & (a1 < 180.0))
    with np.errstate(all="ignore"):
        r = np.array(_residuals(_quantities(m, d, a1), d))
    r[:, ~m.ok] = np.nan
    return r.T, r.min(axis=0) >= -EPS_GEOM


# --- the block, from named points ---------------------------------------

# the fundamental block, one (color, vertex names) row per cell in the order
# witnesses and JSON use, each counterclockwise from its stored first vertex.
# A pentagon with apex X opening toward theta has vertices X, X1, X2, X3, X4:
# X1 and X4 lie s1 from X toward theta -/+ alpha1/2, X2 and X3 lie d from X
# toward theta -/+ t1/2. The apexes are the octagon feet E, W and S, t2 from
# the red triangle's centre toward 30, 150 and 270 degrees, and the top
# pentagon's N = S + v1; the triangle's corners TE, TW and TS lie c from its
# centre the same ways. W3+v2 and the like are moved points (Tiling.from_points).
CELLS1 = (
    ("red", ("TS", "TE", "TW")),
    ("green", ("N2", "W1", "W", "TW", "TE", "E", "E4", "N3")),
    ("blue", ("W2+v2-v1", "E1", "E", "TE", "TS", "S", "S4", "W3+v2-v1")),
    ("orange", ("E2-v2", "S1", "S", "TS", "TW", "W", "W4", "E3-v2")),
    ("red", ("N", "N1", "N2", "N3", "N4")),
    ("red", ("E", "E1", "E2", "E3", "E4")),
    ("red", ("W", "W1", "W2", "W3", "W4")),
    ("turquoise", ("E4", "E3", "W4+v2", "W3+v2", "N4", "N3")),
    ("yellow", ("N2", "N1", "E2+v1-v2", "E1+v1-v2", "W2", "W1")),
)

def assemble_block(p: Params1) -> Tiling:
    """Assemble the fundamental block and lattice of the first coloring.

    Raises DomainError where c = 0, as the red triangle then vanishes, and unless
    each octagon's opposite vertices are 1 apart and each hexagon's sides s2 and
    s5 in turn, within LENGTH_TOL."""
    q = derive_quantities(p)
    if q.c == 0:
        raise DomainError(f"no red triangle: t2 = {q.t2} <= d = {p.d}, so c = 0")
    v1, v2 = np.array([0.0, q.H]), q.H * dirvec(30)
    top = np.array([0.0, q.h4 + q.c / 2 + q.h1])
    pts = {"TE": q.c * dirvec(30), "TW": q.c * dirvec(150), "TS": q.c * dirvec(270)}
    for name, theta, apex in (("E", 30, q.t2 * dirvec(30)), ("W", 150, q.t2 * dirvec(150)),
                              ("S", 270, top - v1), ("N", 270, top)):
        pts[name] = apex
        for k, (r, turn) in enumerate(((q.s1, -p.alpha1 / 2), (p.d, -q.t1 / 2),
                                       (p.d, q.t1 / 2), (q.s1, p.alpha1 / 2)), 1):
            pts[f"{name}{k}"] = apex + r * dirvec(theta + turn)
    lengths = [(r[i], r[i + 4], 1.0) for _, r in CELLS1 if len(r) == 8 for i in range(4)]
    lengths += [(r[i], r[(i + 1) % 6], (q.s2, q.s5)[i % 2]) for _, r in CELLS1 if len(r) == 6
                for i in range(6)]
    return Tiling.from_points(pts, CELLS1, v1, v2, lengths)


# --- feasibility scan ---------------------------------------------------


def _least_residual(d: float, alpha1: float):
    """min(constraints(Params1(d, alpha1)).as_tuple()) + EPS_GEOM, which is >= 0
    exactly where they are satisfied; None where either raises."""
    if not (0.0 < d < 1.0 and 0.0 < alpha1 < 180.0):
        return None
    try:
        return min(_residuals(_quantities(FLOATS, d, alpha1), d)) + EPS_GEOM
    except (DomainError, ZeroDivisionError):
        return None


def _feasible(d: float, alpha1: float) -> bool:
    """Whether constraints(Params1(d, alpha1)).satisfied(), False where either raises."""
    g = _least_residual(d, alpha1)
    return g is not None and g >= 0


@dataclass(frozen=True)
class FeasibilityMap:
    """Grid feasibility records plus a refined alpha1 band per d."""

    grid: tuple  # of (d, alpha1, feasible)
    bands: dict  # d -> (alpha_lo, alpha_hi) or None

    def band(self, d: float):
        return self.bands.get(d)


def _refine_edge(d: float, inside: float, g_in: float, step: float) -> float:
    """The feasibility boundary beyond the feasible alpha1 `inside`, toward `step`.

    g_in is _least_residual(d, inside). While inside + step is feasible the
    bracket moves out there and the step doubles; alpha1 leaving (0, 180) ends
    this. The edge is what REFINE_ITERS bisection steps then give, stopping once
    the midpoint rounds onto an end, but few midpoints are evaluated: an Illinois
    regula falsi (Dowell and Jarratt, 1971) on the least residual, halving while
    the outer end raises, first narrows the bracket to a feasible f and an
    infeasible o at most margin = REFINE_MARGIN_ULPS ulps apart. A midpoint more
    than the margin beyond f inward or beyond o outward is taken as feasible or
    infeasible; one within the margin, where roundoff may flip the sign, is
    evaluated. This assumes feasibility does not flip between a bracket end and
    the regula falsi point that replaced it. An edge of criterion 8's grid takes
    about 18 evaluations this way, against 46 with every midpoint evaluated.
    """
    outside = inside + step
    g_out = _least_residual(d, outside)
    while outside != inside and g_out is not None and g_out >= 0:
        inside, g_in, step = outside, g_out, 2 * step
        outside = inside + step
        g_out = _least_residual(d, outside)
    f, o, margin, f_moved = inside, outside, REFINE_MARGIN_ULPS * math.ulp(inside), None
    for _ in range(REFINE_ITERS):
        if abs(o - f) <= margin:
            break
        if g_out is None:
            x = 0.5 * (f + o)
        else:  # the secant point, at least margin / 2 inside the bracket
            x = min(max(o + (f - o) * (g_out / (g_out - g_in)), min(f, o) + margin / 2),
                    max(f, o) - margin / 2)
        g = _least_residual(d, x)
        if g is not None and g >= 0:
            if f_moved and g_out is not None:  # o kept twice: halve its residual
                g_out *= 0.5
            f, g_in, f_moved = x, g, True
        else:
            if f_moved is False:  # f kept twice
                g_in *= 0.5
            o, g_out, f_moved = x, g, False
    u = 1.0 if o > f else -1.0
    for _ in range(REFINE_ITERS):
        mid = 0.5 * (inside + outside)
        if mid == inside or mid == outside:
            break
        if (f - mid) * u > margin or ((mid - o) * u <= margin and _feasible(d, mid)):
            inside = mid
        else:
            outside = mid
    return inside


def feasible_region(d_grid, alpha_grid) -> FeasibilityMap:
    """Scan a (d, alpha1) grid; report per-d feasible alpha1 bands.

    Each d scores the whole alpha grid in one array pass. Each band edge is
    refined by _refine_edge from the extreme grid hit and its residual row or,
    when no grid point is feasible and d is in the interpolation range, from
    default_alpha1(d), so bands narrower than the alpha grid step are still
    found. That takes about 36 scalar evaluations per d on criterion 8's grid.
    """
    alpha_grid = list(alpha_grid)
    step = abs(float(alpha_grid[1] - alpha_grid[0])) if len(alpha_grid) > 1 else 1.0
    records, bands = [], {}
    for d in d_grid:
        x = float(d)
        r, ok = constraints_along(x, alpha_grid)
        records += [(d, a, f) for a, f in zip(alpha_grid, ok.tolist())]
        hits = [(float(alpha_grid[k]), min(r[k].tolist()) + EPS_GEOM) for k in np.flatnonzero(ok)]
        if not hits and D_LOW <= x <= D_HIGH:
            a = default_alpha1(x)
            hits = [(a, g) for g in [_least_residual(x, a)] if g is not None and g >= 0]
        # the grid may run in any order; the band grows out from its extreme hits
        bands[d] = (_refine_edge(x, *min(hits), -step),
                    _refine_edge(x, *max(hits), step)) if hits else None
    return FeasibilityMap(grid=tuple(records), bands=bands)
