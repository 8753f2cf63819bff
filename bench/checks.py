"""Output checks for the benchmark, computed apart from the package.

Every check returns a list of problems; an empty list means the outputs pass.
The geometry here is written from scratch (separating axes, vertex-pair
maxima, point-to-segment minima, half-plane tests over every translate), so
a fault shared with the package's own kernels does not hide itself.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET

import numpy as np

# a witness lies strictly inside its realized interval; the package declares
# one only when d is inside by more than this
INTERVAL_TOL = 1e-9
# residuals this close to 0 are left out of the verdict/sign comparison
RESIDUAL_MARGIN = 1e-6
# a sample point counts as strictly interior when it is this far inside one
# cell translate and this far outside every other
LOCATE_MARGIN = 1e-7
# the share of sample points that must be strictly interior somewhere
LOCATE_MIN_CLEAR = 0.99

SQRT3 = math.sqrt(3.0)
QUARTIC = (1.0, 5 * SQRT3, 18.0, -3 * SQRT3, -7.0)

PALETTE = {"#FFADAD", "#FFD6A5", "#FDFFB6", "#CAFFBF", "#9BF6FF", "#A0C4FF"}
SCAN_HEADER = "d,alpha1,r1,r2,r3,r4,r5,r6,feasible"

# the README's linear apex-angle interpolation, 113.7 deg at d = 0.354
# rising by 14.11 deg to d = 0.553
ALPHA1_LOW, ALPHA1_RISE, D_LOW, D_HIGH = 113.7, 14.11, 0.354, 0.553


def default_alpha1(d: float) -> float:
    return ALPHA1_LOW + (d - D_LOW) * ALPHA1_RISE / (D_HIGH - D_LOW)


# --- convex-pair distance intervals ----------------------------------------


def _overlap(p: np.ndarray, q: np.ndarray) -> bool:
    """Separating-axis test: True when the closed convex polygons meet."""
    for poly in (p, q):
        edges = np.roll(poly, -1, axis=0) - poly
        normals = np.column_stack([-edges[:, 1], edges[:, 0]])
        pp, qq = p @ normals.T, q @ normals.T
        if np.any((pp.max(axis=0) < qq.min(axis=0)) | (qq.max(axis=0) < pp.min(axis=0))):
            return False
    return True


def _point_segments(pts: np.ndarray, poly: np.ndarray) -> float:
    """Least distance from any of `pts` to any edge of `poly`."""
    a = poly[None, :, :]
    ab = np.roll(poly, -1, axis=0)[None, :, :] - a
    ap = pts[:, None, :] - a
    t = np.clip((ap * ab).sum(axis=2) / (ab * ab).sum(axis=2), 0.0, 1.0)
    gap = ap - t[:, :, None] * ab
    return float(np.sqrt((gap * gap).sum(axis=2)).min())


def pair_interval(p: np.ndarray, q: np.ndarray, same_cell: bool = False) -> tuple:
    """[min, max] of the distances realized between two convex polygons.

    The maximum is attained at a pair of vertices. The minimum is 0 when
    the polygons meet and otherwise attained between a vertex and an edge.
    """
    mx = float(np.sqrt(((p[:, None, :] - q[None, :, :]) ** 2).sum(axis=2)).max())
    if same_cell or _overlap(p, q):
        return 0.0, mx
    return min(_point_segments(p, q), _point_segments(q, p)), mx


def _translate(cells, v1, v2, j: int, offset) -> np.ndarray:
    a, b = offset
    return np.asarray(cells[j][0], dtype=float) + a * np.asarray(v1) + b * np.asarray(v2)


def check_witnesses(cells, v1, v2, witnesses, distances: dict, where: str) -> list:
    """Each witness's interval, re-derived here, agrees with it and holds the
    avoided distance of the witness's color.

    `cells` is a list of (vertices, color); a witness names cells (i, j), the
    lattice offset (a, b) applied to cell j, its interval and distance.
    """
    problems = []
    for w in witnesses:
        i, j = w.pair
        p = np.asarray(cells[i][0], dtype=float)
        q = _translate(cells, v1, v2, j, w.offset)
        mn, mx = pair_interval(p, q, same_cell=(i == j and tuple(w.offset) == (0, 0)))
        tag = f"{where}: witness {w.color} cells={w.pair} offset={w.offset}"
        if cells[i][1] != w.color or cells[j][1] != w.color:
            problems.append(f"{tag} joins cells of colors {cells[i][1]}, {cells[j][1]}")
        d = distances[w.color]
        if w.distance != d:
            problems.append(f"{tag} realizes {w.distance}, not {w.color}'s {d}")
        if not (mn < d < mx):
            problems.append(f"{tag}: re-derived interval [{mn}, {mx}] does not hold d = {d}")
        if abs(mn - w.interval[0]) > INTERVAL_TOL or abs(mx - w.interval[1]) > INTERVAL_TOL:
            problems.append(f"{tag}: reported interval {w.interval} != re-derived ({mn}, {mx})")
    return problems


def own_verdict(cells, v1, v2, distances: dict) -> bool:
    """True when no same-color pair of cell translates realizes its color's
    avoided distance strictly inside its interval (by INTERVAL_TOL).

    Offsets are enumerated over a square of lattice indices wide enough that
    every translate left out lies farther than d from the other cell.
    """
    v1, v2 = np.asarray(v1, dtype=float), np.asarray(v2, dtype=float)
    polys = [np.asarray(v, dtype=float) for v, _ in cells]
    centers = [p.mean(axis=0) for p in polys]
    radii = [float(np.sqrt(((p - c) ** 2).sum(axis=1)).max()) for p, c in zip(polys, centers)]
    shortest = float(np.linalg.svd(np.column_stack([v1, v2]), compute_uv=False)[-1])
    for i, (_, color) in enumerate(cells):
        d = distances[color]
        for j in range(i, len(cells)):
            if cells[j][1] != color:
                continue
            reach = d + radii[i] + radii[j] + float(np.hypot(*(centers[j] - centers[i])))
            k = int(math.ceil(reach / shortest)) + 1
            for a in range(-k, k + 1):
                for b in range(-k, k + 1):
                    off = a * v1 + b * v2
                    if np.hypot(*(centers[j] + off - centers[i])) > d + radii[i] + radii[j]:
                        continue
                    mn, mx = pair_interval(polys[i], polys[j] + off,
                                           same_cell=(i == j and a == 0 and b == 0))
                    if mn + INTERVAL_TOL < d < mx - INTERVAL_TOL:
                        return False
    return True


# --- param_grid ------------------------------------------------------------


def check_param_point(d: float, alpha1: float, residuals, outcome: str) -> list:
    """The verifier's verdict at (d, alpha1) against the closed-form residuals.

    `outcome` is "valid", "invalid", or the stage that rejected the point
    ("constraints", "assemble", "validate"). Where every residual is more
    than RESIDUAL_MARGIN from 0, the point is valid exactly when all are
    positive; a point with all residuals positive passes `validate`.
    """
    where = f"param_grid d={d:.6f} alpha1={alpha1:.4f}"
    if residuals is None:
        return [] if outcome == "constraints" else [f"{where}: no residuals yet outcome {outcome}"]
    feasible = min(residuals) > 0
    if feasible and outcome == "validate":
        return [f"{where}: feasible point fails validate"]
    if all(abs(r) > RESIDUAL_MARGIN for r in residuals) and feasible != (outcome == "valid"):
        return [f"{where}: residuals say {'feasible' if feasible else 'infeasible'}, "
                f"verifier says {outcome}"]
    return []


# --- d_sweep ---------------------------------------------------------------


def check_dmax(d_max: float) -> list:
    """d_max is the real root in (0, 1) of x^4 + 5 sqrt3 x^3 + 18 x^2 - 3 sqrt3 x - 7."""
    roots = [r.real for r in np.roots(QUARTIC) if abs(r.imag) < 1e-12 and 0 < r.real < 1]
    if len(roots) != 1:
        return [f"quartic has {len(roots)} real roots in (0, 1)"]
    if abs(roots[0] - d_max) > 1e-10:
        return [f"d_max = {d_max!r} but numpy.roots gives {roots[0]!r}"]
    return []


def check_coverage(ds, valid_by_d: dict, lo: float, hi: float, step: float) -> list:
    """Every d is valid under some coloring, and the d grid spans [lo, hi]
    with no gap wider than `step`."""
    problems = [f"d_sweep: no coloring is valid at d={d!r}" for d in ds if not valid_by_d[d]]
    grid = sorted(ds)
    if grid[0] != lo or grid[-1] != hi:
        problems.append(f"d_sweep: grid runs {grid[0]}..{grid[-1]}, not {lo}..{hi}")
    gap = max(b - a for a, b in zip(grid, grid[1:]))
    if gap > step * (1 + 1e-9):
        problems.append(f"d_sweep: grid gap {gap} exceeds {step}")
    return problems


# --- monte_carlo -----------------------------------------------------------


def brute_force_colors(cells, v1, v2, pts: np.ndarray, reach: int = 4, chunk: int = 512):
    """Color of each point by a half-plane test against every cell translate
    a v1 + b v2 with |a|, |b| <= reach.

    Returns (colors, clear, multiple): the color of the one translate that
    holds the point strictly inside by LOCATE_MARGIN; a mask of points inside
    one translate and farther than LOCATE_MARGIN from every other; and a mask
    of points strictly inside two translates, which a partition never has.
    """
    v1, v2 = np.asarray(v1, dtype=float), np.asarray(v2, dtype=float)
    ab = np.array([(a, b) for a in range(-reach, reach + 1) for b in range(-reach, reach + 1)])
    offsets = ab[:, :1] * v1 + ab[:, 1:] * v2
    n = len(pts)
    inside = np.zeros((n, len(cells)), dtype=np.intp)
    near = np.zeros(n, dtype=np.intp)
    for c, (verts, _) in enumerate(cells):
        v = np.asarray(verts, dtype=float)
        e = np.roll(v, -1, axis=0) - v
        length = np.hypot(e[:, 0], e[:, 1])
        corners = v[None, :, :] + offsets[:, None, :]
        for s in range(0, n, chunk):
            rel = pts[s:s + chunk, None, None, :] - corners[None, :, :, :]
            signed = (e[:, 0] * rel[..., 1] - e[:, 1] * rel[..., 0]) / length
            least = signed.min(axis=2)
            inside[s:s + chunk, c] = (least > LOCATE_MARGIN).sum(axis=1)
            near[s:s + chunk] += (least > -LOCATE_MARGIN).sum(axis=1)
    hits = inside.sum(axis=1)
    clear = (hits == 1) & (near == 1)
    names = np.array([color for _, color in cells], dtype=object)
    colors = np.where(clear, names[inside.argmax(axis=1)], None)
    return colors, clear, hits > 1


def check_locator(cells, v1, v2, pts, colors, interior, where: str) -> list:
    """The package's colors and interior flags against the brute-force locator."""
    expect, clear, multiple = brute_force_colors(cells, v1, v2, pts)
    problems = []
    if multiple.any():
        problems.append(f"{where}: {int(multiple.sum())} points lie inside two cell translates")
    if clear.mean() < LOCATE_MIN_CLEAR:
        problems.append(f"{where}: only {clear.mean():.4f} of the sample is strictly interior")
    wrong = clear & ((np.asarray(colors, dtype=object) != expect) | ~np.asarray(interior))
    if wrong.any():
        k = int(np.flatnonzero(wrong)[0])
        problems.append(f"{where}: {int(wrong.sum())} points disagree with brute force, "
                        f"e.g. {pts[k].tolist()} is {colors[k]} (interior={bool(interior[k])}), "
                        f"brute force says {expect[k]}")
    return problems


def check_mc_counts(counts: dict, n: int) -> list:
    """Both valid tilings give 0; the sabotaged one gives a count in (0, n]."""
    problems = [f"monte_carlo: {name} counts {c} monochromatic pairs"
                for name, c in counts.items() if name != "sabotaged" and c != 0]
    if not 0 < counts["sabotaged"] <= n:
        problems.append(f"monte_carlo: sabotaged count {counts['sabotaged']} not in (0, {n}]")
    return problems


# --- band_scan -------------------------------------------------------------


def check_band(d: float, band, feasible, step: float = 1e-6) -> list:
    """The band holds default_alpha1(d); `feasible(d, alpha)` is true just
    inside each edge and false just outside it."""
    where = f"band_scan d={d!r}"
    if band is None:
        return [f"{where}: no band"]
    lo, hi = band
    problems = []
    if not lo <= default_alpha1(d) <= hi:
        problems.append(f"{where}: default alpha1 {default_alpha1(d)} outside [{lo}, {hi}]")
    inset = min(step, (hi - lo) / 2)
    for edge, inward in ((lo, 1.0), (hi, -1.0)):
        if not feasible(d, edge + inward * inset):
            problems.append(f"{where}: infeasible just inside edge {edge}")
        if feasible(d, edge - inward * step):
            problems.append(f"{where}: feasible just outside edge {edge}")
    return problems


def check_scan_csv(data: bytes, rows: int) -> list:
    """Header, CRLF row count, and each row's feasible column against its residuals."""
    lines = data.decode("ascii").split("\r\n")
    if lines[-1] != "":
        return ["scan CSV does not end in CRLF"]
    lines = lines[:-1]
    problems = []
    if lines[0] != SCAN_HEADER:
        problems.append(f"scan CSV header {lines[0]!r}")
    if len(lines) - 1 != rows:
        problems.append(f"scan CSV has {len(lines) - 1} rows, expected {rows}")
    for line in lines[1:]:
        fields = line.split(",")
        residuals = [float(x) for x in fields[2:8]]
        expect = all(math.isfinite(r) for r in residuals) and min(residuals) >= -1e-9
        if len(fields) != 9 or fields[8] != str(expect).lower():
            problems.append(f"scan CSV row {line!r}: feasible column should be {expect}")
            break
    return problems


def check_svg(data: bytes, where: str) -> list:
    """The SVG parses as XML; every polygon fill is a palette color, all six used."""
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        return [f"{where}: SVG does not parse: {exc}"]
    fills = [el.get("fill") for el in root.iter("{http://www.w3.org/2000/svg}polygon")]
    problems = []
    if not fills:
        problems.append(f"{where}: SVG has no polygons")
    stray = set(fills) - PALETTE
    if stray:
        problems.append(f"{where}: fills outside the palette: {sorted(stray)}")
    if set(fills) != PALETTE and not stray:
        problems.append(f"{where}: only {len(set(fills))} of six palette colors drawn")
    return problems
