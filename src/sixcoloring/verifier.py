"""Certification that a periodic tiling avoids its per-color distances.

For each color, every pair of same-color cells (over all relevant lattice
translates) is checked: the set of distances realized between two convex
compacts is the interval [min distance, max distance], so the avoided
distance must not fall inside it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .geom import polygon_distances, polygon_max_distance, polygon_min_distance
from .tiling import ColoringType, Tiling

# polygon_min/max_distance stay names of this module: the benchmark's tracer wraps them here
__all__ = ["BINDING_TOL", "VIOLATION_TOL", "VerificationReport", "Witness", "critical_witnesses",
           "monte_carlo_check", "polygon_max_distance", "polygon_min_distance", "verify"]

# a distance counts as violated only if it is inside the interval by more
# than VIOLATION_TOL; within BINDING_TOL of an endpoint it is "binding"
VIOLATION_TOL = 1e-9
BINDING_TOL = 1e-6


@dataclass(frozen=True)
class Witness:
    """One offending same-color pair."""

    color: str
    pair: tuple        # cell indices (i, j) within the block
    offset: tuple      # lattice offset (a, b) applied to cell j
    interval: tuple    # realized distance interval (min, max)
    distance: float    # the avoided distance realized


@dataclass(frozen=True)
class VerificationReport:
    valid: bool
    witnesses: tuple
    pairs_checked: int
    translates_enumerated: int

    @property
    def verdict(self) -> str:
        return "valid" if self.valid else "invalid"


def _check_colors(t: Tiling, ct: ColoringType) -> None:
    """Raise ValueError unless ct gives an avoided distance for every color
    of t's cells."""
    missing = sorted({color for _, color in t.cells} - ct.distances.keys())
    if missing:
        raise ValueError(f"coloring type has no avoided distance for colors {missing}")


def _pair_table(t: Tiling, ct: ColoringType) -> tuple:
    """Every relevant same-color translate pair, as arrays color, i, j, a, b,
    d, mn, mx: cells i and j, the lattice offset (a, b) applied to cell j, the
    pair's color and avoided distance d, and the realized distance interval
    [mn, mx]. The pairs are those whose bounding boxes are at most
    d + BINDING_TOL apart, so every interval within BINDING_TOL >=
    VIOLATION_TOL of d is there."""
    _check_colors(t, ct)
    colors = np.array([color for _, color in t.cells], dtype=object)
    dist = np.array([ct.distances[color] for color in colors], dtype=float)
    pi, pj = np.triu_indices(len(colors))
    same = colors[pi] == colors[pj]
    pi, pj = pi[same], pj[same]
    row, a, b = t.translates_near(t.box_lo[pi], t.box_hi[pi], dist[pi] + BINDING_TOL, pj)
    i, j = pi[row], pj[row]
    # self-pairs: offsets come in +- pairs, so only the non-negative half
    keep = (i != j) | (a > 0) | ((a == 0) & (b >= 0))
    i, j, a, b = i[keep], j[keep], a[keep], b[keep]
    off = a[:, None] * t.v1 + b[:, None] * t.v2
    # a cell meets itself at its vertex 0, so its minimum is exactly 0
    mn, mx = polygon_distances(t.padded_vertices[i], t.padded_vertices[j] + off[:, None])
    return colors[i], i, j, a, b, dist[i], mn, mx


def _witnesses(table: tuple, ct: ColoringType, mask: np.ndarray) -> list:
    """The sorted witnesses of the pair table's entries under mask."""
    rows = zip(*(x[mask].tolist() for x in table))
    return sorted((Witness(color, (i, j), (a, b), (mn, mx), ct.distances[color])
                   for color, i, j, a, b, _, mn, mx in rows),
                  key=lambda w: (w.color, w.pair, w.offset))


def verify(t: Tiling, ct: ColoringType, strictness: str = "open",
           validate: bool = True) -> VerificationReport:
    """Check that no color realizes its avoided distance.

    Under "open" strictness the cells are treated as open interiors: the
    avoided distance must lie strictly inside a realized interval to count.
    Under "closed" the interval endpoints count as well.
    """
    if strictness not in ("open", "closed"):
        raise ValueError(f"unknown strictness {strictness!r}")
    if validate:
        t.validate()
    table = _pair_table(t, ct)
    _, _, _, a, b, d, mn, mx = table
    if strictness == "open":
        bad = (d - mn > VIOLATION_TOL) & (mx - d > VIOLATION_TOL)
    else:
        bad = (d >= mn - VIOLATION_TOL) & (d <= mx + VIOLATION_TOL)
    witnesses = _witnesses(table, ct, bad)
    return VerificationReport(valid=not witnesses, witnesses=tuple(witnesses),
                              pairs_checked=len(d),
                              translates_enumerated=len(set(zip(a.tolist(), b.tolist()))))


def critical_witnesses(t: Tiling, ct: ColoringType) -> list:
    """Same-color pairs whose realized interval endpoint is within BINDING_TOL
    of the avoided distance: the binding constraints of a valid tiling."""
    table = _pair_table(t, ct)
    _, _, _, _, _, d, mn, mx = table
    return _witnesses(table, ct, np.minimum(abs(mn - d), abs(mx - d)) <= BINDING_TOL)


def _check_int(name: str, value, lo, hi, what: str) -> None:
    """Raise TypeError unless value is an integer and not a bool, and
    ValueError unless lo <= value < hi, which `what` states."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an int, got {value!r}")
    if not lo <= value < hi:
        raise ValueError(f"{name} must be {what}, got {value}")


def monte_carlo_check(t: Tiling, ct: ColoringType, n: int, seed: int) -> int:
    """Count monochromatic interior point pairs at the avoided distances.

    Draws n uniform points in one lattice cell and, per point, one uniform
    direction; the second endpoint lies at the first point's avoided
    distance. Philox keyed by seed gives the stream of random((n, 2)) then
    random(n); block [s, s + k) of tiling.LOCATE_CHUNK points reads doubles
    [2s, 2s + 2k) and [2n + s, 2n + s + k), so memory does not grow with n.
    """
    from .tiling import LOCATE_CHUNK  # read per call, so it can be patched
    _check_int("n", n, 1, math.inf, ">= 1")
    _check_int("seed", seed, 0, 2 ** 128, "in [0, 2**128)")  # a Philox key
    n, seed = int(n), int(seed)  # Philox.advance overflows on numpy integers
    _check_colors(t, ct)
    # avoided distance by priority rank; only the ranks of cell colors occur
    dist_of_rank = np.array([ct.distances.get(c, math.nan) for c in t.priority])
    def doubles(pos, k):  # [pos, pos + k) of the stream; one Philox step gives 4 doubles
        rng = np.random.Generator(np.random.Philox(key=seed).advance(pos // 4))
        return rng.random(pos % 4 + k)[pos % 4:]
    count = 0
    for s in range(0, n, LOCATE_CHUNK):
        k = min(LOCATE_CHUNK, n - s)
        u = doubles(2 * s, 2 * k).reshape(k, 2)
        theta = doubles(2 * n + s, k) * (2 * math.pi)
        # points as (2, k) rows, coordinates first, as rank_at_many works on them
        p = t.v1[:, None] * u[:, 0] + t.v2[:, None] * u[:, 1]
        ranks1, interior1 = t.rank_at_many(p.T)
        dist = dist_of_rank[ranks1]
        p[0] += dist * np.cos(theta)
        p[1] += dist * np.sin(theta)
        ranks2, interior2 = t.rank_at_many(p.T)
        count += int(np.count_nonzero((ranks1 == ranks2) & interior1 & interior2))
    return count
