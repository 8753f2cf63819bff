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

from .geom import polygon_max_distance, polygon_min_distance
from .tiling import ColoringType, Tiling

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


def _pair_intervals(t: Tiling, ct: ColoringType, reach: float):
    """Yield (color, d, i, j, offset, interval) for every relevant same-color
    pair; interval is the realized (min, max) distance, or None when the
    bounding boxes are more than d + reach apart."""
    by_color = {}
    for idx, (_, color) in enumerate(t.cells):
        by_color.setdefault(color, []).append(idx)
    pairs = [(i, j) for idxs in by_color.values()
             for ii, i in enumerate(idxs) for j in idxs[ii:]]
    # offsets farther than d + diameters + center shift cannot realize d
    pi, pj, pa, pb, gap = t.translate_pairs(
        pairs, [ct.distances[t.cells[i][1]] for i, _ in pairs])
    # self-pairs: offsets come in +- pairs, so only the non-negative half
    keep = (pi != pj) | (pa > 0) | ((pa == 0) & (pb >= 0))
    for i, j, a, b, g in zip(*(x[keep].tolist() for x in (pi, pj, pa, pb, gap))):
        color = t.cells[i][1]
        d = ct.distances[color]
        if g > d + reach:
            yield color, d, i, j, (a, b), None
            continue
        p, q = t.cells[i][0], t.cells[j][0].translated(a * t.v1 + b * t.v2)
        mx = polygon_max_distance(p, q)
        mn = 0.0 if (i == j and (a, b) == (0, 0)) else polygon_min_distance(p, q)
        yield color, d, i, j, (a, b), (mn, mx)


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
    witnesses = []
    pairs = 0
    translates = set()
    for color, d, i, j, offset, interval in _pair_intervals(t, ct, 0.0):
        pairs += 1
        translates.add(offset)
        if interval is None:
            continue
        mn, mx = interval
        if strictness == "open":
            bad = (d - mn > VIOLATION_TOL) and (mx - d > VIOLATION_TOL)
        else:
            bad = (d >= mn - VIOLATION_TOL) and (d <= mx + VIOLATION_TOL)
        if bad:
            witnesses.append(Witness(color, (i, j), offset, interval, d))
    witnesses.sort(key=lambda w: (w.color, w.pair, w.offset))
    return VerificationReport(valid=not witnesses, witnesses=tuple(witnesses),
                              pairs_checked=pairs,
                              translates_enumerated=len(translates))


def critical_witnesses(t: Tiling, ct: ColoringType) -> list:
    """Same-color pairs whose realized interval endpoint is within BINDING_TOL
    of the avoided distance: the binding constraints of a valid tiling."""
    binding = [Witness(color, (i, j), offset, interval, d)
               for color, d, i, j, offset, interval in _pair_intervals(t, ct, BINDING_TOL)
               if interval is not None and min(abs(x - d) for x in interval) <= BINDING_TOL]
    binding.sort(key=lambda w: (w.color, w.pair, w.offset))
    return binding


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
    distance. Uses the counter-based Philox generator for reproducibility.
    """
    _check_int("n", n, 1, math.inf, ">= 1")
    _check_int("seed", seed, 0, 2 ** 128, "in [0, 2**128)")  # a Philox key
    rng = np.random.Generator(np.random.Philox(key=seed))
    u = rng.random((n, 2))
    theta = rng.random(n) * (2 * math.pi)
    pts = u[:, :1] * t.v1 + u[:, 1:] * t.v2
    # avoided distance by priority rank; every color a cell uses needs one
    cell_colors = {c for _, c in t.cells}
    dist_of_rank = np.array([ct.distances[c] if c in cell_colors else math.nan
                             for c in t.priority])
    ranks1, interior1 = t.rank_at_many(pts)
    dist = dist_of_rank[ranks1]
    pts2 = pts + dist[:, None] * np.column_stack([np.cos(theta), np.sin(theta)])
    ranks2, interior2 = t.rank_at_many(pts2)
    return int(np.count_nonzero((ranks1 == ranks2) & interior1 & interior2))
