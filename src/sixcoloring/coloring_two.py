"""Second six-coloring: a fixed pentagon/square/heptagon/hexagon tiling.

One tiling is valid for every avoided red distance d in [d_min, d_max], where
d_max is a quartic root near 0.657 and d_min = sqrt(3) - 2 * d_max.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError
from .geom import dirvec
from .tiling import Tiling

SQRT3 = math.sqrt(3)


def quartic(x: float) -> float:
    """The defining polynomial of d_max."""
    return x ** 4 + 5 * SQRT3 * x ** 3 + 18 * x ** 2 - 3 * SQRT3 * x - 7


def _quartic_deriv(x: float) -> float:
    return 4 * x ** 3 + 15 * SQRT3 * x ** 2 + 36 * x - 3 * SQRT3


def solve_dmax() -> float:
    """Real quartic root in (0.6, 0.7): bisection bracket plus Newton polish."""
    lo, hi = 0.6, 0.7
    if quartic(lo) * quartic(hi) >= 0:
        raise ConvergenceError("no sign change on [0.6, 0.7]")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if quartic(lo) * quartic(mid) <= 0:
            hi = mid
        else:
            lo = mid
    x = 0.5 * (lo + hi)
    for _ in range(5):
        x -= quartic(x) / _quartic_deriv(x)
    return x


def closed_form_dmax() -> float:
    """Literal evaluation of the nested-radical expression for d_max."""
    t = (7290 - 15 * math.sqrt(1821)) ** (1 / 3)
    u = (5 * (486 + math.sqrt(1821))) ** (1 / 3) / 3 ** (2 / 3)
    inner = 27 / 4 + t / 3 + u
    return (-(5 * SQRT3) / 4
            + 0.5 * math.sqrt(inner)
            + 0.5 * math.sqrt(27 / 2 - t / 3 - u + (9 / 4) * math.sqrt(3 / inner)))


@dataclass(frozen=True)
class Constants2:
    """Fixed scalars of the second coloring."""

    d_max: float
    d_min: float


def _heptagon_points(d_max: float) -> dict:
    """Vertex coordinates of the base-row heptagon and its neighbors."""
    aux_angle = math.degrees(math.atan2(1, 2 * d_max + SQRT3))
    aux_w = math.sqrt(3 - SQRT3 * d_max - d_max ** 2) / 2
    aux_x, aux_y = 1 / 14, 2 * SQRT3 / 7
    pts = {
        "A": np.array([0.0, 0.0]),
        "AA": np.array([1.0, 0.0]),
        "PA": np.array([0.5, SQRT3 / 2]),
        "B": np.array([0.0, SQRT3]),
        "C": np.array([1.0, SQRT3]),
        "PB": np.array([-0.5, SQRT3 / 2]),
        "PC": np.array([1.5, SQRT3 / 2]),
        "MAA": np.array([0.5, -SQRT3 / 2 + d_max]),
        "X": np.array([0.5, SQRT3 / 2 - d_max]),
        "Y": np.array([-0.5, SQRT3 / 2 + d_max]),
        "Z": np.array([1.5, SQRT3 / 2 + d_max]),
        "XX": np.array([0.5 - SQRT3 / 2 + d_max, 0.0]),
        "XXX": np.array([0.5 + SQRT3 / 2 - d_max, 0.0]),
        "YY": np.array([-0.5 + SQRT3 / 2 - d_max, SQRT3]),
        "ZZ": np.array([1.5 - SQRT3 / 2 + d_max, SQRT3]),
        "PD": np.array([0.5, 1.5 * SQRT3]),
        "M": np.array([0.5 - aux_x, SQRT3 - aux_y]),
        "N": np.array([0.5 + aux_x, SQRT3 - aux_y]),
        "NN": np.array([0.5 - aux_x, SQRT3 + aux_y]),
        "MM": np.array([0.5 + aux_x, SQRT3 + aux_y]),
    }
    pts["I1"] = np.array([0.25, 3 * SQRT3 / 4 - d_max / 2]) - aux_w * dirvec(aux_angle)
    pts["I2"] = np.array([-0.25, SQRT3 / 4 + d_max / 2]) + aux_w * dirvec(aux_angle)
    pts["I3"] = np.array([1.25, SQRT3 / 4 + d_max / 2]) + aux_w * dirvec(180 - aux_angle)
    pts["I4"] = np.array([0.75, 3 * SQRT3 / 4 - d_max / 2]) - aux_w * dirvec(180 - aux_angle)
    pts["I5"] = pts["PD"] + pts["PA"] - pts["I2"]
    pts["I6"] = pts["PD"] + pts["PA"] - pts["I3"]
    return pts


@lru_cache(maxsize=1)
def constants() -> Constants2:
    d_max = solve_dmax()
    return Constants2(d_max=d_max, d_min=SQRT3 - 2 * d_max)


# the four unit diagonals of the base-row heptagon and the three of the hexagon
HEPTAGON_UNIT_DIAGONALS = (("X", "I4"), ("AA", "I3"), ("AA", "PA"), ("NN+v1-v2", "PA"))
HEXAGON_UNIT_DIAGONALS = (("B", "C"), ("M", "MM"), ("N", "NN"))

# the fundamental block on the lattice v1 = (2, 0), v2 = (1, sqrt 3): the blue
# hexagon is centrosymmetric about (1/2, sqrt 3) before its move, the red
# pentagon axisymmetric with apex PD, the yellow heptagon is the base-row one,
# and the red square is centered at (1/2, 0) with diagonals d_min
CELLS2 = (
    ("orange", ("Z-v2", "ZZ-v2", "C-v2", "N-v2", "I3-v2", "I4-v2", "PC-v2")),
    ("green", ("Y+v1-v2", "YY+v1-v2", "B+v1-v2", "M+v1-v2", "I2+v1-v2", "I1+v1-v2",
               "PB+v1-v2")),
    ("red", ("PA+v1-v2", "I2+v1-v2", "M+v1-v2", "N+v1-v2", "I3+v1-v2")),
    ("blue", ("M+v1-v2", "N+v1-v2", "C+v1-v2", "MM+v1-v2", "NN+v1-v2", "B+v1-v2")),
    ("red", ("I5+v1-v2", "MM+v1-v2", "NN+v1-v2", "I6+v1-v2", "PD+v1-v2")),
    ("turquoise", ("X", "XX", "A", "MM-v2", "I1", "I2", "PA")),
    ("yellow", ("X", "XXX", "AA", "NN+v1-v2", "I4", "I3", "PA")),
    ("red", ("X", "XX", "MAA", "XXX")),
)


def assemble_block2(c: Constants2) -> Tiling:
    """Fundamental block of the second coloring; lattice (2, 0) and (1, sqrt(3)).

    Raises DomainError unless the seven unit diagonals are unit and the
    heptagon edge I4-I3 is d_max, within LENGTH_TOL.
    """
    lengths = [(a, b, 1.0) for a, b in HEPTAGON_UNIT_DIAGONALS + HEXAGON_UNIT_DIAGONALS]
    return Tiling.from_points(_heptagon_points(c.d_max), CELLS2, (2.0, 0.0), (1.0, SQRT3),
                              lengths + [("I4", "I3", c.d_max)])
