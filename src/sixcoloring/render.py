"""SVG rendering of periodic tilings, with optional distance-circle overlays."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .tiling import Tiling

# the pastel palette used throughout the figures
PALETTE = {
    "red": "#FFADAD",
    "orange": "#FFD6A5",
    "yellow": "#FDFFB6",
    "green": "#CAFFBF",
    "turquoise": "#9BF6FF",
    "blue": "#A0C4FF",
}

# dash patterns by overlay role
DASH_UNIT = "2,3"       # dotted, unit distance
DASH_AVOID = "8,4"      # dashed, distance d
DASH_MIN = "8,4,2,4"    # dash-dotted, d_min


@dataclass(frozen=True)
class Overlay:
    """Circles of the given radii drawn around a center point."""

    center: tuple
    radii: tuple  # of (radius, dasharray)

    def __post_init__(self):
        if not all(math.isfinite(x) for x in self.center):
            raise ValueError("overlay center must be finite")
        if not all(math.isfinite(r) and r > 0 for r, _ in self.radii):
            raise ValueError("overlay radii must be finite and positive")


@dataclass(frozen=True)
class RenderSpec:
    viewport: tuple  # (x_min, y_min, x_max, y_max) in plane units
    scale: float = 200.0
    overlays: tuple = ()
    palette: dict = field(default_factory=lambda: dict(PALETTE))

    def __post_init__(self):
        x0, y0, x1, y1 = self.viewport
        if not all(math.isfinite(x) for x in self.viewport):
            raise ValueError("viewport corners must be finite")
        if not (x1 > x0 and y1 > y0):
            raise ValueError("viewport must have positive width and height")
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError("scale must be finite and positive")


def _fmt(x: float) -> str:
    return f"{x:.6f}".rstrip("0").rstrip(".")


def svg_lines(tiling: Tiling, spec: RenderSpec):
    """The lines of the SVG 1.1 document of the tiling clipped to the
    viewport, each ending in a newline, as an iterator.

    Element order is stable (lattice offset, then cell index) so repeated
    renders are byte-identical. The translates are listed before this
    returns, so a viewport too large raises RangeError before any line is
    made.
    """
    x0, y0, x1, y1 = spec.viewport
    s = spec.scale
    width, height = (x1 - x0) * s, (y1 - y0) * s
    cells, offsets_a, offsets_b = tiling.translates_meeting((x0, y0), (x1, y1), 0.0)
    order = np.lexsort((cells, offsets_b, offsets_a))
    cells, offsets_a, offsets_b = cells[order], offsets_a[order], offsets_b[order]

    def to_px(pt):
        return (pt[0] - x0) * s, (y1 - pt[1]) * s  # flip y: SVG grows downward

    def lines():
        yield '<?xml version="1.0" encoding="UTF-8"?>\n'
        yield (f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
               f'width="{_fmt(width)}" height="{_fmt(height)}" '
               f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">\n')
        for k, a, b in zip(cells, offsets_a, offsets_b):
            poly, color = tiling.cells[k]
            v = poly.vertices + (a * tiling.v1 + b * tiling.v2)
            pts = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in map(to_px, v))
            fill = spec.palette.get(color, "#CCCCCC")
            yield (f'  <polygon points="{pts}" fill="{fill}" '
                   f'stroke="#000000" stroke-width="1"/>\n')
        for ov in spec.overlays:
            cx, cy = to_px(ov.center)
            yield f'  <circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="2" fill="#000000"/>\n'
            for radius, dash in ov.radii:
                yield (f'  <circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" '
                       f'r="{_fmt(radius * s)}" fill="none" stroke="#000000" '
                       f'stroke-width="1" stroke-dasharray="{dash}"/>\n')
        yield "</svg>\n"

    return lines()


def render_svg(tiling: Tiling, spec: RenderSpec) -> str:
    """The whole document of svg_lines as one string."""
    return "".join(svg_lines(tiling, spec))
