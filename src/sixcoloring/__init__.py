"""Six-colorings of the plane avoiding unit distance in five colors and
distance d in the sixth, with exact convex-polygon distance verification."""

from .geom import ConvexPolygon
from .tiling import ColoringType, Tiling
from .verifier import VerificationReport, monte_carlo_check, verify

__all__ = [
    "ConvexPolygon",
    "ColoringType",
    "Tiling",
    "VerificationReport",
    "verify",
    "monte_carlo_check",
]

__version__ = "0.1.0"
