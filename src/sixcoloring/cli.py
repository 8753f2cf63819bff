"""Command-line interface: verify, scan, render, probe, and roots subcommands."""

from __future__ import annotations

import argparse
import math
import sys

from . import coloring_one, coloring_two
from .errors import DomainError, RangeError
from .render import DASH_AVOID, DASH_MIN, DASH_UNIT, Overlay, RenderSpec, render_svg, svg_lines
from .tiling import ColoringType
from .verifier import verify

# render_svg stays a name of this module: the benchmark's tracer wraps it here
__all__ = ["build_parser", "main", "render_svg"]

EXIT_VALID = 0
EXIT_INVALID = 1
EXIT_ERROR = 2


def _build_tiling(coloring: int, d: float, alpha1=None):
    if coloring == 1:
        if alpha1 is None:
            alpha1 = coloring_one.default_alpha1(d)
        return coloring_one.assemble_block(coloring_one.Params1(d, alpha1))
    return coloring_two.assemble_block2(coloring_two.constants())


def cmd_verify(args) -> int:
    tiling = _build_tiling(args.coloring, args.d, args.alpha1)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(tiling.to_json())
    report = verify(tiling, ColoringType.unit_except(red=args.d), strictness=args.strict)
    print(f"coloring {args.coloring}, d = {args.d}: {report.verdict} "
          f"({report.pairs_checked} pairs, {report.translates_enumerated} translates)")
    for w in report.witnesses:
        mn, mx = w.interval
        print(f"  witness: color={w.color} cells={w.pair} offset={w.offset} "
              f"interval=[{mn:.9f}, {mx:.9f}] realizes {w.distance}")
    return EXIT_VALID if report.valid else EXIT_INVALID


def _float_range(lo: float, hi: float, step: float):
    steps = (hi - lo) / step
    if not math.isfinite(steps):
        raise ValueError(f"step {step} is too small for the range [{lo}, {hi}]")
    return (round(lo + k * step, 12) for k in range(int(round(steps)) + 1))


def cmd_scan(args) -> int:
    rows = 0
    ds = _float_range(args.d_min, args.d_max, args.d_step)
    alphas = list(_float_range(args.alpha_min, args.alpha_max, args.alpha_step))
    with open(args.out, "w", newline="") as fh:
        fh.write("d,alpha1,r1,r2,r3,r4,r5,r6,feasible\r\n")
        for d in ds:
            for a in alphas:
                try:
                    r = coloring_one.constraints(coloring_one.Params1(d, a))
                    feasible = r.satisfied()
                    res = ",".join(f"{x:.12g}" for x in r.as_tuple())
                except (DomainError, RangeError):
                    feasible = False
                    res = ",".join(["nan"] * 6)
                fh.write(f"{d:.12g},{a:.12g},{res},{str(feasible).lower()}\r\n")
                rows += 1
    print(f"wrote {rows} rows to {args.out}")
    return EXIT_VALID


def cmd_render(args) -> int:
    tiling = _build_tiling(args.coloring, args.d, args.alpha1)
    radii = [(1.0, DASH_UNIT), (args.d, DASH_AVOID)]
    if args.coloring == 2:
        radii.append((coloring_two.constants().d_min, DASH_MIN))
    overlays = []
    for spec in args.overlay or []:
        parts = [float(x) for x in spec.split(",")]
        if len(parts) < 2:
            print(f"bad overlay {spec!r}: need x,y[,r...]", file=sys.stderr)
            return EXIT_ERROR
        r = [(rr, DASH_AVOID) for rr in parts[2:]] or radii
        overlays.append(Overlay(center=(parts[0], parts[1]), radii=tuple(r)))
    spec = RenderSpec(viewport=args.viewport, scale=args.scale, overlays=tuple(overlays))
    lines = svg_lines(tiling, spec)
    with open(args.out, "w") as fh:
        fh.writelines(lines)
    print(f"wrote {args.out}")
    return EXIT_VALID


def cmd_probe(args) -> int:
    tiling = _build_tiling(args.coloring, args.d, args.alpha1)
    print(tiling.color_at((args.x, args.y)))
    return EXIT_VALID


def cmd_roots(args) -> int:
    c = coloring_two.constants()
    print(f"d_max = {c.d_max:.15f}")
    print(f"d_min = {c.d_min:.15f}")
    print(f"quartic residual = {coloring_two.quartic(c.d_max):.3e}")
    print(f"|closed_form - bisection| = {abs(coloring_two.closed_form_dmax() - c.d_max):.3e}")
    return EXIT_VALID


def _float(ok, what):
    """argparse type: a finite float x with ok(x), else a usage error (exit 2)."""
    def parse(text):
        x = float(text)
        if not (math.isfinite(x) and ok(x)):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text}")
        return x
    parse.__name__ = "float"  # argparse names the type when float() fails
    return parse


FINITE = _float(lambda x: True, "finite")
POSITIVE = _float(lambda x: x > 0, "finite and positive")
OPEN_UNIT = _float(lambda x: 0 < x < 1, "finite and in (0, 1)")


def _viewport(text):
    """argparse type: four comma-separated finite floats x0,y0,x1,y1."""
    try:
        corners = tuple(float(x) for x in text.split(","))
    except ValueError:
        corners = ()
    if len(corners) != 4 or not all(math.isfinite(x) for x in corners):
        raise argparse.ArgumentTypeError(f"must be four finite numbers x0,y0,x1,y1, got {text}")
    return corners


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sixcoloring",
        description="Construct, verify, and render six-colorings of the plane "
                    "avoiding unit distance in five colors and distance d in the sixth.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_tiling_args(p):
        p.add_argument("--coloring", type=int, choices=(1, 2), required=True)
        p.add_argument("--d", type=OPEN_UNIT, required=True)
        p.add_argument("--alpha1", type=float, default=None,
                       help="pentagon apex angle in degrees (coloring 1 only)")

    p = sub.add_parser("verify", help="verify a tiling avoids its distances")
    add_tiling_args(p)
    p.add_argument("--strict", choices=("open", "closed"), default="open")
    p.add_argument("--json", default=None, help="write the tiling as JSON here")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("scan", help="grid-scan coloring 1 constraint residuals to CSV")
    p.add_argument("--d-min", type=FINITE, required=True)
    p.add_argument("--d-max", type=FINITE, required=True)
    p.add_argument("--d-step", type=POSITIVE, default=0.001)
    p.add_argument("--alpha-min", type=FINITE, default=95.0)
    p.add_argument("--alpha-max", type=FINITE, default=165.0)
    p.add_argument("--alpha-step", type=POSITIVE, default=0.1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("render", help="render a tiling to SVG")
    add_tiling_args(p)
    p.add_argument("--viewport", type=_viewport, required=True,
                   help="x0,y0,x1,y1 in plane units")
    p.add_argument("--scale", type=POSITIVE, default=200.0)
    p.add_argument("--overlay", action="append", default=None,
                   help="x,y[,r...] circle overlay; repeatable")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("probe", help="print the color at a point")
    add_tiling_args(p)
    p.add_argument("--x", type=FINITE, required=True)
    p.add_argument("--y", type=FINITE, required=True)
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("roots", help="print d_max, d_min, and cross-checks")
    p.set_defaults(func=cmd_roots)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "alpha1", None) is not None and args.coloring != 1:
        parser.error("argument --alpha1: applies to --coloring 1 only")
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # DomainError and RangeError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
