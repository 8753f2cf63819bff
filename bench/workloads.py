"""The benchmark's four workloads.

Each workload makes its inputs from the seed when it is constructed (the
set-up), lists one round of operations with `ops()`, and checks one round's
outputs with `check()`. Every round runs the same operations on the same
inputs, so every round must give the same outputs. Operations call the
package through module attributes (`coloring_one.constraints`, not a name
imported from it), so the benchmark's tracer sees every call.
"""

from __future__ import annotations

import contextlib
import io
from functools import partial

import numpy as np

import checks
from sixcoloring import cli, coloring_one, coloring_two, verifier
from sixcoloring.errors import DomainError, InvalidTilingError, RangeError
from sixcoloring.tiling import ColoringType, Tiling

# the output of an operation that raised; the runner counts it as failed
FAILED = object()


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed % 2 ** 64)


def _cells(tiling: Tiling) -> list:
    return [(poly.vertices, color) for poly, color in tiling.cells]


def _feasible(d: float, alpha1: float) -> bool:
    """Feasibility read off the closed-form residuals, outside the package's
    own feasibility test."""
    try:
        residuals = coloring_one.constraints(coloring_one.Params1(d, alpha1)).as_tuple()
    except (DomainError, RangeError):
        return False
    return min(residuals) >= -1e-9


class ParamGrid:
    """Coloring 1 over a jittered (d, alpha1) grid: constraints, assemble,
    validate, verify at every point."""

    name = "param_grid"
    # every point of this box assembles into a tiling, so every operation runs
    # all four stages; the box holds feasible points and infeasible points on
    # three sides of the feasible band
    D_RANGE = (0.32, 0.52)
    ALPHA_RANGE = (106.0, 146.0)
    SIDE = 5

    def __init__(self, seed: int, out_dir):
        coloring_two.constants()
        u = _rng(seed).random((self.SIDE, self.SIDE, 2))
        (d0, d1), (a0, a1) = self.D_RANGE, self.ALPHA_RANGE
        hd, ha = (d1 - d0) / self.SIDE, (a1 - a0) / self.SIDE
        self.points = [(d0 + (i + u[i, j, 0]) * hd, a0 + (j + u[i, j, 1]) * ha)
                       for i in range(self.SIDE) for j in range(self.SIDE)]

    def ops(self) -> list:
        return [partial(self._point, d, a) for d, a in self.points]

    @staticmethod
    def _point(d: float, alpha1: float):
        p = coloring_one.Params1(d, alpha1)
        try:
            residuals = coloring_one.constraints(p).as_tuple()
        except (DomainError, RangeError):
            return None, "constraints", ()
        try:
            tiling = coloring_one.assemble_block(p)
        except (DomainError, RangeError):
            return residuals, "assemble", ()
        try:
            tiling.validate()
        except InvalidTilingError:
            return residuals, "validate", ()
        report = verifier.verify(tiling, ColoringType.unit_except(red=d), validate=False)
        return residuals, report.verdict, report.witnesses

    def check(self, outputs) -> list:
        problems = []
        sides = set()
        for (d, a), out in zip(self.points, outputs):
            if out is FAILED:
                continue
            residuals, outcome, witnesses = out
            problems += checks.check_param_point(d, a, residuals, outcome)
            if residuals is not None and all(abs(r) > checks.RESIDUAL_MARGIN for r in residuals):
                sides.add(min(residuals) > 0)
            if outcome == "invalid":
                if not witnesses:
                    problems.append(f"param_grid d={d} alpha1={a}: invalid without a witness")
                t = coloring_one.assemble_block(coloring_one.Params1(d, a))
                problems += checks.check_witnesses(_cells(t), t.v1, t.v2, witnesses,
                                                   ColoringType.unit_except(red=d).distances,
                                                   f"param_grid d={d} alpha1={a}")
        if sides != {True, False}:
            problems.append(f"param_grid: the grid does not straddle the band (sides {sides})")
        return problems


class DSweep:
    """Coverage of [0.354, 0.657] on a fine jittered d grid by both colorings."""

    name = "d_sweep"
    LOW, HIGH = 0.354, 0.657
    POINTS = 120           # jittered interior points; the two ends are added
    CONTROLS = (0.40, 0.70)  # coloring 2 must fail at these
    RECHECKED = 12         # sweep points whose verdicts are recomputed in full

    def __init__(self, seed: int, out_dir):
        self.c = coloring_two.constants()
        self.t2 = coloring_two.assemble_block2(self.c)
        rng = _rng(seed)
        self.step = (self.HIGH - self.LOW) / self.POINTS
        u = rng.random()
        self.ds = ([self.LOW] + [self.LOW + (k + u) * self.step for k in range(self.POINTS)]
                   + [self.HIGH])
        self.rechecked = sorted(rng.choice(len(self.ds), self.RECHECKED, replace=False).tolist())

    def ops(self) -> list:
        return ([self.t2.validate] + [partial(self._sweep, d) for d in self.ds]
                + [partial(self._control, d) for d in self.CONTROLS])

    def _tiling1(self, d: float) -> Tiling:
        return coloring_one.assemble_block(
            coloring_one.Params1(d, coloring_one.default_alpha1(d)))

    def _sweep(self, d: float):
        ct = ColoringType.unit_except(red=d)
        out = []
        if coloring_one.D_LOW <= d <= coloring_one.D_HIGH:
            r = verifier.verify(self._tiling1(d), ct, validate=False)
            out.append((1, r.valid, r.witnesses))
        if self.c.d_min <= d <= self.c.d_max:
            r = verifier.verify(self.t2, ct, validate=False)
            out.append((2, r.valid, r.witnesses))
        return tuple(out)

    def _control(self, d: float):
        r = verifier.verify(self.t2, ColoringType.unit_except(red=d), validate=False)
        return r.valid, r.witnesses

    def check(self, outputs) -> list:
        problems = checks.check_dmax(self.c.d_max)
        sweep = outputs[1:1 + len(self.ds)]
        controls = outputs[1 + len(self.ds):]
        valid_by_d = {}
        for k, (d, out) in enumerate(zip(self.ds, sweep)):
            if out is FAILED:
                continue
            valid_by_d[d] = any(valid for _, valid, _ in out)
            distances = ColoringType.unit_except(red=d).distances
            for coloring, valid, witnesses in out:
                t = self._tiling1(d) if coloring == 1 else self.t2
                if not valid:
                    problems += checks.check_witnesses(_cells(t), t.v1, t.v2, witnesses,
                                                       distances,
                                                       f"d_sweep coloring {coloring} d={d}")
                if k in self.rechecked:
                    if checks.own_verdict(_cells(t), t.v1, t.v2, distances) != valid:
                        problems.append(f"d_sweep coloring {coloring} d={d}: verdict {valid} "
                                        f"disagrees with the pair-by-pair recomputation")
        done = [d for d in self.ds if d in valid_by_d]
        problems += checks.check_coverage(done, valid_by_d, self.LOW, self.HIGH, self.step)
        for d, out in zip(self.CONTROLS, controls):
            if out is FAILED:
                continue
            valid, witnesses = out
            if valid or not witnesses:
                problems.append(f"d_sweep: coloring 2 passes the negative control d={d}")
            problems += checks.check_witnesses(_cells(self.t2), self.t2.v1, self.t2.v2,
                                               witnesses,
                                               ColoringType.unit_except(red=d).distances,
                                               f"d_sweep control d={d}")
        return problems


class MonteCarlo:
    """Three Monte Carlo cross-checks at n = 10^6: both colorings and a
    sabotaged coloring 2 with its yellow cell recolored green."""

    name = "monte_carlo"
    N = 10 ** 6
    SAMPLE = 2048  # points checked against the brute-force locator

    def __init__(self, seed: int, out_dir):
        self.key = seed % 2 ** 64
        t2 = coloring_two.assemble_block2(coloring_two.constants())
        t1 = coloring_one.assemble_block(
            coloring_one.Params1(0.45, coloring_one.default_alpha1(0.45)))
        sabotaged = [(p, "green" if color == "yellow" else color) for p, color in t2.cells]
        # (name, cells, v1, v2, priority, avoided distances)
        self.cases = [
            ("coloring1", t1.cells, t1.v1, t1.v2, t1.priority, ColoringType.unit_except(0.45)),
            ("coloring2", t2.cells, t2.v1, t2.v2, t2.priority, ColoringType.unit_except(0.55)),
            ("sabotaged", sabotaged, t2.v1, t2.v2, t2.priority, ColoringType.unit_except(0.55)),
        ]
        # fractional lattice coordinates in [-1, 2)^2, from the same Philox
        # stream as the Monte Carlo check, so periodic reduction is exercised
        self.frac = np.random.Generator(np.random.Philox(key=self.key)).random((self.SAMPLE, 2))
        self.frac = 3.0 * self.frac - 1.0

    def ops(self) -> list:
        # a fresh Tiling per call, so every call builds its point locator as
        # a user's first call does
        return [partial(self._count, *case[1:]) for case in self.cases]

    def _count(self, cells, v1, v2, priority, ct):
        return verifier.monte_carlo_check(Tiling(cells, v1, v2, priority), ct, self.N,
                                          seed=self.key)

    def check(self, outputs) -> list:
        counts = {case[0]: out for case, out in zip(self.cases, outputs) if out is not FAILED}
        problems = checks.check_mc_counts(counts, self.N) if len(counts) == 3 else []
        for name, cells, v1, v2, priority, _ in self.cases:
            pts = self.frac[:, :1] * v1 + self.frac[:, 1:] * v2
            colors, interior = Tiling(cells, v1, v2, priority).color_at_many(pts)
            own = [(p.vertices, color) for p, color in cells]
            problems += checks.check_locator(own, v1, v2, pts, colors, interior,
                                             f"monte_carlo {name}")
        return problems


class BandScan:
    """Coloring 1's feasible alpha1 band at every d of criterion 8's grid,
    then the CLI scan to CSV and the CLI render of both colorings to SVG."""

    name = "band_scan"
    LOW, HIGH, STEP = 0.354, 0.553, 0.001
    CONTROLS = (0.34, 0.60)  # no alpha1 on the grid is feasible here
    ALPHA_LOW, ALPHA_STEP, ALPHA_POINTS = 95.0, 0.5, 141
    SCAN_ROWS = 11 * 401     # 11 values of d times 401 of alpha1

    def __init__(self, seed: int, out_dir):
        coloring_two.constants()
        rng = _rng(seed)
        u, v = rng.random(2)
        inner = round((self.HIGH - self.LOW) / self.STEP) - 1
        self.ds = ([self.LOW] + [self.LOW + (k + u) * self.STEP for k in range(inner)]
                   + [self.HIGH])
        self.alphas = [self.ALPHA_LOW + (k + v) * self.ALPHA_STEP
                       for k in range(self.ALPHA_POINTS)]
        k, j = rng.integers(10, size=2)
        self.csv = out_dir / "scan.csv"
        self.scan_args = ["scan", "--d-min", f"{0.40 + 0.001 * k:.3f}",
                          "--d-max", f"{0.45 + 0.001 * k:.3f}", "--d-step", "0.005",
                          "--alpha-min", f"{100 + 0.1 * j:.1f}",
                          "--alpha-max", f"{140 + 0.1 * j:.1f}", "--alpha-step", "0.1",
                          "--out", str(self.csv)]
        self.renders = []
        for coloring, (lo, hi) in ((1, (0.36, 0.55)), (2, (0.42, 0.65))):
            svg = out_dir / f"coloring{coloring}.svg"
            self.renders.append((svg, ["render", "--coloring", str(coloring),
                                       "--d", f"{rng.uniform(lo, hi):.4f}",
                                       "--viewport=-2,-2,3,3", "--overlay", "0.5,0.866",
                                       "--out", str(svg)]))

    def ops(self) -> list:
        return ([partial(self._band, d) for d in self.ds + list(self.CONTROLS)]
                + [partial(self._cli, self.scan_args, self.csv)]
                + [partial(self._cli, args, svg) for svg, args in self.renders])

    def _band(self, d: float):
        return coloring_one.feasible_region([d], self.alphas)

    @staticmethod
    def _cli(args, path):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(args)
        return code, path.read_bytes()

    def check(self, outputs) -> list:
        problems = []
        nd = len(self.ds)
        for d, fm in zip(self.ds, outputs[:nd]):
            if fm is not FAILED:
                problems += checks.check_band(d, fm.band(d), _feasible)
        for d, fm in zip(self.CONTROLS, outputs[nd:nd + 2]):
            if fm is not FAILED and fm.band(d) is not None:
                problems.append(f"band_scan: band {fm.band(d)} at control d={d}")
            if any(_feasible(d, a) for a in self.alphas):
                problems.append(f"band_scan: a grid alpha1 is feasible at control d={d}")
        scan, *renders = outputs[nd + 2:]
        if scan is not FAILED:
            code, data = scan
            problems += [f"band_scan: scan exits {code}"] if code else []
            problems += checks.check_scan_csv(data, self.SCAN_ROWS)
        for (svg, _), out in zip(self.renders, renders):
            if out is not FAILED:
                code, data = out
                problems += [f"band_scan: render exits {code}"] if code else []
                problems += checks.check_svg(data, svg.name)
        return problems


WORKLOADS = {w.name: w for w in (ParamGrid, DSweep, MonteCarlo, BandScan)}
