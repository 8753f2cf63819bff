"""Acceptance suite: one test and one printed pass/fail line per criterion."""

import time

import numpy as np

from sixcoloring.cli import main as cli_main
from sixcoloring.coloring_one import (
    D_HIGH,
    D_LOW,
    Params1,
    assemble_block,
    constraints,
    default_alpha1,
    feasible_region,
    _feasible,
)
from sixcoloring.coloring_two import (
    HEPTAGON_UNIT_DIAGONALS,
    HEXAGON_UNIT_DIAGONALS,
    SQRT3,
    _heptagon_points,
    assemble_block2,
    closed_form_dmax,
    constants,
    quartic,
    solve_dmax,
)
from sixcoloring.tiling import ColoringType, Tiling
from sixcoloring.verifier import monte_carlo_check, verify


def report(num: int, name: str, ok: bool) -> None:
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name})"


def random_feasible_pairs(rng, n):
    out = []
    while len(out) < n:
        d = rng.uniform(D_LOW, D_HIGH)
        a = default_alpha1(d) + rng.uniform(-0.5, 0.5)
        if _feasible(d, a):
            out.append((d, a))
    return out


def test_criterion_1_dmax_reproduction():
    t0 = time.perf_counter()
    d_max = solve_dmax()
    elapsed = time.perf_counter() - t0
    d_min = SQRT3 - 2 * d_max
    ok = (abs(quartic(d_max)) < 1e-12
          and 0.656 < d_max < 0.658
          and abs(closed_form_dmax() - d_max) < 1e-10
          and 0.417 < d_min < 0.419
          and 0.418 <= round(d_min, 3) and round(d_max, 3) <= 0.657
          and elapsed < 1e-3)
    report(1, "d_max reproduction", ok)


def test_criterion_2_theorem_at_desk_scale():
    t0 = time.perf_counter()
    ok = True
    for d in (0.354, 0.38, 0.41, 0.45, 0.50, 0.553):
        t = assemble_block(Params1(d, default_alpha1(d)))
        ok &= verify(t, ColoringType.unit_except(red=d), validate=False).valid
    t2 = assemble_block2(constants())
    t2.validate()
    for d in np.linspace(0.418, 0.657, 50):
        ok &= verify(t2, ColoringType.unit_except(red=float(d)), validate=False).valid
    # coverage of [0.354, 0.657] at 0.005 resolution: every grid point is
    # verified valid under at least one of the two colorings
    c = constants()
    for x in np.round(np.arange(0.354, 0.657 + 1e-9, 0.005), 3):
        x = float(x)
        hit = False
        if D_LOW <= x <= D_HIGH:
            t = assemble_block(Params1(x, default_alpha1(x)))
            hit = verify(t, ColoringType.unit_except(red=x), validate=False).valid
        if not hit and c.d_min <= x <= c.d_max:
            hit = verify(t2, ColoringType.unit_except(red=x), validate=False).valid
        ok &= hit
    ok &= (time.perf_counter() - t0) < 60
    report(2, "Theorem 1 at desk scale", ok)


def test_criterion_3_negative_controls():
    ok = True
    t2 = assemble_block2(constants())
    for d in (0.40, 0.70):
        rep = verify(t2, ColoringType.unit_except(red=d), validate=False)
        ok &= (not rep.valid) and len(rep.witnesses) >= 1
        for w in rep.witnesses[:2]:
            print(f"  d={d} witness: {w.color} cells={w.pair} offset={w.offset} "
                  f"interval=({w.interval[0]:.6f}, {w.interval[1]:.6f})")
    alphas = np.round(np.arange(95.0, 165.0 + 1e-9, 0.1), 4)
    for d in (0.34, 0.60):
        ok &= not any(_feasible(d, float(a)) for a in alphas)
    report(3, "negative controls", ok)


def test_criterion_4_construction_invariants():
    ok = True
    rng = np.random.default_rng(42)
    for d, a1 in random_feasible_pairs(rng, 20):
        # every pentagon of the block is equidiagonal (d), every octagon has
        # four unit diagonals
        for poly, _ in assemble_block(Params1(d, a1)).cells:
            v = poly.vertices
            if len(v) == 5:
                ok &= all(abs(np.linalg.norm(v[i] - v[(i + 2) % 5]) - d) < 1e-9
                          for i in range(5))
            elif len(v) == 8:
                ok &= all(abs(np.linalg.norm(v[i] - v[i + 4]) - 1.0) < 1e-9
                          for i in range(4))
    pts = _heptagon_points(constants().d_max)
    pts["NN+v1-v2"] = pts["NN"] + [1.0, -SQRT3]  # the one moved name in the diagonals
    for a, b in HEPTAGON_UNIT_DIAGONALS + HEXAGON_UNIT_DIAGONALS:
        ok &= abs(np.linalg.norm(pts[a] - pts[b]) - 1.0) < 1e-10
    report(4, "construction invariants", ok)


def test_criterion_5_constraint_verifier_equivalence():
    t0 = time.perf_counter()
    ok = True
    checked = 0
    for d in np.linspace(0.32, 0.60, 30):
        for a in np.linspace(100.0, 150.0, 30):
            d, a = float(d), float(a)
            try:
                residuals = constraints(Params1(d, a)).as_tuple()
            except Exception:
                residuals = None
            if residuals is None or any(abs(r) <= 1e-6 for r in residuals):
                continue
            feasible = min(residuals) > 0
            try:
                t = assemble_block(Params1(d, a))
                valid = verify(t, ColoringType.unit_except(red=d)).valid
            except Exception:
                valid = False
            checked += 1
            if feasible != valid:
                print(f"  disagreement at d={d:.4f} alpha1={a:.3f}: "
                      f"residuals say {feasible}, verifier says {valid}")
                ok = False
    ok &= checked > 0
    ok &= (time.perf_counter() - t0) < 30
    report(5, "constraint/verifier equivalence", ok)


def test_criterion_6_partition_property():
    ok = True
    for d in np.linspace(D_LOW, D_HIGH, 10):
        t = assemble_block(Params1(float(d), default_alpha1(float(d))))
        ok &= abs(t.block_area() - t.cell_area()) < 1e-9
    t2 = assemble_block2(constants())
    for _ in range(10):  # the second block is parameter-free; re-check is cheap
        ok &= abs(t2.block_area() - t2.cell_area()) < 1e-9
    report(6, "partition property", ok)


def test_criterion_7_statistical_soundness():
    t0 = time.perf_counter()
    ok = True
    t1 = assemble_block(Params1(0.45, default_alpha1(0.45)))
    ok &= monte_carlo_check(t1, ColoringType.unit_except(red=0.45), 10 ** 6, seed=42) == 0
    t2 = assemble_block2(constants())
    ok &= monte_carlo_check(t2, ColoringType.unit_except(red=0.55), 10 ** 6, seed=42) == 0
    cells = list(t2.cells)
    idx = next(i for i, (_, col) in enumerate(cells) if col == "yellow")
    cells[idx] = (cells[idx][0], "green")
    sabotaged = Tiling(cells, t2.v1, t2.v2, t2.priority)
    ok &= monte_carlo_check(sabotaged, ColoringType.unit_except(red=0.55),
                            10 ** 6, seed=42) > 0
    ok &= (time.perf_counter() - t0) < 30
    report(7, "statistical soundness", ok)


def test_criterion_8_feasibility_band():
    t0 = time.perf_counter()
    d_grid = [round(d, 3) for d in np.arange(D_LOW, D_HIGH + 1e-9, 0.001)]
    fm = feasible_region(d_grid, np.arange(95.0, 165.01, 0.5))
    ok = True
    for d in d_grid:
        band = fm.band(d)
        if band is None:
            print(f"  no feasible band at d={d}")
            ok = False
            continue
        lo, hi = band
        if not (lo <= default_alpha1(d) <= hi):
            print(f"  default alpha1 outside band at d={d}: {default_alpha1(d)} "
                  f"not in [{lo}, {hi}]")
            ok = False
    ok &= (time.perf_counter() - t0) < 30
    report(8, "feasibility-band reproduction", ok)


def test_criterion_9_determinism(tmp_path):
    scans = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        cli_main(["scan", "--d-min", "0.40", "--d-max", "0.42", "--d-step", "0.005",
                  "--alpha-min", "110", "--alpha-max", "130", "--alpha-step", "0.5",
                  "--out", str(path)])
        scans.append(path.read_bytes())
    renders = []
    for name in ("a.svg", "b.svg"):
        path = tmp_path / name
        cli_main(["render", "--coloring", "2", "--d", "0.5", "--viewport=-2,-2,3,3",
                  "--overlay", "0.5,0.866", "--out", str(path)])
        renders.append(path.read_bytes())
    ok = scans[0] == scans[1] and renders[0] == renders[1] and len(renders[0]) > 0
    report(9, "determinism", ok)
