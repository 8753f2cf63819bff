"""Each of the benchmark's output checks passes the package's real outputs and
rejects a deliberately wrong one."""

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
from sixcoloring import cli, coloring_one, coloring_two, verifier  # noqa: E402
from sixcoloring.tiling import ColoringType, Tiling  # noqa: E402


def cells_of(t):
    return [(p.vertices, c) for p, c in t.cells]


@pytest.fixture(scope="module")
def t2():
    return coloring_two.assemble_block2(coloring_two.constants())


def test_pair_interval_known_values():
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    assert checks.pair_interval(square, square + [2.0, 0.0]) == pytest.approx((1.0, np.sqrt(10)))
    assert checks.pair_interval(square, square + [0.5, 0.5])[0] == 0.0
    # diagonal neighbour: the nearest points are two corners
    assert checks.pair_interval(square, square + [2.0, 2.0])[0] == pytest.approx(np.sqrt(2))


def test_witnesses_accept_real_and_reject_altered(t2):
    ct = ColoringType.unit_except(red=0.40)
    report = verifier.verify(t2, ct, validate=False)
    assert report.witnesses
    args = (cells_of(t2), t2.v1, t2.v2)
    assert checks.check_witnesses(*args, report.witnesses, ct.distances, "real") == []
    w = report.witnesses[0]
    for bad in (dataclasses.replace(w, interval=(w.interval[0] + 1e-3, w.interval[1])),
                dataclasses.replace(w, offset=(w.offset[0] + 3, w.offset[1])),
                dataclasses.replace(w, color="blue"),
                dataclasses.replace(w, distance=0.41)):
        assert checks.check_witnesses(*args, [bad], ct.distances, "altered")
    # a witness for a d its interval does not hold
    assert checks.check_witnesses(*args, [w], ColoringType.unit_except(red=0.9).distances, "d")


def test_own_verdict_matches_theorem(t2):
    args = (cells_of(t2), t2.v1, t2.v2)
    assert checks.own_verdict(*args, ColoringType.unit_except(red=0.5).distances)
    assert not checks.own_verdict(*args, ColoringType.unit_except(red=0.40).distances)
    t1 = coloring_one.assemble_block(coloring_one.Params1(0.45, coloring_one.default_alpha1(0.45)))
    assert checks.own_verdict(cells_of(t1), t1.v1, t1.v2,
                              ColoringType.unit_except(red=0.45).distances)


def test_param_point_rejects_flipped_verdict():
    feasible, infeasible = (0.1, 0.2, 0.3, 0.1, 0.1, 0.1), (0.1, -0.2, 0.3, 0.1, 0.1, 0.1)
    assert checks.check_param_point(0.4, 118.0, feasible, "valid") == []
    assert checks.check_param_point(0.4, 118.0, infeasible, "invalid") == []
    assert checks.check_param_point(0.4, 118.0, feasible, "invalid")
    assert checks.check_param_point(0.4, 118.0, infeasible, "valid")
    assert checks.check_param_point(0.4, 118.0, feasible, "validate")
    # a residual within RESIDUAL_MARGIN of 0 leaves the sign comparison out
    assert checks.check_param_point(0.4, 118.0, (1e-8, 0.2, 0.3, 0.1, 0.1, 0.1), "invalid") == []


def test_dmax_against_numpy_roots():
    d_max = coloring_two.constants().d_max
    assert checks.check_dmax(d_max) == []
    assert checks.check_dmax(d_max + 1e-9)


def test_coverage_rejects_gap_and_invalid_point():
    ds = [0.354, 0.5, 0.657]
    assert checks.check_coverage(ds, dict.fromkeys(ds, True), 0.354, 0.657, 0.2) == []
    assert checks.check_coverage(ds, {0.354: True, 0.5: False, 0.657: True}, 0.354, 0.657, 0.2)
    assert checks.check_coverage(ds, dict.fromkeys(ds, True), 0.354, 0.657, 0.1)


def test_locator_rejects_swapped_color(t2):
    frac = np.random.Generator(np.random.Philox(key=7)).random((800, 2)) * 3 - 1
    pts = frac[:, :1] * t2.v1 + frac[:, 1:] * t2.v2
    colors, interior = t2.color_at_many(pts)
    args = (cells_of(t2), t2.v1, t2.v2, pts)
    assert checks.check_locator(*args, colors, interior, "real") == []
    swapped = np.where(colors == "yellow", "turquoise", colors)
    assert checks.check_locator(*args, swapped, interior, "swapped")
    assert checks.check_locator(*args, colors, np.zeros_like(interior), "not interior")


def test_mc_counts():
    assert checks.check_mc_counts({"coloring1": 0, "coloring2": 0, "sabotaged": 5}, 10) == []
    assert checks.check_mc_counts({"coloring1": 1, "coloring2": 0, "sabotaged": 5}, 10)
    assert checks.check_mc_counts({"coloring1": 0, "coloring2": 0, "sabotaged": 0}, 10)
    assert checks.check_mc_counts({"coloring1": 0, "coloring2": 0, "sabotaged": 11}, 10)


def feasible(d, a):
    try:
        return coloring_one.constraints(coloring_one.Params1(d, a)).satisfied()
    except ValueError:
        return False


def test_band_edges():
    d = 0.45
    band = coloring_one.feasible_region([d], np.arange(95.0, 165.01, 0.5)).band(d)
    assert checks.check_band(d, band, feasible) == []
    lo, hi = band
    assert checks.check_band(d, (lo + 0.01, hi), feasible)
    assert checks.check_band(d, (lo, hi + 0.01), feasible)
    assert checks.check_band(d, None, feasible)
    # a band that misses the default apex angle
    assert checks.check_band(d, (lo, checks.default_alpha1(d) - 1e-3), feasible)


def test_scan_csv(tmp_path):
    out = tmp_path / "scan.csv"
    assert cli.main(["scan", "--d-min", "0.53", "--d-max", "0.56", "--d-step", "0.01",
                     "--alpha-min", "120", "--alpha-max", "130", "--alpha-step", "1",
                     "--out", str(out)]) == 0
    data = out.read_bytes()
    assert checks.check_scan_csv(data, 4 * 11) == []
    assert checks.check_scan_csv(data, 4 * 11 + 1)
    text = data.decode()
    flipped = text.replace("true\r\n", "false\r\n", 1)
    assert flipped != text
    assert checks.check_scan_csv(flipped.encode(), 4 * 11)


def test_svg(tmp_path, t2):
    out = tmp_path / "c2.svg"
    assert cli.main(["render", "--coloring", "2", "--d", "0.5", "--viewport=-2,-2,3,3",
                     "--out", str(out)]) == 0
    data = out.read_bytes()
    assert checks.check_svg(data, "real") == []
    assert checks.check_svg(data.replace(b"#FFADAD", b"#FFADAE", 1), "stray fill")
    assert checks.check_svg(data.replace(b"#FFADAD", b"#A0C4FF"), "five colors")
    assert checks.check_svg(data[:-10], "truncated")


def test_run_refuses_without_package(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in HERE.glob("*.py"):
        shutil.copy(f, tmp_path / "bench")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "d_sweep",
                           "--seconds", "1"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
