"""Tests for the command-line interface and SVG rendering."""

import math
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from sixcoloring import coloring_one
from sixcoloring.cli import EXIT_ERROR, EXIT_INVALID, EXIT_VALID, _build_tiling, main
from sixcoloring.coloring_two import constants
from sixcoloring.render import Overlay, RenderSpec, _fmt, render_svg
from sixcoloring.tiling import Tiling


def run(argv):
    return main(argv)


def usage_error(argv, capsys):
    """Run argv, expect argparse to reject it with exit 2; return stderr."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_ERROR
    return capsys.readouterr().err


SCAN = ["scan", "--d-min", "0.45", "--d-max", "0.45", "--alpha-min", "120",
        "--alpha-max", "120"]


def command_args(command, svg):
    """The arguments a tiling command needs besides --coloring and --d."""
    return {"verify": [], "render": ["--viewport", "0,0,1,1", "--out", str(svg)],
            "probe": ["--x", "0", "--y", "0"]}[command]


class TestBadInput:
    @pytest.mark.parametrize("command", ["verify", "render", "probe"])
    @pytest.mark.parametrize("d", ["inf", "nan", "1e6", "0", "-0.5", "1"])
    def test_d_outside_open_unit_interval(self, capsys, tmp_path, command, d):
        svg = tmp_path / "f.svg"
        err = usage_error([command, "--coloring", "2", "--d", d] + command_args(command, svg),
                          capsys)
        assert "argument --d: must be finite and in (0, 1)" in err
        assert not svg.exists()

    @pytest.mark.parametrize("command", ["verify", "render", "probe"])
    def test_alpha1_with_coloring_two(self, capsys, tmp_path, command):
        # coloring 2 has no alpha1; the flag used to be dropped silently
        svg = tmp_path / "f.svg"
        err = usage_error([command, "--coloring", "2", "--d", "0.5", "--alpha1", "3"]
                          + command_args(command, svg), capsys)
        assert "argument --alpha1: applies to --coloring 1 only" in err
        assert not svg.exists()

    @pytest.mark.parametrize("flag", ["--d-min", "--d-max", "--alpha-min", "--alpha-max"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_scan_non_finite_bound(self, capsys, tmp_path, flag, value):
        err = usage_error(SCAN + [f"{flag}={value}", "--out", str(tmp_path / "s.csv")],
                          capsys)
        assert f"argument {flag}: must be finite" in err
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("flag", ["--d-step", "--alpha-step"])
    @pytest.mark.parametrize("value", ["0", "-0.001", "nan", "inf"])
    def test_scan_step_not_positive(self, capsys, tmp_path, flag, value):
        err = usage_error(SCAN + [f"{flag}={value}", "--out", str(tmp_path / "s.csv")],
                          capsys)
        assert f"argument {flag}: must be finite and positive" in err
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("flag", ["--d-step", "--alpha-step"])
    def test_scan_step_too_small_for_range(self, capsys, tmp_path, flag):
        out = tmp_path / "s.csv"
        assert run(SCAN + ["--d-max=0.55", "--alpha-max=130", f"{flag}=5e-324",
                           "--out", str(out)]) == EXIT_ERROR
        assert "step 5e-324 is too small" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "0"])
    def test_render_scale_not_positive(self, capsys, tmp_path, value):
        svg = tmp_path / "f.svg"
        err = usage_error(["render", "--coloring", "2", "--d", "0.5", "--viewport", "0,0,1,1",
                           f"--scale={value}", "--out", str(svg)], capsys)
        assert "argument --scale: must be finite and positive" in err
        assert not svg.exists()

    @pytest.mark.parametrize("viewport", ["0,0,inf,1", "-inf,0,1,1", "0,nan,1,1", "0,0,1",
                                          "0,0,1,1,2", "0,0,one,1"])
    def test_render_viewport_not_four_finite_numbers(self, capsys, tmp_path, viewport):
        svg = tmp_path / "f.svg"
        err = usage_error(["render", "--coloring", "2", "--d", "0.5", f"--viewport={viewport}",
                           "--out", str(svg)], capsys)
        assert "argument --viewport: must be four finite numbers" in err
        assert not svg.exists()

    @pytest.mark.parametrize("flag", ["--x", "--y"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_probe_point_not_finite(self, capsys, flag, value):
        point = {"--x": "--x=0", "--y": "--y=0", flag: f"{flag}={value}"}
        err = usage_error(["probe", "--coloring", "2", "--d", "0.5", *point.values()], capsys)
        assert f"argument {flag}: must be finite" in err

    def test_not_a_number(self, capsys):
        err = usage_error(["verify", "--coloring", "2", "--d", "half"], capsys)
        assert "argument --d: invalid float value: 'half'" in err


class TestVerify:
    def test_coloring_one_valid(self, capsys):
        assert run(["verify", "--coloring", "1", "--d", "0.45"]) == EXIT_VALID
        assert "valid" in capsys.readouterr().out

    def test_coloring_two_right_endpoint(self):
        assert run(["verify", "--coloring", "2", "--d", "0.657"]) == EXIT_VALID

    def test_coloring_two_invalid(self, capsys):
        assert run(["verify", "--coloring", "2", "--d", "0.70"]) == EXIT_INVALID
        out = capsys.readouterr().out
        assert "invalid" in out and "witness" in out

    def test_construction_error_exit(self, capsys):
        # d outside the interpolation range with no explicit alpha1
        assert run(["verify", "--coloring", "1", "--d", "0.9"]) == EXIT_ERROR
        assert "error" in capsys.readouterr().err

    def test_json_unwritable_path(self, tmp_path, capsys):
        out = tmp_path / "no" / "tiling.json"
        assert run(["verify", "--coloring", "2", "--d", "0.5",
                    "--json", str(out)]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert "valid" not in captured.out
        assert str(out) in captured.err

    def test_json_output(self, tmp_path):
        out = tmp_path / "tiling.json"
        assert run(["verify", "--coloring", "2", "--d", "0.5",
                    "--json", str(out)]) == EXIT_VALID
        t = Tiling.from_json(out.read_text())
        assert len(t.cells) == 8


class TestScan:
    def test_header_and_rows(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        assert run(["scan", "--d-min", "0.45", "--d-max", "0.451", "--d-step", "0.001",
                    "--alpha-min", "119", "--alpha-max", "122", "--alpha-step", "0.5",
                    "--out", str(out)]) == EXIT_VALID
        text = out.read_bytes().decode()
        lines = text.split("\r\n")
        assert lines[0] == "d,alpha1,r1,r2,r3,r4,r5,r6,feasible"
        assert lines[-1] == ""
        assert len(lines) == 1 + 2 * 7 + 1
        assert any(line.endswith(",true") for line in lines[1:-1])

    def test_infeasible_range(self, tmp_path):
        out = tmp_path / "scan.csv"
        run(["scan", "--d-min", "0.60", "--d-max", "0.61", "--d-step", "0.01",
             "--alpha-min", "95", "--alpha-max", "165", "--alpha-step", "1",
             "--out", str(out)])
        body = out.read_bytes().decode().split("\r\n")[1:-1]
        assert body and all(line.endswith(",false") for line in body)

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["scan", "--d-min", "0.40", "--d-max", "0.41", "--d-step", "0.005",
                "--alpha-min", "110", "--alpha-max", "125", "--alpha-step", "0.5"]
        run(args + ["--out", str(a)])
        run(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_rows_not_held_in_memory(self, tmp_path, monkeypatch, capsys):
        # 10,000 rows of about 110 bytes each; only the file buffer may grow
        fixed = coloring_one.constraints(coloring_one.Params1(0.45, 120.0))
        monkeypatch.setattr(coloring_one, "constraints", lambda p: fixed)
        out = tmp_path / "scan.csv"
        tracemalloc.start()
        try:
            run(["scan", "--d-min", "0.3", "--d-max", "0.399", "--alpha-min", "100",
                 "--alpha-max", "199", "--alpha-step", "1", "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f"wrote 10000 rows to {out}" in capsys.readouterr().out
        assert out.read_bytes().count(b"\r\n") == 10001
        assert peak < 1 << 20

    def test_empty_grid_header_only(self, tmp_path):
        out = tmp_path / "scan.csv"
        run(["scan", "--d-min", "0.50", "--d-max", "0.40", "--d-step", "0.001",
             "--alpha-min", "120", "--alpha-max", "121", "--alpha-step", "1",
             "--out", str(out)])
        assert out.read_bytes() == b"d,alpha1,r1,r2,r3,r4,r5,r6,feasible\r\n"

    def test_unwritable_path(self, tmp_path, capsys):
        assert run(["scan", "--d-min", "0.45", "--d-max", "0.45", "--d-step", "0.001",
                    "--alpha-min", "120", "--alpha-max", "120", "--alpha-step", "1",
                    "--out", str(tmp_path / "no" / "dir.csv")]) == EXIT_ERROR
        assert str(tmp_path / "no" / "dir.csv") in capsys.readouterr().err


class TestRender:
    def test_svg_written(self, tmp_path):
        out = tmp_path / "fig.svg"
        assert run(["render", "--coloring", "1", "--d", "0.45",
                    "--viewport=-1,-1,1,1", "--out", str(out)]) == EXIT_VALID
        text = out.read_text()
        assert text.startswith('<?xml version="1.0"')
        assert 'version="1.1"' in text
        assert "<polygon" in text
        assert "#FFADAD" in text  # red cells appear

    def test_overlays(self, tmp_path):
        out = tmp_path / "fig.svg"
        assert run(["render", "--coloring", "2", "--d", "0.5",
                    "--viewport", "0,0,2,2", "--overlay", "0.5,0.5",
                    "--overlay", "1,1,0.25", "--out", str(out)]) == EXIT_VALID
        text = out.read_text()
        assert text.count("stroke-dasharray") >= 4

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        args = ["render", "--coloring", "2", "--d", "0.5", "--viewport=-2,-2,3,3",
                "--overlay", "0.5,0"]
        run(args + ["--out", str(a)])
        run(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_zero_area_viewport(self, tmp_path):
        out = tmp_path / "fig.svg"
        assert run(["render", "--coloring", "1", "--d", "0.45",
                    "--viewport", "0,0,0,1", "--out", str(out)]) == EXIT_ERROR
        assert not out.exists()

    def test_unwritable_path(self, tmp_path, capsys):
        out = tmp_path / "no" / "fig.svg"
        assert run(["render", "--coloring", "2", "--d", "0.5", "--viewport", "0,0,1,1",
                    "--out", str(out)]) == EXIT_ERROR
        assert str(out) in capsys.readouterr().err

    def test_bad_overlay(self, tmp_path):
        # too few numbers, a non-finite centre, non-finite or non-positive radii
        for overlay in ("0.5", "nan,0", "0,0,-1", "0,0,inf", "0,0,0"):
            out = tmp_path / "f.svg"
            assert run(["render", "--coloring", "1", "--d", "0.45",
                        "--viewport", "0,0,1,1", "--overlay", overlay,
                        "--out", str(out)]) == EXIT_ERROR
            assert not out.exists()

    @pytest.mark.parametrize("coloring", [1, 2])
    @pytest.mark.parametrize("viewport", [(-2, -2, 3, 3), (1000, 1000, 1001, 1001),
                                          (-1e4, 0, -9998, 2)])
    def test_matches_rectangle_loop(self, coloring, viewport):
        t = _build_tiling(coloring, 0.45)
        spec = RenderSpec(viewport=tuple(map(float, viewport)),
                          overlays=(Overlay(center=(0.5, 0.5), radii=((1.0, "8,4"),)),))
        assert render_svg(t, spec) == rectangle_loop_svg(t, spec)

    def test_document_not_held_in_memory(self, tmp_path, capsys):
        # about 9,000 polygons in a 1.2 MB document; the lines go to the file
        # as they are made, so the traced peak is the translate arrays and
        # the file buffer, not the document
        out = tmp_path / "fig.svg"
        _build_tiling(2, 0.5)  # coloring 2's constants are cached from here on
        tracemalloc.start()
        try:
            run(["render", "--coloring", "2", "--d", "0.5", "--viewport=0,0,50,50",
                 "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = out.stat().st_size
        assert size > 1_000_000
        assert peak < size / 2
        spec = RenderSpec(viewport=(0.0, 0.0, 50.0, 50.0))
        assert out.read_text() == render_svg(_build_tiling(2, 0.5), spec)

    def test_huge_viewport_rejected_quickly(self, tmp_path):
        # far more translates than MAX_OFFSETS meet this viewport; it must be
        # refused before any is listed
        out = tmp_path / "f.svg"
        limit = 1_500_000_000

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from sixcoloring.cli import main; "
             "sys.exit(main(sys.argv[1:]))", "render", "--coloring", "2", "--d", "0.5",
             "--viewport=0,0,1e7,1e7", "--out", str(out)],
            env=env, preexec_fn=cap_memory, capture_output=True, text=True, timeout=20)
        assert time.perf_counter() - start < 5
        assert proc.returncode == EXIT_ERROR, proc.stderr
        assert "too large" in proc.stderr
        assert not out.exists()


def rectangle_loop_svg(tiling, spec):
    """Reference renderer: every offset in a rectangle of fractional lattice
    coordinates around the viewport, each cell drawn where its moved vertices
    meet the viewport, in (a, b, cell) order."""
    x0, y0, x1, y1 = spec.viewport
    s = spec.scale
    width, height = (x1 - x0) * s, (y1 - y0) * s

    def to_px(pt):
        return (pt[0] - x0) * s, (y1 - pt[1]) * s

    all_v = np.vstack([p.vertices for p, _ in tiling.cells])
    bmin, bmax = all_v.min(axis=0), all_v.max(axis=0)
    L = np.column_stack([tiling.v1, tiling.v2])
    corners = np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]], dtype=float)
    frac = corners @ np.linalg.inv(L).T
    pad = math.ceil(max(np.abs(np.linalg.solve(L, bmax - bmin)))) + 1
    a_lo, a_hi = math.floor(frac[:, 0].min()) - pad, math.ceil(frac[:, 0].max()) + pad
    b_lo, b_hi = math.floor(frac[:, 1].min()) - pad, math.ceil(frac[:, 1].max()) + pad
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
    ]
    for a in range(a_lo, a_hi + 1):
        for b in range(b_lo, b_hi + 1):
            off = a * tiling.v1 + b * tiling.v2
            for poly, color in tiling.cells:
                v = poly.vertices + off
                if (v[:, 0].max() < x0 or v[:, 0].min() > x1
                        or v[:, 1].max() < y0 or v[:, 1].min() > y1):
                    continue
                pts = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in map(to_px, v))
                fill = spec.palette.get(color, "#CCCCCC")
                lines.append(f'  <polygon points="{pts}" fill="{fill}" '
                             f'stroke="#000000" stroke-width="1"/>')
    for ov in spec.overlays:
        cx, cy = to_px(ov.center)
        lines.append(f'  <circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="2" fill="#000000"/>')
        for radius, dash in ov.radii:
            lines.append(f'  <circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" '
                         f'r="{_fmt(radius * s)}" fill="none" stroke="#000000" '
                         f'stroke-width="1" stroke-dasharray="{dash}"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


class TestProbe:
    def test_origin_red(self, capsys):
        assert run(["probe", "--coloring", "1", "--d", "0.45",
                    "--x", "0", "--y", "0"]) == EXIT_VALID
        assert capsys.readouterr().out.strip() == "red"

    def test_periodic(self, capsys):
        run(["probe", "--coloring", "2", "--d", "0.5", "--x", "0.3", "--y", "0.2"])
        first = capsys.readouterr().out
        run(["probe", "--coloring", "2", "--d", "0.5", "--x", "2.3", "--y", "0.2"])
        assert capsys.readouterr().out == first

    def test_hexagon_centroid_blue(self, capsys):
        run(["probe", "--coloring", "2", "--d", "0.5", "--x", "1.5", "--y", "0"])
        assert capsys.readouterr().out.strip() == "blue"


class TestRoots:
    def test_output(self, capsys):
        assert run(["roots"]) == EXIT_VALID
        out = capsys.readouterr().out
        c = constants()
        assert f"{c.d_max:.15f}" in out
        assert f"{c.d_min:.15f}" in out
        assert "residual" in out


class TestRenderSpec:
    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            RenderSpec(viewport=(0, 0, 1, 1), scale=0)

    @pytest.mark.parametrize("scale", [np.nan, np.inf])
    def test_rejects_non_finite_scale(self, scale):
        with pytest.raises(ValueError, match="finite"):
            RenderSpec(viewport=(0, 0, 1, 1), scale=scale)

    def test_rejects_empty_viewport(self):
        with pytest.raises(ValueError):
            RenderSpec(viewport=(0, 0, 1, 0))

    @pytest.mark.parametrize("corner", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_viewport(self, corner):
        for k in range(4):
            viewport = [0.0, 0.0, 1.0, 1.0]
            viewport[k] = corner
            with pytest.raises(ValueError, match="finite"):
                RenderSpec(viewport=tuple(viewport))
