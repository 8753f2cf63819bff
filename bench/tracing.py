"""Spans around the package's layers, recorded from outside the package.

`instrument` replaces each traced function at the module or class attribute
its callers look up with a wrapper that records a span: a name, a start, an
end and the index of the enclosing span. Spans are kept in flat arrays in
memory and saved when the run ends. A span's self time is its duration minus
the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import io
import statistics
import weakref
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("geom", "tiling", "coloring_one", "coloring_two", "verifier", "render", "cli",
          "bench")

# span name -> the per-layer metrics reported for it
SPAN_METRICS = {
    "tiling.validate": ("calls", "s"),
    "geom.convex_intersection_area": ("calls", "s"),
    "verifier.verify": ("calls", "s"),
    "geom.polygon_min_distance": ("calls", "s"),
    "geom.polygon_max_distance": ("calls", "s"),
    "tiling.rank_at_many": ("s",),
    "verifier.monte_carlo_check": ("s",),
    "coloring_one.constraints": ("calls", "s"),
    "coloring_one.feasible_region": ("s",),
    "coloring_one.assemble_block": ("calls", "s"),
    "coloring_two.constants": ("s",),
    "coloring_two.assemble_block2": ("s",),
    "render.render_svg": ("s",),
    "cli.scan": ("s",),
    "cli.render": ("s",),
}


class Tracer:
    def __init__(self):
        self.names = []
        self.ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self.counts = []  # (span index, counter name, value)
        self._patched = []

    def name_index(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def begin(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        i = self.begin(self.name_index(name))
        try:
            yield
        finally:
            self.finish(i)

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Trace calls of `owner.attr` as spans called `name`; `after(tracer,
        span index, args, result)` records counters from a call."""
        fn = getattr(owner, attr)
        nid = self.name_index(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(i)
            if after is not None:
                after(self, i, args, result)
            return result

        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        """Put every wrapped attribute back."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def arrays(self):
        return (np.frombuffer(self.name_id, dtype=np.int32).astype(np.intp),
                np.frombuffer(self.parent, dtype=np.int32).astype(np.intp),
                np.frombuffer(self.start), np.frombuffer(self.end))

    def save(self, path) -> None:
        name_id, parent, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=name_id,
                            parent=parent, start=start, end=end)


def instrument(tracer: Tracer) -> None:
    """Wrap every traced function of the package."""
    from sixcoloring import cli, coloring_one, coloring_two, render, tiling, verifier

    first_seen = weakref.WeakSet()

    def count_pairs(tr, i, args, report):
        tr.counts.append((i, "verifier.pairs_checked", report.pairs_checked))

    def count_points(tr, i, args, result):
        tr.counts.append((i, "tiling.rank_at_many.points", len(args[1])))
        if args[0] not in first_seen:
            first_seen.add(args[0])
            tr.counts.append((i, "tiling.rank_at_many.first_call", 1))

    def count_bytes(tr, i, args, svg):
        tr.counts.append((i, "render.render_svg.bytes", len(svg.encode())))

    tracer.wrap(tiling, "convex_intersection_area", "geom.convex_intersection_area")
    tracer.wrap(verifier, "polygon_min_distance", "geom.polygon_min_distance")
    tracer.wrap(verifier, "polygon_max_distance", "geom.polygon_max_distance")
    tracer.wrap(tiling.Tiling, "validate", "tiling.validate")
    tracer.wrap(tiling.Tiling, "rank_at_many", "tiling.rank_at_many", count_points)
    tracer.wrap(tiling.Tiling, "color_at_many", "tiling.color_at_many")
    for fn in ("constraints", "assemble_block", "feasible_region"):
        tracer.wrap(coloring_one, fn, f"coloring_one.{fn}")
    for fn in ("constants", "assemble_block2"):
        tracer.wrap(coloring_two, fn, f"coloring_two.{fn}")
    for owner in (verifier, cli):
        tracer.wrap(owner, "verify", "verifier.verify", count_pairs)
    tracer.wrap(verifier, "monte_carlo_check", "verifier.monte_carlo_check")
    for owner in (render, cli):
        tracer.wrap(owner, "render_svg", "render.render_svg", count_bytes)
    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(cli, "cmd_scan", "cli.scan")
    tracer.wrap(cli, "cmd_render", "cli.render")


def touch(out_dir) -> None:
    """Call every traced function once on a small input.

    A traced set-up runs this first, so that every function's figures hold
    at least one measured call on every workload instead of reading 0 on
    the workloads that do not use it.
    """
    from sixcoloring import cli, coloring_one, coloring_two, tiling, verifier

    t2 = coloring_two.assemble_block2(coloring_two.constants())
    t2.validate()
    ct = tiling.ColoringType.unit_except(red=0.5)
    verifier.verify(t2, ct, validate=False)
    verifier.monte_carlo_check(t2, ct, 16, seed=0)
    p = coloring_one.Params1(0.45, 120.0)
    coloring_one.constraints(p)
    coloring_one.assemble_block(p)
    coloring_one.feasible_region([0.45], [120.0])
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["scan", "--d-min", "0.45", "--d-max", "0.45", "--alpha-min", "120",
                  "--alpha-max", "120", "--out", str(out_dir / "touch.csv")])
        cli.main(["render", "--coloring", "2", "--d", "0.5", "--viewport=0,0,1,1",
                  "--out", str(out_dir / "touch.svg")])


def layer_metrics(tracer: Tracer, rounds_start: float, round_times: list,
                  traced_wall_s: float) -> dict:
    """Per-layer figures for one set-up plus one mean round.

    A span or counter from the set-up counts once; one from the rounds
    counts as its total over the rounds divided by their number.
    `traced_wall_s` is the run's wall_s, computed as in an untraced run.
    """
    name_id, parent, start, end = tracer.arrays()
    rounds = len(round_times)
    dur = end - start
    nested = parent >= 0
    self_time = dur - np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    in_round = start >= rounds_start
    weight = np.where(in_round, 1.0 / rounds, 1.0)

    def per_name(values):
        return np.bincount(name_id, weights=values * weight, minlength=len(tracer.names))

    calls, seconds = per_name(np.ones_like(dur)), per_name(dur)
    counters = {}
    for i, name, value in tracer.counts:
        counters[name] = counters.get(name, 0.0) + value * weight[i]

    metrics = {}
    for span, kinds in SPAN_METRICS.items():
        nid = tracer.ids.get(span)
        for kind in kinds:
            value = 0.0 if nid is None else (calls if kind == "calls" else seconds)[nid]
            metrics[f"{span}.{kind}"] = (float(value), "count" if kind == "calls" else "s")

    def ratio(a, b):
        return a / b if b else 0.0

    pairs = counters.get("verifier.pairs_checked", 0.0)
    points = counters.get("tiling.rank_at_many.points", 0.0)
    metrics["verifier.pairs_checked"] = (pairs, "count")
    metrics["verifier.kernel_calls_per_pair"] = (
        ratio(metrics["geom.polygon_max_distance.calls"][0], pairs), "1/pair")
    metrics["geom.convex_intersection_area.calls_per_validate"] = (
        ratio(metrics["geom.convex_intersection_area.calls"][0],
              metrics["tiling.validate.calls"][0]), "1/call")
    metrics["tiling.rank_at_many.points"] = (points, "count")
    metrics["tiling.rank_at_many.ns_per_point"] = (
        ratio(metrics["tiling.rank_at_many.s"][0] * 1e9, points), "ns")
    firsts = [float(dur[i]) for i, name, _ in tracer.counts
              if name == "tiling.rank_at_many.first_call"]
    metrics["tiling.rank_at_many.first_call_s"] = (
        statistics.median(firsts) if firsts else 0.0, "s")
    metrics["render.render_svg.bytes"] = (
        counters.get("render.render_svg.bytes", 0.0), "bytes")

    metrics["trace.wall_s"] = (traced_wall_s, "s")
    layer_of = np.array([name.split(".")[0] for name in tracer.names])[name_id]
    round_total = float(np.sum(round_times))
    for layer in LAYERS:
        share = self_time[in_round & (layer_of == layer)].sum() / round_total
        metrics[f"self_share.{layer}"] = (100.0 * float(share), "%")
    return metrics
