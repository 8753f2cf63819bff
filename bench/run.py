"""Benchmark of the sixcoloring package: one workload per run, closed loop.

    python3 bench/run.py --workload d_sweep --seed 1 --seconds 15 --trace 0

A single caller issues each operation when the previous one returns. The run
sets up (imports the package from `src/`, solves `constants()`, makes the
workload's inputs from the seed), then repeats whole rounds of the same
operations until `--seconds` have passed and at least MIN_ROUNDS rounds are
done, then checks the outputs. The last line of standard output is a JSON
object: with `--trace 0` the end-to-end metrics, with `--trace 1` the
per-layer metrics of a traced run. `--workload all` runs every workload in a
fresh process of its own. See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("param_grid", "d_sweep", "monte_carlo", "band_scan")
MIN_ROUNDS = 2
# set-up is timed this many times, each in a fresh process, and reported as
# the median
SETUP_SAMPLES = 5


def timed_setup(name: str, seed: int):
    """Import the package, solve constants() and make the inputs."""
    t0 = perf_counter()
    import workloads

    wl = workloads.WORKLOADS[name](seed, OUT)
    return perf_counter() - t0, wl


def setup_sample(name: str, seed: int) -> float:
    """Set-up seconds measured in a fresh interpreter."""
    proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(seed),
                           "--setup-only"], capture_output=True, text=True, timeout=120,
                          check=True)
    return float(proc.stdout.split()[-1])


class _Untraced:
    @staticmethod
    def span(name):
        return contextlib.nullcontext()


def run_rounds(wl, seconds: float, tracer) -> dict:
    """Repeat whole rounds of the workload's operations; time each round and
    each operation. Later rounds must give the first round's outputs."""
    import workloads

    round_times, op_times, outputs, problems = [], [], None, []
    failed = attempted = 0
    start = perf_counter()
    # no round starts that would, at the mean round time so far, end after
    # `seconds`
    while (len(round_times) < MIN_ROUNDS
           or perf_counter() - start + statistics.fmean(round_times) <= seconds):
        out, times = [], []
        with tracer.span("bench.round"):
            t0 = perf_counter()
            for op in wl.ops():
                t = perf_counter()
                try:
                    with tracer.span("bench.op"):
                        result = op()
                except Exception:
                    if not failed:
                        traceback.print_exc()
                    failed += 1
                    result = workloads.FAILED
                times.append(perf_counter() - t)
                out.append(result)
            round_times.append(perf_counter() - t0)
        op_times.append(times)
        attempted += len(out)
        if outputs is None:
            outputs = out
        elif out != outputs:
            problems.append(f"round {len(round_times)} outputs differ from round 1")
    return {"round_times": round_times, "op_times": op_times, "outputs": outputs,
            "problems": problems, "attempted": attempted, "failed": failed,
            "rounds_start": start}


def wall_s(op_times) -> float:
    """One round at each operation's median time over the rounds.

    A short stall of the machine slows a few operations of one round; it
    moves that round's total but not these medians."""
    return sum(statistics.median(op) for op in zip(*op_times))


def machine() -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine()}


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    if trace:
        import tracing
        import workloads

        tracer = tracing.Tracer()
        tracing.instrument(tracer)
        with tracer.span("bench.setup"):
            tracing.touch(OUT)
            wl = workloads.WORKLOADS[name](seed, OUT)
        res = run_rounds(wl, seconds, tracer)
        tracer.restore()
        metrics = tracing.layer_metrics(tracer, res["rounds_start"], res["round_times"],
                                        wall_s(res["op_times"]))
        tracer.save(OUT / f"trace-{name}.npz")
    else:
        setup_s, wl = timed_setup(name, seed)
        samples = [setup_s] + [setup_sample(name, seed) for _ in range(SETUP_SAMPLES - 1)]
        res = run_rounds(wl, seconds, _Untraced())
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "setup_s": (statistics.median(samples), "s"),
            "wall_s": (wall_s(res["op_times"]), "s"),
            "op_p50_ms": (1e3 * statistics.median(t for r in res["op_times"] for t in r), "ms"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
    t = perf_counter()
    problems = res["problems"] + wl.check(res["outputs"])
    check_s = perf_counter() - t
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(f"machine: {json.dumps(machine())}")
    print(f"workload {name}, seed {seed}, trace {int(trace)}: {len(res['round_times'])} rounds, "
          f"{res['attempted']} operations attempted, {res['failed']} failed, "
          f"{len(problems)} check failures in {check_s:.2f} s of checks")
    print("  round seconds: " + " ".join(f"{t:.3f}" for t in res["round_times"]))
    for key, (value, unit) in metrics.items():
        print(f"  {key} = {value:.6g} {unit}")
    return {"correct": not problems, "attempted": res["attempted"], "failed": res["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="print the set-up seconds of one fresh process and exit")
    args = parser.parse_args(argv)
    if not (SRC / "sixcoloring" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}/sixcoloring", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        print(repr(timed_setup(args.workload, args.seed)[0]))
        return 0
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, __file__, "--workload", w,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for w in WORKLOAD_NAMES]
        return max(codes)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
