"""The benchmark's tracer finds every package name it wraps."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_tracer_wraps_existing_names():
    # bench/tracing.py wraps functions by module or class attribute name; a
    # refactor that deletes or renames one would break only the traced run
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracing.instrument(tracer)
        patched = list(tracer._patched)
        assert patched
        assert all(getattr(owner, attr) is not original for owner, attr, original in patched)
    finally:
        tracer.restore()
    assert all(owner.__dict__[attr] is original for owner, attr, original in patched)
