"""ConvexPolygon and Tiling check a cell on one path, geom.convex_cells."""

import json
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sixcoloring.errors import DomainError  # noqa: E402
from sixcoloring.geom import ConvexPolygon  # noqa: E402
from sixcoloring.tiling import Tiling  # noqa: E402

KINDS = ("convex", "clockwise", "short edge", "reflex", "nan")
SQUARE = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]


@st.composite
def polygons(draw):
    """Vertices on a circle at sorted angles, then spoilt as the kind says."""
    kind = draw(st.sampled_from(KINDS))
    n = draw(st.integers(3, 9))
    angles = sorted(draw(st.lists(st.floats(0, 2 * math.pi, exclude_max=True),
                                  min_size=n, max_size=n, unique=True)))
    radius = draw(st.floats(0.01, 10))
    centre = np.array(draw(st.tuples(st.floats(-10, 10), st.floats(-10, 10))))
    v = centre + radius * np.column_stack([np.cos(angles), np.sin(angles)])
    i = draw(st.integers(0, n - 1))
    if kind == "clockwise":
        v = v[::-1]
    elif kind == "short edge":
        step = draw(st.floats(0, 2e-9)) * np.array([math.cos(angles[i]), math.sin(angles[i])])
        v = np.insert(v, i + 1, v[i] + step, axis=0)
    elif kind == "reflex":
        v[i] = centre + draw(st.floats(0, 0.9)) * (v[i] - centre)
    elif kind == "nan":
        v[i, draw(st.integers(0, 1))] = math.nan
    return v


def outcome(build):
    """The stored vertices' bytes, or the DomainError text."""
    try:
        return build().tobytes()
    except DomainError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None, database=None)
@given(polygons())
def test_constructor_and_tiling_agree(v):
    doc = json.dumps({"lattice": [[1.0, 0.0], [0.0, 1.0]], "priority": ["red", "blue"],
                      "cells": [{"color": "red", "vertices": SQUARE},
                                {"color": "blue", "vertices": v.tolist()}]})
    assert (outcome(lambda: ConvexPolygon(v).vertices)
            == outcome(lambda: Tiling.from_json(doc).cells[1][0].vertices))
