"""Deterministic JSON serialization for reports and fixtures.

Keys keep insertion order, floats are written with 17 significant digits
(round-trip exact for doubles), so identical inputs yield byte-identical
output.
"""

from __future__ import annotations

import json
import math

import numpy as np


def _format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"non-finite float {x} in report")
    s = format(x, ".17g")
    if not any(c in s for c in ".eE"):
        s += ".0"
    return s


def canonical_json(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = ", ".join(
            f"{json.dumps(str(k))}: {canonical_json(v)}" for k, v in obj.items()
        )
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(canonical_json(v) for v in obj) + "]"
    # numpy scalars and arrays
    if isinstance(obj, np.integer):
        return str(int(obj))
    if isinstance(obj, np.floating):
        return _format_float(float(obj))
    if isinstance(obj, np.complexfloating):
        return canonical_json([float(obj.real), float(obj.imag)])
    if isinstance(obj, np.ndarray):
        return canonical_json(obj.tolist())
    if isinstance(obj, complex):
        return canonical_json([obj.real, obj.imag])
    raise TypeError(f"cannot serialize {type(obj)!r}")
