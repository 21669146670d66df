"""Boxed scalars: read-only 0-d float64 arrays for the tick's array operands.

Under numpy 2's promotion rules for Python scalars (NEP 50), an array
operation with a Python float operand goes through the slower
weak-scalar path; with a 0-d float64 array it costs as much as an
array-array one (README has the figures), and a ``np.float64`` is no
faster than a Python float. The value, the operation and so every
result bit are the same, so the kernels take a boxed scalar wherever
a Python float works.

A box is only ever an operand: arithmetic between two boxes costs as
much as an array call. So a derived scalar such as v^2 is computed
from Python floats and boxed, once per run, by the helper of the
kernel that reads it (``vehicle_operands``, ``field_operands``,
``wave_operands``, ``schedule_operands``, ``relaxation_operands``); the
kernel takes the box ready-made and derives nothing per call. A
per-drone constant is built the same way, as a read-only array in the
full shape of the array it meets (``fixed``).
"""

from __future__ import annotations

import numpy as np

__all__ = ["box", "fixed", "ZERO", "TWO", "FOUR"]


def box(x) -> np.ndarray:
    """x as a read-only 0-d float64 array."""
    out = np.array(x, dtype=float)
    if out.ndim:
        raise ValueError(f"a boxed scalar is 0-d, got shape {out.shape}")
    out.flags.writeable = False
    return out


def fixed(values, shape) -> np.ndarray:
    """values broadcast to ``shape`` as a read-only C-contiguous float64 array of its own."""
    out = np.array(np.broadcast_to(values, shape), dtype=float)
    out.flags.writeable = False
    return out


ZERO, TWO, FOUR = box(0.0), box(2.0), box(4.0)
