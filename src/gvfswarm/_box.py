"""Boxed scalars: read-only 0-d float64 arrays for the tick's array operands.

Under numpy 2's promotion rules for Python scalars (NEP 50), an array
operation with a Python float operand goes through the weak-scalar
path: ``a * 0.3`` on 8 floats costs about 1.1 us, where the same
product with a 0-d float64 array costs about 0.77 us, as much as an
array-array product; a ``np.float64`` is no faster than a Python float.
The value, the operation and so every result bit are the same, so the
kernels take a boxed scalar wherever a Python float works.

A box is only ever an operand: arithmetic between two boxes costs as
much as an array call. So a derived scalar such as v^2 is computed
from Python floats and boxed, once per run, by the helper of the
kernel that reads it (``vehicle_operands``, ``field_operands``,
``wave_operands``, ``schedule_operands``, ``relaxation_operands``); the
kernel takes the box ready-made and derives nothing per call. Equal
values share one box.
"""

from __future__ import annotations

import numpy as np

__all__ = ["box", "ZERO", "TWO", "FOUR"]

# one box per non-zero float value; a zero or NaN is boxed afresh, so
# -0.0 and +0.0 never share a box
_SHARED: dict[float, np.ndarray] = {}
_SHARED_MAX = 256


def box(x) -> np.ndarray:
    """x as a read-only 0-d float64 array, shared by equal non-zero floats."""
    out = _SHARED.get(x) if type(x) is float else None
    if out is None:
        out = np.array(x, dtype=float)
        if out.ndim:
            raise ValueError(f"a boxed scalar is 0-d, got shape {out.shape}")
        out.flags.writeable = False
        if type(x) is float and x and x == x:
            if len(_SHARED) >= _SHARED_MAX:
                _SHARED.clear()
            _SHARED[x] = out
    return out


ZERO, TWO, FOUR = box(0.0), box(2.0), box(4.0)
