"""Constant-speed unicycle kinematics and the heading tracking law.

The drone model is pdot = v (cos theta, sin theta) + wind,
thetadot = omega, with the ground speed v fixed. The controller
steers the velocity direction onto the commanded field f with

    omega = f^T E (k_n pdot - fdot) / v^2,   E = [[0, -1], [1, 0]],

which damps the angle between pdot and f at rate k_n while the
feedforward -f^T E fdot / v^2 tracks the field's own rotation. The
controller only sees the model velocity v (cos theta, sin theta);
wind acts on the plant alone.

Both kernels take their run constants ready-made, as one
:class:`VehicleOperands` from :func:`vehicle_operands`.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ._box import FOUR, box, fixed

__all__ = [
    "VehicleOperands", "vehicle_operands", "heading_rate_core", "wrap_angle", "unicycle_step",
]


class VehicleOperands(NamedTuple):
    """The run constants of :func:`heading_rate_core` and :func:`unicycle_step`.

    Scalars are boxed; the arrays are read-only and of the full shape of
    the velocities they meet (see ``_box``).
    """

    speed: np.ndarray  # v
    speed_sq: np.ndarray  # v^2
    half_dt: np.ndarray  # h/2, the midpoint stage offset
    dt: np.ndarray  # h, the end stage offset
    sixth_dt: np.ndarray  # h/6, the Simpson weight
    gain: np.ndarray  # (k_n, k_n), (2, ...)
    wind: np.ndarray  # (2, ...)
    stage_wind: np.ndarray  # (2 stages, 2, ...)


def vehicle_operands(speed, dt, wind=(0.0, 0.0), k_n=1.0, shape=(1,)) -> VehicleOperands:
    """The kernels' operands: speed v, step h, a (2,) wind, gain k_n, headings of ``shape``."""
    v, h, pair = float(speed), float(dt), (2,) + tuple(shape)
    wind = fixed(np.reshape(wind, (2,) + (1,) * len(shape)), pair)
    return VehicleOperands(
        speed=box(v), speed_sq=box(v * v), half_dt=box(0.5 * h), dt=box(h), sixth_dt=box(h / 6.0),
        gain=fixed(k_n, pair), wind=wind, stage_wind=fixed(wind, (2,) + pair),
    )


def heading_rate_core(f, f_dot, velocity, ops: VehicleOperands, out=None):
    """omega = f^T E (k_n pdot - fdot) / v^2 on (2, ...) arrays, into ``out`` if given.

    f^T E = (f_y, -f_x), so the rate vanishes exactly when the tracking
    mismatch k_n pdot - fdot is parallel to f. One product with f
    reversed gives both terms f_y m_x and f_x m_y; on the f that
    :func:`gvfswarm.gvf.field_core` returns, f[::-1] is in memory order.
    """
    terms = ops.gain * velocity
    terms -= f_dot
    terms *= f[::-1]
    return np.divide(terms[0] - terms[1], ops.speed_sq, out=out)


def _inside(theta) -> bool:
    """Whether theta is non-empty and every value lies strictly inside (-pi, pi).

    The largest |theta| by argmax and item, which cost about half of a
    maximum reduction on a small array; a NaN is the argmax and fails.
    """
    magnitude = np.abs(theta)
    return bool(theta.size) and magnitude.item(magnitude.argmax()) < math.pi


def wrap_angle(theta):
    """Wrap into (-pi, pi]; values already inside pass through untouched.

    When every value lies strictly inside (-pi, pi), the input array
    itself is returned (a float for 0-d input), after one argmax;
    otherwise, and for +-pi, NaN or empty input, each value outside
    (-pi, pi] is wrapped, so pi stays pi and -pi becomes pi.
    """
    theta = np.asarray(theta, dtype=float)
    if _inside(theta):
        out = theta
    else:
        wrapped = -(np.mod(-theta + np.pi, 2.0 * np.pi) - np.pi)
        inside = (np.abs(theta) <= np.pi) & (theta != -np.pi)
        out = np.where(inside, theta, wrapped)
    return float(out) if out.ndim == 0 else out


def unicycle_step(position, heading, velocity, omega, ops: VehicleOperands, out=None):
    """One RK4 step of the unicycle under a zero-order-held omega.

    thetadot = omega is state independent, so the heading stages are
    exact and the position update reduces to Simpson weights over the
    stage headings. The step preserves ||p_new - p|| <= v dt (plus the
    wind contribution) because the update is a convex combination of
    speed-v velocities. ``position`` and ``velocity`` are (2, ...)
    arrays for headings and rates of one shape (...), the shape ``ops``
    was built for.

    ``velocity`` is the model velocity v (cos theta, sin theta) of
    ``heading``, the first RK4 stage, which the caller already holds.
    The stage velocities are stage-major, (2 stages, 2, ...), so each
    Simpson term and the last stage, returned as the next step's
    ``velocity``, is one contiguous (2, ...) block. Where a new heading
    leaves (-pi, pi), ``wrap_angle`` wraps it and only there is the
    velocity recomputed, so it is always v (cos, sin) of the returned
    heading, to the bit.

    Returns (position, heading, velocity) after dt, position and heading
    into the arrays of the pair ``out`` if given; the heading is a float
    for 0-d input, as ``wrap_angle`` returns it.
    """
    new_position, new_heading = (None, None) if out is None else out
    mid = ops.half_dt * omega
    mid += heading
    end = np.multiply(ops.dt, omega, out=new_heading)
    end += heading
    stages = np.empty((2, 2) + np.shape(end))
    np.cos(mid, out=stages[0, 0, ...])
    np.sin(mid, out=stages[0, 1, ...])
    np.cos(end, out=stages[1, 0, ...])
    np.sin(end, out=stages[1, 1, ...])
    stages *= ops.speed
    ground = stages + ops.stage_wind
    step = velocity + ops.wind
    ground[0] *= FOUR
    step += ground[0]
    step += ground[1]
    step *= ops.sixth_dt
    new_position = np.add(position, step, out=new_position)
    new_velocity = stages[1]
    if _inside(end):
        return new_position, end if np.ndim(end) else float(end), new_velocity
    wrapped = wrap_angle(end)
    np.copyto(new_velocity, np.multiply(ops.speed, [np.cos(wrapped), np.sin(wrapped)]),
              where=wrapped != end)
    if new_heading is not None:
        new_heading[...] = wrapped
        wrapped = new_heading
    return new_position, wrapped, new_velocity
