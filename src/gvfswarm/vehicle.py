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

from ._box import FOUR, box

__all__ = [
    "VehicleOperands", "vehicle_operands", "heading_rate_core", "wrap_angle", "unicycle_step",
]


class VehicleOperands(NamedTuple):
    """The run constants of :func:`heading_rate_core` and :func:`unicycle_step`.

    Scalars are boxed (see ``_box``); the arrays are read-only and shaped
    to broadcast against (2, ...) stages of headings with ``ndim`` axes.
    """

    speed: np.ndarray  # v
    speed_sq: np.ndarray  # v^2
    stage_dt: np.ndarray  # (h/2, h), (2, 1, ...): the midpoint and end stage offsets
    sixth_dt: np.ndarray  # h/6, the Simpson weight
    wind: np.ndarray  # (2, 1, ...), against a (2, ...) velocity
    stage_wind: np.ndarray  # (2, 1, 1, ...), against the (2, 2 stages, ...) stage velocities


def _fixed(values, shape) -> np.ndarray:
    out = np.array(values, dtype=float).reshape(shape)
    out.flags.writeable = False
    return out


def vehicle_operands(speed: float, dt: float, wind=(0.0, 0.0), ndim: int = 1) -> VehicleOperands:
    """The vehicle kernels' operands for speed v, step h, a (2,) wind and ndim-axis headings."""
    v, h = float(speed), float(dt)
    trail = (1,) * ndim
    return VehicleOperands(
        speed=box(v), speed_sq=box(v * v),
        stage_dt=_fixed((0.5 * h, h), (2,) + trail), sixth_dt=box(h / 6.0),
        wind=_fixed(wind, (2,) + trail), stage_wind=_fixed(wind, (2, 1) + trail),
    )


def heading_rate_core(f, f_dot, velocity, ops: VehicleOperands, k_n):
    """omega = f^T E (k_n pdot - fdot) / v^2 on (2, ...) arrays.

    f^T E = (f_y, -f_x), so the rate vanishes exactly when the tracking
    mismatch k_n pdot - fdot is parallel to f. One product with f
    reversed gives both terms f_y m_x and f_x m_y.
    """
    terms = f[::-1] * (k_n * velocity - f_dot)
    return (terms[0] - terms[1]) / ops.speed_sq


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


def unicycle_step(position, heading, velocity, omega, ops: VehicleOperands):
    """One RK4 step of the unicycle under a zero-order-held omega.

    thetadot = omega is state independent, so the heading stages are
    exact and the position update reduces to Simpson weights over the
    stage headings. The step preserves ||p_new - p|| <= v dt (plus the
    wind contribution) because the update is a convex combination of
    speed-v velocities. ``position`` and ``velocity`` are (2, ...)
    arrays for headings and rates of one shape (...), with as many axes
    as ``ops`` was built for.

    ``velocity`` is the model velocity v (cos theta, sin theta) of
    ``heading``, the first RK4 stage, which the caller already holds.
    The other two stage headings, heading + (h/2, h) omega, come out of
    one product with ``ops.stage_dt`` as one (2, ...) array, so one cos
    and one sin call give both stage velocities. The last stage is the
    new heading's velocity, returned as the next step's ``velocity``.
    Where a new heading leaves (-pi, pi), ``wrap_angle`` wraps it and
    only there is the velocity recomputed from the wrapped angle, so it
    is always v (cos, sin) of the returned heading, to the bit.

    Returns (position, heading, velocity) after dt; the heading is a
    float for 0-d input, as ``wrap_angle`` returns it.
    """
    thetas = ops.stage_dt * omega
    thetas += heading
    # stage velocities, (2 components, 2 stages, ...)
    stages = np.empty((2,) + thetas.shape)
    np.cos(thetas, out=stages[0])
    np.sin(thetas, out=stages[1])
    stages *= ops.speed
    ground = stages + ops.stage_wind
    k1 = velocity + ops.wind
    new_position = position + ops.sixth_dt * (k1 + FOUR * ground[:, 0] + ground[:, 1])
    new_heading, new_velocity = thetas[1], stages[:, 1]
    if _inside(new_heading):
        return new_position, new_heading if new_heading.ndim else float(new_heading), new_velocity
    wrapped = wrap_angle(new_heading)
    np.copyto(new_velocity, np.multiply(ops.speed, [np.cos(wrapped), np.sin(wrapped)]),
              where=wrapped != new_heading)
    return new_position, wrapped, new_velocity
