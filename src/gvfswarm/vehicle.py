"""Constant-speed unicycle kinematics and the heading tracking law.

The drone model is pdot = v (cos theta, sin theta) + wind,
thetadot = omega, with the ground speed v fixed. The controller
steers the velocity direction onto the commanded field f with

    omega = f^T E (k_n pdot - fdot) / v^2,   E = [[0, -1], [1, 0]],

which damps the angle between pdot and f at rate k_n while the
feedforward -f^T E fdot / v^2 tracks the field's own rotation. The
controller only sees the model velocity v (cos theta, sin theta);
wind acts on the plant alone.
"""

from __future__ import annotations

import numpy as np

from ._box import FOUR, box

__all__ = ["heading_rate_core", "wrap_angle", "unicycle_step"]


def heading_rate_core(f, f_dot, velocity, speed: float, k_n: float):
    """omega = f^T E (k_n pdot - fdot) / v^2 on (2, ...) vectors.

    f^T E = (f_y, -f_x), so the rate vanishes exactly when the tracking
    mismatch k_n pdot - fdot is parallel to f.
    """
    f = np.asarray(f, dtype=float)
    mismatch = k_n * np.asarray(velocity, dtype=float) - np.asarray(f_dot, dtype=float)
    v = float(speed)
    return (f[1] * mismatch[0] - f[0] * mismatch[1]) / box(v * v)


def wrap_angle(theta):
    """Wrap into (-pi, pi]; values already inside pass through untouched.

    When every value lies strictly inside (-pi, pi), the input array
    itself is returned (a float for 0-d input), after one reduction;
    otherwise, and for +-pi, NaN or empty input, each value outside
    (-pi, pi] is wrapped, so pi stays pi and -pi becomes pi.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.size and np.maximum.reduce(np.abs(theta), axis=None) < np.pi:
        out = theta
    else:
        wrapped = -(np.mod(-theta + np.pi, 2.0 * np.pi) - np.pi)
        inside = (np.abs(theta) <= np.pi) & (theta != -np.pi)
        out = np.where(inside, theta, wrapped)
    return float(out) if out.ndim == 0 else out


def unicycle_step(position, heading, velocity, omega, speed: float, dt: float, wind=(0.0, 0.0)):
    """One RK4 step of the unicycle under a zero-order-held omega.

    thetadot = omega is state independent, so the heading stages are
    exact and the position update reduces to Simpson weights over the
    stage headings. The step preserves ||p_new - p|| <= v dt (plus the
    wind contribution) because the update is a convex combination of
    speed-v velocities. ``position`` and ``velocity`` are (2, ...) for
    headings and rates of one shape (...); ``wind`` is one (2,) vector.

    ``velocity`` is the model velocity v (cos theta, sin theta) of
    ``heading``, the first RK4 stage, which the caller already holds.
    The other two stage headings share one (2, ...) array, so one cos
    and one sin call give both stage velocities. The last stage is the
    new heading's velocity, returned as the next step's ``velocity``;
    only where ``wrap_angle`` wrapped the new heading is it recomputed
    from the wrapped angle, so it is always v (cos, sin) of the
    returned heading, to the bit.

    Returns (position, heading, velocity) after dt.
    """
    position = np.asarray(position, dtype=float)
    heading = np.asarray(heading, dtype=float)
    velocity = np.asarray(velocity, dtype=float)
    omega = np.asarray(omega, dtype=float)
    wind = np.asarray(wind, dtype=float)
    h = float(dt)

    # the midpoint and end headings, (2, ...); [i, ...] is a view even at 0-d
    thetas = np.empty((2,) + heading.shape)
    mid, new_heading = thetas[0, ...], thetas[1, ...]
    np.add(heading, np.multiply(box(0.5 * h), omega, out=mid), out=mid)
    np.add(heading, np.multiply(dt, omega, out=new_heading), out=new_heading)
    # stage velocities, (2 components, 2 stages, ...)
    stages = np.empty((2,) + thetas.shape)
    np.cos(thetas, out=stages[0])
    np.sin(thetas, out=stages[1])
    stages *= speed
    new_velocity = stages[:, 1]
    wind = wind.reshape((2,) + (1,) * heading.ndim)
    k1 = velocity + wind
    ground = stages + wind[:, None]
    k2, k4 = ground[:, 0], ground[:, 1]
    new_position = position + box(h / 6.0) * (k1 + FOUR * k2 + k4)
    new_heading_wrapped = wrap_angle(new_heading)
    if new_heading_wrapped is not new_heading:
        wrapped = np.asarray(new_heading_wrapped)
        np.copyto(new_velocity, np.multiply(speed, [np.cos(wrapped), np.sin(wrapped)]),
                  where=wrapped != new_heading)
    return new_position, new_heading_wrapped, new_velocity
