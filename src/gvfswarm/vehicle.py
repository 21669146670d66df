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

__all__ = ["heading_rate_core", "wrap_angle", "unicycle_step"]


def heading_rate_core(f, f_dot, velocity, speed: float, k_n: float):
    """omega = f^T E (k_n pdot - fdot) / v^2 on (2, ...) vectors.

    f^T E = (f_y, -f_x), so the rate vanishes exactly when the tracking
    mismatch k_n pdot - fdot is parallel to f.
    """
    f = np.asarray(f, dtype=float)
    mismatch = k_n * np.asarray(velocity, dtype=float) - np.asarray(f_dot, dtype=float)
    return (f[1] * mismatch[0] - f[0] * mismatch[1]) / (speed * speed)


def wrap_angle(theta):
    """Wrap into (-pi, pi]; values already inside pass through untouched.

    When every value is already inside, the input array itself is
    returned (a float for 0-d input); otherwise, and for NaN or empty
    input, each value outside is wrapped.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.size and -np.pi < theta.min() and theta.max() <= np.pi:
        out = theta
    else:
        wrapped = -(np.mod(-theta + np.pi, 2.0 * np.pi) - np.pi)
        inside = (np.abs(theta) <= np.pi) & (theta != -np.pi)
        out = np.where(inside, theta, wrapped)
    return float(out) if out.ndim == 0 else out


def unicycle_step(position, heading, omega, speed: float, dt: float, wind=(0.0, 0.0)):
    """One RK4 step of the unicycle under a zero-order-held omega.

    thetadot = omega is state independent, so the heading stages are
    exact and the position update reduces to Simpson weights over the
    stage headings. The step preserves ||p_new - p|| <= v dt (plus the
    wind contribution) because the update is a convex combination of
    speed-v velocities. ``position`` and the result are (2, ...) for
    headings of shape (...); ``wind`` is one (2,) vector.

    The three stage headings share one (3, ...) array, so one cos and
    one sin call give all three stage velocities, (2, 3, ...).
    """
    position = np.asarray(position, dtype=float)
    heading = np.asarray(heading, dtype=float)
    omega = np.asarray(omega, dtype=float)
    wind = np.asarray(wind, dtype=float)

    new_heading = heading + dt * omega
    thetas = np.empty((3,) + new_heading.shape)
    thetas[0] = heading
    thetas[1] = heading + 0.5 * dt * omega
    thetas[2] = new_heading
    trig = np.empty((2,) + thetas.shape)
    np.cos(thetas, out=trig[0])
    np.sin(thetas, out=trig[1])
    trig *= speed
    trig += wind.reshape((2,) + (1,) * thetas.ndim)
    k1, k2, k4 = trig[:, 0], trig[:, 1], trig[:, 2]
    new_position = position + (dt / 6.0) * (k1 + 4.0 * k2 + k4)
    return new_position, wrap_angle(new_heading)
