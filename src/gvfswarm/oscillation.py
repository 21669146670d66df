"""Lateral oscillation layer: reference waves, amplitude scheduling, speed model.

A drone tracks the oscillating lateral reference gamma(t) = A(t) sin(w t).
Because ground speed is fixed, lateral motion taxes progress along the
path: with constant amplitude A the path parameter advances at the
period average of sqrt(v^2 - gamma_dot^2). That exact average equals
(2v/pi) E(m) with m = (A w / v)^2 and E the complete elliptic integral
of the second kind; both routes are implemented independently and the
quadrature one is authoritative. The scheduling inverse uses the
algebraic model xdot(A) ~= sqrt(v^2 - (A w / k_A)^2), giving
A_d = k_A sqrt(v^2 - xdot_d^2) / w, with k_A fitted once by least
squares against the quadrature curve. :func:`amplitude_schedule` is
the one form of that schedule: the simulator calls it every tick, and
it returns the capped amplitude together with the uncapped one.

The three per-tick kernels, :func:`wave`, :func:`amplitude_schedule` and
:func:`relaxation_step`, take their run constants ready-made, each as
one bundle from its helper: :func:`wave_operands`,
:func:`schedule_operands` and :func:`relaxation_operands`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._box import ZERO, box, fixed

__all__ = [
    "OscillationConfig",
    "gamma",
    "gamma_dot",
    "gamma_ddot",
    "WaveOperands",
    "wave_operands",
    "wave",
    "complete_elliptic_e",
    "average_parametric_velocity",
    "average_parametric_velocity_closed_form",
    "epsilon",
    "ScheduleOperands",
    "schedule_operands",
    "amplitude_schedule",
    "fit_k_a",
    "RelaxationOperands",
    "relaxation_operands",
    "relaxation_step",
]


@dataclass(frozen=True)
class OscillationConfig:
    """Parameters of the oscillation layer.

    Parameters
    ----------
    speed : float
        Constant ground speed v in m/s, positive.
    w_gamma : float
        Angular frequency of the lateral wave in rad/s, positive.
    k_a : float
        Amplitude gain of the scheduling model, must exceed 1 for the
        slowdown budget to be meaningful.
    amplitude_cap : float or None
        Upper clamp for commanded amplitudes in m; defaults to v/w,
        the kinematic limit where the wave consumes the whole speed.
    tau_a : float or None
        Time constant of the amplitude relaxation filter in s;
        defaults to five periods' worth of phase, 5/w.
    """

    speed: float
    w_gamma: float
    k_a: float = 1.35
    amplitude_cap: float | None = None
    tau_a: float | None = None

    def __post_init__(self) -> None:
        if not self.speed > 0:
            raise ValueError(f"speed must be positive, got {self.speed}")
        if not self.w_gamma > 0:
            raise ValueError(f"w_gamma must be positive, got {self.w_gamma}")
        if self.amplitude_cap is None:
            object.__setattr__(self, "amplitude_cap", self.speed / self.w_gamma)
        elif not self.amplitude_cap > 0:
            raise ValueError(f"amplitude_cap must be positive, got {self.amplitude_cap}")
        if self.tau_a is None:
            object.__setattr__(self, "tau_a", 5.0 / self.w_gamma)
        elif not self.tau_a > 0:
            raise ValueError(f"tau_a must be positive, got {self.tau_a}")

    @property
    def period(self) -> float:
        return 2.0 * math.pi / self.w_gamma


class WaveOperands(NamedTuple):
    """The run constants of :func:`wave`: w^2 and the (2, ...) pair (w, 2w)."""

    w_sq: np.ndarray
    rate_gains: np.ndarray


def wave_operands(w_gamma, shape=None) -> WaveOperands:
    """wave's operands for a frequency w, or an array of them, and waves of ``shape`` (w's)."""
    # w^2 is Python's float **: a 0-d array's ** squares, which differs
    # from pow(w, 2) in the last bit for some w
    w = w_gamma if getattr(w_gamma, "ndim", 0) else float(w_gamma)
    shape = np.shape(w) if shape is None else tuple(shape)
    pair = np.moveaxis(np.broadcast_to(np.multiply.outer(w, (1.0, 2.0)), (*shape, 2)), -1, 0)
    return WaveOperands(w**2 if np.ndim(w) else box(w**2), fixed(pair, pair.shape))


def wave(sin_wt, cos_wt, block, ops: WaveOperands):
    """(gamma, gamma_dot, gamma_ddot) as one (3, ...) array, from sin(w t) and cos(w t).

    ``block`` starts with the rows (A, Adot, Addot - A w^2) that
    :func:`relaxation_step` returns: gamma = A sin, gamma_dot = Adot sin
    + (A w) cos and gamma_ddot = (Addot - A w^2) sin + (Adot 2w) cos, in
    four operations; Adot (2w) is (2 Adot) w to the bit, as doubling is
    exact. The simulator calls it once per tick with the phase evaluated
    once.
    """
    out = block[:3] * sin_wt
    rates = block[:2] * ops.rate_gains
    rates *= cos_wt
    out[1:] += rates
    return out


def _waves(t, amplitude, amplitude_rate, amplitude_accel, w_gamma):
    wt = w_gamma * np.asarray(t, dtype=float)
    block = np.array(np.broadcast_arrays(wt, amplitude, amplitude_rate, amplitude_accel))
    ops = wave_operands(w_gamma, block.shape[1:])
    block[3] -= block[1] * ops.w_sq
    return wave(np.sin(wt), np.cos(wt), block[1:], ops)


def gamma(t, amplitude, w_gamma):
    """Lateral reference A sin(w t). Broadcasts over array inputs."""
    return _waves(t, amplitude, 0.0, 0.0, w_gamma)[0]


def gamma_dot(t, amplitude, amplitude_rate, w_gamma):
    """Time derivative of gamma for a time-varying amplitude."""
    return _waves(t, amplitude, amplitude_rate, 0.0, w_gamma)[1]


def gamma_ddot(t, amplitude, amplitude_rate, amplitude_accel, w_gamma):
    """Second time derivative of gamma for a time-varying amplitude."""
    return _waves(t, amplitude, amplitude_rate, amplitude_accel, w_gamma)[2]


def complete_elliptic_e(m: float) -> float:
    """Complete elliptic integral of the second kind E(m), parameter form.

    E(m) = int_0^{pi/2} sqrt(1 - m sin^2 t) dt, evaluated by the
    arithmetic-geometric mean; converges quadratically to machine
    precision. Domain m in [0, 1].
    """
    if not 0.0 <= m <= 1.0:
        raise ValueError(f"parameter m must lie in [0, 1], got {m}")
    if m == 1.0:
        return 1.0
    a, b, c = 1.0, math.sqrt(1.0 - m), math.sqrt(m)
    # E = K (1 - sum 2^{n-1} c_n^2); carrying c via c^2/(4a) instead of
    # (a - b)/2 avoids the cancellation once a and b coalesce
    s = 0.5 * c * c
    pow2 = 0.5
    for _ in range(64):
        a_next = 0.5 * (a + b)
        c = c * c / (4.0 * a_next)
        b = math.sqrt(a * b)
        a = a_next
        pow2 *= 2.0
        s += pow2 * c * c
        if c < 1e-18:
            break
    return (math.pi / (2.0 * a)) * (1.0 - s)


def _check_amplitude_domain(speed: float, w_gamma: float, amplitude: float) -> None:
    limit = speed / w_gamma
    if not 0.0 <= amplitude <= limit * (1.0 + 1e-12):
        raise ValueError(
            f"amplitude {amplitude} outside [0, v/w] = [0, {limit}]"
        )


def average_parametric_velocity(speed: float, w_gamma: float, amplitude: float) -> float:
    """Exact period-averaged progress speed for a constant amplitude.

    Computes (1/T) int_0^T sqrt(v^2 - A^2 w^2 cos^2(w t)) dt by adaptive
    quadrature. This is the authoritative route; the closed form below
    must agree with it. Domain: 0 <= amplitude <= v/w.
    """
    # scipy is imported here, its only user, so that importing the
    # package (and every simulation or consensus path) does not load it
    from scipy.integrate import quad

    _check_amplitude_domain(speed, w_gamma, amplitude)
    if amplitude == 0.0:
        return speed
    period = 2.0 * math.pi / w_gamma
    aw = amplitude * w_gamma

    def integrand(t: float) -> float:
        radicand = speed * speed - (aw * math.cos(w_gamma * t)) ** 2
        return math.sqrt(max(radicand, 0.0))

    # integrand has cusps at t = 0, T/2, T when A = v/w; hint the
    # quarter points as well so the subdivision brackets them
    value, _ = quad(
        integrand,
        0.0,
        period,
        points=[period / 4.0, period / 2.0, 3.0 * period / 4.0],
        epsabs=1e-13,
        epsrel=1e-13,
        limit=200,
    )
    return value / period


def average_parametric_velocity_closed_form(
    speed: float, w_gamma: float, amplitude: float
) -> float:
    """Same average via (2v/pi) E(m), m = (A w / v)^2. Independent route."""
    _check_amplitude_domain(speed, w_gamma, amplitude)
    m = (amplitude * w_gamma / speed) ** 2
    return (2.0 * speed / math.pi) * complete_elliptic_e(min(m, 1.0))


def epsilon(speed: float, k_a: float) -> float:
    """Lowest schedulable progress speed, sqrt(k_A^2 - 1)/k_A * v.

    At desired velocity eps the scheduled amplitude is exactly v/w, so
    [eps, v] maps onto the full amplitude range. Requires k_a > 1.
    """
    if not k_a > 1.0:
        raise ValueError(f"k_a must exceed 1, got {k_a}")
    return speed * math.sqrt(k_a * k_a - 1.0) / k_a


class ScheduleOperands(NamedTuple):
    """The run constants of :func:`amplitude_schedule`, boxed (see ``_box``)."""

    speed_sq: np.ndarray  # v^2
    w_gamma: np.ndarray
    k_a: np.ndarray
    amplitude_cap: np.ndarray


def schedule_operands(
    speed: float, w_gamma: float, k_a: float, amplitude_cap: float
) -> ScheduleOperands:
    """amplitude_schedule's operands for speed v, frequency w, gain k_A and the cap."""
    v = float(speed)
    return ScheduleOperands(box(v * v), box(w_gamma), box(k_a), box(amplitude_cap))


def amplitude_schedule(xdot, ops: ScheduleOperands, out=None):
    """A_d = min(k_A sqrt(max(v^2 - xdot^2, 0)) / w, cap), and the unclamped value.

    The one schedule kernel: the simulator calls it on every tick, where
    xdot already lies in [0, v]. Returns (clamped, raw): the cap binds
    where raw exceeds it; the clamped value goes to ``out`` if given. No
    input is clipped and nothing is logged; xdot above v gives 0, and
    xdot below 0 gives the formula as it stands. Broadcasts over array
    inputs.
    """
    raw = ops.k_a * np.sqrt(np.maximum(ops.speed_sq - xdot * xdot, ZERO)) / ops.w_gamma
    return np.minimum(raw, ops.amplitude_cap, out=out), raw


def fit_k_a(speed: float, w_gamma: float, n_samples: int = 100) -> float:
    """Least-squares gain for the sqrt scheduling model.

    Samples the exact quadrature curve at n_samples amplitudes spanning
    [0, v/w] and fits A ~= k * sqrt(v^2 - xdot^2)/w through the origin:
    k = sum(A g) / sum(g^2) with g = sqrt(v^2 - xdot^2)/w.
    """
    if n_samples < 10:
        raise ValueError(f"need at least 10 samples for a stable fit, got {n_samples}")
    amplitudes = np.linspace(0.0, speed / w_gamma, n_samples)
    xdot = np.array([average_parametric_velocity(speed, w_gamma, a) for a in amplitudes])
    g = amplitude_schedule(xdot, schedule_operands(speed, w_gamma, 1.0, math.inf))[1]
    return float(np.dot(amplitudes, g) / np.dot(g, g))


class RelaxationOperands(NamedTuple):
    """The run constants of :func:`relaxation_step`, boxed (see ``_box``)."""

    decay: np.ndarray  # exp(-dt/tau)
    tau: np.ndarray
    neg_tau: np.ndarray  # -tau
    w_sq: np.ndarray  # w^2 of the wave that reads the block


def relaxation_operands(dt: float, tau: float, w_gamma: float = 0.0) -> RelaxationOperands:
    """relaxation_step's operands for step dt, time constant tau and wave frequency w."""
    h, t = float(dt), float(tau)
    if not t > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if h < 0:
        raise ValueError(f"dt must be non-negative, got {dt}")
    return RelaxationOperands(box(math.exp(-h / t)), box(t), box(-t), box(float(w_gamma) ** 2))


def relaxation_step(value, target, ops: RelaxationOperands, out=None):
    """One exact step of tau * xdot = target - x under a held target.

    Returns the (4, ...) block (value, rate, accel - value w^2, accel)
    after the operands' dt, the layout :func:`wave` reads, or writes and
    returns ``out``, a tuple of such a block's rows (the first may be
    ``value``). With target in [lo, hi] the new value is a convex
    combination inside the same interval, so nothing downstream clamps
    it; -rate/tau is rate/(-tau) to the bit.
    """
    if out is None:
        out = np.empty((4,) + np.broadcast_shapes(np.shape(value), np.shape(target)))
    value_out, rate, shifted, accel = out if type(out) is tuple else [out[i, ...] for i in range(4)]
    step = value - target
    step *= ops.decay
    np.add(target, step, out=value_out)
    np.subtract(target, value_out, out=rate)
    rate /= ops.tau
    np.divide(rate, ops.neg_tau, out=accel)
    np.multiply(value_out, ops.w_sq, out=shifted)
    np.subtract(accel, shifted, out=shifted)
    return out
