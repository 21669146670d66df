"""Every tick kernel gives the same bits with run-built operands as with Python floats.

The simulator builds each kernel's run constants once, with the
kernel's own helper: read-only 0-d float64 arrays where a caller may
pass Python floats (see gvfswarm._box). Each test calls a kernel with
the operands that helper builds and with the same bundle of plain
floats; only the cost of each array operation may differ.
"""

import math

import numpy as np
import pytest
from test_consensus import trapezoid_window_average

from gvfswarm import _box
from gvfswarm import oscillation as osc
from gvfswarm._box import box
from gvfswarm.consensus import SaturationParams, WindowAverager, sat
from gvfswarm.gvf import ALPHA_FLOOR_REL, field_core, field_operands
from gvfswarm.vehicle import heading_rate_core, unicycle_step, vehicle_operands, wrap_angle

V, N = 16.0, 8


def _same(a, b) -> bool:
    """Same type, shape, dtype and bytes, element by element through tuples."""
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(map(_same, a, b))
    if type(a) is not type(b):
        return False
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _plain(ops):
    """The operand bundle with each boxed scalar as the Python float it holds."""
    return type(ops)(*(float(a) if a.ndim == 0 else a for a in ops))


def _boxed(args):
    return tuple(box(a) if isinstance(a, float) else a for a in args)


@pytest.fixture
def rng():
    return np.random.default_rng(18)


def test_constants_are_read_only():
    for const in (_box.ZERO, _box.TWO, _box.FOUR, box(3.5)):
        assert const.shape == () and const.dtype == np.float64
        with pytest.raises(ValueError):
            const[()] = 1.0
    with pytest.raises(ValueError):
        box([1.0, 2.0])


def test_box_keeps_sign_nan_and_value():
    assert np.signbit(box(-0.0)) and not np.signbit(box(0.0))
    assert np.isnan(box(math.nan))
    boxes = [box(1.0 + k) for k in range(600)]
    assert [float(b) for b in boxes] == [1.0 + k for k in range(600)]


# today's formulas, with plain floats and (2, 1) stage arrays: each
# reshaped kernel, called with its helper's operands, gives their bits


def _field_formula(phi, normal, tangent, speed, k_e, gamma, gamma_dot, gamma_ddot, p_dot):
    u_phi = gamma_dot - k_e * (phi - gamma)
    beta = u_phi * normal
    beta_norm = np.abs(u_phi)
    interior = beta_norm <= speed
    alpha = np.sqrt(np.maximum(speed * speed - u_phi * u_phi, 0.0))
    f = alpha * tangent + beta
    phi_dot = np.add.reduce(normal * p_dot, axis=0)
    u_phi_dot = gamma_ddot - k_e * (phi_dot - gamma_dot)
    beta_dot = u_phi_dot * normal
    alpha_dot = -(u_phi * u_phi_dot) / np.maximum(alpha, ALPHA_FLOOR_REL * speed)
    f_dot = alpha_dot * tangent + beta_dot
    if not interior.all():
        safe_norm = np.where(interior, 1.0, beta_norm)
        f = np.where(interior, f, speed * beta / safe_norm)
        b_dot_b = np.add.reduce(beta * beta_dot, axis=0)
        f_dot_exterior = speed * (beta_dot / safe_norm - beta * (b_dot_b / safe_norm**3))
        f_dot = np.where(interior, f_dot, f_dot_exterior)
    return f, f_dot, interior


def _heading_formula(f, f_dot, velocity, speed, k_n):
    terms = f[::-1] * (k_n * velocity - f_dot)
    return (terms[0] - terms[1]) / (speed * speed)


def _unicycle_formula(position, heading, velocity, omega, speed, dt, wind):
    wind = np.asarray(wind, dtype=float)
    thetas = np.array([[0.5 * dt], [dt]]) * omega + heading
    stages = speed * np.array([np.cos(thetas), np.sin(thetas)])
    ground = stages + wind[:, None, None]
    k1 = velocity + wind[:, None]
    new_position = position + (dt / 6.0) * (k1 + 4.0 * ground[:, 0] + ground[:, 1])
    new_heading = wrap_angle(thetas[1])
    new_velocity = np.where(new_heading == thetas[1], stages[:, 1],
                            speed * np.array([np.cos(new_heading), np.sin(new_heading)]))
    return new_position, new_heading, new_velocity


def _wave_formula(sin_wt, cos_wt, amplitude, amplitude_rate, amplitude_accel, w):
    return (amplitude * sin_wt,
            amplitude_rate * sin_wt + amplitude * w * cos_wt,
            (amplitude_accel - amplitude * w**2) * sin_wt + 2.0 * amplitude_rate * w * cos_wt)


def _relaxation_formula(value, target, dt, tau):
    new_value = target + (value - target) * math.exp(-dt / tau)
    new_rate = (target - new_value) / tau
    return new_value, new_rate, -new_rate / tau


def _lines(rng):
    angle = rng.uniform(-math.pi, math.pi, N)
    return np.array([-np.sin(angle), np.cos(angle)]), np.array([np.cos(angle), np.sin(angle)])


@pytest.mark.parametrize("k_e", [0.7, np.linspace(0.5, 1.5, N)], ids=["scalar", "per-drone"])
def test_field_core(rng, k_e):
    normal, tangent = _lines(rng)
    angle = np.arctan2(tangent[1], tangent[0])
    p_dot = V * np.array([np.cos(angle + 0.3), np.sin(angle + 0.3)])
    gammas = rng.normal(0.0, 1.0, (3, N))
    ops = field_operands(V, normal, tangent, k_e)
    assert _plain(ops)[:3] == (V, V * V, ALPHA_FLOOR_REL * V)
    assert all(a.shape == (2, N) for a in (ops.gain, ops.normal))
    assert ops.normal_rows.shape == ops.tangent_rows.shape == (4, N)
    for spread in (1.0, 40.0):  # all interior, then some exterior
        phi = rng.normal(0.0, spread, N)
        got = field_core(phi, gammas, p_dot, ops)
        assert _same(got, field_core(phi, gammas, p_dot, _plain(ops)))
        assert _same(got, _field_formula(phi, normal, tangent, V, k_e, *gammas, p_dot))
        assert got[2].all() == (spread == 1.0)


@pytest.mark.parametrize("n, exterior",
                         [(512, 12), (256, 1), (512, 200), (1, 1), (8, 1), (8, 8), (64, 64), (128, 32)],
                         ids=["few-of-512", "one-of-256", "many-of-512", "one-of-1", "one-of-8",
                              "all-of-8", "all-of-64", "quarter-of-128"])
def test_field_core_exterior_ways(rng, n, exterior):
    angle = rng.uniform(-math.pi, math.pi, n)
    normal, tangent = np.array([-np.sin(angle), np.cos(angle)]), np.array([np.cos(angle), np.sin(angle)])
    p_dot = V * np.array([np.cos(angle + 0.3), np.sin(angle + 0.3)])
    gammas = rng.normal(0.0, 1.0, (3, n))
    phi = rng.normal(0.0, 1.0, n)
    far = rng.choice(n, exterior, replace=False)
    phi[far] = rng.choice([-1.0, 1.0], exterior) * rng.uniform(40.0, 60.0, exterior)
    got = field_core(phi, gammas, p_dot, field_operands(V, normal, tangent, 0.7))
    assert np.count_nonzero(~got[2]) == exterior
    assert _same(got, _field_formula(phi, normal, tangent, V, 0.7, *gammas, p_dot))


def test_heading_rate_core(rng):
    f, f_dot, vel = rng.normal(0.0, V, (3, 2, N))
    for k_n in (1.3, rng.uniform(0.5, 2.0, N)):
        ops = vehicle_operands(V, 0.02, k_n=k_n, shape=(N,))
        assert ops.gain.shape == (2, N)
        got = heading_rate_core(f, f_dot, vel, ops)
        assert _same(got, heading_rate_core(f, f_dot, vel, _plain(ops)))
        # the plain-float formula with v^2 from the speed
        mismatch = k_n * vel - f_dot
        assert _same(got, (f[1] * mismatch[0] - f[0] * mismatch[1]) / (V * V))
        out = np.empty(N)
        assert heading_rate_core(f, f_dot, vel, ops, out) is out and _same(out, got)


@pytest.mark.parametrize("wind", [(0.0, 0.0), (0.7, -1.2)], ids=["calm", "windy"])
def test_unicycle_step_with_and_without_wraps(rng, wind):
    pos = rng.normal(0.0, 50.0, (2, N))
    wrapped = set()
    for dt in (0.02, 0.5):
        ops = vehicle_operands(V, dt, np.array(wind), shape=(N,))
        assert _plain(ops)[:2] == (V, V * V) and float(ops.sixth_dt) == dt / 6.0
        assert (float(ops.half_dt), float(ops.dt)) == (0.5 * dt, dt)
        assert ops.wind.shape == (2, N) and ops.stage_wind.shape == (2, 2, N)
        for _ in range(20):
            theta = rng.uniform(-math.pi, math.pi, N)
            omega = rng.uniform(-6.0, 6.0, N)
            vel = V * np.array([np.cos(theta), np.sin(theta)])
            got = unicycle_step(pos, theta, vel, omega, ops)
            assert _same(got, unicycle_step(pos, theta, vel, omega, _plain(ops)))
            assert _same(got, _unicycle_formula(pos, theta, vel, omega, V, dt, wind))
            # into the caller's arrays, as the simulator writes its history rows
            out = np.empty((2, N)), np.empty(N)
            into = unicycle_step(pos, theta, vel, omega, ops, out=out)
            assert into[0] is out[0] and into[1] is out[1] and _same(into, got)
            # v (cos, sin) of the returned heading, wrapped or not
            assert _same(got[2], V * np.array([np.cos(got[1]), np.sin(got[1])]))
            wrapped.add(bool((np.abs(theta + dt * omega) >= math.pi).any()))
    assert wrapped == {True, False}


def test_wave(rng):
    a, a_dot, a_ddot = rng.uniform(0.0, 20.0, (3, N))
    ops = osc.wave_operands(0.6, (N,))
    assert float(ops.w_sq) == 0.6**2 and ops.rate_gains.tolist() == [[0.6] * N, [1.2] * N]
    block = np.array([a, a_dot, a_ddot - a * 0.6**2, a_ddot])
    for t in (0.0, 3.7, 512.3):
        wt = 0.6 * t
        args = (math.sin(wt), math.cos(wt))
        got = osc.wave(*_boxed(args), block, ops)
        assert _same(got, osc.wave(*args, block, ops))
        assert _same(tuple(got), _wave_formula(*args, a, a_dot, a_ddot, 0.6))


def test_amplitude_schedule(rng):
    xdot = rng.uniform(0.0, V, N)
    xdot[:2] = 0.0, V
    ops = osc.schedule_operands(V, 0.6, 1.35, V / 0.6)
    assert _plain(ops) == (V * V, 0.6, 1.35, V / 0.6)
    assert _same(osc.amplitude_schedule(xdot, ops), osc.amplitude_schedule(xdot, _plain(ops)))


def test_relaxation_step(rng):
    value, target = rng.uniform(0.0, 20.0, (2, N))
    ops = osc.relaxation_operands(0.02, 5.0 / 0.6, 0.6)
    assert _plain(ops) == (math.exp(-0.02 / (5.0 / 0.6)), 5.0 / 0.6, -5.0 / 0.6, 0.6**2)
    got = osc.relaxation_step(value, target, ops)
    assert _same(got, osc.relaxation_step(value, target, _plain(ops)))
    new_value, new_rate, new_accel = _relaxation_formula(value, target, 0.02, 5.0 / 0.6)
    assert _same(tuple(got), (new_value, new_rate, new_accel - new_value * 0.6**2, new_accel))
    # in place, from its own first row, as the simulator steps its block
    block = np.array([value, *np.zeros((3, N))])
    rows = tuple(block)
    assert osc.relaxation_step(rows[0], target, ops, out=rows) is rows
    assert _same(block, got)


def test_one_tick_of_kernels_is_todays_formulas(rng):
    """The tick's kernel chain on the simulator's operands: a crosswind,
    interior and exterior drones and headings that wrap."""
    normal, tangent = _lines(rng)
    k_e, k_n = rng.uniform(0.5, 1.5, (2, N))
    w, dt, wind = 0.6, 0.5, (0.7, -1.2)
    kin = vehicle_operands(V, dt, wind, k_n, (N,))
    field_ops = field_operands(V, normal, tangent, k_e)
    wave_ops, relax_ops = osc.wave_operands(w, (N,)), osc.relaxation_operands(dt, 5.0 / w, w)
    exterior, wraps = set(), set()
    for i in range(40):
        pos = rng.normal(0.0, 50.0, (2, N))
        # every other draw turns two drones across +-pi, the rest stay well inside
        theta = rng.uniform(-math.pi, math.pi, N) if i % 2 else rng.uniform(-2.0, 2.0, N)
        if i % 2:
            theta[:2] = math.pi - 1e-3, -math.pi + 1e-3
        vel = V * np.array([np.cos(theta), np.sin(theta)])
        a, a_dot, a_ddot, target = rng.uniform(0.0, 10.0, (4, N))
        phi = rng.normal(0.0, 12.0, N)
        wt = w * rng.uniform(0.0, 600.0)
        sin_wt, cos_wt = box(math.sin(wt)), box(math.cos(wt))
        block = np.array([a, a_dot, a_ddot - a * w**2, a_ddot])
        gammas = osc.wave(sin_wt, cos_wt, block, wave_ops)
        want_gammas = _wave_formula(math.sin(wt), math.cos(wt), a, a_dot, a_ddot, w)
        assert _same(tuple(gammas), want_gammas)
        f, f_dot, interior = field_core(phi, gammas, vel, field_ops)
        want = _field_formula(phi, normal, tangent, V, k_e, *want_gammas, vel)
        assert _same((f, f_dot, interior), want)
        omega = heading_rate_core(f, f_dot, vel, kin)
        assert _same(omega, _heading_formula(*want[:2], vel, V, k_n))
        omega *= 20.0 if i % 2 else 0.01
        assert _same(unicycle_step(pos, theta, vel, omega, kin),
                     _unicycle_formula(pos, theta, vel, omega, V, dt, wind))
        new_value, new_rate, new_accel = _relaxation_formula(a, target, dt, 5.0 / w)
        assert _same(tuple(osc.relaxation_step(a, target, relax_ops)),
                     (new_value, new_rate, new_accel - new_value * w**2, new_accel))
        exterior.add(bool(interior.all()))
        wraps.add(bool((np.abs(theta + dt * omega) > math.pi).any()))
    assert exterior == {True, False} and wraps == {True, False}


def test_sat_is_the_float_formula(rng):
    s = rng.normal(0.0, 3.0, N)
    s[:2] = -0.0, 0.0
    for params in (SaturationParams(), SaturationParams(tau_l=0.5, tau_h=20.0, r=5.0)):
        want = np.asarray(s).clip(0.0, params.r)
        want *= (params.tau_h - params.tau_l) / params.r
        want += params.tau_l
        assert _same(sat(s, params), want)
        one = np.asarray(1.5).clip(0.0, params.r) * ((params.tau_h - params.tau_l) / params.r)
        assert _same(sat(1.5, params), float(one + params.tau_l))


def test_window_averager_in_warm_up_and_over_the_full_window(rng):
    window, dt = 2.0 * math.pi / 0.6, 0.02
    av = WindowAverager(window, dt, shape=(N,))
    samples = np.cumsum(rng.normal(0.0, 0.3, (600, N)), axis=0)
    for k, value in enumerate(samples):
        av.push(value)
        if k % 7 == 0 or k > 520:  # 523 full intervals: warm-up, then full
            assert _same(av.average(), trapezoid_window_average(samples[:k + 1], window, dt)), k
