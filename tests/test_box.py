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
from gvfswarm.vehicle import heading_rate_core, unicycle_step, vehicle_operands

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


def test_equal_nonzero_floats_share_a_box():
    assert box(0.02 / 6.0) is box(0.02 / 6.0)
    # zeros are boxed afresh, so a -0.0 keeps its sign
    assert np.signbit(box(-0.0)) and not np.signbit(box(0.0))
    assert box(-0.0) is not box(-0.0)
    assert np.isnan(box(math.nan))
    # past the table's size it starts over; every box keeps its value
    boxes = [box(1.0 + k) for k in range(600)]
    assert [float(b) for b in boxes] == [1.0 + k for k in range(600)]


@pytest.mark.parametrize("k_e", [0.7, np.linspace(0.5, 1.5, N)], ids=["scalar", "per-drone"])
def test_field_core(rng, k_e):
    angle = rng.uniform(-math.pi, math.pi, N)
    normal = np.array([-np.sin(angle), np.cos(angle)])
    tangent = np.array([np.cos(angle), np.sin(angle)])
    p_dot = V * np.array([np.cos(angle + 0.3), np.sin(angle + 0.3)])
    g, g_dot, g_ddot = rng.normal(0.0, 1.0, (3, N))
    ops = field_operands(V)
    assert _plain(ops) == (V, V * V, ALPHA_FLOOR_REL * V)
    for spread in (1.0, 40.0):  # all interior, then some exterior
        phi = rng.normal(0.0, spread, N)
        plain = field_core(phi, normal, tangent, _plain(ops), k_e, g, g_dot, g_ddot, p_dot)
        got = field_core(phi, normal, tangent, ops, *_boxed((k_e,)), g, g_dot, g_ddot, p_dot)
        assert _same(got, plain)
        assert plain[2].all() == (spread == 1.0)


def test_heading_rate_core(rng):
    f, f_dot, vel = rng.normal(0.0, V, (3, 2, N))
    ops = vehicle_operands(V, 0.02)
    for k_n in (1.3, rng.uniform(0.5, 2.0, N)):
        plain = heading_rate_core(f, f_dot, vel, _plain(ops), k_n)
        assert _same(heading_rate_core(f, f_dot, vel, ops, *_boxed((k_n,))), plain)
        # the plain-float formula with v^2 from the speed
        mismatch = k_n * vel - f_dot
        assert _same(plain, (f[1] * mismatch[0] - f[0] * mismatch[1]) / (V * V))


@pytest.mark.parametrize("wind", [(0.0, 0.0), (0.7, -1.2)], ids=["calm", "windy"])
def test_unicycle_step_with_and_without_wraps(rng, wind):
    pos = rng.normal(0.0, 50.0, (2, N))
    wrapped = set()
    for dt in (0.02, 0.5):
        ops = vehicle_operands(V, dt, np.array(wind))
        assert _plain(ops)[:2] == (V, V * V) and float(ops.sixth_dt) == dt / 6.0
        assert ops.stage_dt.tolist() == [[0.5 * dt], [dt]]
        for _ in range(20):
            theta = rng.uniform(-math.pi, math.pi, N)
            omega = rng.uniform(-6.0, 6.0, N)
            vel = V * np.array([np.cos(theta), np.sin(theta)])
            plain = unicycle_step(pos, theta, vel, omega, _plain(ops))
            got = unicycle_step(pos, theta, vel, omega, ops)
            assert _same(got, plain)
            # v (cos, sin) of the returned heading, wrapped or not
            assert _same(got[2], V * np.array([np.cos(got[1]), np.sin(got[1])]))
            wrapped.add(bool((np.abs(theta + dt * omega) >= math.pi).any()))
    assert wrapped == {True, False}


def test_wave(rng):
    a, a_dot, a_ddot = rng.uniform(0.0, 20.0, (3, N))
    ops = osc.wave_operands(0.6)
    assert _plain(ops) == (0.6, 0.6**2)
    for t in (0.0, 3.7, 512.3):
        wt = 0.6 * t
        args = (math.sin(wt), math.cos(wt), a, a_dot, a_ddot)
        assert _same(osc.wave(*_boxed(args), ops), osc.wave(*args, _plain(ops)))


def test_amplitude_schedule(rng):
    xdot = rng.uniform(0.0, V, N)
    xdot[:2] = 0.0, V
    ops = osc.schedule_operands(V, 0.6, 1.35, V / 0.6)
    assert _plain(ops) == (V * V, 0.6, 1.35, V / 0.6)
    assert _same(osc.amplitude_schedule(xdot, ops), osc.amplitude_schedule(xdot, _plain(ops)))


def test_relaxation_step(rng):
    value, target = rng.uniform(0.0, 20.0, (2, N))
    ops = osc.relaxation_operands(0.02, 5.0 / 0.6)
    assert _plain(ops) == (math.exp(-0.02 / (5.0 / 0.6)), 5.0 / 0.6)
    plain = osc.relaxation_step(value, target, _plain(ops))
    assert _same(osc.relaxation_step(value, target, ops), plain)


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
