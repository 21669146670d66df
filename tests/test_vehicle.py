import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gvfswarm.vehicle import heading_rate_core, unicycle_step, vehicle_operands, wrap_angle

V = 16.0
# the operands of one drone (0-d headings) and of a swarm (one axis)
ONE = vehicle_operands(V, 0.02, shape=())
SWARM = vehicle_operands(V, 0.02)


def gain(k_n, shape=()):
    """The operands of ONE with heading gain k_n, for headings of ``shape``."""
    return vehicle_operands(V, 0.02, k_n=k_n, shape=shape)


class TestHeadingRate:
    def test_zero_when_aligned(self):
        # velocity parallel to f with no field rotation: nothing to do
        f = np.array([V, 0.0])
        assert heading_rate_core(f, np.zeros(2), np.array([V, 0.0]), gain(1.0)) == 0.0
        f2 = V * np.array([math.cos(0.7), math.sin(0.7)])
        assert heading_rate_core(f2, np.zeros(2), f2, gain(2.5)) == pytest.approx(0.0, abs=1e-15)

    def test_quarter_turn_cases(self):
        # f east, flying north: f^T E pdot = f_y vx - f_x vy = -v^2
        f = np.array([V, 0.0])
        assert heading_rate_core(f, np.zeros(2), np.array([0.0, V]), gain(1.0)) == pytest.approx(-1.0)
        assert heading_rate_core(f, np.zeros(2), np.array([0.0, -V]), gain(1.0)) == pytest.approx(1.0)

    def test_gain_scales_feedback(self):
        f = np.array([V, 0.0])
        vel = np.array([0.0, V])
        assert heading_rate_core(f, np.zeros(2), vel, gain(3.0)) == pytest.approx(-3.0)

    def test_feedforward_term(self):
        # aligned flight but the field itself is rotating: omega must
        # pick up -f^T E fdot / v^2
        f = np.array([V, 0.0])
        f_dot = np.array([0.0, 4.0])  # field turning left
        vel = np.array([V, 0.0])
        assert heading_rate_core(f, f_dot, vel, gain(1.0)) == pytest.approx(4.0 / V)

    def test_small_misalignment_damps(self):
        # slightly left of the field: the command turns right
        theta = 0.1
        vel = V * np.array([math.cos(theta), math.sin(theta)])
        w = heading_rate_core(np.array([V, 0.0]), np.zeros(2), vel, gain(1.0))
        assert w < 0.0
        assert w == pytest.approx(-math.sin(theta), abs=1e-12)

    def test_swarm_operands_keep_the_formula_bits(self):
        # (k_n, k_n) in the operands and f as field_core returns it, a
        # reversed view of (f_y, f_x), or as a plain array: the bits of
        # (f_y m_x - f_x m_y) / v^2 with m = k_n pdot - fdot
        rng = np.random.default_rng(8)
        f, f_dot, vel = rng.normal(0.0, V, (3, 2, 8))
        k_n = rng.uniform(0.5, 2.0, 8)
        m = k_n * vel - f_dot
        want = (f[1] * m[0] - f[0] * m[1]) / (V * V)
        ops = gain(k_n, (8,))
        for f_in in (f, np.ascontiguousarray(f[::-1])[::-1]):
            assert heading_rate_core(f_in, f_dot, vel, ops).tobytes() == want.tobytes()

    def test_batched_and_gain_array(self):
        # two drones, component-first: both f (V, 0), both velocities (0, V)
        f = np.array([[V, V], [0.0, 0.0]])
        vel = np.array([[0.0, 0.0], [V, V]])
        out = heading_rate_core(f, np.zeros((2, 2)), vel, gain(np.array([1.0, 2.0]), (2,)))
        assert np.allclose(out, [-1.0, -2.0], atol=1e-12)


class TestWrapAngle:
    def test_landmarks(self):
        assert wrap_angle(math.pi) == math.pi
        assert wrap_angle(-math.pi) == math.pi
        assert wrap_angle(1.5 * math.pi) == pytest.approx(-0.5 * math.pi, abs=1e-12)
        assert wrap_angle(0.0) == 0.0
        assert wrap_angle(2.0 * math.pi) == pytest.approx(0.0, abs=1e-12)

    def test_in_range_passthrough_is_bitwise(self):
        for theta in (2.0, -3.0, 0.5, -1e-300, math.pi):
            assert wrap_angle(theta) == theta

    def test_array(self):
        t = np.array([0.0, 4.0, -4.0, 3.0])
        out = wrap_angle(t)
        assert out.shape == (4,)
        assert np.all(np.abs(out) <= math.pi)
        assert out[3] == 3.0

    @given(st.floats(-50.0, 50.0))
    @settings(max_examples=60, deadline=None)
    def test_always_in_range_and_equivalent(self, theta):
        w = wrap_angle(theta)
        assert -math.pi < w <= math.pi
        # same point on the circle
        assert math.cos(w) == pytest.approx(math.cos(theta), abs=1e-9)
        assert math.sin(w) == pytest.approx(math.sin(theta), abs=1e-9)


def _velocity(theta):
    """v (cos theta, sin theta), (2, ...), as the simulator hands it over."""
    theta = np.asarray(theta, dtype=float)
    return V * np.array([np.cos(theta), np.sin(theta)])


class TestUnicycleStep:
    def test_straight_line(self):
        p, th, vel = unicycle_step(np.zeros(2), 0.7, _velocity(0.7), 0.0, ONE)
        expected = V * 0.02 * np.array([math.cos(0.7), math.sin(0.7)])
        assert np.linalg.norm(p - expected) <= 1e-12
        assert th == 0.7
        assert np.array_equal(vel, _velocity(0.7))

    def test_circle_closed_form(self):
        # constant omega traces a circle of radius v/omega; quarter turn
        omega, dt = 1.0, 0.01
        radius = V / omega
        p = np.zeros(2)
        th = 0.0
        vel = _velocity(th)
        ops = vehicle_operands(V, dt, shape=())
        n = int(round((math.pi / 2) / (omega * dt)))
        for _ in range(n):
            p, th, vel = unicycle_step(p, th, vel, omega, ops)
        expected = radius * np.array(
            [math.sin(omega * n * dt), 1.0 - math.cos(omega * n * dt)]
        )
        assert np.linalg.norm(p - expected) < 1e-6 * radius
        assert th == pytest.approx(omega * n * dt, abs=1e-12)

    def test_heading_update_is_exact(self):
        _, th, _ = unicycle_step(np.zeros(2), 1.0, _velocity(1.0), 0.5, ONE)
        assert th == wrap_angle(1.0 + 0.5 * 0.02)

    @given(
        st.floats(-3.0, 3.0),
        st.floats(-math.pi, math.pi),
    )
    @settings(max_examples=60, deadline=None)
    def test_displacement_bound(self, omega, theta):
        # windless step displacement can never exceed v dt
        dt = 0.05
        p, _, _ = unicycle_step(np.zeros(2), theta, _velocity(theta), omega,
                                vehicle_operands(V, dt, shape=()))
        assert np.linalg.norm(p) <= V * dt + 1e-12

    def test_wind_is_additive_drift(self):
        wind = np.array([3.5, -1.0])
        p, th, _ = unicycle_step(np.zeros(2), 0.3, _velocity(0.3), 0.0,
                                 vehicle_operands(V, 0.02, wind, shape=()))
        expected = (V * np.array([math.cos(0.3), math.sin(0.3)]) + wind) * 0.02
        assert np.linalg.norm(p - expected) <= 1e-12
        assert th == 0.3

    def test_batched(self):
        pos = np.zeros((2, 4))
        theta = np.array([0.0, 0.5, -1.0, 3.0])
        omega = np.array([0.0, 0.1, -0.2, 0.0])
        p, th, vel = unicycle_step(pos, theta, _velocity(theta), omega, SWARM)
        assert p.shape == (2, 4)
        assert th.shape == (4,)
        assert vel.shape == (2, 4)
        for i in range(4):
            pi, ti, vi = unicycle_step(pos[:, i], theta[i], _velocity(theta[i]), omega[i], ONE)
            assert np.array_equal(p[:, i], pi)
            assert th[i] == ti
            assert np.array_equal(vel[:, i], vi)


def _where_wrap(theta):
    """wrap_angle as it was before the in-range shortcut."""
    theta = np.asarray(theta, dtype=float)
    wrapped = -(np.mod(-theta + np.pi, 2.0 * np.pi) - np.pi)
    inside = (np.abs(theta) <= np.pi) & (theta != -np.pi)
    out = np.where(inside, theta, wrapped)
    return float(out) if out.ndim == 0 else out


def _three_stack_step(position, heading, omega, speed, dt, wind=(0.0, 0.0)):
    """unicycle_step as it was before the stage headings shared one array."""
    position = np.asarray(position, dtype=float)
    heading = np.asarray(heading, dtype=float)
    omega = np.asarray(omega, dtype=float)
    wind = np.asarray(wind, dtype=float)

    def vel(theta):
        return np.stack([speed * np.cos(theta), speed * np.sin(theta)], axis=-1) + wind

    k1 = vel(heading)
    k2 = vel(heading + 0.5 * dt * omega)
    k4 = vel(heading + dt * omega)
    new_position = position + (dt / 6.0) * (k1 + 4.0 * k2 + k4)
    return new_position, _where_wrap(heading + dt * omega)


def _same_bits(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return type(a) is type(b) and np.float64(a).tobytes() == np.float64(b).tobytes()
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestShortcutsAgainstFormulas:
    """The fast paths give the very bits of the formulas they skip."""

    @pytest.mark.parametrize(
        "theta",
        [
            0.5, -0.0, math.pi, -math.pi, 3.5, -3.5, 2.0 * math.pi, math.nan,
            np.array([]), np.array([0.1, -3.0, math.pi]),
            np.array([-math.pi, 0.5]), np.array([0.5, math.nextafter(math.pi, 4.0)]),
            np.array([[0.1, 7.0], [-0.2, -7.0]]), np.array([0.1, math.nan]),
            np.array(2.5), np.array(-math.pi),
        ],
        ids=lambda v: repr(v.tolist() if isinstance(v, np.ndarray) else v),
    )
    def test_wrap_angle_bitwise(self, theta):
        got, want = wrap_angle(theta), _where_wrap(theta)
        if isinstance(want, float) and math.isnan(want):
            assert isinstance(got, float) and math.isnan(got)
        else:
            assert _same_bits(got, want)

    @pytest.mark.parametrize("wind", [(0.0, 0.0), (1.5, -2.0)], ids=["calm", "windy"])
    @pytest.mark.parametrize("shape", [(), (8,), (3, 8)], ids=["0d", "8", "3x8"])
    def test_unicycle_step_bitwise(self, shape, wind):
        rng = np.random.default_rng(3)
        in_range = set()  # whether every new heading needed no wrap
        for _ in range(20):
            pos = rng.uniform(-100.0, 100.0, shape + (2,))
            theta = rng.uniform(-math.pi, math.pi, shape)
            omega = rng.uniform(-6.0, 6.0, shape)
            if shape == ():
                theta, omega = float(theta), float(omega)
            for dt in (0.02, 0.5):
                # the kernel takes (2, ...) positions and velocities, the
                # oracle (..., 2) positions and the heading alone
                got = unicycle_step(np.moveaxis(pos, -1, 0), theta, _velocity(theta), omega,
                                    vehicle_operands(V, dt, np.array(wind), shape=shape))
                want = _three_stack_step(pos, theta, omega, V, dt, np.array(wind))
                assert _same_bits(got[0], np.moveaxis(want[0], -1, 0))
                assert _same_bits(got[1], want[1])
                # the returned velocity is v (cos, sin) of the returned heading
                assert _same_bits(got[2], _velocity(want[1]))
                raw = np.asarray(theta + dt * omega)
                in_range.add(bool(((raw > -math.pi) & (raw <= math.pi)).all()))
        assert in_range == {True, False}
