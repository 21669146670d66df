import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import gvfswarm
from gvfswarm.oscillation import (
    OscillationConfig,
    amplitude_schedule,
    average_parametric_velocity,
    average_parametric_velocity_closed_form,
    complete_elliptic_e,
    epsilon,
    fit_k_a,
    gamma,
    gamma_ddot,
    gamma_dot,
    relaxation_operands,
    relaxation_step,
    schedule_operands,
    wave,
    wave_operands,
)

V, W = 16.0, 0.6

# reference values computed with mpmath.ellipe at 30 significant digits
ELLIPE_TABLE = {
    0.0: math.pi / 2.0,
    0.25: 1.4674622093394272,
    0.5: 1.3506438810476755,
    0.75: 1.2110560275684594,
    0.9: 1.1047747327040733,
    0.99: 1.015993545025224,
    1.0: 1.0,
}


class TestConfig:
    def test_defaults_resolve(self):
        cfg = OscillationConfig(speed=V, w_gamma=W)
        assert cfg.amplitude_cap == pytest.approx(V / W, abs=0)
        assert cfg.tau_a == pytest.approx(5.0 / W, abs=0)
        assert cfg.period == pytest.approx(2 * math.pi / W)

    def test_explicit_values_kept(self):
        cfg = OscillationConfig(speed=V, w_gamma=W, amplitude_cap=12.0, tau_a=3.0)
        assert cfg.amplitude_cap == 12.0
        assert cfg.tau_a == 3.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"speed": 0.0, "w_gamma": W},
            {"speed": -1.0, "w_gamma": W},
            {"speed": V, "w_gamma": 0.0},
            {"speed": V, "w_gamma": W, "amplitude_cap": -2.0},
            {"speed": V, "w_gamma": W, "tau_a": 0.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            OscillationConfig(**kwargs)


class TestWave:
    def test_gamma_basic(self):
        t = math.pi / (2 * W)  # quarter period, sin = 1
        assert gamma(t, 5.0, W) == pytest.approx(5.0, abs=1e-12)
        assert gamma(0.0, 5.0, W) == 0.0

    def test_gamma_dot_constant_amplitude(self):
        assert gamma_dot(0.0, 5.0, 0.0, W) == pytest.approx(5.0 * W, abs=1e-12)

    def test_array_broadcast(self):
        t = np.linspace(0, 10, 7)
        g = gamma(t, 2.0, W)
        assert g.shape == (7,)
        assert np.allclose(g, 2.0 * np.sin(W * t), atol=0)

    @pytest.mark.parametrize("t", [0.0, 0.3, 1.7, 9.2])
    def test_chain_rule_against_central_difference(self, t):
        # amplitude follows a quadratic in time so the FD sees a
        # consistent A(t), A_dot(t) along the probe
        a0, a1, a2 = 4.0, 0.8, -0.3
        h = 1e-6

        def g_at(tt):
            aa = a0 + a1 * (tt - t) + 0.5 * a2 * (tt - t) ** 2
            return float(gamma(tt, aa, W))

        def gd_at(tt):
            aa = a0 + a1 * (tt - t) + 0.5 * a2 * (tt - t) ** 2
            aad = a1 + a2 * (tt - t)
            return float(gamma_dot(tt, aa, aad, W))

        fd_dot = (g_at(t + h) - g_at(t - h)) / (2 * h)
        fd_ddot = (gd_at(t + h) - gd_at(t - h)) / (2 * h)
        assert gamma_dot(t, a0, a1, W) == pytest.approx(fd_dot, abs=1e-5)
        assert gamma_ddot(t, a0, a1, a2, W) == pytest.approx(fd_ddot, abs=1e-5)


def _old_gamma(t, amplitude, w_gamma):
    t = np.asarray(t, dtype=float)
    return amplitude * np.sin(w_gamma * t)


def _old_gamma_dot(t, amplitude, amplitude_rate, w_gamma):
    t = np.asarray(t, dtype=float)
    wt = w_gamma * t
    return amplitude_rate * np.sin(wt) + amplitude * w_gamma * np.cos(wt)


def _old_gamma_ddot(t, amplitude, amplitude_rate, amplitude_accel, w_gamma):
    t = np.asarray(t, dtype=float)
    wt = w_gamma * t
    return (
        (amplitude_accel - amplitude * w_gamma**2) * np.sin(wt)
        + 2.0 * amplitude_rate * w_gamma * np.cos(wt)
    )


def _bits(a) -> bytes:
    a = np.asarray(a)
    return str((a.shape, a.dtype)).encode() + a.tobytes()


class TestWaveKernel:
    """wave() and the three public waves give the bits of the old formulas."""

    @staticmethod
    def states(n, seed=7):
        rng = np.random.default_rng(seed)
        return rng.uniform(0.0, 12.0, n), rng.uniform(-2.0, 2.0, n), rng.uniform(-1.0, 1.0, n)

    def test_per_tick_scalars_match_public_waves(self):
        # the simulator's phase: one Python float per tick, math.sin/cos
        a, ar, aa = self.states(8)
        # the (A, A_dot, A_ddot - A w^2) block relaxation_step keeps
        block = np.array([a, ar, aa - a * W**2])
        times = np.arange(30001) * 0.02
        for t in times[::7]:
            wt = W * float(t)
            g, gd, gdd = wave(math.sin(wt), math.cos(wt), block, wave_operands(W, (8,)))
            assert _bits(g) == _bits(_old_gamma(t, a, W))
            assert _bits(gd) == _bits(_old_gamma_dot(t, a, ar, W))
            assert _bits(gdd) == _bits(_old_gamma_ddot(t, a, ar, aa, W))

    @pytest.mark.parametrize("shape", [(), (8,), (3, 8)], ids=["0d", "8", "3x8"])
    def test_public_waves_bitwise(self, shape):
        rng = np.random.default_rng(11)
        t = rng.uniform(0.0, 600.0, shape)
        a, ar, aa = (rng.uniform(-5.0, 5.0, shape) for _ in range(3))
        assert _bits(gamma(t, a, W)) == _bits(_old_gamma(t, a, W))
        assert _bits(gamma_dot(t, a, ar, W)) == _bits(_old_gamma_dot(t, a, ar, W))
        assert _bits(gamma_ddot(t, a, ar, aa, W)) == _bits(_old_gamma_ddot(t, a, ar, aa, W))
        # scalar amplitudes broadcast against a time grid
        assert _bits(gamma(t, 2.0, W)) == _bits(_old_gamma(t, 2.0, W))
        assert _bits(gamma_dot(t, 2.0, 0.5, W)) == _bits(_old_gamma_dot(t, 2.0, 0.5, W))


class TestEllipticIntegral:
    @pytest.mark.parametrize("m,expected", sorted(ELLIPE_TABLE.items()))
    def test_frozen_table(self, m, expected):
        assert complete_elliptic_e(m) == pytest.approx(expected, abs=2e-14)

    def test_against_mpmath_grid(self):
        mp.mp.dps = 30
        for m in np.linspace(0.0, 1.0, 41):
            exact = float(mp.ellipe(mp.mpf(float(m))))
            assert complete_elliptic_e(float(m)) == pytest.approx(exact, abs=2e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            complete_elliptic_e(-0.1)
        with pytest.raises(ValueError):
            complete_elliptic_e(1.1)

    def test_monotone_decreasing(self):
        vals = [complete_elliptic_e(float(m)) for m in np.linspace(0, 1, 31)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestAverageParametricVelocity:
    def test_zero_amplitude_is_speed(self):
        assert average_parametric_velocity(V, W, 0.0) == V

    def test_max_amplitude_is_two_over_pi(self):
        expected = 2.0 * V / math.pi  # 10.185916357881302
        assert average_parametric_velocity(V, W, V / W) == pytest.approx(expected, abs=1e-9 * V)
        assert average_parametric_velocity_closed_form(V, W, V / W) == pytest.approx(
            expected, abs=1e-12
        )

    def test_frozen_value(self):
        # adaptive quadrature of the period average at A = 15; the
        # closed form reproduces it to machine precision
        assert average_parametric_velocity(V, W, 15.0) == pytest.approx(
            14.647240241529481, abs=1e-10
        )

    def test_routes_agree(self):
        for a in np.linspace(0.0, V / W, 41):
            q = average_parametric_velocity(V, W, float(a))
            c = average_parametric_velocity_closed_form(V, W, float(a))
            assert abs(q - c) < 1e-9 * V

    def test_strictly_decreasing_in_amplitude(self):
        vals = [average_parametric_velocity(V, W, float(a)) for a in np.linspace(0, V / W, 25)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            average_parametric_velocity(V, W, -0.1)
        with pytest.raises(ValueError):
            average_parametric_velocity(V, W, V / W + 0.1)
        with pytest.raises(ValueError):
            average_parametric_velocity_closed_form(V, W, V / W + 0.1)

    def test_frequency_scaling(self):
        # the average depends on A w / v only, up to the same speed
        assert average_parametric_velocity(V, 0.3, 20.0) == pytest.approx(
            average_parametric_velocity(V, 0.6, 10.0), abs=1e-10
        )

    def test_package_import_leaves_scipy_unloaded(self):
        # quadrature is the only scipy user and imports it on first use;
        # checked in a fresh interpreter since this test session has
        # loaded scipy already
        src = str(Path(gvfswarm.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        ))
        code = (
            "import sys, gvfswarm; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert proc.stdout.strip() == "[]"


class TestEpsilon:
    def test_frozen_values(self):
        assert epsilon(16.0, 1.35) == pytest.approx(10.748656087239736, abs=1e-12)
        assert epsilon(8.0, 1.35) == pytest.approx(5.374328043619868, abs=1e-12)

    def test_below_speed(self):
        assert 0.0 < epsilon(V, 1.35) < V

    def test_requires_k_a_above_one(self):
        with pytest.raises(ValueError):
            epsilon(V, 1.0)
        with pytest.raises(ValueError):
            epsilon(V, 0.9)


class TestAmplitudeForVelocity:
    def test_full_speed_needs_no_wave(self):
        assert amplitude_schedule(V, schedule_operands(V, W, 1.35, 30.0))[0] == 0.0

    def test_epsilon_maps_to_kinematic_limit(self):
        # at the lowest schedulable velocity the commanded amplitude is
        # exactly v/w, independent of k_a
        eps = epsilon(V, 1.35)
        a = amplitude_schedule(eps, schedule_operands(V, W, 1.35, 30.0))[0]
        assert a == pytest.approx(V / W, abs=1e-9)

    def test_cap_clamps_and_raw_exceeds(self):
        eps = epsilon(V, 1.35)
        a, raw = amplitude_schedule(eps, schedule_operands(V, W, 1.35, 20.0))
        assert a == 20.0
        assert raw > 20.0

    def test_above_speed_needs_no_wave(self):
        assert amplitude_schedule(V + 5.0, schedule_operands(V, W, 1.35, 40.0))[0] == 0.0

    def test_array_input(self):
        ops = schedule_operands(V, W, 1.35, 40.0)
        out = amplitude_schedule(np.array([V, epsilon(V, 1.35)]), ops)[0]
        assert out.shape == (2,)
        assert out[0] == 0.0
        assert out[1] == pytest.approx(V / W, abs=1e-9)


class TestFitKA:
    def test_frozen_fit(self):
        assert fit_k_a(16.0, 0.6, 100) == pytest.approx(1.3665657512825498, rel=1e-9)

    def test_within_working_band(self):
        for w in (0.3, 0.6):
            k = fit_k_a(16.0, w)
            assert 1.30 <= k <= 1.40

    def test_frequency_independent(self):
        assert fit_k_a(16.0, 0.3) == pytest.approx(fit_k_a(16.0, 0.6), abs=1e-12)

    def test_needs_enough_samples(self):
        with pytest.raises(ValueError):
            fit_k_a(16.0, 0.6, 9)

    @pytest.mark.parametrize("v,w", [(8.0, 0.6), (16.0, 0.6), (23.7, 1.9)])
    def test_regressor_is_the_schedule_kernel(self, v, w):
        # the fit's g is amplitude_schedule's raw value at k = 1, uncapped,
        # byte for byte the formula sqrt(max(v^2 - xdot^2, 0)) / w
        amplitudes = np.linspace(0.0, v / w, 100)
        xdot = np.array([average_parametric_velocity(v, w, a) for a in amplitudes])
        g = np.sqrt(np.maximum(v * v - xdot * xdot, 0.0)) / w
        raw = amplitude_schedule(xdot, schedule_operands(v, w, 1.0, np.inf))[1]
        assert raw.tobytes() == g.tobytes()
        assert fit_k_a(v, w) == float(np.dot(amplitudes, g) / np.dot(g, g))

    def test_model_quality(self):
        # the sqrt model xdot(A) = sqrt(v^2 - (A w / k)^2) tracks the
        # exact curve to under 3% of v away from the amplitude limit;
        # in the thin layer A > 0.95 v/w the square-root endpoint slopes
        # differ and the misfit grows to about 4.5% of v at A = v/w
        k = fit_k_a(V, W)

        def model(a):
            return math.sqrt(max(V * V - (a * W / k) ** 2, 0.0))

        interior = np.linspace(0.0, 0.95 * V / W, 60)
        worst_interior = max(
            abs(model(float(a)) - average_parametric_velocity(V, W, float(a))) for a in interior
        )
        assert worst_interior < 0.03 * V

        full = np.linspace(0.0, V / W, 60)
        worst_full = max(
            abs(model(float(a)) - average_parametric_velocity(V, W, float(a))) for a in full
        )
        assert worst_full < 0.05 * V

    def test_round_trip_velocity(self):
        # schedule an amplitude for a desired velocity, then evaluate
        # the exact average it actually produces; same boundary layer
        # near eps as in test_model_quality
        k_a = 1.35
        eps = epsilon(V, k_a)
        cap = V / W
        for xd in np.linspace(1.05 * eps, V, 40):
            a = amplitude_schedule(float(xd), schedule_operands(V, W, k_a, cap))[0]
            realized = average_parametric_velocity(V, W, min(float(a), cap))
            assert abs(realized - xd) < 0.02 * V
        for xd in np.linspace(eps, V, 40):
            a = amplitude_schedule(float(xd), schedule_operands(V, W, k_a, cap))[0]
            realized = average_parametric_velocity(V, W, min(float(a), cap))
            assert abs(realized - xd) < 0.036 * V


class TestAmplitudeFilter:
    def test_exact_exponential(self):
        tau, dt = 2.5, 0.02
        a, rate = 0.0, 0.0
        target = 10.0
        for k in range(500):
            a, rate, _, accel = relaxation_step(a, target, relaxation_operands(dt, tau))
        t = 500 * dt
        assert a == pytest.approx(target * (1.0 - math.exp(-t / tau)), rel=1e-12)
        assert rate == pytest.approx((target - a) / tau, rel=1e-12)
        assert accel == pytest.approx(-rate / tau, rel=1e-12)

    def test_no_overshoot(self):
        a = 0.0
        for _ in range(10000):
            a = relaxation_step(a, 7.0, relaxation_operands(0.05, 1.0))[0]
            assert 0.0 <= a <= 7.0
        assert a == pytest.approx(7.0, abs=1e-9)

    def test_convex_combination_stays_in_range(self):
        a = np.array([0.0, 3.0, 12.0])
        for _ in range(100):
            a = relaxation_step(a, 5.0, relaxation_operands(0.1, 2.0))[0]
            assert np.all(a >= 0.0) and np.all(a <= 12.0)

    def test_zero_dt_is_identity(self):
        a, rate = relaxation_step(4.0, 9.0, relaxation_operands(0.0, 3.0))[:2]
        assert a == 4.0
        assert rate == pytest.approx((9.0 - 4.0) / 3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            relaxation_operands(0.1, 0.0)
        with pytest.raises(ValueError):
            relaxation_operands(-0.1, 1.0)
