import math

import numpy as np
import pytest

from gvfswarm.gvf import field_core, field_operands

V = 16.0
# the x axis as the simulator stacks one drone's line: phi is the y
# coordinate, left normal (0, 1), tangent (1, 0). On the interior branch
# f = alpha t + u_phi n is then exactly (alpha, u_phi)
NORMAL = np.array([0.0, 1.0])
TANGENT = np.array([1.0, 0.0])


def core(phi, normal, tangent, speed, k_e, gamma, gamma_dot, gamma_ddot, p_dot):
    """field_core with its operands built for the points' shape from lines that broadcast to it."""
    shape = np.broadcast_shapes(np.shape(phi), np.shape(normal)[1:], np.shape(p_dot)[1:])
    pair = (2,) + shape
    gammas = np.empty((3,) + shape)
    gammas[0], gammas[1], gammas[2] = gamma, gamma_dot, gamma_ddot
    ops = field_operands(speed, np.broadcast_to(normal, pair), np.broadcast_to(tangent, pair), k_e)
    return field_core(phi, gammas, p_dot, ops)


def field(position, speed, k_e, gamma=0.0, gamma_dot=0.0, gamma_ddot=0.0, p_dot=(0.0, 0.0)):
    """field_core at one position beside the x axis: (f, f_dot, interior)."""
    p = np.asarray(position, dtype=float)
    return core(p[1], NORMAL, TANGENT, speed, k_e, gamma, gamma_dot, gamma_ddot,
                np.asarray(p_dot, dtype=float))


def u_phi(phi, gamma, gamma_dot, k_e):
    """The level-set velocity demand -k_e (phi - gamma) + gamma_dot, read off f."""
    phi = np.asarray(phi, dtype=float)
    normal = np.multiply.outer(NORMAL, np.ones_like(phi))
    zero = np.zeros_like(phi)
    f, _, interior = core(phi, normal, normal[::-1], V, k_e, gamma, gamma_dot,
                          zero, 0 * normal)
    assert np.all(interior)
    return f[1]


class TestVirtualInput:
    def test_pure_error(self):
        assert u_phi(5.0, 0.0, 0.0, 1.0) == -5.0

    def test_offset_reference(self):
        assert u_phi(0.0, 2.5, 0.0, 1.0) == 2.5

    def test_on_reference_feedforward_only(self):
        assert u_phi(3.0, 3.0, 0.0, 2.0) == 0.0
        assert u_phi(3.0, 3.0, 1.7, 2.0) == 1.7

    def test_array(self):
        out = u_phi(np.array([5.0, 0.0]), 0.0, 0.0, 2.0)
        assert np.array_equal(out, [-10.0, 0.0])


class TestBranches:
    def test_on_path_runs_along_tangent(self):
        f, _, interior = field((7.0, 0.0), V, 1.0)
        assert interior
        assert np.array_equal(f, [V, 0.0])

    def test_interior_example(self):
        # phi = 10, u_phi = -10, beta = (0, -10), alpha = sqrt(256-100)
        f, _, interior = field((3.0, 10.0), V, 1.0)
        assert interior
        assert f[1] == -10.0
        assert float(f[0]) == pytest.approx(12.489995996796797, abs=1e-12)
        assert np.allclose(f, [math.sqrt(156.0), -10.0], atol=1e-12)
        assert np.linalg.norm(f) == pytest.approx(V, abs=1e-12)

    def test_exterior_example(self):
        # phi = 20 exceeds the speed budget: all of v goes lateral
        f, _, interior = field((3.0, 20.0), V, 1.0)
        assert not interior
        assert f[0] == 0.0
        assert np.allclose(f, [0.0, -16.0], atol=1e-12)
        # with twice the budget the same point is interior: u_phi = -20
        f, _, interior = field((3.0, 20.0), 2 * V, 1.0)
        assert interior and f[1] == -20.0

    def test_speed_is_invariant(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            p = rng.uniform(-50, 50, 2)
            g = rng.uniform(-30, 30)
            gd = rng.uniform(-20, 20)
            ke = rng.uniform(0.2, 4.0)
            f = field(p, V, ke, g, gd)[0]
            assert np.linalg.norm(f) == pytest.approx(V, rel=1e-9)

    def test_branch_boundary_is_continuous(self):
        # approach |u_phi| = v from both sides via gamma_dot; the
        # interior side closes like sqrt so the step for a 1e-15
        # relative perturbation is about v*sqrt(2e-15) ~ 7e-7
        p = (3.0, 0.0)
        samples = [
            field(p, V, 1.0, 0.0, V * (1.0 - 1e-15)),
            field(p, V, 1.0, 0.0, V),
            field(p, V, 1.0, 0.0, V * (1.0 + 1e-15)),
        ]
        assert [bool(s[2]) for s in samples] == [True, True, False]
        for a, _, _ in samples:
            for b, _, _ in samples:
                assert np.linalg.norm(a - b) < 1e-6

    def test_gamma_shifts_the_attractor(self):
        # sitting on the offset level set phi = gamma with a static
        # reference, the field is again pure tangent
        f = field((0.0, 4.0), V, 1.0, gamma=4.0)[0]
        assert np.allclose(f, [V, 0.0], atol=1e-14)


class TestClosedLoop:
    def test_error_contracts_at_k_e(self):
        # integrate pdot = f; log|phi| should fall with slope -k_e
        k_e = 1.0
        dt = 1e-3
        p = np.array([0.0, 10.0])

        def f_at(q):
            return field(q, V, k_e)[0]

        times, logs = [], []
        for k in range(5001):
            t = k * dt
            if k % 250 == 0:
                ph = float(p[1])
                if abs(ph) > 1e-6:
                    times.append(t)
                    logs.append(math.log(abs(ph)))
            k1 = f_at(p)
            k2 = f_at(p + 0.5 * dt * k1)
            k3 = f_at(p + 0.5 * dt * k2)
            k4 = f_at(p + dt * k3)
            p = p + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        slope = np.polyfit(times, logs, 1)[0]
        assert slope == pytest.approx(-k_e, rel=0.02)

    def test_level_rate_matches_u_phi(self):
        # moving with pdot = f gives dphi/dt = grad . f = u_phi on the
        # interior branch and -v sign(phi error) outside
        rng = np.random.default_rng(3)
        for _ in range(100):
            p = rng.uniform(-40, 40, 2)
            g = rng.uniform(-25, 25)
            f, _, interior = field(p, V, 1.0, g)
            rate = float(NORMAL @ f)
            if interior:
                assert rate == pytest.approx(-(p[1] - g), abs=1e-6)
            else:
                assert abs(rate) == pytest.approx(V, abs=1e-9)


class TestFieldDerivative:
    def test_matches_finite_difference(self):
        # compare f_dot against a central difference of f along the
        # actual motion p(t) = p + t pdot, gamma(t) quadratic. States
        # within 1% of v of the branch switch are skipped: the sqrt
        # makes the true derivative curvature unbounded there and the
        # FD stencil loses validity, not the analytic formula.
        rng = np.random.default_rng(11)
        k_e = 1.0
        h = 1e-5
        checked = 0
        while checked < 200:
            p = rng.uniform(-40, 40, 2)
            pd = rng.uniform(-V, V, 2)
            g0, g1, g2 = rng.uniform(-15, 15), rng.uniform(-10, 10), rng.uniform(-5, 5)
            if abs(abs(-k_e * (p[1] - g0) + g1) - V) < 0.01 * V:
                continue
            f_dot = field(p, V, k_e, g0, g1, gamma_ddot=g2, p_dot=pd)[1]
            checked += 1

            def f_at(tau):
                gg = g0 + g1 * tau + 0.5 * g2 * tau * tau
                ggd = g1 + g2 * tau
                return field(p + tau * pd, V, k_e, gg, ggd)[0]

            fd = (f_at(h) - f_at(-h)) / (2 * h)
            assert np.linalg.norm(f_dot - fd) < 1e-4 * V, (p, pd, g0, g1, g2)

    def test_exterior_rate_is_zero_for_lines(self):
        # outside the speed budget f = -v n_hat regardless of phi, so
        # its time derivative vanishes while the branch persists
        _, f_dot, interior = field((0.0, 40.0), V, 1.0, 0.0, 0.0, gamma_ddot=0.0, p_dot=(V, 0.0))
        assert not interior
        assert np.linalg.norm(f_dot) < 1e-12


class TestCore:
    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(5)
        n = 64
        pts = rng.uniform(-60, 60, (n, 2))
        gam = rng.uniform(-20, 20, n)
        gad = rng.uniform(-15, 15, n)
        normal = np.broadcast_to(NORMAL[:, None], (2, n))
        tangent = np.broadcast_to(TANGENT[:, None], (2, n))
        f, _, interior = core(pts[:, 1], normal, tangent, V, 1.0, gam, gad,
                              np.zeros(n), np.zeros((2, n)))
        assert interior.any() and not interior.all()
        for i in range(n):
            f_i, _, interior_i = field(pts[i], V, 1.0, gam[i], gad[i])
            assert np.array_equal(f[:, i], f_i)
            assert interior[i] == interior_i

    def test_per_drone_gain_array(self):
        # two drones, component-first: both normals (0, 1), both tangents (1, 0)
        phi = np.array([10.0, 10.0])
        normal = np.array([[0.0, 0.0], [1.0, 1.0]])
        tangent = np.array([[1.0, 1.0], [0.0, 0.0]])
        f, _, interior = core(phi, normal, tangent, V, np.array([1.0, 2.0]), 0.0, 0.0,
                              0.0, np.zeros((2, 2)))
        assert interior[0] and not interior[1]
        assert f.shape == (2, 2)
        assert np.array_equal(f[:, 0], [math.sqrt(156.0), -10.0])
        assert np.array_equal(f[:, 1], [0.0, -V])


def _two_branch_core(phi, normal, tangent, speed, k_e, gamma, gamma_dot,
                     gamma_ddot=None, p_dot=None):
    """field_core as it was before the all-interior shortcut: both
    branches always computed, then selected with np.where."""
    phi = np.asarray(phi, dtype=float)
    u_phi = -k_e * (phi - gamma) + gamma_dot
    beta = u_phi[..., None] * normal
    beta_norm = np.abs(u_phi)
    interior = beta_norm <= speed
    alpha = np.sqrt(np.maximum(speed * speed - u_phi * u_phi, 0.0))
    f_interior = alpha[..., None] * tangent + beta
    safe_norm = np.where(interior, 1.0, beta_norm)
    f_exterior = speed * beta / safe_norm[..., None]
    f = np.where(interior[..., None], f_interior, f_exterior)
    f_dot = None
    if gamma_ddot is not None and p_dot is not None:
        phi_dot = np.sum(normal * p_dot, axis=-1)
        u_phi_dot = -k_e * (phi_dot - gamma_dot) + gamma_ddot
        beta_dot = u_phi_dot[..., None] * normal
        alpha_safe = np.maximum(alpha, 1e-6 * speed)
        alpha_dot = -(u_phi * u_phi_dot) / alpha_safe
        f_dot_interior = alpha_dot[..., None] * tangent + beta_dot
        b_dot_b = np.sum(beta * beta_dot, axis=-1)
        f_dot_exterior = speed * (
            beta_dot / safe_norm[..., None]
            - beta * (b_dot_b / safe_norm**3)[..., None]
        )
        f_dot = np.where(interior[..., None], f_dot_interior, f_dot_exterior)
    return {"f": f, "interior": interior, "f_dot": f_dot}


def _oracle_core(phi, normal, tangent, speed, k_e, gamma, gamma_dot,
                 gamma_ddot=None, p_dot=None):
    """_two_branch_core on (2, ...) vectors as field_core's (f, f_dot,
    interior): the vectors move to the last axis for the oracle and its
    vector results move back."""
    def last(a):
        return None if a is None else np.moveaxis(a, 0, -1)

    want = _two_branch_core(phi, last(normal), last(tangent), speed, k_e, gamma, gamma_dot,
                            gamma_ddot=gamma_ddot, p_dot=last(p_dot))
    f_dot = want["f_dot"]
    return (np.moveaxis(want["f"], -1, 0), None if f_dot is None else np.moveaxis(f_dot, -1, 0),
            want["interior"])


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestCoreShortcut:
    """field_core is bitwise equal to the two-branch formula on any mix."""

    @staticmethod
    def inputs(shape, case, seed):
        rng = np.random.default_rng(seed)
        heading = rng.uniform(-math.pi, math.pi, shape)
        tangent = np.stack([np.cos(heading), np.sin(heading)])
        normal = np.stack([-tangent[1], tangent[0]])
        gam = rng.uniform(-5.0, 5.0, shape)
        # |u_phi| <= 8 + 5 + 3 < V inside; >= 30 - 5 - 3 > V outside
        near = rng.uniform(-8.0, 8.0, shape)
        far = rng.choice([-1.0, 1.0], shape) * rng.uniform(30.0, 60.0, shape)
        if case == "interior":
            offset = near
        elif case == "exterior":
            offset = far
        else:
            offset = np.where(rng.random(shape) < 0.5, near, far)
            offset.flat[0], offset.flat[-1] = near.flat[0], far.flat[-1]
        phi = gam + offset
        gad = rng.uniform(-3.0, 3.0, shape)
        gadd = rng.uniform(-2.0, 2.0, shape)
        vel_heading = rng.uniform(-math.pi, math.pi, shape)
        p_dot = V * np.stack([np.cos(vel_heading), np.sin(vel_heading)])
        return phi, normal, tangent, gam, gad, gadd, p_dot

    @pytest.mark.parametrize("with_dot", [False, True], ids=["no-f_dot", "f_dot"])
    @pytest.mark.parametrize(
        "shape,case",
        [
            ((), "interior"), ((), "exterior"),
            ((8,), "interior"), ((8,), "mixed"), ((8,), "exterior"),
            ((3, 8), "interior"), ((3, 8), "mixed"), ((3, 8), "exterior"),
        ],
        ids=lambda v: ("x".join(map(str, v)) or "0d") if isinstance(v, tuple) else v,
    )
    def test_bitwise_equal_to_two_branch_formula(self, shape, case, with_dot):
        for seed in range(5):
            phi, normal, tangent, gam, gad, gadd, p_dot = self.inputs(shape, case, seed)
            if shape == ():
                phi, gam, gad, gadd = float(phi), float(gam), float(gad), float(gadd)
            if with_dot:
                want = _oracle_core(phi, normal, tangent, V, 1.0, gam, gad,
                                    gamma_ddot=gadd, p_dot=p_dot)
            else:
                # the oracle takes no rate inputs, and field_core gets NaN
                # ones: f and the branch flag must not read them
                want = _oracle_core(phi, normal, tangent, V, 1.0, gam, gad)
                gadd, p_dot = np.full_like(gam, np.nan), np.full_like(p_dot, np.nan)
            got = core(phi, normal, tangent, V, 1.0, gam, gad, gadd, p_dot)
            interior = np.asarray(want[2])
            if case == "interior":
                assert interior.all()
            elif case == "exterior":
                assert not interior.any()
            else:
                assert interior.any() and not interior.all()
            for key, a, b in zip(("f", "f_dot", "interior"), got, want):
                if b is not None:
                    assert _same_bits(a, b), (key, seed)
            assert want[1] is not None or np.isnan(got[1]).all()

    def test_signed_zero_row(self):
        # two drones flying east on the x axis, normal (-0, 1), velocity
        # (16, -0): every product in phi_dot = n . p_dot is -0.0, and so
        # is every product in the exterior drone's beta . beta_dot. The
        # component reduction sums those pairs to +0.0, an explicit
        # a[0]*b[0] + a[1]*b[1] to -0.0, which flips a zero of f_dot.
        phi = np.array([0.0, 20.0])
        normal = np.array([[-0.0, -0.0], [1.0, 1.0]])
        tangent = np.array([[1.0, 1.0], [0.0, 0.0]])
        gadd, p_dot = np.array([-0.0, 0.0]), np.array([[V, V], [-0.0, -0.0]])
        got = core(phi, normal, tangent, V, 1.0, 0.0, 0.0, gadd, p_dot)
        want = _oracle_core(phi, normal, tangent, V, 1.0, 0.0, 0.0, gamma_ddot=gadd, p_dot=p_dot)
        assert list(want[2]) == [True, False]
        for key, a, b in zip(("f", "f_dot", "interior"), got, want):
            assert _same_bits(a, b), key
