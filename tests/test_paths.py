"""Straight-line geometry as the package ships it.

Each drone's line lives in the Scenario's (2, N) origin, tangent and
normal arrays. Line i passes through o_i with heading alpha from +x:
unit tangent (cos a, sin a) and left normal (-sin a, cos a). A drone
placed at path parameter x and offset d starts at o_i + x t + d n, and
run's first history row measures it back: x is the signed arc length
from o_i and phi the signed offset, positive to the left of travel.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gvfswarm.scenario import ScenarioError, build_scenario
from gvfswarm.sim import run

ANGLES = [0.0, math.pi / 6, math.pi / 4, math.pi / 2, 1.0, 2.5, -0.7, -math.pi, 3.0]

finite = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False)
angle = st.floats(min_value=-2 * math.pi, max_value=2 * math.pi, allow_nan=False)


def lines(alpha, origins, parameters, offsets=0.0):
    """One drone per line, drone i placed at parameters[i] and offsets[i]."""
    n = len(origins)
    return build_scenario({
        "name": "lines",
        "speed_mps": 16.0,
        "dt_s": 0.02,
        "t_end_s": 0.02,
        "graph": {"n_drones": n, "edges": [[i, i + 1] for i in range(1, n)]},
        "paths": {"alpha_rad": alpha, "origins_m": [list(o) for o in origins]},
        "oscillation": {"w_gamma_rad_s": 0.6},
        "consensus": {"k_u": 0.06, "r_m": 150.0},
        "initial": {"parameters_m": list(parameters), "offsets_m": offsets},
    })


def first_row(sc):
    """The path parameters and offsets phi that run measures at t = 0."""
    res = run(sc)
    return res.path_parameters[0], res.phis[0]


class TestParametricPoint:
    def test_along_x_axis(self):
        sc = lines(0.0, [(0.0, 0.0)], [10.0])
        assert np.allclose(sc.initial_positions()[0], [10.0, 0.0], atol=0)

    def test_zero_parameter_is_origin(self):
        sc = lines(1.234, [(-3.5, 8.25)], [0.0])
        assert np.allclose(sc.initial_positions()[0], [-3.5, 8.25], atol=0)

    def test_vertical_line(self):
        p = lines(math.pi / 2, [(1.0, 0.0)], [5.0]).initial_positions()[0]
        assert p[1] == pytest.approx(5.0, abs=1e-12)
        assert p[0] == pytest.approx(1.0, abs=1e-12)

    def test_array_input(self):
        pts = lines(0.0, [(0.0, 0.0)] * 3, [1.0, 2.0, 3.0]).initial_positions()
        assert pts.shape == (3, 2)
        assert np.allclose(pts[:, 0], [1.0, 2.0, 3.0])


class TestPathParameter:
    def test_along_x_axis(self):
        x, _ = first_row(lines(0.0, [(0.0, 0.0)], [10.0]))
        assert x[0] == pytest.approx(10.0, abs=1e-12)

    def test_off_path_projects(self):
        # lateral offset must not affect the along-track parameter
        x, phi = first_row(lines(0.0, [(0.0, 0.0)], [3.0], 4.0))
        assert x[0] == pytest.approx(3.0, abs=1e-12)
        assert phi[0] == pytest.approx(4.0, abs=1e-12)

    @given(x=finite, a=angle, ox=finite, oy=finite)
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, x, a, ox, oy):
        back, _ = first_row(lines(a, [(ox, oy)], [x]))
        assert back[0] == pytest.approx(x, abs=1e-8 * max(1.0, abs(x), abs(ox), abs(oy)))


class TestPhi:
    def test_horizontal_line_offset(self):
        sc = lines(0.0, [(0.0, 0.0)], [3.0], 2.0)
        assert np.allclose(sc.initial_positions()[0], [3.0, 2.0], atol=1e-12)
        assert first_row(sc)[1][0] == pytest.approx(2.0, abs=1e-12)

    def test_vertical_line_offset(self):
        sc = lines(math.pi / 2, [(1.0, 1.0)], [6.0], 1.0)
        assert np.allclose(sc.initial_positions()[0], [0.0, 7.0], atol=1e-12)
        assert first_row(sc)[1][0] == pytest.approx(1.0, abs=1e-12)

    def test_positive_on_the_left_of_travel(self):
        # travel along +x puts the left side at +y
        sc = lines(0.0, [(0.0, 0.0)] * 2, [0.0, 0.0], [5.0, -5.0])
        assert np.array_equal(sc.initial_positions(), [[0.0, 5.0], [0.0, -5.0]])
        phi = first_row(sc)[1]
        assert phi[0] > 0 and phi[1] < 0
        # travel along +y puts the left side at -x
        sc = lines(math.pi / 2, [(0.0, 0.0)], [0.0], 5.0)
        assert np.allclose(sc.initial_positions()[0], [-5.0, 0.0], atol=1e-12)
        assert first_row(sc)[1][0] > 0

    @pytest.mark.parametrize("alpha", ANGLES)
    def test_zero_on_path(self, alpha):
        _, phi = first_row(lines(alpha, [(2.0, -1.0)] * 5, [-50.0, -1.0, 0.0, 3.7, 123.0]))
        assert np.all(np.abs(phi) < 1e-12)

    def test_batched(self):
        _, phi = first_row(lines(0.0, [(0.0, 0.0)] * 3, [0.0, 0.0, 5.0], [1.0, -2.0, 0.5]))
        assert phi.shape == (3,)
        assert np.allclose(phi, [1.0, -2.0, 0.5], atol=1e-12)

    def test_signed_distance_magnitude(self):
        # phi is the exact distance since the normal is unit
        sc = lines(0.7, [(1.0, 2.0)], [4.0], 3.0)
        foot = sc.origins[:, 0] + 4.0 * sc.tangents[:, 0]
        assert np.linalg.norm(sc.initial_positions()[0] - foot) == pytest.approx(3.0, abs=1e-12)
        assert first_row(sc)[1][0] == pytest.approx(3.0, abs=1e-12)


class TestGradientTangentHessian:
    def test_gradient_values(self):
        assert np.allclose(lines(0.0, [(0.0, 0.0)], [0.0]).normals[:, 0], [0.0, 1.0], atol=1e-15)
        assert np.allclose(
            lines(math.pi / 2, [(0.0, 0.0)], [0.0]).normals[:, 0], [-1.0, 0.0], atol=1e-12
        )

    @pytest.mark.parametrize("alpha", ANGLES)
    def test_gradient_unit_and_orthogonal_to_tangent(self, alpha):
        sc = lines(alpha, [(0.3, -0.4)], [0.0])
        g, t = sc.normals[:, 0], sc.tangents[:, 0]
        assert abs(np.linalg.norm(g) - 1.0) < 1e-12
        assert abs(np.linalg.norm(t) - 1.0) < 1e-12
        assert abs(float(g @ t)) < 1e-12

    @pytest.mark.parametrize("alpha", ANGLES)
    def test_gradient_matches_central_difference(self, alpha):
        # phi's central differences along the tangent and the normal,
        # from four drones around (x, d) = (3.1, 0.2), rebuild its gradient
        eps = 1e-4
        sc = lines(alpha, [(1.0, -2.0)] * 4, [3.1 - eps, 3.1 + eps, 3.1, 3.1],
                   [0.2, 0.2, 0.2 - eps, 0.2 + eps])
        phi = first_row(sc)[1]
        t, n = sc.tangents[:, 0], sc.normals[:, 0]
        fd = ((phi[1] - phi[0]) * t + (phi[3] - phi[2]) * n) / (2 * eps)
        assert np.allclose(n, fd, atol=1e-6)

    def test_tangent_heading(self):
        sc = lines(0.7, [(0.0, 0.0)], [0.0])
        assert np.allclose(sc.tangents[:, 0], [math.cos(0.7), math.sin(0.7)], atol=0)

    def test_gradient_broadcasts(self):
        # parallel lines: every drone has the same normal
        g = lines(0.3, [(0.0, 0.0), (5.0, -1.0), (0.0, 9.0), (-2.0, 2.0)], [0.0] * 4).normals
        assert g.shape == (2, 4)
        assert np.allclose(g, g[:, :1], atol=0)


class TestValidation:
    def test_rejects_non_finite(self):
        with pytest.raises(ScenarioError, match="paths.origins_m"):
            lines(0.0, [(math.nan, 0.0)], [0.0])
        with pytest.raises(ScenarioError, match="paths.alpha_rad"):
            lines(math.inf, [(0.0, 0.0)], [0.0])
