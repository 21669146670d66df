import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gvfswarm.paths import StraightLinePath

ANGLES = [0.0, math.pi / 6, math.pi / 4, math.pi / 2, 1.0, 2.5, -0.7, -math.pi, 3.0]

finite = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False)
angle = st.floats(min_value=-2 * math.pi, max_value=2 * math.pi, allow_nan=False)


class TestParametricPoint:
    def test_along_x_axis(self):
        path = StraightLinePath(origin=(0.0, 0.0), alpha_rad=0.0)
        assert np.allclose(path.parametric_point(10.0), [10.0, 0.0], atol=0)

    def test_zero_parameter_is_origin(self):
        path = StraightLinePath(origin=(-3.5, 8.25), alpha_rad=1.234)
        assert np.allclose(path.parametric_point(0.0), [-3.5, 8.25], atol=0)

    def test_vertical_line(self):
        path = StraightLinePath(origin=(1.0, 0.0), alpha_rad=math.pi / 2)
        p = path.parametric_point(5.0)
        assert p[1] == pytest.approx(5.0, abs=1e-12)
        assert p[0] == pytest.approx(1.0, abs=1e-12)

    def test_array_input(self):
        path = StraightLinePath(origin=(0.0, 0.0), alpha_rad=0.0)
        pts = path.parametric_point(np.array([1.0, 2.0, 3.0]))
        assert pts.shape == (3, 2)
        assert np.allclose(pts[:, 0], [1.0, 2.0, 3.0])


class TestPathParameter:
    def test_along_x_axis(self):
        path = StraightLinePath(origin=(0.0, 0.0), alpha_rad=0.0)
        assert path.path_parameter((10.0, 0.0)) == pytest.approx(10.0, abs=1e-12)

    def test_off_path_projects(self):
        path = StraightLinePath(origin=(0.0, 0.0), alpha_rad=0.0)
        # lateral offset must not affect the along-track parameter
        assert path.path_parameter((3.0, 4.0)) == pytest.approx(3.0, abs=1e-12)

    @given(x=finite, a=angle, ox=finite, oy=finite)
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, x, a, ox, oy):
        path = StraightLinePath(origin=(ox, oy), alpha_rad=a)
        back = path.path_parameter(path.parametric_point(x))
        assert back == pytest.approx(x, abs=1e-8 * max(1.0, abs(x), abs(ox), abs(oy)))


class TestPhi:
    def test_horizontal_line_offset(self):
        path = StraightLinePath(origin=(0.0, 0.0), alpha_rad=0.0)
        assert path.phi((3.0, 2.0)) == pytest.approx(2.0, abs=1e-12)

    def test_vertical_line_offset(self):
        path = StraightLinePath(origin=(1.0, 1.0), alpha_rad=math.pi / 2)
        assert path.phi((0.0, 7.0)) == pytest.approx(1.0, abs=1e-12)

    def test_positive_on_the_left_of_travel(self):
        # travel along +x puts the left side at +y
        path = StraightLinePath(origin=(0.0, 0.0), alpha_rad=0.0)
        assert path.phi((0.0, 5.0)) > 0
        assert path.phi((0.0, -5.0)) < 0
        # travel along +y puts the left side at -x
        path = StraightLinePath(origin=(0.0, 0.0), alpha_rad=math.pi / 2)
        assert path.phi((-5.0, 0.0)) > 0

    @pytest.mark.parametrize("alpha", ANGLES)
    def test_zero_on_path(self, alpha):
        path = StraightLinePath(origin=(2.0, -1.0), alpha_rad=alpha)
        for x in (-50.0, -1.0, 0.0, 3.7, 123.0):
            assert abs(path.phi(path.parametric_point(x))) < 1e-12

    def test_batched(self):
        path = StraightLinePath(origin=(0.0, 0.0), alpha_rad=0.0)
        vals = path.phi(np.array([[0.0, 1.0], [0.0, -2.0], [5.0, 0.5]]))
        assert vals.shape == (3,)
        assert np.allclose(vals, [1.0, -2.0, 0.5], atol=1e-12)

    def test_signed_distance_magnitude(self):
        # phi is the exact distance since the gradient is unit
        path = StraightLinePath(origin=(1.0, 2.0), alpha_rad=0.7)
        p = path.parametric_point(4.0) + 3.0 * path.gradient((0.0, 0.0))
        assert path.phi(p) == pytest.approx(3.0, abs=1e-12)


class TestGradientTangentHessian:
    def test_gradient_values(self):
        assert np.allclose(
            StraightLinePath(origin=(0.0, 0.0), alpha_rad=0.0).gradient((1.0, 1.0)),
            [0.0, 1.0], atol=1e-15,
        )
        assert np.allclose(
            StraightLinePath(origin=(0.0, 0.0), alpha_rad=math.pi / 2).gradient((1.0, 1.0)),
            [-1.0, 0.0], atol=1e-12,
        )

    @pytest.mark.parametrize("alpha", ANGLES)
    def test_gradient_unit_and_orthogonal_to_tangent(self, alpha):
        path = StraightLinePath(origin=(0.3, -0.4), alpha_rad=alpha)
        g = path.gradient((7.0, -3.0))
        t = path.tangent()
        assert abs(np.linalg.norm(g) - 1.0) < 1e-12
        assert abs(np.linalg.norm(t) - 1.0) < 1e-12
        assert abs(float(g @ t)) < 1e-12

    @pytest.mark.parametrize("alpha", ANGLES)
    def test_gradient_matches_central_difference(self, alpha):
        path = StraightLinePath(origin=(1.0, -2.0), alpha_rad=alpha)
        p = np.array([3.1, 0.2])
        eps = 1e-4
        fd = np.array(
            [
                (path.phi(p + [eps, 0.0]) - path.phi(p - [eps, 0.0])) / (2 * eps),
                (path.phi(p + [0.0, eps]) - path.phi(p - [0.0, eps])) / (2 * eps),
            ]
        )
        assert np.allclose(path.gradient(p), fd, atol=1e-6)

    def test_tangent_heading(self):
        path = StraightLinePath(origin=(0.0, 0.0), alpha_rad=0.7)
        assert np.allclose(path.tangent(), [math.cos(0.7), math.sin(0.7)], atol=0)

    def test_gradient_broadcasts(self):
        path = StraightLinePath(origin=(0.0, 0.0), alpha_rad=0.3)
        g = path.gradient(np.zeros((4, 2)))
        assert g.shape == (4, 2)
        assert np.allclose(g, g[0], atol=0)


class TestValidation:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            StraightLinePath(origin=(math.nan, 0.0), alpha_rad=0.0)
        with pytest.raises(ValueError):
            StraightLinePath(origin=(0.0, 0.0), alpha_rad=math.inf)
