"""Tests for the convolution oracle's closed forms, the Gauss-Hermite
expectation, and the quadrature reference that checks both."""

import numpy as np
import pytest

from bundleopt.errors import ConfigurationError
from bundleopt.functions import get_test_function
from bundleopt.oracle import convolution_oracle, gauss_hermite_expectation
from bundleopt.smoothing import SmoothingDistribution

from oracles import CLOSED_FORMS, quadrature_smoothing

# each catalog function's (breakpoints, continuous), as the quadrature needs them
PIECES = {"wiggly_quadratic": ((), True), "heaviside": ((0.0,), False),
          "vee": ((0.0,), False)}


class TestConvolutionOracle:
    def test_constant_function(self):
        dist = SmoothingDistribution.isotropic(1, 0.5)
        value, grad = quadrature_smoothing(lambda x: 2.5, [0.7], dist)
        assert value == pytest.approx(2.5, rel=1e-12)
        assert grad[0] == pytest.approx(0.0, abs=1e-10)

    def test_heaviside_midpoint(self):
        f = get_test_function("heaviside")
        dist = SmoothingDistribution.isotropic(1, 1.0)
        value, grad = convolution_oracle(f, [0.0], dist)
        assert value == pytest.approx(0.5, rel=1e-10)
        assert grad[0] == pytest.approx(1.0 / np.sqrt(2 * np.pi), rel=1e-10)

    def test_wiggly_at_origin(self):
        f = get_test_function("wiggly_quadratic")
        dist = SmoothingDistribution.isotropic(1, 0.2)
        value, _ = convolution_oracle(f, [0.0], dist)
        assert value == pytest.approx(0.04, rel=1e-9)

    @pytest.mark.parametrize("fid", ["wiggly_quadratic", "heaviside", "vee"])
    @pytest.mark.parametrize("sigma", [0.05, 0.2, 1.0])
    def test_matches_closed_forms(self, fid, sigma):
        # the package closed form, the quadrature and scipy.stats agree pairwise
        f = get_test_function(fid)
        breakpoints, continuous = PIECES[fid]
        dist = SmoothingDistribution.isotropic(1, sigma)
        for x in (-1.3, -0.2, 0.0, 0.45, 2.0, -8.0 * sigma, 8.0 * sigma):
            results = [convolution_oracle(f, [x], dist),
                       quadrature_smoothing(f, [x], dist, grad_f=f.gradient,
                                            breakpoints=breakpoints, continuous=continuous),
                       CLOSED_FORMS[fid](x, sigma)]
            values = [float(value) for value, _ in results]
            grads = [float(np.ravel(grad)[0]) for _, grad in results]
            for i, j in ((0, 1), (1, 2), (0, 2)):
                assert values[i] == pytest.approx(values[j], rel=1e-6, abs=1e-10), (x, i, j)
                assert grads[i] == pytest.approx(grads[j], rel=1e-6, abs=1e-8), (x, i, j)
            if abs(x) == 8.0 * sigma:
                # tails: the closed form keeps Phi(-8) = 6.2e-16 to full precision
                assert values[0] == pytest.approx(values[2], rel=1e-12, abs=0.0)
                assert grads[0] == pytest.approx(grads[2], rel=1e-12, abs=0.0)

    def test_rejects_functions_and_points_without_a_closed_form(self):
        dist = SmoothingDistribution.isotropic(1, 0.3)
        with pytest.raises(ConfigurationError, match="closed-form"):
            convolution_oracle(lambda p: float(p[0]) ** 2, [0.1], dist)
        with pytest.raises(ConfigurationError, match="one-dimensional"):
            convolution_oracle(get_test_function("vee"), [0.1, 0.2],
                               SmoothingDistribution.isotropic(2, 0.3))

    def test_two_dimensional_quadratic(self):
        dist = SmoothingDistribution([0.09, 0.04])
        value, grad = quadrature_smoothing(
            lambda p: p[0]**2 + 3.0 * p[1]**2, [1.0, -1.0], dist, points=41,
            grad_f=lambda p: np.array([2*p[0], 6*p[1]]))
        assert value == pytest.approx(1.0 + 0.09 + 3.0 * (1.0 + 0.04), rel=1e-10)
        np.testing.assert_allclose(grad, [2.0, -6.0], rtol=1e-10)

    def test_score_function_gradient_without_analytic_gradient(self):
        dist = SmoothingDistribution([0.04, 0.04])
        _, grad = quadrature_smoothing(lambda p: float(p[0] + 2.0 * p[1]),
                                       [0.3, 0.1], dist, points=31)
        np.testing.assert_allclose(grad, [1.0, 2.0], atol=1e-8)

    def test_dimension_limit(self):
        dist = SmoothingDistribution.isotropic(4, 1.0)
        with pytest.raises(ConfigurationError):
            quadrature_smoothing(lambda p: 0.0, np.zeros(4), dist)

    def test_zero_covariance_rejected(self):
        dist = SmoothingDistribution(np.zeros(1))
        with pytest.raises(ConfigurationError):
            convolution_oracle(get_test_function("heaviside"), [0.0], dist)

    def test_gauss_hermite_matches_piecewise_on_smooth_input(self):
        f = get_test_function("wiggly_quadratic")
        dist = SmoothingDistribution.isotropic(1, 0.3)
        gh = gauss_hermite_expectation(f, np.array([0.2]), dist, 201)
        value, _ = quadrature_smoothing(f, [0.2], dist)
        assert gh == pytest.approx(value, rel=1e-9)


class TestGaussHermiteVectorOutput:
    def test_strided_vectorized_values_sum_like_the_loop(self):
        # a vectorized f may return a column view; the expectation must not
        # depend on that layout (a strided dot product sums in another order)
        def column(p):
            return np.stack([p[:, 0] * p[:, 1] + p[:, 0], p[:, 1]], axis=1)[:, 0]
        column.vectorized = True
        dist = SmoothingDistribution.isotropic(2, 0.3)
        x = np.array([0.4, -0.7])
        assert gauss_hermite_expectation(column, x, dist, 31) == \
            gauss_hermite_expectation(lambda p: p[0] * p[1] + p[0], x, dist, 31)
