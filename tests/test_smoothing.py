"""Tests for the Monte-Carlo smoothing estimators."""

import numpy as np
import pytest

from bundleopt.errors import ConfigurationError, SingularRegressionError
from bundleopt.functions import get_test_function
from bundleopt.oracle import convolution_oracle
from bundleopt import irs_lqr
from bundleopt.smoothing import (SmoothingDistribution, bundled_objective_estimate,
                                 first_order_gradient_bundle,
                                 jacobian_bundle_first_order,
                                 jacobian_bundle_zero_order, sample_perturbations,
                                 variance_schedule, zero_order_gradient_bundle)
from bundleopt.irs_lqr import GradientMode, joint_variances, linearize_trajectory, rollout
from bundleopt.systems import LinearSystem, Pendulum
from bundleopt.tasks import build_task

from oracles import CLOSED_FORMS, blended_jacobian_1d, quadrature_smoothing


class TestSmoothingDistribution:
    def test_rejects_negative_variance(self):
        with pytest.raises(ConfigurationError):
            SmoothingDistribution([1.0, -0.5])

    def test_rejects_matrix(self):
        with pytest.raises(ConfigurationError):
            SmoothingDistribution([[1.0, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ConfigurationError):
            SmoothingDistribution([1.0, bad])

    def test_rejects_unknown_kind(self):
        with pytest.raises(TypeError):
            SmoothingDistribution([1.0], kind="uniform")

    def test_samples_are_scaled_standard_normals(self):
        variances = np.array([0.04, 0.0, 2.5, 0.0, 1e-6])
        samples = sample_perturbations(SmoothingDistribution(variances), 50, seed=5)
        expected = np.random.default_rng(5).standard_normal((50, 5)) * np.sqrt(variances)
        np.testing.assert_array_equal(samples, expected)
        assert np.all(samples[:, variances == 0.0] == 0.0)

    def test_symmetry_statistics(self):
        # zero-mean check: sample mean within 4 sigma/sqrt(N) per coordinate
        n = 10**5
        dist = SmoothingDistribution.isotropic(3, 1.0)
        samples = sample_perturbations(dist, n, seed=123)
        assert np.all(np.abs(samples.mean(axis=0)) < 4.0 / np.sqrt(n))

    def test_zero_covariance_samples_are_zero(self):
        samples = sample_perturbations(SmoothingDistribution(np.zeros(2)), 5, seed=9)
        assert samples.shape == (5, 2)
        assert np.all(samples == 0.0)

    def test_deterministic_in_seed(self):
        dist = SmoothingDistribution.isotropic(2, 0.3)
        a = sample_perturbations(dist, 64, seed=7)
        b = sample_perturbations(dist, 64, seed=7)
        assert np.array_equal(a, b)
        c = sample_perturbations(dist, 64, seed=8)
        assert not np.array_equal(a, c)

    def test_frozen_coordinates_stay_zero(self):
        samples = sample_perturbations(SmoothingDistribution([0.0, 0.04]), 100, seed=1)
        assert np.all(samples[:, 0] == 0.0)
        assert np.any(samples[:, 1] != 0.0)

    def test_count_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            sample_perturbations(SmoothingDistribution.isotropic(1, 1.0), 0, seed=0)


class TestBundledObjective:
    def test_constant_function(self):
        dist = SmoothingDistribution.isotropic(1, 2.0)
        est = bundled_objective_estimate(lambda x: 3.0, [0.0], dist, 50, seed=0)
        assert est.value == pytest.approx(3.0, abs=0.0)
        assert est.empirical_variance == pytest.approx(0.0, abs=0.0)

    def test_quadratic_moment_identity(self):
        # E[(x+w)^2] at x=0 equals sigma^2
        sigma = 0.7
        dist = SmoothingDistribution.isotropic(1, sigma)
        est = bundled_objective_estimate(lambda x: float(x[0]) ** 2, [0.0], dist,
                                         200000, seed=11)
        bound = 4.0 * np.sqrt(est.empirical_variance / est.sample_count)
        assert abs(est.value - sigma**2) < bound

    def test_wiggly_matches_closed_form(self):
        sigma = 0.2
        f = get_test_function("wiggly_quadratic")
        dist = SmoothingDistribution.isotropic(1, sigma)
        for x in (-0.8, 0.0, 0.6):
            est = bundled_objective_estimate(f, [x], dist, 40000, seed=5)
            expected, _ = CLOSED_FORMS["wiggly_quadratic"](x, sigma)
            bound = 4.0 * np.sqrt(est.empirical_variance / est.sample_count)
            assert abs(est.value - expected) < max(bound, 1e-12)


class TestFirstOrderBundle:
    def test_linear_function_is_exact(self):
        a = np.array([1.5, -2.0])
        dist = SmoothingDistribution.isotropic(2, 1.0)
        est = first_order_gradient_bundle(lambda x: float(a @ x), lambda x: a,
                                          [0.3, 0.4], dist, 17, seed=2)
        assert np.array_equal(est.value, a)

    def test_heaviside_is_exactly_zero(self):
        f = get_test_function("heaviside")
        for sigma in (0.05, 1.0):
            dist = SmoothingDistribution.isotropic(1, sigma)
            for n in (10, 1000):
                est = first_order_gradient_bundle(f, f.gradient, [0.0], dist, n, seed=n)
                assert est.value[0] == 0.0

    def test_vee_quantization(self):
        f = get_test_function("vee")
        dist = SmoothingDistribution.isotropic(1, 0.5)
        rng = np.random.default_rng(0)
        for n in (10, 100):
            allowed = {(2 * k - n) / n for k in range(n + 1)}
            for _ in range(50):
                x = float(rng.uniform(-2, 2))
                est = first_order_gradient_bundle(f, f.gradient, [x], dist, n,
                                                  seed=int(rng.integers(2**31)))
                assert float(est.value[0]) in allowed


class TestZeroOrderBundle:
    def test_linear_function_recovered(self):
        a = np.array([2.0, -1.0, 0.5])
        dist = SmoothingDistribution.isotropic(3, 0.4)
        est = zero_order_gradient_bundle(lambda x: float(a @ x), [0.1, 0.2, -0.3],
                                         dist, 50, seed=3)
        np.testing.assert_allclose(est.value, a, atol=1e-10)

    def test_heaviside_recovers_smoothed_slope(self):
        f = get_test_function("heaviside")
        sigma = 1.0
        dist = SmoothingDistribution.isotropic(1, sigma)
        est = zero_order_gradient_bundle(f, [0.0], dist, 10**5, seed=17)
        expected = 1.0 / (sigma * np.sqrt(2.0 * np.pi))
        assert abs(est.value[0] - expected) < 0.1 * expected

    def test_quadratic_slope_converges(self):
        dist = SmoothingDistribution.isotropic(1, 0.3)
        est = zero_order_gradient_bundle(lambda x: float(x[0]) ** 2, [1.0], dist,
                                         200000, seed=4)
        # the smoothed quadratic has the same slope as the original at x=1
        _, grad = quadrature_smoothing(lambda x: float(x[0]) ** 2, [1.0], dist)
        assert grad[0] == pytest.approx(2.0, abs=1e-9)
        assert abs(est.value[0] - 2.0) < 0.02

    def test_needs_enough_samples(self):
        dist = SmoothingDistribution.isotropic(3, 1.0)
        with pytest.raises(ConfigurationError):
            zero_order_gradient_bundle(lambda x: 0.0, [0.0, 0.0, 0.0], dist, 2, seed=0)

    def test_rank_deficiency_raises(self):
        # a zero-variance coordinate leaves the samples on a line, never spanning R^2
        dist = SmoothingDistribution([1.0, 0.0])
        with pytest.raises(SingularRegressionError):
            zero_order_gradient_bundle(lambda x: float(x[0]), [0.0, 0.0], dist,
                                       100, seed=0)

    @pytest.mark.parametrize("cov", [np.full(2, 0.04), np.zeros(2)])
    def test_vectorized_2d_function_matches_its_scalar_twin(self, cov):
        def f(p):
            return p[0] * p[0] + 3.0 * p[1] * p[1]

        def f_batch(points):
            return points[:, 0] * points[:, 0] + 3.0 * points[:, 1] * points[:, 1]

        f_batch.vectorized = True
        dist = SmoothingDistribution(cov)
        scalar = zero_order_gradient_bundle(f, [0.3, -0.2], dist, 50, seed=3)
        batched = zero_order_gradient_bundle(f_batch, [0.3, -0.2], dist, 50, seed=3)
        np.testing.assert_array_equal(batched.value, scalar.value)
        np.testing.assert_array_equal(batched.empirical_variance, scalar.empirical_variance)


class TestJacobianBundles:
    def setup_method(self):
        rng = np.random.default_rng(8)
        self.sys = LinearSystem(rng.standard_normal((3, 3)) * 0.5,
                                rng.standard_normal((3, 2)))

    def test_lti_first_order_exact(self):
        # averaging N identical Jacobians is exact up to summation rounding
        dist = SmoothingDistribution.isotropic(5, 0.5)
        a, b = jacobian_bundle_first_order(self.sys, np.zeros((1, 3)), np.zeros((1, 2)),
                                           dist, 20, seeds=[0])
        np.testing.assert_allclose(a[0], self.sys.A, rtol=1e-13)
        np.testing.assert_allclose(b[0], self.sys.B, rtol=1e-13)

    def test_lti_zero_order_exact(self):
        dist = SmoothingDistribution.isotropic(5, 0.5)
        a, b = jacobian_bundle_zero_order(self.sys, np.zeros((1, 3)), np.zeros((1, 2)),
                                          dist, 40, seeds=[1])
        np.testing.assert_allclose(a[0], self.sys.A, atol=1e-8)
        np.testing.assert_allclose(b[0], self.sys.B, atol=1e-8)

    def test_heaviside_dynamics_zero_order_sees_jump(self):
        class StepDynamics:
            state_dim = 1
            input_dim = 1

            def step(self, x, u):
                return np.array([1.0 if u[0] >= 0.0 else 0.0])

            def step_batch(self, xs, us):
                return (us >= 0.0).astype(float)

            def jacobians_batch(self, xs, us):
                return np.zeros((len(xs), 1, 1)), np.zeros((len(xs), 1, 1))

        sigma = 0.5
        dist = SmoothingDistribution([sigma**2, sigma**2])
        sys = StepDynamics()
        a1, b1 = jacobian_bundle_first_order(sys, [[0.0]], [[0.0]], dist, 1000, seeds=[0])
        assert b1[0, 0, 0] == 0.0
        _, b0 = jacobian_bundle_zero_order(sys, [[0.0]], [[0.0]], dist, 10**5, seeds=[0])
        density_at_zero = 1.0 / (sigma * np.sqrt(2 * np.pi))
        assert abs(b0[0, 0, 0] - density_at_zero) < 0.1 * density_at_zero

    def test_zero_covariance_zero_order_rejected(self):
        # The planner sends all-zero variances to the exact linearization
        # (test_zero_covariance_makes_all_modes_identical); the fit itself has
        # nothing to regress on.
        dist = SmoothingDistribution(np.zeros(5))
        with pytest.raises(ConfigurationError, match="variance in every"):
            jacobian_bundle_zero_order(self.sys, np.zeros((1, 3)), np.zeros((1, 2)),
                                       dist, 100, seeds=[0])

    @pytest.mark.parametrize("bundle", [jacobian_bundle_first_order, jacobian_bundle_zero_order])
    def test_one_knot_is_a_stack_of_one(self, bundle):
        dist = SmoothingDistribution.isotropic(5, 0.5)
        with pytest.raises(ConfigurationError, match="stack"):
            bundle(self.sys, np.zeros(3), np.zeros(2), dist, 40, seeds=[0])
        with pytest.raises(ConfigurationError, match="stack"):
            bundle(self.sys, np.zeros((2, 3)), np.zeros((2, 2)), dist, 40, seeds=[0])
        a, b = bundle(self.sys, np.zeros((1, 3)), np.zeros((1, 2)), dist, 40, seeds=[0])
        assert a.shape == (1, 3, 3) and b.shape == (1, 3, 2)

    def test_partially_frozen_zero_order_rejected(self):
        dist = SmoothingDistribution([0.0, 0.0, 0.0, 0.1, 0.1])
        with pytest.raises(ConfigurationError):
            jacobian_bundle_zero_order(self.sys, np.zeros((1, 3)), np.zeros((1, 2)),
                                       dist, 100, seeds=[0])

    def test_contact_jacobian_blend_far_from_boundary(self):
        from bundleopt.contact import Contact1DParams, ContactPush1D

        params = Contact1DParams(m=1.0, h=0.1, k=100.0)
        sys = ContactPush1D(params)
        sigma = 0.1
        command = 1.0 - 5.0 * sigma          # five sigma below the boundary
        dist = SmoothingDistribution([0.0, 0.0, sigma**2])
        a, b = jacobian_bundle_first_order(sys, [[1.0, 0.0]], [[command]], dist,
                                           10000, seeds=[0])
        a_ref, b_ref = blended_jacobian_1d(1.0, command, 0.0, params.c_ratio)
        assert np.max(np.abs(a[0] - a_ref)) < 1e-3
        assert np.max(np.abs(b[0] - b_ref)) < 1e-3

    def test_contact_jacobian_blend_at_boundary(self):
        from bundleopt.contact import Contact1DParams, ContactPush1D

        params = Contact1DParams(m=1.0, h=0.1, k=100.0)
        sys = ContactPush1D(params)
        sigma = 0.1
        dist = SmoothingDistribution([0.0, 0.0, sigma**2])
        (a,), (b,) = jacobian_bundle_first_order(sys, [[1.0, 0.0]], [[1.0]], dist,
                                                 100000, seeds=[0])
        # equal-weight blend of the two pieces
        blend = 0.5 / (1.0 + params.c_ratio)
        assert b[0, 0] == pytest.approx(blend, rel=0.02)
        a_ref, b_ref = blended_jacobian_1d(1.0, 1.0, sigma, params.c_ratio)
        np.testing.assert_allclose(b, b_ref, atol=0.01)
        np.testing.assert_allclose(a, a_ref, atol=0.01)

    def test_zero_order_matches_first_order_on_continuous_dynamics(self):
        # the 1D contact dynamics is continuous, so both bundles agree
        from bundleopt.contact import Contact1DParams, ContactPush1D

        params = Contact1DParams(m=1.0, h=0.1, k=100.0)
        sys = ContactPush1D(params)
        sigma = 0.2
        dist = SmoothingDistribution(np.full(3, sigma**2))
        n = 20000
        a1, b1 = jacobian_bundle_first_order(sys, [[1.0, 0.0]], [[1.0]], dist, n, seeds=[3])
        a0, b0 = jacobian_bundle_zero_order(sys, [[1.0, 0.0]], [[1.0]], dist, n, seeds=[4])
        # three standard errors of the first-order estimate (entries are
        # Bernoulli blends, variance <= 0.25/n per entry)
        tol = 3.0 * np.sqrt(0.25 / n) * 3.0
        assert np.max(np.abs(a1 - a0)) < tol
        assert np.max(np.abs(b1 - b0)) < tol


class TestVarianceSchedule:
    def test_geometric_identity_at_zero(self):
        cov = np.diag([2.0, 3.0])
        np.testing.assert_array_equal(variance_schedule(cov, 0, "geometric", 0.5), cov)

    def test_geometric_decay(self):
        cov = 4.0 * np.eye(2)
        out = variance_schedule(cov, 3, "geometric", 0.5)
        np.testing.assert_allclose(out, 0.5 * np.eye(2))

    def test_constant(self):
        cov = np.diag([1.0, 2.0])
        np.testing.assert_array_equal(variance_schedule(cov, 17, "constant"), cov)

    def test_bad_gamma(self):
        with pytest.raises(ConfigurationError):
            variance_schedule(np.eye(1), 1, "geometric", 1.5)

    def test_square_summability_of_geometric(self):
        gamma = 0.8
        partial = sum(np.linalg.norm(variance_schedule(np.eye(1), k, "geometric", gamma))**2
                      for k in range(1000))
        closed_form = 1.0 / (1.0 - gamma**2)   # sum over k of (gamma^k)^2
        assert partial == pytest.approx(closed_form, rel=1e-9)


class TestStatisticalInvariants:
    def test_lemma_smoothed_gradient_is_gradient_of_smoothed(self):
        # central difference of the closed-form smoothed value matches its
        # closed-form gradient for every catalog function and several widths
        for fid in ("wiggly_quadratic", "heaviside", "vee"):
            f = get_test_function(fid)
            for sigma in (0.05, 0.2, 1.0):
                dist = SmoothingDistribution.isotropic(1, sigma)
                for x in (-0.31, 0.17):
                    delta = 1e-3 * sigma
                    vp, _ = convolution_oracle(f, [x + delta], dist)
                    vm, _ = convolution_oracle(f, [x - delta], dist)
                    _, grad = convolution_oracle(f, [x], dist)
                    fd = (vp - vm) / (2 * delta)
                    scale = max(abs(grad[0]), 1e-6)
                    assert abs(fd - grad[0]) / scale < 1e-4, (fid, sigma, x)

    def test_law_of_large_numbers_continuous_function(self):
        # for the continuous catalog function the first-order bundle lands
        # within its own CLT bound of the oracle gradient
        f = get_test_function("wiggly_quadratic")
        sigma, x, n = 0.2, 0.4, 10**4
        dist = SmoothingDistribution.isotropic(1, sigma)
        _, grad = convolution_oracle(f, [x], dist)
        hits = 0
        for seed in range(100):
            est = first_order_gradient_bundle(f, f.gradient, [x], dist, n, seed=seed)
            bound = 4.0 * np.sqrt(est.empirical_variance[0] / n)
            hits += abs(est.value[0] - grad[0]) <= bound
        assert hits >= 95

    def test_discontinuity_gap_equals_jump_times_density(self):
        # first-order sampling misses exactly jump * density(x)
        f = get_test_function("heaviside")
        sigma = 0.7
        dist = SmoothingDistribution.isotropic(1, sigma)
        _, grad = convolution_oracle(f, [0.0], dist)
        for seed in range(20):
            est = first_order_gradient_bundle(f, f.gradient, [0.0], dist, 1000, seed=seed)
            assert est.value[0] == 0.0
        density = 1.0 / (sigma * np.sqrt(2 * np.pi))
        assert grad[0] == pytest.approx(1.0 * density, rel=1e-8)

    def test_zero_variance_degeneracy(self):
        # all samples sit on the nominal point; the only deviation left is
        # the rounding of the N-term mean
        f = get_test_function("wiggly_quadratic")
        dist = SmoothingDistribution(np.zeros(1))
        est = bundled_objective_estimate(f, [0.3], dist, 10, seed=0)
        assert est.value == pytest.approx(float(f(0.3)), rel=1e-14)
        grad_est = first_order_gradient_bundle(f, f.gradient, [0.3], dist, 10, seed=0)
        assert grad_est.value[0] == pytest.approx(float(f.gradient(0.3)), rel=1e-14)
        zo = zero_order_gradient_bundle(f, [0.3], dist, 10, seed=0)
        assert zo.value[0] == pytest.approx(float(f.gradient(0.3)), abs=1e-6)

    def test_determinism_of_estimators(self):
        f = get_test_function("vee")
        dist = SmoothingDistribution.isotropic(1, 0.5)
        a = bundled_objective_estimate(f, [0.1], dist, 1000, seed=42)
        b = bundled_objective_estimate(f, [0.1], dist, 1000, seed=42)
        assert a.value == b.value
        assert np.array_equal(a.empirical_variance, b.empirical_variance)


class TestOneBatchedCallPerGroup:
    """A trajectory's bundles evaluate a whole group of knots in one call on the dynamics."""

    @pytest.mark.parametrize("kind", ["first_order_bundle", "zero_order_bundle"])
    @pytest.mark.parametrize("task", ["quadrotor_hover", "pendulum_swingup"])
    def test_linearization_calls(self, task, kind, monkeypatch):
        setup = build_task(task)
        cls = type(setup.system)
        calls = {name: [] for name in ("step", "step_batch", "jacobians_batch")}
        for name, log in calls.items():
            def spy(self, x, u, _original=getattr(cls, name), _log=log):
                _log.append(np.array(x))
                return _original(self, x, u)
            monkeypatch.setattr(cls, name, spy)

        xs = rollout(setup.system, setup.mpc.initial_state, setup.u_init)
        T, n, m = setup.mpc.horizon, setup.mpc.state_dim, setup.mpc.input_dim
        for log in calls.values():
            log.clear()
        mode = GradientMode(kind=kind, samples=100)
        linearize_trajectory(setup.system, xs, setup.u_init, mode,
                             joint_variances(0.01, mode, n, m), 0, 0)

        # A group's Jacobian entries fill at most the budget, or it is one knot.
        group = max(1, irs_lqr._BATCH_BYTES // (100 * n * (n + m) * 8))
        knots = [min(group, T - start) for start in range(0, T, group)]
        assert len(knots) > 1 and (group > 1) == (task == "pendulum_swingup")
        assert calls["step"] == []
        if kind == "first_order_bundle":
            assert calls["step_batch"] == []       # offsets come from the stored rollout
            assert [len(x) for x in calls["jacobians_batch"]] == [k * 100 for k in knots]
        else:
            assert calls["jacobians_batch"] == []
            # each knot's first row is the fit's f(x_t, u_t)
            assert [len(x) for x in calls["step_batch"]] == [k * 101 for k in knots]
            firsts = np.concatenate([x[::101] for x in calls["step_batch"]])
            np.testing.assert_array_equal(firsts, xs[:T])

    def test_exact_linearization_is_one_jacobians_call(self, monkeypatch):
        setup = build_task("pendulum_swingup")
        xs = rollout(setup.system, setup.mpc.initial_state, setup.u_init)
        calls = []

        def spy(self, x, u, _original=Pendulum.jacobians_batch):
            calls.append(len(x))
            return _original(self, x, u)
        monkeypatch.setattr(Pendulum, "jacobians_batch", spy)
        linearize_trajectory(setup.system, xs, setup.u_init, GradientMode(), None, 0, 0)
        assert calls == [setup.mpc.horizon]
