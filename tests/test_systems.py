"""Tests for the benchmark dynamical systems."""

import numpy as np
import pytest

from bundleopt.contact import PenaltyPush1D
from bundleopt.systems import DubinsCar, LinearSystem, Pendulum, Quadrotor, linearize_exact

from oracles import (finite_difference_jacobians, linear_prediction, linearization_residual,
                     pendulum_energy)


def assert_batch_rows_match(sys, xs, us):
    """Row i of step_batch and jacobians_batch equals step and the batch of one, bit for bit."""
    nxt = sys.step_batch(xs, us)
    a, b = sys.jacobians_batch(xs, us)
    assert nxt.shape == (len(xs), sys.state_dim)
    assert a.shape == (len(xs), sys.state_dim, sys.state_dim)
    assert b.shape == (len(xs), sys.state_dim, sys.input_dim)
    for i in range(len(xs)):
        np.testing.assert_array_equal(nxt[i], sys.step(xs[i], us[i]))
        (a_i,), (b_i,) = sys.jacobians_batch(xs[i:i + 1], us[i:i + 1])
        np.testing.assert_array_equal(a[i], a_i)
        np.testing.assert_array_equal(b[i], b_i)


class TestPendulum:
    def test_rest_is_fixed_point(self):
        x = Pendulum().step(np.zeros(2), np.zeros(1))
        np.testing.assert_array_equal(x, np.zeros(2))

    def test_upright_is_fixed_point(self):
        x = Pendulum().step(np.array([np.pi, 0.0]), np.zeros(1))
        np.testing.assert_allclose(x, [np.pi, 0.0], atol=1e-15)

    def test_hand_computed_step(self):
        sys = Pendulum(mass=1.0, length=1.0, gravity=9.81, damping=0.0, h=0.01)
        x = sys.step(np.array([np.pi / 2, 0.0]), np.zeros(1))
        assert x[1] == pytest.approx(-0.0981, abs=1e-12)
        assert x[0] == pytest.approx(np.pi / 2 - 0.000981, abs=1e-12)

    def test_energy_drift_small(self):
        # symplectic integrator: bounded energy error on the undamped system
        sys = Pendulum(damping=0.0, h=1e-4)
        x = np.array([2.0, 0.0])
        e0 = pendulum_energy(sys, x)
        for _ in range(10**4):
            x = sys.step(x, np.zeros(1))
        assert abs(pendulum_energy(sys, x) - e0) / e0 <= 0.01

    def test_batch_matches_scalar(self):
        sys = Pendulum(damping=0.2, h=0.05)
        xs = np.array([[0.3, -1.0], [2.0, 0.5]])
        us = np.array([[0.7], [-0.2]])
        batch = sys.step_batch(xs, us)
        for i in range(2):
            np.testing.assert_array_equal(batch[i], sys.step(xs[i], us[i]))


class TestDubins:
    def test_zero_input_fixed_point(self):
        x = np.array([0.4, -0.2, 1.1])
        np.testing.assert_array_equal(DubinsCar(h=0.1).step(x, np.zeros(2)), x)

    def test_straight_line(self):
        x = DubinsCar(h=0.1).step(np.zeros(3), np.array([1.0, 0.0]))
        np.testing.assert_allclose(x, [0.1, 0.0, 0.0], atol=1e-15)

    def test_turn(self):
        x = DubinsCar(h=0.1).step(np.zeros(3), np.array([1.0, 1.0]))
        np.testing.assert_allclose(x, [0.1, 0.0, 0.1], atol=1e-15)


class TestQuadrotor:
    def test_hover_balance(self):
        sys = Quadrotor()
        x = np.zeros(12)
        nxt = sys.step(x, sys.hover_thrusts())
        np.testing.assert_allclose(nxt, np.zeros(12), atol=1e-14)

    def test_free_fall(self):
        sys = Quadrotor(h=0.01)
        nxt = sys.step(np.zeros(12), np.zeros(4))
        assert nxt[8] == pytest.approx(-9.81 * 0.01, rel=1e-12)
        assert np.allclose(np.delete(nxt, 8), 0.0)

    def test_pure_yaw_torque(self):
        sys = Quadrotor(h=0.01)
        hover = sys.hover_thrusts()
        d = 0.05
        u = hover + np.array([d, -d, d, -d])
        nxt = sys.step(np.zeros(12), u)
        # only the body yaw rate responds in the first step
        assert abs(nxt[11]) > 1e-6
        np.testing.assert_allclose(np.delete(nxt, 11), 0.0, atol=1e-12)


class TestLinearization:
    def test_linear_system_is_its_own_linearization(self):
        rng = np.random.default_rng(0)
        sys = LinearSystem(rng.standard_normal((3, 3)), rng.standard_normal((3, 2)),
                           rng.standard_normal(3))
        x, u = rng.standard_normal((1, 3)), rng.standard_normal((1, 2))
        lin = linearize_exact(sys, x, u, sys.step_batch(x, u))
        np.testing.assert_array_equal(lin.A, sys.A[None])
        np.testing.assert_array_equal(lin.B, sys.B[None])
        np.testing.assert_allclose(lin.c, sys.c[None], atol=1e-12)

    def test_affine_residual_identity(self):
        sys = Pendulum(damping=0.3, h=0.05)
        x, u = np.array([0.7, -0.4]), np.array([0.9])
        f0 = sys.step(x, u)
        lin = linearize_exact(sys, x[None], u[None], f0[None])
        assert linearization_residual(lin, x[None], u[None], f0[None]) <= 1e-8
        np.testing.assert_allclose(linear_prediction(lin, x[None], u[None]), f0[None],
                                   atol=1e-12)

    def test_pendulum_structure(self):
        sys = Pendulum(mass=1.0, length=1.0, gravity=9.81, damping=0.1, h=0.01)
        (a,) = linearize_exact(sys, np.zeros((1, 2)), np.zeros((1, 1)), np.zeros((1, 2))).A
        # leading-order structure of the semi-implicit step at the bottom
        assert a[0, 1] == pytest.approx(0.01, rel=1e-2)
        assert a[1, 0] == pytest.approx(-9.81 * 0.01, rel=1e-12)
        assert a[1, 1] == pytest.approx(1.0 - 0.1 * 0.01, rel=1e-12)

    def test_dubins_velocity_coupling(self):
        sys = DubinsCar(h=0.1)
        x, u = np.zeros((1, 3)), np.array([[1.0, 0.0]])
        (a,) = linearize_exact(sys, x, u, sys.step_batch(x, u)).A
        # dy+/dpsi = h * v at psi = 0
        assert a[1, 2] == pytest.approx(0.1, rel=1e-12)

    @pytest.mark.parametrize("make", [
        lambda: Pendulum(damping=0.25, h=0.02),
        lambda: DubinsCar(h=0.1),
        lambda: Quadrotor(h=0.01),
        lambda: PenaltyPush1D(),
    ])
    def test_analytic_jacobians_match_finite_differences(self, make):
        sys = make()
        rng = np.random.default_rng(42)
        pieces = set()
        for _ in range(100):
            x = rng.uniform(-1.0, 1.0, sys.state_dim)
            u = rng.uniform(-1.0, 1.0, sys.input_dim)
            if isinstance(sys, Quadrotor):
                x[3:6] *= 0.3          # stay away from the pitch singularity
                u = sys.hover_thrusts() + 0.2 * u
            if isinstance(sys, PenaltyPush1D):
                if abs(x[2] - x[0]) < 1e-4:    # stay away from the contact switch
                    continue
                pieces.add(bool(x[2] > x[0]))
            a, b = sys.jacobians_batch(x[None], u[None])
            a_fd, b_fd = finite_difference_jacobians(sys.step_batch, [x], [u])
            np.testing.assert_allclose(a, a_fd, atol=1e-4)
            np.testing.assert_allclose(b, b_fd, atol=1e-4)
        if isinstance(sys, PenaltyPush1D):
            assert pieces == {False, True}


SMOOTH_SYSTEMS = [
    lambda: Pendulum(damping=0.25, h=0.02),
    lambda: DubinsCar(h=0.1),
    lambda: Quadrotor(h=0.01),
    lambda: LinearSystem(np.arange(16.0).reshape(4, 4) / 7.0 - 1.0,
                         np.arange(8.0).reshape(4, 2) / 3.0, np.full(4, 0.1)),
    # 10 terms in each row of A x: past numpy's 8-way unrolled sum
    lambda: LinearSystem(np.sin(np.arange(100.0)).reshape(10, 10),
                         np.cos(np.arange(30.0)).reshape(10, 3)),
]


class TestBatchProtocol:
    def test_every_system_binds_step_and_step_batch_itself(self):
        # The benchmark's tracer (perfbench/spans.py) wraps only the methods
        # a class defines in its own body; an inherited step goes unseen.
        from bundleopt import contact, systems

        found = [cls for module in (systems, contact) for cls in vars(module).values()
                 if isinstance(cls, type) and issubclass(cls, systems.DynamicalSystem)
                 and cls is not systems.DynamicalSystem and cls.__module__ == module.__name__]
        assert {cls.__name__ for cls in found} >= {"Pendulum", "ContactPush2D"}
        for cls in found:
            assert {"step", "step_batch"} <= set(vars(cls)), cls.__name__

    @pytest.mark.parametrize("make", SMOOTH_SYSTEMS + [lambda: PenaltyPush1D()])
    @pytest.mark.parametrize("rows", [1, 7, 100])
    def test_batch_rows_equal_batch_of_one(self, make, rows):
        sys = make()
        rng = np.random.default_rng(rows)
        xs = rng.uniform(-1.0, 1.0, (rows, sys.state_dim))
        us = rng.uniform(-1.0, 1.0, (rows, sys.input_dim))
        assert_batch_rows_match(sys, xs, us)

    @pytest.mark.parametrize("make", SMOOTH_SYSTEMS)
    def test_one_row_step_equals_its_batch_row(self, make):
        # step evaluates the physics on floats, step_batch on columns
        sys = make()
        rng = np.random.default_rng(3)
        xs = rng.uniform(-3.0, 3.0, (10_000, sys.state_dim))
        us = rng.uniform(-3.0, 3.0, (10_000, sys.input_dim))
        batch = sys.step_batch(xs, us)
        rows = np.array([sys.step(x, u) for x, u in zip(xs, us)])
        np.testing.assert_array_equal(rows, batch)
