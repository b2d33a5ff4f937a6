"""Discrete-time benchmark systems and exact linearization.

Ships the three smooth benchmark systems (pendulum, Dubins car, 12-state
quadrotor) plus a generic linear system, all behind a small stateless
DynamicalSystem interface.

Batch protocol: a system's primitives are step_batch(xs, us), the next
states of N (state, input) rows, shape (N, n), and jacobians_batch(xs,
us), the Jacobians (d step/dx, d step/du) at each row, shapes (N, n, n)
and (N, n, m). The physics of each system is written once, in batch form;
step(x, u) and jacobians(x, u) are their batch of one. Every system
states its Jacobians analytically; a piecewise system gives each row its
piece's.

Determinism rule: row i of a batch equals the batch-of-one result for
that row bit for bit, whatever the batch size. So the physics uses
elementwise arithmetic only, never a BLAS matrix product, whose
summation order can change with the number of rows (a one-row product
takes the matrix-vector path).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DynamicalSystem",
    "LinearizedDynamics",
    "linearize_exact",
    "Pendulum",
    "DubinsCar",
    "Quadrotor",
    "LinearSystem",
]


class DynamicalSystem:
    """Deterministic discrete-time dynamics x_{t+1} = step(x_t, u_t).

    Subclasses implement step_batch and jacobians_batch (see the module
    docstring). step and jacobians are defined here once, but every
    subclass also binds them in its own class body: the benchmark's tracer
    (perfbench/spans.py) wraps the step, step_batch and jacobians that each
    class defines.
    """

    state_dim: int
    input_dim: int

    def step_batch(self, xs: np.ndarray, us: np.ndarray) -> np.ndarray:
        """Next states of the rows of xs (N, n) under us (N, m), shape (N, n)."""
        raise NotImplementedError

    def jacobians_batch(self, xs: np.ndarray, us: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
        """(d step/dx, d step/du) at each row, shapes (N, n, n) and (N, n, m)."""
        raise NotImplementedError

    def step(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        """step_batch on a batch of one."""
        return self.step_batch(_one_row(x), _one_row(u))[0]

    def jacobians(self, x: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """jacobians_batch on a batch of one."""
        a, b = self.jacobians_batch(_one_row(x), _one_row(u))
        return a[0], b[0]


def _one_row(v) -> np.ndarray:
    return np.asarray(v, dtype=float)[None, :]


@dataclass(frozen=True)
class LinearizedDynamics:
    """Affine model x_{t+1} ~ A x_t + B u_t + c around a nominal point.

    The offset satisfies c = step(x_nom, u_nom) - A x_nom - B u_nom, so the
    model is exact at the nominal point by construction.
    """

    A: np.ndarray
    B: np.ndarray
    c: np.ndarray
    x_nominal: np.ndarray
    u_nominal: np.ndarray


def linearize_exact(sys: DynamicalSystem, x_nom, u_nom) -> LinearizedDynamics:
    """First-order Taylor model of the dynamics at (x_nom, u_nom)."""
    x_nom = np.asarray(x_nom, dtype=float)
    u_nom = np.asarray(u_nom, dtype=float)
    a, b = sys.jacobians(x_nom, u_nom)
    f0 = np.asarray(sys.step(x_nom, u_nom), dtype=float)
    c = f0 - a @ x_nom - b @ u_nom
    return LinearizedDynamics(A=a, B=b, c=c, x_nominal=x_nom, u_nominal=u_nom)


# ---------------------------------------------------------------------------
# pendulum


class Pendulum(DynamicalSystem):
    """Semi-implicit Euler step of a damped torque-driven pendulum.

    State (theta, omega), input torque. theta = 0 hangs down, theta = pi is
    upright. Acceleration (u - damping*omega - m g l sin(theta)) / (m l^2);
    the new velocity is used to advance the angle.
    """

    state_dim = 2
    input_dim = 1
    step = DynamicalSystem.step
    jacobians = DynamicalSystem.jacobians

    def __init__(self, mass=1.0, length=1.0, gravity=9.81, damping=0.0, h=0.01):
        self.mass = mass
        self.length = length
        self.gravity = gravity
        self.damping = damping
        self.h = h

    def step_batch(self, xs, us):
        theta, omega = xs[:, 0], xs[:, 1]
        inertia = self.mass * self.length**2
        accel = (us[:, 0] - self.damping * omega
                 - self.mass * self.gravity * self.length * np.sin(theta)) / inertia
        omega_next = omega + self.h * accel
        return np.stack([theta + self.h * omega_next, omega_next], axis=1)

    def jacobians_batch(self, xs, us):
        h = self.h
        inertia = self.mass * self.length**2
        da_dth = -self.mass * self.gravity * self.length * np.cos(xs[:, 0]) / inertia
        da_dom = -self.damping / inertia
        # omega' = omega + h*accel; theta' = theta + h*omega'
        a = np.empty((xs.shape[0], 2, 2))
        a[:, 0, 0] = 1.0 + h * h * da_dth
        a[:, 0, 1] = h * (1.0 + h * da_dom)
        a[:, 1, 0] = h * da_dth
        a[:, 1, 1] = 1.0 + h * da_dom
        b = np.tile([[h * h / inertia], [h / inertia]], (xs.shape[0], 1, 1))
        return a, b


# ---------------------------------------------------------------------------
# Dubins car


class DubinsCar(DynamicalSystem):
    """Explicit Euler step of the unicycle (px, py, heading) with input (v, w)."""

    state_dim = 3
    input_dim = 2
    step = DynamicalSystem.step
    jacobians = DynamicalSystem.jacobians

    def __init__(self, h=0.1):
        self.h = h

    def step_batch(self, xs, us):
        psi = xs[:, 2]
        return np.stack([xs[:, 0] + self.h * us[:, 0] * np.cos(psi),
                         xs[:, 1] + self.h * us[:, 0] * np.sin(psi),
                         psi + self.h * us[:, 1]], axis=1)

    def jacobians_batch(self, xs, us):
        psi = xs[:, 2]
        v = us[:, 0]
        h = self.h
        a = np.tile(np.eye(3), (xs.shape[0], 1, 1))
        a[:, 0, 2] = -h * v * np.sin(psi)
        a[:, 1, 2] = h * v * np.cos(psi)
        b = np.zeros((xs.shape[0], 3, 2))
        b[:, 0, 0] = h * np.cos(psi)
        b[:, 1, 0] = h * np.sin(psi)
        b[:, 2, 1] = h
        return a, b


# ---------------------------------------------------------------------------
# quadrotor


@dataclass(frozen=True)
class QuadrotorParams:
    mass: float = 0.5
    arm_length: float = 0.17
    inertia: tuple[float, float, float] = (3.2e-3, 3.2e-3, 5.5e-3)
    drag_to_thrust: float = 0.016
    gravity: float = 9.81


def _euler_trig(xs):
    """sin and cos of roll, pitch and yaw (state columns 3-5)."""
    roll, pitch, yaw = xs[:, 3], xs[:, 4], xs[:, 5]
    return np.sin(roll), np.cos(roll), np.sin(pitch), np.cos(pitch), np.sin(yaw), np.cos(yaw)


def _body_z_in_world(sr, cr, sp, cp, sy, cy):
    return np.stack([cr * sp * cy + sr * sy, cr * sp * sy - sr * cy, cr * cp], axis=1)


class Quadrotor(DynamicalSystem):
    """Explicit Euler step of a 12-state rigid-body quadrotor.

    State: position (3), ZYX Euler angles (roll, pitch, yaw), world-frame
    linear velocity (3), body-frame angular velocity (3). Input: four rotor
    thrusts on a plus-configuration frame (+x, +y, -x, -y arms). Euler
    angles hit a coordinate singularity at pitch = +-pi/2; that is a
    documented domain boundary, not a handled case.
    """

    state_dim = 12
    input_dim = 4
    step = DynamicalSystem.step
    jacobians = DynamicalSystem.jacobians

    def __init__(self, params: QuadrotorParams = QuadrotorParams(), h=0.01):
        self.params = params
        self.h = h

    def hover_thrusts(self) -> np.ndarray:
        return np.full(4, self.params.mass * self.params.gravity / 4.0)

    def _mixing_matrix(self) -> np.ndarray:
        larm = self.params.arm_length
        kappa = self.params.drag_to_thrust
        return np.array([[0.0, larm, 0.0, -larm],
                         [-larm, 0.0, larm, 0.0],
                         [kappa, -kappa, kappa, -kappa]])

    def step_batch(self, xs, us):
        pr, h = self.params, self.h
        trig = _euler_trig(xs)
        sr, cr, sp, cp, sy, cy = trig
        tp = np.tan(xs[:, 4])
        w = xs[:, 9:12]
        w0, w1, w2 = w[:, 0], w[:, 1], w[:, 2]
        u0, u1, u2, u3 = us[:, 0], us[:, 1], us[:, 2], us[:, 3]
        inertia = np.asarray(pr.inertia)
        torque = np.stack([pr.arm_length * (u1 - u3),
                           pr.arm_length * (u2 - u0),
                           pr.drag_to_thrust * (u0 - u1 + u2 - u3)], axis=1)
        # body angular velocity -> ZYX Euler angle rates
        euler_dot = np.stack([w0 + sr * tp * w1 + cr * tp * w2,
                              cr * w1 - sr * w2,
                              sr / cp * w1 + cr / cp * w2], axis=1)
        accel = ((u0 + u1 + u2 + u3) / pr.mass)[:, None] * _body_z_in_world(*trig) \
            - np.array([0.0, 0.0, pr.gravity])
        omega_dot = (torque - np.cross(w, inertia * w)) / inertia
        return np.concatenate([xs[:, 0:3] + h * xs[:, 6:9],
                               xs[:, 3:6] + h * euler_dot,
                               xs[:, 6:9] + h * accel,
                               w + h * omega_dot], axis=1)

    def jacobians_batch(self, xs, us):
        pr, h = self.params, self.h
        rows = xs.shape[0]
        trig = _euler_trig(xs)
        sr, cr, sp, cp, sy, cy = trig
        tp = sp / cp
        w0, w1, w2 = xs[:, 9], xs[:, 10], xs[:, 11]
        a = np.tile(np.eye(12), (rows, 1, 1))
        b = np.zeros((rows, 12, 4))
        a[:, 0:3, 6:9] = h * np.eye(3)

        # Euler kinematics block: e+ = e + h E(roll, pitch) omega
        pitch_rate = sr * w1 + cr * w2
        roll_rate = cr * w1 - sr * w2
        a[:, 3, 3] += h * tp * roll_rate
        a[:, 4, 3] = -h * pitch_rate
        a[:, 5, 3] = h * roll_rate / cp
        a[:, 3, 4] = h * pitch_rate / cp**2
        a[:, 5, 4] = h * sp * pitch_rate / cp**2
        a[:, 3, 9:12] = h * np.stack([np.ones(rows), sr * tp, cr * tp], axis=1)
        a[:, 4, 10:12] = h * np.stack([cr, -sr], axis=1)
        a[:, 5, 10:12] = h * np.stack([sr / cp, cr / cp], axis=1)

        # translational block: v+ = v + h (thrust/m) z_world(e) - h g z
        scale = (h * (us[:, 0] + us[:, 1] + us[:, 2] + us[:, 3]) / pr.mass)[:, None]
        a[:, 6:9, 3] = scale * np.stack([-sr * sp * cy + cr * sy, -sr * sp * sy - cr * cy,
                                         -sr * cp], axis=1)
        a[:, 6:9, 4] = scale * np.stack([cr * cp * cy, cr * cp * sy, -cr * sp], axis=1)
        a[:, 6:8, 5] = scale * np.stack([-cr * sp * sy + sr * cy, cr * sp * cy + sr * sy],
                                        axis=1)
        b[:, 6:9, :] = (h / pr.mass) * _body_z_in_world(*trig)[:, :, None]

        # rotational block: w+ = w + h I^{-1} (tau(u) - w x (I w))
        i0, i1, i2 = pr.inertia
        a[:, 9, 10:12] = -h * (i2 - i1) / i0 * np.stack([w2, w1], axis=1)
        a[:, 10, [9, 11]] = -h * (i0 - i2) / i1 * np.stack([w2, w0], axis=1)
        a[:, 11, 9:11] = -h * (i1 - i0) / i2 * np.stack([w1, w0], axis=1)
        b[:, 9:12, :] = h * self._mixing_matrix() / np.asarray(pr.inertia)[:, None]
        return a, b


# ---------------------------------------------------------------------------
# linear system


class LinearSystem(DynamicalSystem):
    """x_{t+1} = A x + B u + c; its own exact linearization everywhere."""

    step = DynamicalSystem.step
    jacobians = DynamicalSystem.jacobians

    def __init__(self, A, B, c=None):
        self.A = np.asarray(A, dtype=float)
        self.B = np.asarray(B, dtype=float)
        self.c = np.zeros(self.A.shape[0]) if c is None else np.asarray(c, dtype=float)
        self.state_dim = self.A.shape[0]
        self.input_dim = self.B.shape[1]

    def step_batch(self, xs, us):
        # Elementwise products summed along each row: the same arithmetic
        # for every row whatever the batch size (see the module docstring).
        return (np.sum(xs[:, None, :] * self.A, axis=2)
                + np.sum(us[:, None, :] * self.B, axis=2) + self.c)

    def jacobians_batch(self, xs, us):
        rows = xs.shape[0]
        return np.tile(self.A, (rows, 1, 1)), np.tile(self.B, (rows, 1, 1))
