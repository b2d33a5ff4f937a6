"""Discrete-time benchmark systems and exact linearization.

Ships the three smooth benchmark systems (pendulum, Dubins car, 12-state
quadrotor) plus a generic linear system, all behind a small stateless
DynamicalSystem interface.

Batch protocol: a system's primitives are step_batch(xs, us), the next
states of N (state, input) rows, shape (N, n), and jacobians_batch(xs,
us), the Jacobians (d step/dx, d step/du) at each row, shapes (N, n, n)
and (N, n, m). The one-row API is step(x, u) alone; one row's Jacobians
are jacobians_batch on a stack of one. Every system states its Jacobians
analytically; a piecewise system gives each row its piece's. A smooth
system writes its physics once, as elementwise formulas on state and
input components: step_batch evaluates them on a batch's columns, step on
one row's Python floats, skipping a batch of one's array overhead.

Determinism rule: row i of a batch equals step and the batch of one of
that row bit for bit, whatever the batch size. So the physics uses
elementwise arithmetic and numpy's own ufuncs only (np.sin of a float
rounds as on an array), never a BLAS matrix product, whose summation
order can change with the number of rows (a one-row product takes the
matrix-vector path).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

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
    docstring). step defaults to a batch of one; the smooth systems
    override it with their physics on floats. Every subclass binds step
    and step_batch in its own class body, which is why the contact
    systems keep `step = DynamicalSystem.step`: the benchmark's tracer
    (perfbench/spans.py) wraps only the methods a class defines itself.
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
        return self.step_batch(np.asarray(x, dtype=float)[None, :],
                               np.asarray(u, dtype=float)[None, :])[0]


def _require_positive(obj, *names) -> None:
    """Raise ConfigurationError naming the first of obj's attributes `names`
    (default: all of them) that is not finite and positive."""
    for name in names or vars(obj):
        value = getattr(obj, name)
        if not 0.0 < value < np.inf:
            raise ConfigurationError(
                f"{type(obj).__name__}.{name} must be finite and positive, got {value}")


def _step_floats(self, x, u) -> np.ndarray:
    """step of a system whose _next takes components: on the floats of one row."""
    return np.array(self._next(*np.asarray(x, dtype=float).tolist(),
                               *np.asarray(u, dtype=float).tolist()))


def _step_columns(self, xs, us) -> np.ndarray:
    """step_batch of a system whose _next takes components: on the columns."""
    return np.stack(self._next(*xs.T, *us.T), axis=1)


@dataclass(frozen=True)
class LinearizedDynamics:
    """Stacked affine models x_{t+1} ~ A[t] x_t + B[t] u_t + c[t] of T knots.

    A is (T, n, n), B (T, n, m) and c (T, n). Each offset satisfies
    c[t] = step(x_t, u_t) - A[t] x_t - B[t] u_t at knot t, so every model
    is exact at its own knot by construction.
    """

    A: np.ndarray
    B: np.ndarray
    c: np.ndarray

    @classmethod
    def through(cls, A, B, x_nom, u_nom, x_next) -> "LinearizedDynamics":
        """Models with Jacobians A, B through knots x_nom, u_nom and their steps x_next."""
        return cls(A, B, x_next - (A @ x_nom[..., None])[..., 0]
                   - (B @ u_nom[..., None])[..., 0])


def linearize_exact(sys: DynamicalSystem, x_nom, u_nom, x_next) -> LinearizedDynamics:
    """Taylor models at knots x_nom (K, n), u_nom (K, m), one jacobians_batch call.

    One knot is a stack of one; x_next (K, n) is step at each knot.
    """
    return LinearizedDynamics.through(*sys.jacobians_batch(x_nom, u_nom), x_nom, u_nom, x_next)


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
    step = _step_floats
    step_batch = _step_columns

    def __init__(self, mass=1.0, length=1.0, gravity=9.81, damping=0.0, h=0.01):
        self.mass = mass
        self.length = length
        self.gravity = gravity
        self.damping = damping
        self.h = h
        _require_positive(self, "mass", "length", "h")

    def _next(self, theta, omega, torque):
        inertia = self.mass * self.length**2
        accel = (torque - self.damping * omega
                 - self.mass * self.gravity * self.length * np.sin(theta)) / inertia
        omega_next = omega + self.h * accel
        return theta + self.h * omega_next, omega_next

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
    step = _step_floats
    step_batch = _step_columns

    def __init__(self, h=0.1):
        self.h = h
        _require_positive(self, "h")

    def _next(self, px, py, psi, speed, turn):
        return (px + self.h * speed * np.cos(psi), py + self.h * speed * np.sin(psi),
                psi + self.h * turn)

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


def _euler_trig(roll, pitch, yaw):
    """sin and cos of roll, pitch and yaw."""
    return np.sin(roll), np.cos(roll), np.sin(pitch), np.cos(pitch), np.sin(yaw), np.cos(yaw)


def _body_z_in_world(sr, cr, sp, cp, sy, cy):
    return cr * sp * cy + sr * sy, cr * sp * sy - sr * cy, cr * cp


class Quadrotor(DynamicalSystem):
    """Explicit Euler step of a 12-state rigid-body quadrotor.

    State: position (3), ZYX Euler angles (roll, pitch, yaw), world-frame
    linear velocity (3), body-frame angular velocity (3). Input: four rotor
    thrusts on a plus-configuration frame (+x, +y, -x, -y arms). Euler
    angles hit a coordinate singularity at pitch = +-pi/2; that is a
    documented domain boundary, not a handled case. The airframe (mass,
    arm length, principal inertias, rotor drag-to-thrust ratio) and
    gravity are fixed; only the step h is a parameter.
    """

    state_dim = 12
    input_dim = 4
    step = _step_floats
    step_batch = _step_columns
    mass = 0.5
    arm_length = 0.17
    inertia = (3.2e-3, 3.2e-3, 5.5e-3)
    drag_to_thrust = 0.016
    gravity = 9.81

    def __init__(self, h=0.01):
        self.h = h
        _require_positive(self, "h")

    def hover_thrusts(self) -> np.ndarray:
        return np.full(4, self.mass * self.gravity / 4.0)

    def _mixing_matrix(self) -> np.ndarray:
        larm = self.arm_length
        kappa = self.drag_to_thrust
        return np.array([[0.0, larm, 0.0, -larm],
                         [-larm, 0.0, larm, 0.0],
                         [kappa, -kappa, kappa, -kappa]])

    def _next(self, px, py, pz, roll, pitch, yaw, vx, vy, vz, w0, w1, w2, u0, u1, u2, u3):
        h = self.h
        i0, i1, i2 = self.inertia
        sr, cr, sp, cp, sy, cy = _euler_trig(roll, pitch, yaw)
        tp = np.tan(pitch)
        # body angular velocity -> ZYX Euler angle rates
        roll_rate = w0 + sr * tp * w1 + cr * tp * w2
        pitch_rate = cr * w1 - sr * w2
        yaw_rate = sr / cp * w1 + cr / cp * w2
        thrust = (u0 + u1 + u2 + u3) / self.mass
        zx, zy, zz = _body_z_in_world(sr, cr, sp, cp, sy, cy)
        # w' = I^{-1} (tau(u) - w x (I w))
        iw0, iw1, iw2 = i0 * w0, i1 * w1, i2 * w2
        wd0 = (self.arm_length * (u1 - u3) - (w1 * iw2 - w2 * iw1)) / i0
        wd1 = (self.arm_length * (u2 - u0) - (w2 * iw0 - w0 * iw2)) / i1
        wd2 = (self.drag_to_thrust * (u0 - u1 + u2 - u3) - (w0 * iw1 - w1 * iw0)) / i2
        return (px + h * vx, py + h * vy, pz + h * vz,
                roll + h * roll_rate, pitch + h * pitch_rate, yaw + h * yaw_rate,
                vx + h * (thrust * zx), vy + h * (thrust * zy),
                vz + h * (thrust * zz - self.gravity),
                w0 + h * wd0, w1 + h * wd1, w2 + h * wd2)

    def jacobians_batch(self, xs, us):
        h = self.h
        i0, i1, i2 = self.inertia
        # the state-independent entries, built per call so that a reassigned h is read
        a0, b0 = np.eye(12), np.zeros((12, 4))
        a0[[0, 1, 2, 3], [6, 7, 8, 9]] = h
        b0[9:12] = h * self._mixing_matrix() / np.asarray(self.inertia)[:, None]
        a, b = np.empty((xs.shape[0], 12, 12)), np.empty((xs.shape[0], 12, 4))
        a[:], b[:] = a0, b0
        trig = _euler_trig(*xs[:, 3:6].T)
        sr, cr, sp, cp, sy, cy = trig
        tp = sp / cp
        w1, w2 = xs[:, 10], xs[:, 11]

        # Euler kinematics block: e+ = e + h E(roll, pitch) omega
        pitch_rate = sr * w1 + cr * w2
        roll_rate = cr * w1 - sr * w2
        a[:, 3, 3] += h * tp * roll_rate
        a[:, 4, 3] = -h * pitch_rate
        a[:, 5, 3] = h * roll_rate / cp
        a[:, 3, 4] = h * pitch_rate / cp**2
        a[:, 5, 4] = h * sp * pitch_rate / cp**2
        a[:, 3, 10], a[:, 3, 11] = h * (sr * tp), h * (cr * tp)
        a[:, 4, 10], a[:, 4, 11] = h * cr, h * -sr
        a[:, 5, 10], a[:, 5, 11] = h * (sr / cp), h * (cr / cp)

        # translational block: v+ = v + h (thrust/m) z_world(e) - h g z
        scale = h * (us[:, 0] + us[:, 1] + us[:, 2] + us[:, 3]) / self.mass
        a[:, 6, 3] = scale * (-sr * sp * cy + cr * sy)
        a[:, 7, 3] = scale * (-sr * sp * sy - cr * cy)
        a[:, 8, 3] = scale * (-sr * cp)
        a[:, 6, 4] = scale * (cr * cp * cy)
        a[:, 7, 4] = scale * (cr * cp * sy)
        a[:, 8, 4] = scale * (-cr * sp)
        a[:, 6, 5] = scale * (-cr * sp * sy + sr * cy)
        a[:, 7, 5] = scale * (cr * sp * cy + sr * sy)
        for row, z in enumerate(_body_z_in_world(*trig), start=6):
            b[:, row, :] = (h / self.mass * z)[:, None]

        # rotational block: w+ = w + h I^{-1} (tau(u) - w x (I w))
        a[:, 9, 10:12] = -h * (i2 - i1) / i0 * xs[:, [11, 10]]
        a[:, 10, [9, 11]] = -h * (i0 - i2) / i1 * xs[:, [11, 9]]
        a[:, 11, 9:11] = -h * (i1 - i0) / i2 * xs[:, [10, 9]]
        return a, b


# ---------------------------------------------------------------------------
# linear system


class LinearSystem(DynamicalSystem):
    """x_{t+1} = A x + B u + c; its own exact linearization everywhere."""

    def __init__(self, A, B, c=None):
        self.A = np.asarray(A, dtype=float)
        self.B = np.asarray(B, dtype=float)
        self.c = np.zeros(self.A.shape[0]) if c is None else np.asarray(c, dtype=float)
        self.state_dim = self.A.shape[0]
        self.input_dim = self.B.shape[1]

    def _affine(self, x, u):
        # Elementwise products summed along the last axis: the same
        # arithmetic for a row and for every row of a batch.
        return (np.sum(x[..., None, :] * self.A, axis=-1)
                + np.sum(u[..., None, :] * self.B, axis=-1) + self.c)

    step_batch = _affine

    def step(self, x, u):
        return self._affine(np.asarray(x, dtype=float), np.asarray(u, dtype=float))

    def jacobians_batch(self, xs, us):
        rows = xs.shape[0]
        return np.tile(self.A, (rows, 1, 1)), np.tile(self.B, (rows, 1, 1))
