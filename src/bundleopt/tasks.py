"""Benchmark task catalog.

Builds (system, MPC problem, initial inputs) triples for the planning
benchmarks from plain parameter dictionaries, so the command-line runner,
the demos and the tests all share one set of documented task
configurations. Parameters not given fall back to the defaults baked into
each builder; unknown parameters, and parameters whose type differs from
their default's, are rejected.
"""

from __future__ import annotations

import inspect
import numbers
from dataclasses import dataclass

import numpy as np

from .contact import (Contact1DParams, Contact2DParams, ContactPush1D, ContactPush2D)
from .errors import ConfigurationError
from .irs_lqr import MpcProblem
from .systems import DubinsCar, DynamicalSystem, Pendulum, Quadrotor, LinearSystem

__all__ = ["TaskSetup", "build_task", "TASK_BUILDERS"]


@dataclass(frozen=True)
class TaskSetup:
    name: str
    system: DynamicalSystem
    mpc: MpcProblem
    u_init: np.ndarray


def _box_bounds(limits) -> tuple[np.ndarray, np.ndarray]:
    """Stack per-input (low, high) pairs into C u <= d form: u_i <= high, -u_i <= -low."""
    if any(np.isnan(v) for pair in limits for v in pair):
        raise ConfigurationError(f"input bounds must not be NaN, got {limits}")
    if not all(lo <= hi for lo, hi in limits):
        raise ConfigurationError(f"input bounds must have low <= high, got {limits}")
    m = len(limits)
    c = np.zeros((2 * m, m))
    c[0::2] += np.eye(m)
    c[1::2] -= np.eye(m)
    return c, np.array([v for lo, hi in limits for v in (hi, -lo)])


def make_lti(seed=0, state_dim=4, input_dim=2, horizon=20, spectral_radius=0.95):
    """Random controllable linear system with identity tracking costs."""
    if min(state_dim, input_dim) < 1:
        raise ConfigurationError(f"lti dimensions must be >= 1, got {state_dim}, {input_dim}")
    if not 0.0 < spectral_radius < np.inf:
        raise ConfigurationError(
            f"lti.spectral_radius must be finite and positive, got {spectral_radius}")
    rng = np.random.default_rng(seed)
    for _ in range(50):
        a = rng.standard_normal((state_dim, state_dim))
        a *= spectral_radius / max(abs(np.linalg.eigvals(a)))
        b = rng.standard_normal((state_dim, input_dim))
        ctrl = np.hstack([np.linalg.matrix_power(a, k) @ b for k in range(state_dim)])
        if np.linalg.matrix_rank(ctrl) == state_dim:
            break
    else:
        raise ConfigurationError("failed to draw a controllable system")
    x0 = rng.standard_normal(state_dim)
    mpc = MpcProblem(horizon=horizon, Q=np.eye(state_dim), R=np.eye(input_dim),
                     Q_terminal=5.0 * np.eye(state_dim),
                     x_desired=np.zeros((horizon + 1, state_dim)),
                     start_index=0, initial_state=x0)
    return TaskSetup("lti", LinearSystem(a, b), mpc, np.zeros((horizon, input_dim)))


def make_pendulum_swingup(horizon=60, h=0.05, mass=1.0, length=1.0, gravity=9.81,
                          damping=0.1, q_angle=1.0, q_rate=0.1, r_torque=0.01,
                          qd_angle=100.0, qd_rate=10.0):
    sys = Pendulum(mass=mass, length=length, gravity=gravity, damping=damping, h=h)
    mpc = MpcProblem(horizon=horizon, Q=np.diag([q_angle, q_rate]),
                     R=np.array([[r_torque]]),
                     Q_terminal=np.diag([qd_angle, qd_rate]),
                     x_desired=np.tile([np.pi, 0.0], (horizon + 1, 1)),
                     start_index=0, initial_state=np.zeros(2))
    return TaskSetup("pendulum_swingup", sys, mpc, np.zeros((horizon, 1)))


def make_dubins_parking(horizon=40, h=0.1, goal=(0.0, 2.0, 0.0), v_max=2.0,
                        w_max=4.0, q_pos=1.0, r_input=0.01, qd_pos=50.0):
    """Side-parking task; forward-only speed makes the zero guess a trap."""
    sys = DubinsCar(h=h)
    c_u, d_u = _box_bounds([(0.0, v_max), (-w_max, w_max)])
    mpc = MpcProblem(horizon=horizon, Q=np.diag([q_pos, q_pos, 0.0]),
                     R=r_input * np.eye(2),
                     Q_terminal=np.diag([qd_pos, qd_pos, 0.0]),
                     x_desired=np.tile(np.asarray(goal, dtype=float), (horizon + 1, 1)),
                     C_u=c_u, d_u=d_u, start_index=0, initial_state=np.zeros(3))
    return TaskSetup("dubins_parking", sys, mpc, np.zeros((horizon, 2)))


def make_quadrotor_hover(horizon=25, h=0.02, goal_position=(0.5, 0.0, 0.5),
                         q_pos=1.0, q_att=0.1, q_vel=0.1, q_rate=0.01,
                         r_thrust=0.05, qd_scale=20.0):
    """Reach a displaced hover from level hover."""
    sys = Quadrotor(h=h)
    q_diag = np.concatenate([np.full(3, q_pos), np.full(3, q_att),
                             np.full(3, q_vel), np.full(3, q_rate)])
    xd = np.zeros((horizon + 1, 12))
    xd[:, 0:3] = np.asarray(goal_position, dtype=float)
    hover = sys.hover_thrusts()
    mpc = MpcProblem(horizon=horizon, Q=np.diag(q_diag), R=r_thrust * np.eye(4),
                     Q_terminal=qd_scale * np.diag(q_diag), x_desired=xd,
                     start_index=0, initial_state=np.zeros(12))
    return TaskSetup("quadrotor_hover", sys, mpc, np.tile(hover, (horizon, 1)))


def make_push_1d(horizon=20, m=1.0, h=0.1, k=100.0, box_start=1.0, robot_start=0.0,
                 goal=2.0, command_bound=3.0, q_box=1.0, r_command=1e-4, qd_box=50.0):
    """Push the free box to a goal; the robot starts out of contact.

    Only the box position is costed, so with exact gradients the separated
    initialization is a stationary point (the commanded position has no
    effect on the box) and the optimizer stalls there.
    """
    sys = ContactPush1D(Contact1DParams(m=m, h=h, k=k))
    c_u, d_u = _box_bounds([(-command_bound, command_bound)])
    mpc = MpcProblem(horizon=horizon, Q=np.diag([q_box, 0.0]),
                     R=np.array([[r_command]]),
                     Q_terminal=np.diag([qd_box, 0.0]),
                     x_desired=np.tile([goal, 0.0], (horizon + 1, 1)),
                     C_u=c_u, d_u=d_u,
                     start_index=0,
                     initial_state=np.array([box_start, robot_start]))
    u_init = np.full((horizon, 1), robot_start)
    return TaskSetup("push_1d", sys, mpc, u_init)


def make_push_2d(horizon=15, m=1.0, h=0.1, k=100.0, mu=0.5, box_half_width=0.25,
                 sphere_radius=0.1, model="exact", hover_gap=0.15, box_goal=0.5,
                 command_bound=1.5, q_box=1.0, q_robot=0.05, r_command=1e-3,
                 qd_box=50.0):
    """Drag the box along the floor; the sphere starts above the face.

    The small robot weight anchors the sphere at its hover point, so with
    exact gradients the separated start is again a stationary point.
    """
    params = Contact2DParams(m=m, h=h, k=k, mu=mu, box_half_width=box_half_width,
                             sphere_radius=sphere_radius)
    sys = ContactPush2D(params, model=model)
    y0 = params.contact_height + hover_gap
    c_u, d_u = _box_bounds([(-command_bound, command_bound), (0.0, command_bound)])
    mpc = MpcProblem(horizon=horizon, Q=np.diag([q_box, q_robot, q_robot]),
                     R=r_command * np.eye(2),
                     Q_terminal=np.diag([qd_box, 0.0, 0.0]),
                     x_desired=np.tile([box_goal, 0.0, y0], (horizon + 1, 1)),
                     C_u=c_u, d_u=d_u,
                     start_index=0, initial_state=np.array([0.0, 0.0, y0]))
    u_init = np.tile([0.0, y0], (horizon, 1))
    return TaskSetup("push_2d", sys, mpc, u_init)


TASK_BUILDERS = {
    "lti": make_lti,
    "pendulum_swingup": make_pendulum_swingup,
    "dubins_parking": make_dubins_parking,
    "quadrotor_hover": make_quadrotor_hover,
    "push_1d": make_push_1d,
    "push_2d": make_push_2d,
}


def build_task(name: str, params: dict | None = None) -> TaskSetup:
    """Instantiate a catalog task, rejecting unknown or mistyped parameters."""
    try:
        builder = TASK_BUILDERS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown task {name!r}; known: {sorted(TASK_BUILDERS)}") from None
    params = dict(params or {})
    defaults = inspect.signature(builder).parameters
    unknown = set(params) - set(defaults)
    if unknown:
        raise ConfigurationError(
            f"unknown parameters for task {name!r}: {sorted(unknown)}; "
            f"allowed: {sorted(defaults)}")
    for key, value in params.items():
        expected = _expected_type(defaults[key].default, value)
        if expected is not None:
            raise ConfigurationError(
                f"parameter {key!r} of task {name!r} must be {expected}, got {value!r}")
    return builder(**params)


def _expected_type(default, value) -> str | None:
    """None if value has default's type, else that type's name.

    An int takes an int, a float an int or float, a str a str, a tuple a
    list of as many numbers; a bool is never a number.
    """
    def number(v, kind=numbers.Real):
        return isinstance(v, kind) and not isinstance(v, bool)

    if isinstance(default, tuple):
        ok = isinstance(value, (list, tuple)) and len(value) == len(default) \
            and all(map(number, value))
        return None if ok else f"a list of {len(default)} numbers"
    if isinstance(default, int):
        return None if number(value, numbers.Integral) else "an integer"
    if isinstance(default, float):
        return None if number(value) else "a number"
    return None if isinstance(value, type(default)) else f"a {type(default).__name__}"
