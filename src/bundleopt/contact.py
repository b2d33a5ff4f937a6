"""Quasi-dynamic contact models.

Three families of models of a position-controlled robot interacting with a
free box:

* ContactPush1D, a 1D normal-contact system stepped in closed form from
  its two linear pieces (separation / contact);
* a 2D frictional system - the box slides along x on a frictionless floor,
  the robot sphere presses down on the box's top face and drags it through
  Coulomb friction - solved either exactly by enumerating the four contact
  modes (separation, sticking, sliding up/down the tangential direction),
  or through the convex cone relaxation that turns the step into a QP;
* penalty-method forces (stiff spring normal force, viscous-then-Coulomb
  friction with an optional Stribeck discontinuity), smoothed by the
  generic estimators in smoothing.py, and PenaltyPush1D, a second-order
  1D pusher integrated with the stiff spring as a batched
  DynamicalSystem, so the Jacobian bundles run on it.

The robot is gravity-compensated and quasi-static: its proportional
controller's virtual spring balances the contact force each step. The box
is quasi-dynamic with zero velocity entering each step, so its momentum
gain equals the contact impulse. Mode tie-breaking at exact boundaries
follows a fixed mode order with tolerance 1e-9 and is reported in the
diagnostics, which keeps stepping deterministic. One set of exact-model
mode formulas serves floats and arrays: step_2d_exact and a one-row
ContactPush2D step evaluate it on Python floats, a larger batch in one
array pass. The Anitescu QP's four active sets have a closed form too: a
ContactPush2D batch of more than one row evaluates it in one array pass.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DivergedError
from .qp import _FEAS_TOL, QpProblem, solve_qp
from .systems import DynamicalSystem, _require_positive

__all__ = [
    "Contact1DParams",
    "Contact2DParams",
    "Contact2DState",
    "StepDiagnostics",
    "PenaltyParams",
    "step_2d_exact",
    "step_2d_anitescu",
    "penalty_forces",
    "ContactPush1D",
    "ContactPush2D",
    "PenaltyPush1D",
]

MODE_SEPARATION = "separation"
MODE_STICKING = "sticking"
MODE_SLIDING_UP = "sliding_up"      # positive tangential slip (robot relative to box)
MODE_SLIDING_DOWN = "sliding_down"  # negative tangential slip

_TIE_TOL = 1e-9
_MODES_2D = (MODE_SEPARATION, MODE_STICKING, MODE_SLIDING_UP, MODE_SLIDING_DOWN)


@dataclass(frozen=True)
class Contact1DParams:
    """1D pusher: unactuated mass m, timestep h, controller stiffness k."""

    m: float = 1.0
    h: float = 0.1
    k: float = 100.0

    __post_init__ = _require_positive

    @property
    def c_ratio(self) -> float:
        """Mass-to-spring ratio m / (h^2 k) weighting the contact blend."""
        return self.m / (self.h**2 * self.k)


@dataclass(frozen=True)
class StepDiagnostics:
    """Contact impulses and mode of one 2D step.

    lambda_n >= 0 is the normal impulse on the robot, gap the separation
    after the step, lambda_t the signed tangential (friction) impulse on
    the robot. `tie` flags commands that landed on a mode boundary within
    tolerance.
    """

    lambda_n: float
    gap: float
    mode: str
    lambda_t: float
    tie: bool = False


# ---------------------------------------------------------------------------
# 2D frictional contact


@dataclass(frozen=True)
class Contact2DParams(Contact1DParams):
    """2D pusher: box mass m slides along x, robot sphere presses from above.

    m, h and k are the 1D pusher's. The square box (side 2*box_half_width)
    rests on a frictionless floor; its top face sits at 2*box_half_width.
    Contact occurs when the sphere center drops to contact_height = top +
    sphere_radius. mu is the Coulomb friction coefficient of the face.
    """

    mu: float = 0.5
    box_half_width: float = 0.25
    sphere_radius: float = 0.1

    @property
    def contact_height(self) -> float:
        """Sphere-center height at touching."""
        return 2.0 * self.box_half_width + self.sphere_radius


@dataclass(frozen=True)
class Contact2DState:
    """Box position xu (along x) and robot sphere center (xa, ya)."""

    xu: float
    xa: float
    ya: float


def _exact_2d(xu, xa, cx, cy, params: Contact2DParams, maximum):
    """Next (xu, xa), impulses and violation of each contact mode, in _MODES_2D order.

    Each mode is (xu_next, xa_next, lambda_n, lambda_t, violation), violation
    the worst inequality violation of the mode's validity conditions (<= 0
    means consistent). The formulas use only elementwise + - * / abs and the
    given maximum, so floats (with max) and float64 arrays (with
    np.where(b > a, b, a), which is max(a, b) even at NaN) round alike.
    """
    y_c = params.contact_height
    hk = params.h * params.k
    mu = params.mu
    lam_n = hk * (y_c - cy)           # normal impulse shared by contact modes
    # separation: robot reaches its command, box stays.
    out = [(xu, cx, 0.0, 0.0, y_c - cy)]
    # sticking: box and robot move together along x.
    delta = (cx - xa) / (1.0 + params.c_ratio)
    lam_t = -(params.m / params.h) * delta
    out.append((xu + delta, xa + delta, lam_n, lam_t, maximum(-lam_n, abs(lam_t) - mu * lam_n)))
    # sliding up, down: friction saturates at the cone boundary and drags the box.
    for sign in (1.0, -1.0):
        xa_next = cx - sign * mu * lam_n / hk
        xu_next = xu + sign * params.h * mu * lam_n / params.m
        slip = (xa_next - xa) - (xu_next - xu)
        out.append((xu_next, xa_next, lam_n, -sign * mu * lam_n, maximum(-lam_n, -sign * slip)))
    return out


def _where_max(a, b):
    """Elementwise max(a, b) of arrays, as Python's max gives it, NaN included."""
    return np.where(b > a, b, a)


def _consistent_2d(modes) -> list[int]:
    """Indices of the consistent float modes in tie order, else of the least-violating one."""
    viol = [mode[4] for mode in modes]
    return [i for i, v in enumerate(viol) if v <= _TIE_TOL] or [min(range(4), key=viol.__getitem__)]


def step_2d_exact(state: Contact2DState, command, params: Contact2DParams
                  ) -> tuple[Contact2DState, StepDiagnostics]:
    """Advance the 2D frictional system with exact Coulomb complementarity.

    Solves each contact mode's linear system and returns the unique mode
    whose solution satisfies all of that mode's inequalities; exact ties
    at mode boundaries resolve to the first consistent mode in the order
    separation, sticking, sliding_up, sliding_down.
    """
    cy = float(command[1])
    modes = _exact_2d(state.xu, state.xa, float(command[0]), cy, params, max)
    valid = _consistent_2d(modes)
    xu, xa, lam_n, lam_t, _ = modes[valid[0]]
    ya = cy if valid[0] == 0 else params.contact_height
    return Contact2DState(xu=xu, xa=xa, ya=ya), StepDiagnostics(
        lambda_n=lam_n, gap=ya - params.contact_height, mode=_MODES_2D[valid[0]],
        lambda_t=lam_t, tie=len(valid) > 1)


def step_2d_anitescu(state: Contact2DState, command, params: Contact2DParams
                     ) -> tuple[Contact2DState, StepDiagnostics]:
    """Advance the 2D system with the convex cone relaxation of friction.

    One strictly convex QP over the displacements (dxu, dxa, dya): kinetic
    cost (m/2h)dxu^2 plus the robot spring (hk/2)|dqa - (command - qa)|^2,
    subject to gap + dya + mu*e*(dxa - dxu) >= 0 for both tangential
    directions e = +-1. Impulses are recovered from the QP duals.

    Equals the exact model in sticking, and in separation only when the
    command clears the cone, cy - y_c >= mu*|cx - xa|. While sliding, the
    sphere rides mu*|slip| above the face (slip = dxa - dxu): its spring
    presses hk*mu*|slip| harder, and saturated friction carries the box up
    to mu^2*|slip|/c beyond the exact model, with c = m/(h^2 k). So a
    command short of the face but inside the cone still drags the box.
    Like step_2d_exact, it returns Python floats. P and G are built once
    per Contact2DParams, so each step builds only q and h.
    """
    cx, cy = float(command[0]), float(command[1])
    P, G = _anitescu_qp(params)
    hk = params.h * params.k
    gap0 = state.ya - params.contact_height
    q = np.array([0.0, -hk * (cx - state.xa), -hk * (cy - state.ya)])
    sol = solve_qp(QpProblem(P=P, q=q, G=G, h=np.array([gap0, gap0])))
    if sol.status != "optimal":            # geometry guarantees feasibility for finite data
        raise RuntimeError("contact QP undefined: non-finite state or command")
    dq = sol.z.tolist()
    lam_plus, lam_minus = sol.ineq_duals.tolist()
    nxt = Contact2DState(xu=state.xu + dq[0], xa=state.xa + dq[1], ya=state.ya + dq[2])
    return nxt, StepDiagnostics(
        lambda_n=lam_plus + lam_minus, gap=nxt.ya - params.contact_height,
        mode=_MODES_2D[_cone_mode(lam_plus, lam_minus, max)],
        lambda_t=params.mu * (lam_plus - lam_minus))


@functools.lru_cache(maxsize=32)
def _anitescu_qp(params: Contact2DParams):
    """step_2d_anitescu's P and G, read-only: they depend on the parameters alone."""
    hk, mu = params.h * params.k, params.mu
    P = np.diag([params.m / params.h, hk, hk])
    G = np.array([[mu, -mu, -1.0], [-mu, mu, -1.0]])
    P.flags.writeable = G.flags.writeable = False
    return P, G


def _cone_mode(lam_plus, lam_minus, maximum):
    """_MODES_2D index the cone duals name: a row is active above 1e-9 max(1, lambda_n).

    Neither row is separation, both sticking, minus alone sliding_up, plus alone sliding_down.
    """
    tol = 1e-9 * maximum(1.0, lam_plus + lam_minus)
    plus, minus = lam_plus > tol, lam_minus > tol
    return 2 * minus + 3 * plus - 4 * (plus & minus)     # 0, 1 both, 2 minus, 3 plus


def _anitescu_2d(xu, xa, ya, cx, cy, params: Contact2DParams, maximum):
    """step_2d_anitescu's QP solved on each of its four active sets, in _MODES_2D order.

    The sets (no cone row, both, minus alone, plus alone) are each
    (xu_next, xa_next, ya_next, lam_plus, lam_minus, valid), the duals from
    the set's KKT system and the displacement dq_free - P^{-1} G'lam. Finite
    input makes one set valid, the one the QP's dual active set ends on: no
    row if neither exceeds its feasibility tolerance at dq_free, else the
    most violated row (plus on a tie) alone if that leaves the other within
    it, else both. The mode is _cone_mode of the valid set's duals. As in
    _exact_2d, elementwise operations and `maximum` make floats and arrays
    round alike.
    """
    hk, hm, mu = params.h * params.k, params.h / params.m, params.mu
    dx, dy = cx - xa, cy - ya                   # the robot's free displacement
    gap = ya - params.contact_height
    res_p = -mu * dx - dy - gap                 # each row's violation g'dq_free - gap
    res_m = mu * dx - dy - gap
    worst = maximum(res_p, res_m)
    contact = worst > _FEAS_TOL
    # the QP adds the most violated row first, the plus row on a tie
    plus_first, minus_first = res_p >= res_m, res_m > res_p
    d = mu * mu * hm + (1.0 + mu * mu) / hk     # g'P^{-1}g of either row
    e = 1.0 / hk - mu * mu * (hm + 1.0 / hk)    # g_plus'P^{-1}g_minus
    lam_p, lam_m = res_p / d, res_m / d         # each row alone
    after_p = res_m - e * lam_p                 # the other row's violation then
    after_m = res_p - e * lam_m
    lam_n = 0.5 * hk * (res_p + res_m)          # both rows: lam_plus + lam_minus
    lam_d = 0.5 * (res_p - res_m) / (mu * mu * (hm + 1.0 / hk))   # and their difference
    plus_alone = contact & plus_first & (after_p <= _FEAS_TOL)
    minus_alone = contact & minus_first & (after_m <= _FEAS_TOL)
    both = contact & (plus_first & (after_p > _FEAS_TOL) | minus_first & (after_m > _FEAS_TOL))

    def solution(lam_plus, lam_minus, valid):
        lam_t = mu * (lam_plus - lam_minus)     # tangential impulse on the robot
        return (xu - hm * lam_t, xa + (dx + lam_t / hk),
                ya + (dy + (lam_plus + lam_minus) / hk), lam_plus, lam_minus, valid)

    return [solution(0.0, 0.0, worst <= _FEAS_TOL),
            solution(0.5 * (lam_n + lam_d), 0.5 * (lam_n - lam_d), both),
            solution(0.0, lam_m, minus_alone),
            solution(lam_p, 0.0, plus_alone)]


# ---------------------------------------------------------------------------
# penalty contact


@dataclass(frozen=True)
class PenaltyParams:
    """Stiff-spring contact with viscous-then-Coulomb friction.

    The friction coefficient ramps as viscous_slope * |slip speed| until
    the stick/slip threshold psi_s, then drops to the dynamic coefficient
    mu_d. With viscous_slope * psi_s == mu_d the model is continuous;
    larger values produce the static-friction overshoot whose jump the
    smoothing removes.
    """

    k_n: float = 100.0
    viscous_slope: float = 10.0
    psi_s: float = 0.1
    mu_d: float = 0.5

    __post_init__ = _require_positive


def penalty_forces(phi, psi, params: PenaltyParams):
    """Normal and tangential penalty force for gap phi and slip speed psi.

    f_n = -k_n * min(phi, 0); friction opposes the signed slip psi with
    coefficient viscous_slope*|psi| below the threshold and mu_d above it.
    Vectorized over numpy arrays.
    """
    phi = np.asarray(phi, dtype=float)
    psi = np.asarray(psi, dtype=float)
    f_n = -params.k_n * np.minimum(phi, 0.0) + 0.0   # +0.0 normalizes -0.0
    speed = np.abs(psi)
    mu = np.where(speed <= params.psi_s, params.viscous_slope * speed, params.mu_d)
    f_t = -np.sign(psi) * mu * f_n
    if f_n.ndim == 0:
        return float(f_n), float(f_t)
    return f_n, f_t


class PenaltyPush1D(DynamicalSystem):
    """Second-order 1D penalty pusher: a semi-implicit Euler step.

    State (xu, vu, xa): box position/velocity and robot position; input the
    robot command. The box feels the stiff-spring normal force
    normal_stiffness * (xa - xu) when the robot penetrates it (xa > xu);
    the robot is a damped proportional servo pulled toward the command and
    pushed back by the contact force. The step is piecewise linear, so
    d xu'/d xa jumps from 0 to h^2 * normal_stiffness / box_mass at
    contact (right-sided at xa == xu, as ContactPush1D). The Jacobians
    depend only on the state, so a bundle smooths the jump only by
    perturbing the state, as the planner's bundles do. Needs a small step
    for the stiff spring: h * sqrt(normal_stiffness / box_mass) <= 0.2 for
    the box and h * normal_stiffness / robot_damping < 2 for the robot's
    explicit servo step; the defaults give 0.2 and 1. A batch with any
    entry beyond 1e6 raises DivergedError.
    """

    state_dim = 3
    input_dim = 1
    step = DynamicalSystem.step

    def __init__(self, box_mass=1.0, normal_stiffness=1e4, robot_stiffness=100.0,
                 robot_damping=20.0, h=0.002):
        self.box_mass = box_mass
        self.normal_stiffness = normal_stiffness
        self.robot_stiffness = robot_stiffness
        self.robot_damping = robot_damping
        self.h = h
        _require_positive(self)

    def step_batch(self, xs, us):
        h = self.h
        xu, vu, xa = xs[:, 0], xs[:, 1], xs[:, 2]
        f_n = -self.normal_stiffness * np.minimum(xu - xa, 0.0)
        vu_next = vu + h * f_n / self.box_mass
        xa_rate = (self.robot_stiffness * (us[:, 0] - xa) - f_n) / self.robot_damping
        nxt = np.stack([xu + h * vu_next, vu_next, xa + h * xa_rate], axis=1)
        if np.any(np.abs(nxt) > 1e6):
            raise DivergedError(
                "penalty integration diverged; reduce the timestep h (currently "
                f"h*sqrt(k_n/m) = {h * np.sqrt(self.normal_stiffness / self.box_mass):.3f})")
        return nxt

    def jacobians_batch(self, xs, us):
        h, servo = self.h, self.h * self.robot_stiffness / self.robot_damping
        g = h * self.normal_stiffness / self.box_mass          # d vu'/d(xa - xu) in contact
        e = h * self.normal_stiffness / self.robot_damping     # -d xa'/d(xa - xu) in contact
        free = [[1.0, h, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0 - servo]]
        touching = [[1.0 - h * g, h, h * g], [-g, 1.0, g], [e, 0.0, 1.0 - servo - e]]
        a = np.where((xs[:, 2] >= xs[:, 0])[:, None, None], touching, free)
        return a, np.tile([[0.0], [0.0], [servo]], (xs.shape[0], 1, 1))


# ---------------------------------------------------------------------------
# DynamicalSystem adapters for the trajectory optimizer


class ContactPush1D(DynamicalSystem):
    """1D pusher as a (xu, xa) system with the commanded position as input.

    Commands short of the box leave it in place and the robot lands on
    its command; commands at or past the box place both at the blend
    (c*xu + command)/(1+c), c = c_ratio. At the boundary the Jacobians
    follow the right-sided convention: the contact piece applies exactly
    when the command reaches the box.
    """

    state_dim = 2
    input_dim = 1
    step = DynamicalSystem.step

    def __init__(self, params: Contact1DParams = Contact1DParams()):
        self.params = params

    def step_batch(self, xs, us):
        c = self.params.c_ratio
        xu, xa = xs[:, 0], xs[:, 1]
        cmd = us[:, 0]
        contact = cmd >= xu
        pos = (c * xu + cmd) / (1.0 + c)
        return np.stack([np.where(contact, pos, xu),
                         np.where(contact, pos, cmd)], axis=1)

    def jacobians_batch(self, xs, us):
        c = self.params.c_ratio
        s = 1.0 / (1.0 + c)
        contact = (us[:, 0] >= xs[:, 0])[:, None, None]
        a = np.where(contact, [[c * s, 0.0], [c * s, 0.0]], [[1.0, 0.0], [0.0, 0.0]])
        b = np.where(contact, [[s], [s]], [[0.0], [1.0]])
        return a, b


class ContactPush2D(DynamicalSystem):
    """2D frictional pusher as a (xu, xa, ya) system with command inputs.

    Each row gets its contact mode's constant Jacobians. An exact-model
    batch is one array pass whose rows equal step_2d_exact bit for bit. An
    Anitescu batch evaluates the QP's closed form, _anitescu_2d: the mode of
    step_2d_anitescu in every row, its state up to rounding. One row calls
    step_2d_anitescu, whose QP calls the perfbench harness counts (until
    ROADMAP item 2).
    """

    state_dim = 3
    input_dim = 2
    step = DynamicalSystem.step

    def __init__(self, params: Contact2DParams = Contact2DParams(),
                 model: str = "exact"):
        if model not in ("exact", "anitescu"):
            raise ConfigurationError(f"unknown contact model {model!r}")
        self.params = params
        self._rows = self._exact_rows if model == "exact" else self._anitescu_rows
        tables = [_mode_jacobians(mode, params, model) for mode in _MODES_2D]
        self._mode_a, self._mode_b = (np.array(t) for t in zip(*tables))

    def _exact_rows(self, xs, us):
        """Mode indices (into _MODES_2D) and next states of the exact model.

        One row steps on Python floats, which beat array dispatch there.
        """
        p = self.params
        if len(xs) == 1:
            (xu, xa, _), (cx, cy) = xs[0].tolist(), us[0].tolist()
            modes = _exact_2d(xu, xa, cx, cy, p, max)
            i = _consistent_2d(modes)[0]
            return [i], np.array([[modes[i][0], modes[i][1], cy if i == 0 else p.contact_height]])
        modes = _exact_2d(xs[:, 0], xs[:, 1], us[:, 0], us[:, 1], p, _where_max)
        viol = np.stack([m[4] for m in modes], axis=1)
        ok = viol <= _TIE_TOL
        # viol is NaN in all columns or none, so argmin's first minimum is min()'s
        mode = np.where(ok.any(axis=1), ok.argmax(axis=1), viol.argmin(axis=1))
        nxt_u, nxt_a = (np.choose(mode, [m[k] for m in modes]) for k in (0, 1))
        return mode, np.stack([nxt_u, nxt_a, np.where(mode == 0, us[:, 1], p.contact_height)],
                              axis=1)

    def _anitescu_rows(self, xs, us):
        """Mode indices and next states of the Anitescu model: a QP for one row."""
        if len(xs) == 1:
            nxt, diag = step_2d_anitescu(Contact2DState(*xs[0].tolist()), us[0].tolist(),
                                         self.params)
            return [_MODES_2D.index(diag.mode)], np.array([[nxt.xu, nxt.xa, nxt.ya]])
        sets = _anitescu_2d(*xs.T, *us.T, self.params, _where_max)
        valid = np.stack([s[5] for s in sets], axis=1)
        if not valid.any(axis=1).all():
            raise RuntimeError("contact QP undefined: non-finite state or command")
        pick = valid.argmax(axis=1)
        nxt_u, nxt_a, nxt_y, lam_plus, lam_minus = (
            np.choose(pick, [s[k] for s in sets]) for k in range(5))
        return (_cone_mode(lam_plus, lam_minus, _where_max),
                np.stack([nxt_u, nxt_a, nxt_y], axis=1))

    def step_batch(self, xs, us):
        return self._rows(xs, us)[1]

    def jacobians_batch(self, xs, us):
        mode = self._rows(xs, us)[0]
        return self._mode_a[mode], self._mode_b[mode]


def _mode_jacobians(mode: str, params: Contact2DParams, model: str):
    """(d step/dx, d step/du) of one contact mode, constant within it.

    Separation and sticking are the same in both models. In a sliding mode
    (r = +mu up, -mu down) the Anitescu QP has one active cone row, and its
    KKT system gives lambda = (y_c - cy + r(cx - xa))/D, D = (1+mu^2)/hk +
    mu^2 h/m; then xu' = xu + rh lambda/m, xa' = cx - r lambda/hk, ya' = cy + lambda/hk.
    """
    c, mu = params.c_ratio, params.mu
    s = 1.0 / (1.0 + c)
    a = np.diag([1.0, 0.0, 0.0])
    if mode == MODE_SEPARATION:
        return a, np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    if mode == MODE_STICKING:
        a[0, 1], a[1, 1] = -s, c * s
        return a, np.array([[s, 0.0], [s, 0.0], [0.0, 0.0]])
    r = mu if mode == MODE_SLIDING_UP else -mu
    if model == "exact":
        return a, np.array([[0.0, -r / c], [1.0, r], [0.0, 0.0]])
    g = 1.0 / (1.0 + mu * mu + mu * mu / c)           # 1 / (hk D)
    q = mu * mu * g
    a[0, 1], a[1, 1], a[2, 1] = -q / c, q, -r * g
    return a, np.array([[q / c, -r * g / c], [1.0 - q, r * g], [r * g, 1.0 - g]])
