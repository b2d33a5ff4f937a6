"""Quasi-dynamic contact models.

Three families of models of a position-controlled robot interacting with a
free box:

* a 1D normal-contact system solved in closed form from its two linear
  pieces (separation / contact), with impulse complementarity diagnostics;
* a 2D frictional system - the box slides along x on a frictionless floor,
  the robot sphere presses down on the box's top face and drags it through
  Coulomb friction - solved either exactly by enumerating the four contact
  modes (separation, sticking, sliding up/down the tangential direction),
  or through the convex cone relaxation that turns the step into a QP;
* penalty-method forces (stiff spring normal force, viscous-then-Coulomb
  friction with an optional Stribeck discontinuity) and a second-order
  integrator using them.

The robot is gravity-compensated and quasi-static: its proportional
controller's virtual spring balances the contact force each step. The box
is quasi-dynamic with zero velocity entering each step, so its momentum
gain equals the contact impulse. Mode tie-breaking at exact boundaries
follows a fixed mode order with tolerance 1e-9 and is reported in the
diagnostics, which keeps stepping deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, DivergedError
from .qp import QpProblem, solve_qp
from .smoothing import BundleEstimate, SmoothingDistribution, sample_perturbations, _variance
from .systems import DynamicalSystem

__all__ = [
    "Contact1DParams",
    "Contact1DState",
    "Contact2DParams",
    "Contact2DState",
    "StepDiagnostics",
    "PenaltyParams",
    "PenaltyStep1DParams",
    "step_1d",
    "step_2d_exact",
    "step_2d_anitescu",
    "penalty_forces",
    "smoothed_penalty_forces",
    "penalty_step_1d",
    "ContactPush1D",
    "ContactPush2D",
]

MODE_SEPARATION = "separation"
MODE_CONTACT = "contact"
MODE_STICKING = "sticking"
MODE_SLIDING_UP = "sliding_up"      # positive tangential slip (robot relative to box)
MODE_SLIDING_DOWN = "sliding_down"  # negative tangential slip

_TIE_TOL = 1e-9


@dataclass(frozen=True)
class Contact1DParams:
    """1D pusher: unactuated mass m, timestep h, controller stiffness k."""

    m: float = 1.0
    h: float = 0.1
    k: float = 100.0

    def __post_init__(self):
        if min(self.m, self.h, self.k) <= 0.0:
            raise ConfigurationError("contact parameters must be positive")

    @property
    def c_ratio(self) -> float:
        """Mass-to-spring ratio m / (h^2 k) weighting the contact blend."""
        return self.m / (self.h**2 * self.k)


@dataclass(frozen=True)
class Contact1DState:
    """Positions of the free box (xu) and robot (xa), plus the commanded
    robot position for the next step."""

    xu: float
    xa: float
    command: float


@dataclass(frozen=True)
class StepDiagnostics:
    """Contact impulses and mode of one step.

    lambda_n >= 0 is the normal impulse on the robot, gap the separation
    after the step, lambda_t the signed tangential (friction) impulse on
    the robot (0 for the 1D model). `tie` flags commands that landed on a
    mode boundary within tolerance.
    """

    lambda_n: float
    gap: float
    mode: str
    lambda_t: float = 0.0
    tie: bool = False


def step_1d(state: Contact1DState, params: Contact1DParams
            ) -> tuple[Contact1DState, StepDiagnostics]:
    """Advance the 1D pusher system one step.

    Two linear pieces: commands short of the box leave it untouched and
    the robot lands on its command; commands at or past the box place both
    at the blend (c*xu + command)/(1+c). The returned impulse satisfies
    the robot force balance and box momentum relation exactly.
    """
    c = params.c_ratio
    if state.command < state.xu:
        nxt = Contact1DState(xu=state.xu, xa=state.command, command=state.command)
        diag = StepDiagnostics(lambda_n=0.0, gap=state.xu - state.command,
                               mode=MODE_SEPARATION,
                               tie=abs(state.command - state.xu) <= _TIE_TOL)
    else:
        pos = (c * state.xu + state.command) / (1.0 + c)
        nxt = Contact1DState(xu=pos, xa=pos, command=state.command)
        diag = StepDiagnostics(lambda_n=params.m * (pos - state.xu) / params.h,
                               gap=0.0, mode=MODE_CONTACT,
                               tie=abs(state.command - state.xu) <= _TIE_TOL)
    return nxt, diag


def residuals_1d(state: Contact1DState, nxt: Contact1DState, diag: StepDiagnostics,
                 params: Contact1DParams) -> dict[str, float]:
    """Defining-equation residuals of a 1D step (all should be ~0)."""
    force_balance = -diag.lambda_n + params.h * params.k * (state.command - nxt.xa)
    momentum = params.m * (nxt.xu - state.xu) / params.h - diag.lambda_n
    return {
        "force_balance": abs(force_balance),
        "momentum": abs(momentum),
        "complementarity": abs(diag.lambda_n * diag.gap),
        "gap_negative": max(0.0, -diag.gap),
        "impulse_negative": max(0.0, -diag.lambda_n),
    }


# ---------------------------------------------------------------------------
# 2D frictional contact


@dataclass(frozen=True)
class Contact2DParams:
    """2D pusher: box mass m slides along x, robot sphere presses from above.

    The square box (side 2*box_half_width) rests on a frictionless floor;
    its top face sits at 2*box_half_width. Contact occurs when the sphere
    center drops to contact_height = top + sphere_radius. mu is the
    Coulomb friction coefficient of the face.
    """

    m: float = 1.0
    h: float = 0.1
    k: float = 100.0
    mu: float = 0.5
    box_half_width: float = 0.25
    sphere_radius: float = 0.1

    def __post_init__(self):
        if min(self.m, self.h, self.k, self.mu,
               self.box_half_width, self.sphere_radius) <= 0.0:
            raise ConfigurationError("contact parameters must be positive")

    @property
    def c_ratio(self) -> float:
        return self.m / (self.h**2 * self.k)

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


def _modes_2d(state: Contact2DState, command, params: Contact2DParams):
    """Candidate solutions of all four contact modes.

    Returns a list of (mode, next_state, lambda_n, lambda_t, violation)
    where violation is the worst inequality violation of that mode's
    validity conditions (<= 0 means consistent).
    """
    cx, cy = float(command[0]), float(command[1])
    y_c = params.contact_height
    hk = params.h * params.k
    c = params.c_ratio
    mu = params.mu
    out = []

    # separation: robot reaches its command, box stays.
    nxt = Contact2DState(xu=state.xu, xa=cx, ya=cy)
    out.append((MODE_SEPARATION, nxt, 0.0, 0.0, y_c - cy))

    lam_n = hk * (y_c - cy)           # normal impulse shared by contact modes

    # sticking: box and robot move together along x.
    delta = (cx - state.xa) / (1.0 + c)
    lam_t = -(params.m / params.h) * delta
    nxt = Contact2DState(xu=state.xu + delta, xa=state.xa + delta, ya=y_c)
    out.append((MODE_STICKING, nxt, lam_n, lam_t, max(-lam_n, abs(lam_t) - mu * lam_n)))

    # sliding: friction saturates at the cone boundary and drags the box.
    for mode, sign in ((MODE_SLIDING_UP, 1.0), (MODE_SLIDING_DOWN, -1.0)):
        xa_next = cx - sign * mu * lam_n / hk
        xu_next = state.xu + sign * params.h * mu * lam_n / params.m
        slip = (xa_next - state.xa) - (xu_next - state.xu)
        nxt = Contact2DState(xu=xu_next, xa=xa_next, ya=y_c)
        out.append((mode, nxt, lam_n, -sign * mu * lam_n, max(-lam_n, -sign * slip)))
    return out


def step_2d_exact(state: Contact2DState, command, params: Contact2DParams
                  ) -> tuple[Contact2DState, StepDiagnostics]:
    """Advance the 2D frictional system with exact Coulomb complementarity.

    Solves each contact mode's linear system and returns the unique mode
    whose solution satisfies all of that mode's inequalities; exact ties
    at mode boundaries resolve to the first consistent mode in the order
    separation, sticking, sliding_up, sliding_down.
    """
    candidates = _modes_2d(state, command, params)
    valid = [cand for cand in candidates if cand[4] <= _TIE_TOL]
    if not valid:
        # Numerically degenerate corner; fall back to the least-violating mode.
        valid = [min(candidates, key=lambda cand: cand[4])]
    mode, nxt, lam_n, lam_t, _ = valid[0]
    gap = nxt.ya - params.contact_height
    return nxt, StepDiagnostics(lambda_n=lam_n, gap=gap, mode=mode,
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
    """
    cx, cy = float(command[0]), float(command[1])
    y_c = params.contact_height
    hk = params.h * params.k
    mu = params.mu
    gap0 = state.ya - y_c
    P = np.diag([params.m / params.h, hk, hk])
    q = np.array([0.0, -hk * (cx - state.xa), -hk * (cy - state.ya)])
    G = np.array([[mu, -mu, -1.0],
                  [-mu, mu, -1.0]])
    h_vec = np.array([gap0, gap0])
    sol = solve_qp(QpProblem(P=P, q=q, G=G, h=h_vec))
    if sol.status != "optimal":
        raise RuntimeError(
            f"contact QP unexpectedly {sol.status}; geometry guarantees feasibility")
    dq = sol.z
    lam_plus, lam_minus = sol.ineq_duals
    lam_n = lam_plus + lam_minus
    lam_t = mu * (lam_plus - lam_minus)
    nxt = Contact2DState(xu=state.xu + dq[0], xa=state.xa + dq[1], ya=state.ya + dq[2])
    dual_tol = 1e-9 * max(1.0, lam_n)
    active = (lam_plus > dual_tol, lam_minus > dual_tol)
    if not any(active):
        mode = MODE_SEPARATION
    elif all(active):
        mode = MODE_STICKING
    elif active[1]:
        mode = MODE_SLIDING_UP
    else:
        mode = MODE_SLIDING_DOWN
    return nxt, StepDiagnostics(lambda_n=lam_n, gap=nxt.ya - y_c, mode=mode,
                                lambda_t=lam_t)


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

    def __post_init__(self):
        if min(self.k_n, self.viscous_slope, self.psi_s, self.mu_d) <= 0.0:
            raise ConfigurationError("penalty parameters must be positive")

    @staticmethod
    def continuous(k_n=100.0, psi_s=0.1, mu_d=0.5) -> "PenaltyParams":
        """Configuration without the stick/slip discontinuity."""
        return PenaltyParams(k_n=k_n, viscous_slope=mu_d / psi_s, psi_s=psi_s, mu_d=mu_d)

    @property
    def friction_jump(self) -> float:
        """Friction-coefficient drop at the threshold (0 if continuous)."""
        return self.viscous_slope * self.psi_s - self.mu_d


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


def smoothed_penalty_forces(phi: float, psi: float, params: PenaltyParams,
                            dist: SmoothingDistribution, n: int, seed: int
                            ) -> tuple[BundleEstimate, BundleEstimate]:
    """Monte-Carlo average of the penalty forces over perturbed (phi, psi).

    Removes the stick/slip discontinuity and produces repulsion and drag
    at a distance. `dist` must be 2-dimensional, ordered (phi, psi). With a
    zero covariance this reduces exactly to penalty_forces.
    """
    if dist.dimension != 2:
        raise ConfigurationError("smoothed penalty forces need a 2D (phi, psi) distribution")
    w = sample_perturbations(dist, n, seed)
    f_n, f_t = penalty_forces(phi + w[:, 0], psi + w[:, 1], params)
    f_n = np.atleast_1d(f_n)
    f_t = np.atleast_1d(f_t)
    return (BundleEstimate(value=float(np.mean(f_n)), sample_count=n,
                           empirical_variance=float(_variance(f_n))),
            BundleEstimate(value=float(np.mean(f_t)), sample_count=n,
                           empirical_variance=float(_variance(f_t))))


def penalty_step_1d(state, command: float, params: "PenaltyStep1DParams", h: float):
    """Semi-implicit Euler step of the second-order 1D penalty system.

    State (xu, vu, xa): box position/velocity and robot position. The box
    feels the stiff-spring normal force when the robot penetrates it
    (xa > xu); the robot is a damped proportional servo pulled toward the
    command and pushed back by the contact force. Requires a small step
    (h * sqrt(k_n / box_mass) <= 0.2) for the stiff spring.
    """
    xu, vu, xa = float(state[0]), float(state[1]), float(state[2])
    gap = xu - xa
    f_n = -params.normal_stiffness * min(gap, 0.0)
    vu_next = vu + h * f_n / params.box_mass
    xu_next = xu + h * vu_next
    xa_rate = (params.robot_stiffness * (command - xa) - f_n) / params.robot_damping
    xa_next = xa + h * xa_rate
    nxt = np.array([xu_next, vu_next, xa_next])
    if np.max(np.abs(nxt)) > 1e6:
        raise DivergedError(
            "penalty integration diverged; reduce the timestep h "
            f"(currently h*sqrt(k_n/m) = {h * np.sqrt(params.normal_stiffness / params.box_mass):.3f})")
    return nxt


@dataclass(frozen=True)
class PenaltyStep1DParams:
    box_mass: float = 1.0
    normal_stiffness: float = 1e4
    robot_stiffness: float = 100.0
    robot_damping: float = 10.0


# ---------------------------------------------------------------------------
# DynamicalSystem adapters for the trajectory optimizer


class ContactPush1D(DynamicalSystem):
    """1D pusher as a (xu, xa) system with the commanded position as input.

    The same two pieces as step_1d. At the boundary the Jacobians follow
    the right-sided convention: the contact piece applies exactly when
    the command reaches the box.
    """

    state_dim = 2
    input_dim = 1
    step = DynamicalSystem.step
    jacobians = DynamicalSystem.jacobians

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

    Batches run the model's scalar stepper once per row. The exact
    model's Jacobians are those of each row's contact mode; the Anitescu
    model's are the inherited batched central differences.
    """

    state_dim = 3
    input_dim = 2
    step = DynamicalSystem.step
    jacobians = DynamicalSystem.jacobians

    def __init__(self, params: Contact2DParams = Contact2DParams(),
                 model: str = "exact"):
        if model not in ("exact", "anitescu"):
            raise ConfigurationError(f"unknown contact model {model!r}")
        self.params = params
        self.model = model
        self._stepper = step_2d_exact if model == "exact" else step_2d_anitescu

    def _step_rows(self, xs, us):
        return [self._stepper(Contact2DState(float(x[0]), float(x[1]), float(x[2])),
                              (float(u[0]), float(u[1])), self.params)
                for x, u in zip(xs, us)]

    def step_batch(self, xs, us):
        return np.array([(nxt.xu, nxt.xa, nxt.ya) for nxt, _ in self._step_rows(xs, us)])

    def jacobians_batch(self, xs, us):
        if self.model == "anitescu":
            return super().jacobians_batch(xs, us)
        pairs = [_exact_2d_mode_jacobians(diag.mode, self.params)
                 for _, diag in self._step_rows(xs, us)]
        return np.array([a for a, _ in pairs]), np.array([b for _, b in pairs])


def _exact_2d_mode_jacobians(mode: str, params: Contact2DParams):
    c = params.c_ratio
    mu = params.mu
    s = 1.0 / (1.0 + c)
    if mode == MODE_SEPARATION:
        a = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        b = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    elif mode == MODE_STICKING:
        a = np.array([[1.0, -s, 0.0], [0.0, c * s, 0.0], [0.0, 0.0, 0.0]])
        b = np.array([[s, 0.0], [s, 0.0], [0.0, 0.0]])
    else:
        sign = 1.0 if mode == MODE_SLIDING_UP else -1.0
        a = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        b = np.array([[0.0, -sign * mu / c],
                      [1.0, sign * mu],
                      [0.0, 0.0]])
    return a, b
