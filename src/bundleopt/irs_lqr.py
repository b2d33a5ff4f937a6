"""Iterative trajectory optimization with bundled linearizations.

The optimizer alternates two passes until the cost settles: linearize the
dynamics at every knot of the current nominal trajectory (exactly, or with
the first/zero-order Jacobian bundle at the scheduled sampling variance),
then roll the true system forward, choosing each input as the first input
of the shrinking-horizon MPC problem on the linearized model from the
state actually reached. The linear model is one LinearizedDynamics
stacking every knot's A, B and c. Each problem shape has one solver, used
both in the loop and by mpc_solve:

* No inequalities (C_u and C_x both None): one backward affine-Riccati
  pass gives the time-varying policy u_t = K_t x_t + k_t, which by
  Bellman's principle is the first input of every window; the rollout
  applies it with no per-window QP (iterative LQR).
* Inequalities: each window is a condensed QP in its stacked inputs,
  solved by the dual active-set method. The condensed data are assembled
  once per iteration; by causality window j's Hessian and constraint rows
  are trailing slices of window 0's, and only the gradient and the state
  constraint offsets depend on the window's start state. The windows of
  one iteration share one linear model, so their optimal active sets
  barely move: each window is warm-started from the previous window's
  active set, renumbered (the first window, and the one after a relaxed
  window, start empty).

There is no line search or trust region; smoothing itself is the
stabilizer, the variance schedule anneals it away, and divergence is
detected and reported rather than patched. stop_reason is the one rule
for why a run stops: the planner loop and the CLI's `diverged` column
both read it.

Per-knot sample seeds derive deterministically from (run seed, iteration,
knot index), so results are bit-identical regardless of how callers
parallelize the per-knot work. Each knot draws its own samples, and an
iteration's knots share a few batched calls on the dynamics, so a knot's
linearization does not depend on which other knots share its call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import qp as _qp
from .errors import ConfigurationError
from .smoothing import (SmoothingDistribution, jacobian_bundle_first_order,
                        jacobian_bundle_zero_order, variance_schedule)
from .systems import DynamicalSystem, LinearizedDynamics, linearize_exact

__all__ = [
    "MpcProblem",
    "GradientMode",
    "TrajectoryIterate",
    "MpcResult",
    "trajectory_cost",
    "rollout",
    "derive_knot_seed",
    "linearize_trajectory",
    "mpc_solve",
    "irs_lqr_run",
    "stop_reason",
]

GRADIENT_MODES = ("exact", "first_order_bundle", "zero_order_bundle")

_SLACK_WEIGHT = 1e6
_CONVERGENCE_RTOL = 1e-6
_CONVERGENCE_STREAK = 3
_DIVERGENCE_STREAK = 5
# Bytes of Jacobians (rows x n x (n+m) floats) per bundle call; its peak is about twice that.
_BATCH_BYTES = 128 * 1024


@dataclass
class MpcProblem:
    """Quadratic tracking problem over a finite horizon.

    The running state cost Q (PSD) and input cost R (PD) apply at every
    step; Q_terminal weighs the final deviation. x_desired has T+1 rows.
    All four must be finite. Optional linear inequalities C_u u <= d_u
    (t < T) and C_x x <= d_x (all t) apply at every step.
    start_index/initial_state select the MPC window: the subproblem starts
    at knot j from the given state.
    """

    horizon: int
    Q: np.ndarray
    R: np.ndarray
    Q_terminal: np.ndarray
    x_desired: np.ndarray
    C_u: np.ndarray | None = None
    d_u: np.ndarray | None = None
    C_x: np.ndarray | None = None
    d_x: np.ndarray | None = None
    start_index: int = 0
    initial_state: np.ndarray | None = None

    def __post_init__(self):
        T = int(self.horizon)
        if T < 1:
            raise ConfigurationError(f"horizon must be >= 1, got {T}")
        self.Q_terminal = np.asarray(self.Q_terminal, dtype=float)
        n = self.Q_terminal.shape[0]
        self.Q = np.asarray(self.Q, dtype=float)
        self.R = np.asarray(self.R, dtype=float)
        if self.Q.shape != (n, n) or self.R.ndim != 2 or self.R.shape[0] != self.R.shape[1]:
            raise ConfigurationError(
                f"Q must be ({n},{n}) and R square, got {self.Q.shape} and {self.R.shape}")
        self.x_desired = np.asarray(self.x_desired, dtype=float)
        if self.x_desired.shape != (T + 1, n):
            raise ConfigurationError(
                f"x_desired must have shape {(T + 1, n)}, got {self.x_desired.shape}")
        _check_finite(self.x_desired, "x_desired")
        _check_definite(self.Q, "Q", "positive semidefinite", -1e-10)
        _check_definite(self.R, "R", "positive definite", 0.0)
        _check_definite(self.Q_terminal, "Q_terminal", "positive semidefinite", -1e-10)
        if (self.C_u is None) != (self.d_u is None):
            raise ConfigurationError("C_u and d_u must be given together")
        if (self.C_x is None) != (self.d_x is None):
            raise ConfigurationError("C_x and d_x must be given together")
        if self.C_u is not None:
            self.C_u = np.atleast_2d(np.asarray(self.C_u, dtype=float))
            self.d_u = np.asarray(self.d_u, dtype=float).ravel()
        if self.C_x is not None:
            self.C_x = np.atleast_2d(np.asarray(self.C_x, dtype=float))
            self.d_x = np.asarray(self.d_x, dtype=float).ravel()
        self._anchor(self.start_index, self.initial_state)

    @property
    def state_dim(self) -> int:
        return self.Q_terminal.shape[0]

    @property
    def input_dim(self) -> int:
        return self.R.shape[0]

    def window(self, start_index: int, initial_state) -> "MpcProblem":
        """Same problem re-anchored at knot start_index; checks only the anchor."""
        clone = object.__new__(MpcProblem)
        clone.__dict__.update(self.__dict__)
        clone._anchor(start_index, initial_state)
        return clone

    def _anchor(self, start_index: int, initial_state):
        """Set the window start: 0 <= start_index < T and a state of shape (n,)."""
        T, n = self.horizon, self.state_dim
        if not 0 <= start_index < T:
            raise ConfigurationError(f"start_index must be in [0, {T - 1}], got {start_index}")
        if initial_state is not None:
            initial_state = np.asarray(initial_state, dtype=float)
            if initial_state.shape != (n,):
                raise ConfigurationError(
                    f"initial_state must have shape {(n,)}, got {initial_state.shape}")
        self.start_index = int(start_index)
        self.initial_state = initial_state


@dataclass(frozen=True)
class GradientMode:
    """How knot-point linearizations are produced.

    kind "exact" differentiates the dynamics; "first_order_bundle"
    averages Jacobians over sampled (state, input) perturbations;
    "zero_order_bundle" fits them by least squares on sampled steps.
    Bundle modes use `samples` draws per knot; per-knot seeds derive from
    the run seed.
    """

    kind: str = "exact"
    samples: int = 100

    def __post_init__(self):
        if self.kind not in GRADIENT_MODES:
            raise ConfigurationError(
                f"gradient mode must be one of {GRADIENT_MODES}, got {self.kind!r}")
        if self.samples < 1:
            raise ConfigurationError("sample count must be >= 1")


@dataclass(frozen=True)
class TrajectoryIterate:
    """One optimizer iterate: the rolled-out trajectory and its cost.

    xs has T+1 rows (knots satisfy the true dynamics exactly), us has T.
    `linearizations` is the stacked model the pass that produced this
    iterate planned on (None for the initial rollout).
    """

    xs: np.ndarray
    us: np.ndarray
    cost: float
    iteration: int
    linearizations: LinearizedDynamics | None = field(default=None, repr=False)
    infeasible_steps: int = 0


@dataclass(frozen=True)
class MpcResult:
    """First input of an MPC window, with the window QP's multipliers.

    `duals` are the multipliers of the window QP's inequality rows.
    `active` lists its final active rows, sorted; it is empty for a
    relaxed window, whose QP has slack variables and another layout. A
    problem with no inequalities has no window QP: both are empty.
    """

    u: np.ndarray
    relaxed: bool
    duals: np.ndarray
    active: tuple[int, ...] = ()


def trajectory_cost(trajectory, mpc: MpcProblem) -> float:
    """Terminal plus running quadratic cost of an (xs, us) trajectory."""
    xs, us = trajectory
    xs = np.asarray(xs, dtype=float)
    us = np.asarray(us, dtype=float)
    T = mpc.horizon
    if xs.shape[0] != T + 1 or us.shape[0] != T:
        raise ConfigurationError("trajectory length does not match the horizon")
    err = xs - mpc.x_desired
    total = float(err[T] @ mpc.Q_terminal @ err[T])
    for t in range(T):
        total += float(err[t] @ mpc.Q @ err[t]) + float(us[t] @ mpc.R @ us[t])
    return total


def rollout(sys: DynamicalSystem, x0, us) -> np.ndarray:
    """Integrate the true dynamics under an input sequence."""
    us = np.asarray(us, dtype=float)
    xs = np.empty((us.shape[0] + 1, np.asarray(x0).shape[0]))
    xs[0] = np.asarray(x0, dtype=float)
    for t in range(us.shape[0]):
        xs[t + 1] = sys.step(xs[t], us[t])
    return xs


def derive_knot_seed(run_seed: int, iteration: int, knot: int) -> int:
    """Deterministic per-knot sample seed; independent of evaluation order."""
    ss = np.random.SeedSequence([int(run_seed), int(iteration), int(knot)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def joint_variances(cov0, mode: GradientMode, state_dim: int, input_dim: int) -> np.ndarray:
    """Joint (state, input) sampling variances, shape (n+m,), from a scalar variance.

    cov0 is the per-coordinate variance of the input perturbations; the
    zero-order mode also perturbs the state at the same variance (its
    regression needs excitation in every direction), while the first-order
    mode leaves states unperturbed (variance 0). So on a system whose
    Jacobians depend only on the state, such as PenaltyPush1D, the
    first-order bundle is the exact linearization.
    """
    cov0 = np.asarray(cov0, dtype=float)
    if cov0.ndim != 0:
        raise ConfigurationError(f"cov0 must be a scalar variance, got shape {cov0.shape}")
    variances = np.zeros(state_dim + input_dim)
    variances[state_dim:] = cov0
    if mode.kind == "zero_order_bundle":
        variances[:state_dim] = cov0
    return variances


def linearize_trajectory(sys: DynamicalSystem, xs, us, mode: GradientMode,
                         variances, run_seed: int, iteration: int
                         ) -> LinearizedDynamics:
    """Stacked linear models of every knot of a nominal trajectory.

    `xs` must be the rollout of `us`: offsets read f(x_t, u_t) at xs[t + 1].
    `variances` are the joint (state, input) sampling variances for the
    bundle modes; the exact mode never reads them and makes one
    jacobians_batch call. The bundle modes seed each knot on its own and
    make one bundle call per group of knots, sized by _BATCH_BYTES. All-zero
    variances make every mode take the exact path, so degenerate-variance
    runs of all modes are bit-identical.
    """
    xs = np.asarray(xs, dtype=float)
    us = np.asarray(us, dtype=float)
    (T, m), n = us.shape, xs.shape[1]
    knots, nexts = xs[:T], xs[1:]
    dist = None if mode.kind == "exact" else SmoothingDistribution(variances)
    if dist is None or dist.is_zero:
        return linearize_exact(sys, knots, us, nexts)
    bundle = (jacobian_bundle_first_order if mode.kind == "first_order_bundle"
              else jacobian_bundle_zero_order)
    seeds = [derive_knot_seed(run_seed, iteration, t) for t in range(T)]
    group = max(1, _BATCH_BYTES // (mode.samples * n * (n + m) * 8))
    parts = [bundle(sys, knots[k], us[k], dist, mode.samples, seeds[k])
             for k in (slice(start, start + group) for start in range(0, T, group))]
    # concatenate keeps each group's memory layout (the zero-order fit's are
    # transposed views), and with it the bits of every product on the model
    a, b = (np.concatenate(jac) for jac in zip(*parts))
    return LinearizedDynamics.through(a, b, knots, us, nexts)


class _CondensedHorizon:
    """Condensed MPC data of one iteration's linear model, for every window.

    Eliminating the dynamics analytically (states are affine in the
    inputs: x = F u + g) leaves a strictly convex QP in the stacked inputs
    alone. Its Hessian is F'QF + R with Q and R the block-diagonal running
    and terminal costs (times 2); R being positive definite makes it
    positive definite with no ridge. By causality, window j's F, Hessian
    and constraint rows are trailing slices of window 0's, so they are
    built once. Only the free response g of the linear model from the
    window's start state, and through it the gradient and the state
    constraint offsets, changes from window to window.
    """

    def __init__(self, mpc: MpcProblem, lins: LinearizedDynamics):
        T, n, m = mpc.horizon, mpc.state_dim, mpc.input_dim
        self.mpc = mpc
        self.lins = lins
        F = np.zeros((T + 1, n, T * m))
        for t in range(T):
            F[t + 1] = lins.A[t] @ F[t]
            F[t + 1, :, t * m:(t + 1) * m] = lins.B[t]
        q_bar = 2.0 * np.concatenate([np.broadcast_to(mpc.Q, (T, n, n)), mpc.Q_terminal[None]])
        self.QF = (q_bar @ F).reshape((T + 1) * n, T * m)
        P = F.reshape((T + 1) * n, T * m).T @ self.QF
        for t in range(T):
            P[t * m:(t + 1) * m, t * m:(t + 1) * m] += 2.0 * mpc.R
        self.P = 0.5 * (P + P.T)
        if mpc.C_u is not None:
            self.G_u = np.kron(np.eye(T), mpc.C_u)
            self.h_u = np.tile(mpc.d_u, T)
        if mpc.C_x is not None:
            self.G_x = (mpc.C_x @ F).reshape(-1, T * m)

    def window_qp(self, j: int, x_j, relaxed: bool):
        """(P, q, G, h) of the reduced QP for the window starting at knot j.

        With `relaxed`, state inequalities get quadratically penalized
        slack variables (weight 1e6), so an infeasible window still
        produces a usable input.
        """
        mpc = self.mpc
        T, n, m = mpc.horizon, mpc.state_dim, mpc.input_dim
        g = np.empty((T - j + 1, n))
        g[0] = x_j
        A, c = self.lins.A, self.lins.c
        for t in range(j, T):
            g[t - j + 1] = A[t] @ g[t - j] + c[t]
        P = self.P[j * m:, j * m:]
        q = self.QF[j * n:, j * m:].T @ (g - mpc.x_desired[j:]).ravel()
        rows, offsets = [], []
        if mpc.C_u is not None:
            p_u = mpc.C_u.shape[0]
            rows.append(self.G_u[j * p_u:, j * m:])
            offsets.append(self.h_u[j * p_u:])
        if mpc.C_x is not None:
            rows.append(self.G_x[j * mpc.C_x.shape[0]:, j * m:])
            offsets.append((mpc.d_x - g @ mpc.C_x.T).ravel())
        if not (relaxed and mpc.C_x is not None):
            return P, q, np.vstack(rows), np.concatenate(offsets)
        # Slack s >= 0 per state row: C_x x - s <= d_x, cost 1e6 |s|^2.
        nu, n_sx = q.shape[0], rows[-1].shape[0]
        P_s = np.zeros((nu + n_sx, nu + n_sx))
        P_s[:nu, :nu] = P
        P_s[nu:, nu:] = 2.0 * _SLACK_WEIGHT * np.eye(n_sx)
        slack = np.zeros((sum(r.shape[0] for r in rows) + n_sx, n_sx))
        slack[-2 * n_sx:-n_sx] = -np.eye(n_sx)
        slack[-n_sx:] = -np.eye(n_sx)
        G = np.hstack([np.vstack(rows + [np.zeros((n_sx, nu))]), slack])
        return (P_s, np.concatenate([q, np.zeros(n_sx)]), G,
                np.concatenate(offsets + [np.zeros(n_sx)]))

    def solve(self, j: int, x_j, start=()) -> MpcResult:
        """First optimal input of window j; relaxes and flags it if infeasible.

        `start` is the active set the QP starts from (see next_start); a
        relaxed re-solve starts empty.
        """
        for relaxed in (False, True):
            P, q, G, h = self.window_qp(j, x_j, relaxed)
            y, lam, active, status, _ = _qp._dual_active_set(
                P, q, G, h, start=() if relaxed else start)
            if status == "optimal":
                return MpcResult(u=y[:self.mpc.input_dim], relaxed=relaxed, duals=lam,
                                 active=() if relaxed else tuple(active))
            if status == "infeasible" and self.mpc.C_x is not None and not relaxed:
                continue
            raise RuntimeError(f"MPC subproblem failed with status {status!r}")
        raise RuntimeError("MPC subproblem infeasible even with relaxed state constraints")

    def next_start(self, j: int, active) -> tuple[int, ...]:
        """Window j's active rows renumbered for window j+1.

        Window j+1 loses step j's input rows. It also loses the state rows
        of knots j and j+1: no input of window j+1 moves knot j+1, so those
        rows are constant there and would make the start set singular.
        """
        mpc = self.mpc
        p_u = 0 if mpc.C_u is None else mpc.C_u.shape[0]
        p_x = 0 if mpc.C_x is None else mpc.C_x.shape[0]
        n_u = (mpc.horizon - j) * p_u          # input rows of window j
        return tuple(i - p_u if i < n_u else i - p_u - p_x
                     for i in active
                     if p_u <= i < n_u or i >= n_u + 2 * p_x)


def _riccati_gains(mpc: MpcProblem, lins: LinearizedDynamics
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Affine policy u_t = K_t x_t + k_t optimal for every inequality-free window.

    One backward affine-Riccati pass over the knots, with value functions
    V_t(x) = x'S_t x + 2 s_t'x + const. By Bellman's principle the window
    starting at knot t from state x has first input K_t x + k_t.
    """
    T, n, m = mpc.horizon, mpc.state_dim, mpc.input_dim
    K = np.empty((T, m, n))
    k = np.empty((T, m))
    S = mpc.Q_terminal
    s = -mpc.Q_terminal @ mpc.x_desired[T]
    for t in reversed(range(T)):
        A, B = lins.A[t], lins.B[t]
        SA = S @ A
        v = S @ lins.c[t] + s
        Q_uu = mpc.R + B.T @ S @ B
        Q_ux = B.T @ SA
        sol = np.linalg.solve(Q_uu, np.column_stack([Q_ux, B.T @ v]))
        K[t], k[t] = -sol[:, :n], -sol[:, n]
        S = mpc.Q + A.T @ SA + Q_ux.T @ K[t]
        S = 0.5 * (S + S.T)
        s = -mpc.Q @ mpc.x_desired[t] + A.T @ v + Q_ux.T @ k[t]
    return K, k


def mpc_solve(mpc: MpcProblem, linearizations: LinearizedDynamics) -> MpcResult:
    """First optimal input of the shrinking-horizon MPC window.

    Solves the window starting at `mpc.start_index` from
    `mpc.initial_state` on the stacked model with irs_lqr_run's solver for
    the problem's shape, so the input is the one the rollout applies: with
    no inequalities the Riccati policy K_j x + k_j (no QP), otherwise the
    window's condensed QP. An infeasible window is re-solved with
    penalized slack on the state inequalities and flagged `relaxed`.
    """
    if mpc.initial_state is None:
        raise ConfigurationError("MpcProblem.initial_state must be set for an MPC solve")
    knots = linearizations.A.shape[0]
    if knots != mpc.horizon:
        raise ConfigurationError(f"need {mpc.horizon} knot linearizations, got {knots}")
    j, x = mpc.start_index, mpc.initial_state
    if mpc.C_u is None and mpc.C_x is None:
        K, k = _riccati_gains(mpc, linearizations)
        return MpcResult(u=K[j] @ x + k[j], relaxed=False, duals=np.zeros(0))
    return _CondensedHorizon(mpc, linearizations).solve(j, x)


def irs_lqr_run(sys: DynamicalSystem, mpc: MpcProblem, mode: GradientMode,
                cov0, schedule=("geometric", 0.7), max_iters: int = 20,
                seed: int = 0, u_init=None) -> list[TrajectoryIterate]:
    """Iterate bundle-linearization and MPC rollouts; returns all iterates.

    Each iteration linearizes around the current trajectory and rolls the
    true system out under the linear model's MPC inputs: from one Riccati
    pass when the problem has no inequalities, otherwise from a condensed
    QP per window (see the module docstring). Relaxed windows are counted
    in each iterate's `infeasible_steps`.

    `cov0` is the initial sampling variance (see joint_variances);
    `schedule` a (policy, gamma) pair fed to variance_schedule. Stops after
    max_iters iterations, or as soon as stop_reason of the costs so far is
    "diverged" or "converged".
    """
    if mpc.initial_state is None:
        raise ConfigurationError("MpcProblem.initial_state must hold the start state")
    T = mpc.horizon
    n, m = mpc.state_dim, mpc.input_dim
    us = np.zeros((T, m)) if u_init is None else np.array(u_init, dtype=float)
    if us.shape != (T, m):
        raise ConfigurationError(f"u_init must have shape {(T, m)}")
    if mode.kind == "zero_order_bundle" and mode.samples < n + m:
        raise ConfigurationError(
            f"zero-order mode needs at least dim(x)+dim(u)={n + m} samples")
    policy, gamma = schedule
    var_joint0 = joint_variances(cov0, mode, n, m)
    unconstrained = mpc.C_u is None and mpc.C_x is None

    xs = rollout(sys, mpc.initial_state, us)
    history = [TrajectoryIterate(xs=xs, us=us, cost=trajectory_cost((xs, us), mpc),
                                 iteration=0)]
    for k in range(max_iters):
        var_k = variance_schedule(var_joint0, k, policy, gamma)
        lins = linearize_trajectory(sys, xs, us, mode, var_k, seed, k)
        new_xs = np.empty_like(xs)
        new_us = np.empty_like(us)
        new_xs[0] = xs[0]
        infeasible = 0
        if unconstrained:
            K, k_ff = _riccati_gains(mpc, lins)
        else:
            windows = _CondensedHorizon(mpc, lins)
        start = ()
        for t in range(T):
            if unconstrained:
                new_us[t] = K[t] @ new_xs[t] + k_ff[t]
            else:
                res = windows.solve(t, new_xs[t], start)
                infeasible += int(res.relaxed)
                new_us[t] = res.u
                start = windows.next_start(t, res.active)
            new_xs[t + 1] = sys.step(new_xs[t], new_us[t])
        xs, us = new_xs, new_us
        history.append(TrajectoryIterate(xs=xs, us=us, cost=trajectory_cost((xs, us), mpc),
                                         iteration=k + 1, linearizations=lins,
                                         infeasible_steps=infeasible))
        if stop_reason([it.cost for it in history]) is not None:
            break
    return history


def stop_reason(costs) -> str | None:
    """Why a run with this cost sequence stops: "diverged", "converged" or None.

    "diverged": the cost rose in each of the last 5 steps (reported, not
    patched, since the algorithm has no line search). "converged": in
    each of the last 3 steps the cost changed by less than 1e-6 relative
    to max(|previous cost|, 1e-12). Divergence is checked first.
    """
    steps = list(zip(costs[:-1], costs[1:]))
    rises = steps[-_DIVERGENCE_STREAK:]
    if len(rises) == _DIVERGENCE_STREAK and all(b > a for a, b in rises):
        return "diverged"
    flats = steps[-_CONVERGENCE_STREAK:]
    if len(flats) == _CONVERGENCE_STREAK and all(
            abs(b - a) < _CONVERGENCE_RTOL * max(abs(a), 1e-12) for a, b in flats):
        return "converged"
    return None


def _check_definite(mat: np.ndarray, name: str, kind: str, floor: float):
    """Finite, symmetric, and every eigenvalue above `floor`; else "{name} must be {kind}"."""
    _check_finite(mat, name)
    if not np.allclose(mat, mat.T, atol=1e-10):
        raise ConfigurationError(f"{name} must be symmetric")
    if np.linalg.eigvalsh(mat).min() <= floor:
        raise ConfigurationError(f"{name} must be {kind}")


def _check_finite(mat: np.ndarray, name: str):
    if not np.isfinite(mat).all():
        raise ConfigurationError(f"{name} must be finite")
