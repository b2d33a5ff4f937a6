"""Iterative trajectory optimization with bundled linearizations.

The optimizer alternates two passes until the cost settles: linearize the
dynamics at every knot of the current nominal trajectory (exactly, or with
the first/zero-order Jacobian bundle at the scheduled sampling variance),
then roll the true system forward, choosing each input as the first input
of the shrinking-horizon MPC problem on the linearized model from the
state actually reached. The linear model is one LinearizedDynamics
stacking every knot's A, B and c. _policy is the one place that picks
the solver for the problem's shape; the loop and mpc_solve both take
their inputs from it:

* No inequalities (C_u None): one backward affine-Riccati pass gives the
  time-varying policy u_t = K_t x_t + k_t, which by Bellman's principle
  is the first input of every window; the rollout applies it with no
  per-window QP (iterative LQR).
* Input inequalities: each window is a condensed QP in its stacked
  inputs, solved by the dual active-set method in the coordinates of its
  Hessian's Cholesky factor, where that Hessian is the identity. The
  condensed data are assembled once per iteration: by causality one
  factor of window 0's Hessian serves every window, window j's
  constraint rows in those coordinates are a view of one blockwise
  product, and the gradient is one affine map of the window's start
  state, so a window costs two views and one matrix-vector product. The
  windows of one iteration share one linear model, so their optimal
  active sets barely move: a window solved right after the one before it
  starts from that window's active set, renumbered, and when that set is
  already optimal the active set returns its start solve as is. Any
  other window, window 0 included, starts empty: a set carried over from
  the previous iteration's model cost more than it saved.

There is no line search or trust region; smoothing itself is the
stabilizer, the variance schedule anneals it away, and divergence is
detected and reported rather than patched: a pass whose linear algebra
fails raises DivergedError, and otherwise stop_reason is the one rule
for why a run stops, read by the planner loop and the CLI's `diverged`
column.

An iteration's samples are one random stream seeded by (run seed,
iteration), knot t taking the t-th block of draws. The knots share a few
batched calls on the dynamics; how they are grouped changes neither the
samples nor any knot's model, so results are bit-identical for a seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qp as _qp
from .errors import ConfigurationError, DivergedError
from .smoothing import (SmoothingDistribution, jacobian_bundle_first_order,
                        jacobian_bundle_zero_order)
from .systems import DynamicalSystem, LinearizedDynamics, linearize_exact

__all__ = [
    "MpcProblem",
    "GradientMode",
    "TrajectoryIterate",
    "trajectory_cost",
    "rollout",
    "linearize_trajectory",
    "mpc_solve",
    "irs_lqr_run",
    "stop_reason",
]

GRADIENT_MODES = ("exact", "first_order_bundle", "zero_order_bundle")
DEFAULT_SCHEDULE = ("geometric", 0.8)

_CONVERGENCE_RTOL = 1e-6
_CONVERGENCE_STREAK = 3
_DIVERGENCE_STREAK = 5
# Bytes of Jacobians (rows x n x (n+m) floats) per bundle call. A quadrotor call is
# dispatch-bound below about 300 rows, which 512 KiB (3 knots of 100 samples) clears;
# at 100 samples one linearization's traced peak stays <= 0.9 MB on every catalog task.
_BATCH_BYTES = 512 * 1024


@dataclass
class MpcProblem:
    """Quadratic tracking problem over a finite horizon.

    The running state cost Q (PSD) and input cost R (PD) apply at every
    step; Q_terminal weighs the final deviation. x_desired has T+1 rows.
    All four must be finite. Optional input inequalities C_u u <= d_u
    apply at every step t < T: C_u is finite with input_dim columns, and
    d_u has one entry per row, none NaN or -inf (+inf never binds).
    start_index/initial_state select the MPC window: the subproblem starts
    at knot j from the given state, which must be finite.
    """

    horizon: int
    Q: np.ndarray
    R: np.ndarray
    Q_terminal: np.ndarray
    x_desired: np.ndarray
    C_u: np.ndarray | None = None
    d_u: np.ndarray | None = None
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
        if self.C_u is not None:
            self.C_u = np.atleast_2d(np.asarray(self.C_u, dtype=float))
            self.d_u = np.asarray(self.d_u, dtype=float).ravel()
            if self.C_u.ndim != 2 or self.C_u.shape[1] != self.input_dim:
                raise ConfigurationError(
                    f"C_u must have {self.input_dim} columns, got shape {self.C_u.shape}")
            _check_finite(self.C_u, "C_u")
            if self.d_u.shape != self.C_u.shape[:1]:
                raise ConfigurationError(
                    f"d_u must have one entry per C_u row ({self.C_u.shape[0]}), "
                    f"got {self.d_u.shape[0]}")
            if not (self.d_u > -np.inf).all():
                raise ConfigurationError("d_u must not hold NaN or -inf")
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
        """Set the window start: 0 <= start_index < T and a finite state of shape (n,)."""
        T, n = self.horizon, self.state_dim
        if not 0 <= start_index < T:
            raise ConfigurationError(f"start_index must be in [0, {T - 1}], got {start_index}")
        if initial_state is not None:
            initial_state = np.asarray(initial_state, dtype=float)
            if initial_state.shape != (n,):
                raise ConfigurationError(
                    f"initial_state must have shape {(n,)}, got {initial_state.shape}")
            _check_finite(initial_state, "initial_state")
        self.start_index = int(start_index)
        self.initial_state = initial_state


@dataclass(frozen=True)
class GradientMode:
    """How knot-point linearizations are produced.

    kind "exact" differentiates the dynamics; "first_order_bundle"
    averages Jacobians over sampled (state, input) perturbations;
    "zero_order_bundle" fits them by least squares on sampled steps. Both
    bundles draw `samples` perturbations per knot of every state and input
    coordinate at the run's one scheduled variance, from one stream per
    iteration seeded by the run seed; the mode never changes the sampling.
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
    """

    xs: np.ndarray
    us: np.ndarray
    cost: float
    iteration: int


def trajectory_cost(trajectory, mpc: MpcProblem) -> float:
    """Terminal plus running quadratic cost of an (xs, us) trajectory, stacked over knots."""
    xs, us = trajectory
    xs = np.asarray(xs, dtype=float)
    us = np.asarray(us, dtype=float)
    T = mpc.horizon
    if xs.shape[0] != T + 1 or us.shape[0] != T:
        raise ConfigurationError("trajectory length does not match the horizon")
    err = xs - mpc.x_desired
    return float(err[T] @ mpc.Q_terminal @ err[T]
                 + np.einsum("ti,ij,tj->", err[:T], mpc.Q, err[:T])
                 + np.einsum("ti,ij,tj->", us, mpc.R, us))


def rollout(sys: DynamicalSystem, x0, us) -> np.ndarray:
    """Integrate the true dynamics under an input sequence."""
    us = np.asarray(us, dtype=float)
    xs = np.empty((us.shape[0] + 1, np.asarray(x0).shape[0]))
    xs[0] = np.asarray(x0, dtype=float)
    for t in range(us.shape[0]):
        xs[t + 1] = sys.step(xs[t], us[t])
    return xs


def linearize_trajectory(sys: DynamicalSystem, xs, us, mode: GradientMode,
                         variance, run_seed: int, iteration: int
                         ) -> LinearizedDynamics:
    """Stacked linear models of every knot of a nominal trajectory.

    `xs` must be the rollout of `us`: offsets read f(x_t, u_t) at xs[t + 1].
    `variance` is the bundle modes' sampling variance: both perturb every
    state and input coordinate by it, as the paper's bundles do. The exact
    mode never reads it and makes one jacobians_batch call. The bundle
    modes make one bundle call per group of knots, sized by _BATCH_BYTES,
    all drawing in knot order from one generator seeded by (run_seed,
    iteration). A first-order group's peak memory is 1.3-2.4x its Jacobian
    bytes (3.2x on push_1d, whose samples weigh as much); zero-order fits
    never hold per-sample Jacobians. A zero variance makes every mode take
    the exact path, so degenerate-variance runs of all modes are bit-identical.
    """
    xs = np.asarray(xs, dtype=float)
    us = np.asarray(us, dtype=float)
    (T, m), n = us.shape, xs.shape[1]
    knots, nexts = xs[:T], xs[1:]
    if mode.kind == "exact" or variance == 0:
        return linearize_exact(sys, knots, us, nexts)
    dist = SmoothingDistribution(np.full(n + m, variance))
    bundle = (jacobian_bundle_first_order if mode.kind == "first_order_bundle"
              else jacobian_bundle_zero_order)
    rng = np.random.default_rng((int(run_seed), int(iteration)))
    group = max(1, _BATCH_BYTES // (mode.samples * n * (n + m) * 8))
    parts = [bundle(sys, knots[k], us[k], dist, mode.samples, rng)
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
    and input rows are trailing slices of window 0's. P = U U' with U upper
    triangular (P's Cholesky factor in reversed order), so window j's
    Hessian is U_j U_j' for U's trailing block U_j, whose inverse is the
    trailing block W_j of W = U^{-1}, upper triangular too: one factor
    serves every window. Window j is solved in y = U_j' z, where its
    Hessian is I and its rows are G_j W_j': G is block-diagonal in C_u, so
    G W' is one product of C_u with W's block columns, and G_j W_j' is its
    trailing block. The first input, (W_j' y)[:m], reads W_j's leading block.

    Only the gradient depends on the window's start state, and affinely:
    the free response from x_j is g = Phi_j x_j + gamma_j, so the gradient
    in y is M_j x_j + v_j with M_j = N_j' Phi_j and v_j = N_j'(gamma_j -
    x_d), N_j = QF_j W_j' being the trailing block of QF W'. One backward
    pass builds every M_j and v_j from Phi_T = I, gamma_T = 0, Phi_j =
    [I; Phi_{j+1} A_j] and gamma_j = [0; Phi_{j+1} c_j + gamma_{j+1}].
    """

    def __init__(self, mpc: MpcProblem, lins: LinearizedDynamics):
        T, n, m = mpc.horizon, mpc.state_dim, mpc.input_dim
        self.m, self.p = m, mpc.C_u.shape[0]
        F = np.zeros((T + 1, n, T * m))
        for t in range(T):
            F[t + 1] = lins.A[t] @ F[t]
            F[t + 1, :, t * m:(t + 1) * m] = lins.B[t]
        q_bar = 2.0 * np.concatenate([np.broadcast_to(mpc.Q, (T, n, n)), mpc.Q_terminal[None]])
        QF = (q_bar @ F).reshape((T + 1) * n, T * m)
        P = F.reshape((T + 1) * n, T * m).T @ QF
        steps = np.arange(T)
        P.reshape(T, m, T, m)[steps, :, steps] += 2.0 * mpc.R     # on P's diagonal blocks
        U = np.linalg.cholesky(0.5 * (P + P.T)[::-1, ::-1])[::-1, ::-1]    # P = U U'
        self.W = W = np.linalg.inv(U)                   # upper triangular, like U
        # G W' for G = diag(C_u, ..., C_u), one block row per step
        self.G = (mpc.C_u @ W.T.reshape(T, m, T * m)).reshape(T * self.p, T * m)
        self.h = np.tile(mpc.d_u, T)
        QF = QF @ W.T                           # trailing blocks N_j = QF_j W_j'
        # S = [Phi_j, gamma_j - x_d] from row j*n on, stepped by Z_j = [[A_j, c_j], [0, 1]]
        Z = np.zeros((T, n + 1, n + 1))
        Z[:, :n, :n], Z[:, :n, n], Z[:, n, n] = lins.A, lins.c, 1.0
        S = np.empty(((T + 1) * n, n + 1))
        S[:, :n] = np.tile(np.eye(n), (T + 1, 1))      # row block j: [I, -x_d[j]] until stepped
        S[:, n] = -mpc.x_desired.ravel()
        self.M, self.v = [None] * T, [None] * T
        for j in reversed(range(T)):
            S[(j + 1) * n:] = S[(j + 1) * n:] @ Z[j]
            mv = QF[j * n:, j * m:].T @ S[j * n:]
            self.M[j], self.v[j] = mv[:, :n], mv[:, n]
        self._last, self._carry = None, ()

    def window_qp(self, j: int, x_j):
        """(q, G, h) of the least-distance QP in y = U_j' z for the window starting at knot j."""
        m, p = self.m, self.p
        return self.M[j] @ x_j + self.v[j], self.G[j * p:, j * m:], self.h[j * p:]

    def first_input(self, j: int, x_j) -> np.ndarray:
        """First optimal input of window j, warm-started from window j - 1's active set if that
        was the last window solved; a QP that does not end "optimal" raises LinAlgError."""
        start = self._carry if self._last == j - 1 else ()
        y, _, active, status, _ = _qp._dual_active_set(*self.window_qp(j, x_j), start=start)
        if status != "optimal":
            raise np.linalg.LinAlgError(f"window {j} QP ended {status!r}")
        # renumbered for window j + 1, which loses the rows bounding u_j
        self._last, self._carry = j, tuple(i - self.p for i in active if i >= self.p)
        m = self.m
        return self.W[j * m:(j + 1) * m, j * m:(j + 1) * m].T @ y[:m]     # (W_j' y)[:m]


def _riccati_gains(mpc: MpcProblem, lins: LinearizedDynamics
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Affine policy u_t = K_t x_t + k_t optimal for every inequality-free window.

    One backward affine-Riccati pass over the knots, with value functions
    V_t(x) = x'S_t x + 2 s_t'x + const. By Bellman's principle the window
    starting at knot t from state x has first input K_t x + k_t. With each
    knot's model stacked as Z = [A, c, B] and v = S c + s, one product
    Z'[SA, v, SB] holds every term and one solve gives [-K, -k]. Non-finite
    gains (an overflowed value function) raise LinAlgError, as a singular solve does.
    """
    T, n, m = mpc.horizon, mpc.state_dim, mpc.input_dim
    Z = np.concatenate([lins.A, lins.c[..., None], lins.B], axis=2)     # (T, n, n+1+m)
    Qx = mpc.x_desired @ mpc.Q.T
    K = np.empty((T, m, n))
    k = np.empty((T, m))
    S = mpc.Q_terminal
    s = -mpc.Q_terminal @ mpc.x_desired[T]
    for t in reversed(range(T)):
        Sz = S @ Z[t]
        Sz[:, n] += s                                   # [SA, v, SB]
        M = Z[t].T @ Sz
        sol = np.linalg.solve(mpc.R + M[n + 1:, n + 1:], M[n + 1:, :n + 1])
        K[t], k[t] = -sol[:, :n], -sol[:, n]
        top = M[:n, :n + 1] - M[n + 1:, :n].T @ sol     # [A'SA + K'B'SA, A'v + K'B'v]
        S = mpc.Q + top[:, :n]
        S = 0.5 * (S + S.T)
        s = top[:, n] - Qx[t]
    if not (np.isfinite(K).all() and np.isfinite(k).all()):
        raise np.linalg.LinAlgError("non-finite gains")
    return K, k


def _policy(mpc: MpcProblem, lins: LinearizedDynamics):
    """first_input(t, x): the first optimal input of window t from state x on this model.

    The one place that picks a solver: with no inequalities the Riccati
    policy K_t x + k_t (no QP), otherwise window t's condensed QP. Failed
    linear algebra raises LinAlgError, here or from first_input.
    """
    if mpc.C_u is None:
        K, k = _riccati_gains(mpc, lins)
        return lambda t, x: K[t] @ x + k[t]
    return _CondensedHorizon(mpc, lins).first_input


def mpc_solve(mpc: MpcProblem, linearizations: LinearizedDynamics) -> np.ndarray:
    """First optimal input of the MPC window starting at `mpc.start_index` from
    `mpc.initial_state`: irs_lqr_run's _policy, so the input the rollout applies."""
    if mpc.initial_state is None:
        raise ConfigurationError("MpcProblem.initial_state must be set for an MPC solve")
    knots = linearizations.A.shape[0]
    if knots != mpc.horizon:
        raise ConfigurationError(f"need {mpc.horizon} knot linearizations, got {knots}")
    return _policy(mpc, linearizations)(mpc.start_index, mpc.initial_state)


def irs_lqr_run(sys: DynamicalSystem, mpc: MpcProblem, mode: GradientMode,
                cov0, schedule=DEFAULT_SCHEDULE, max_iters: int = 20,
                seed: int = 0, u_init=None) -> list[TrajectoryIterate]:
    """Iterate bundle-linearization and MPC rollouts; returns all iterates.

    Each iteration linearizes around the current trajectory and rolls the
    true system out under the linear model's MPC inputs, taken from
    _policy (see the module docstring).

    `cov0` is the initial sampling variance, one finite scalar >= 0 for
    every state and input coordinate (see linearize_trajectory); iteration
    k samples at gamma**k * cov0 under `schedule` ("geometric", gamma),
    0 < gamma < 1 (square-summable; the default, gamma 0.8), or at cov0
    under ("constant", any). All arguments are checked before the first
    rollout. Stops after max_iters iterations, or as soon as stop_reason
    of the costs so far is "diverged" or "converged". Any LinAlgError of a
    pass (a singular or non-finite Riccati pass, a window Hessian that is
    not positive definite, a window QP that does not end "optimal")
    raises DivergedError naming its iteration.
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
    cov0 = np.asarray(cov0, dtype=float)
    if cov0.ndim != 0 or not 0.0 <= cov0 < np.inf:
        raise ConfigurationError(f"cov0 must be a finite scalar variance >= 0, got {cov0.tolist()}")
    policy, gamma = schedule
    if not (policy == "constant" or policy == "geometric" and 0.0 < gamma < 1.0):
        raise ConfigurationError(f"schedule must be ('geometric', gamma) with 0 < gamma < 1 "
                                 f"or ('constant', any), got {schedule!r}")
    decay = gamma if policy == "geometric" else 1.0

    xs = rollout(sys, mpc.initial_state, us)
    history = [TrajectoryIterate(xs=xs, us=us, cost=trajectory_cost((xs, us), mpc),
                                 iteration=0)]
    for k in range(max_iters):
        lins = linearize_trajectory(sys, xs, us, mode, decay**k * cov0, seed, k)
        new_xs = np.empty_like(xs)
        new_us = np.empty_like(us)
        new_xs[0] = xs[0]
        try:
            first_input = _policy(mpc, lins)
            for t in range(T):
                new_us[t] = first_input(t, new_xs[t])
                new_xs[t + 1] = sys.step(new_xs[t], new_us[t])
        except np.linalg.LinAlgError as exc:
            raise DivergedError(f"MPC pass failed in iteration {k + 1}: {exc}") from exc
        xs, us = new_xs, new_us
        history.append(TrajectoryIterate(xs=xs, us=us, cost=trajectory_cost((xs, us), mpc),
                                         iteration=k + 1))
        if stop_reason([it.cost for it in history]) is not None:
            break
    return history


def stop_reason(costs) -> str | None:
    """Why a run with this cost sequence stops: "diverged", "converged" or None.

    "diverged": the last cost is NaN or infinite, or the cost rose in each
    of the last 5 steps (reported, not patched, since the algorithm has no
    line search). "converged": in each of the last 3 steps the cost
    changed by less than 1e-6 relative to max(|previous cost|, 1e-12).
    Divergence is checked first. A pass whose linear algebra fails never
    reaches this rule: irs_lqr_run raises DivergedError.
    """
    if not np.isfinite(costs[-1:]).all():
        return "diverged"
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
