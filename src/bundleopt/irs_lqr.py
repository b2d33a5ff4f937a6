"""Iterative trajectory optimization with bundled linearizations.

The optimizer alternates two passes until the cost settles: linearize the
dynamics at every knot of the current nominal trajectory (exactly, or with
the first/zero-order Jacobian bundle at the scheduled sampling variance),
then roll the true system forward, choosing each input as the first input
of the shrinking-horizon MPC problem on the linearized model from the
state actually reached. How that input is found depends on the problem's
shape:

* No inequalities (C_u and C_x both None): one backward affine-Riccati
  pass per iteration gives the time-varying policy u_t = K_t x_t + k_t,
  which by Bellman's principle is the first input of every window; the
  rollout applies it with no per-window QP (iterative LQR).
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
detected and reported rather than patched.

Per-knot sample seeds derive deterministically from (run seed, iteration,
knot index), so results are bit-identical regardless of how callers
parallelize the per-knot work. Each knot's bundle draws its own samples
and evaluates them in one batched call on the dynamics, so a knot's
linearization does not depend on which other knots share the iteration.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import qp as _qp
from .errors import ConfigurationError
from .qp import QpSolution
from .smoothing import (SmoothingDistribution, jacobian_bundle_first_order,
                        jacobian_bundle_zero_order, variance_schedule)
from .systems import DynamicalSystem, LinearizedDynamics, linearize_exact

__all__ = [
    "MpcProblem",
    "GradientMode",
    "TrajectoryIterate",
    "ResultRecord",
    "MpcResult",
    "trajectory_cost",
    "rollout",
    "derive_knot_seed",
    "linearize_trajectory",
    "mpc_solve",
    "irs_lqr_run",
    "run_comparison",
]

GRADIENT_MODES = ("exact", "first_order_bundle", "zero_order_bundle")

_SLACK_WEIGHT = 1e6
_CONVERGENCE_RTOL = 1e-6
_CONVERGENCE_STREAK = 3
_DIVERGENCE_STREAK = 5


@dataclass
class MpcProblem:
    """Quadratic tracking problem over a finite horizon.

    Running state costs Q_t (PSD) and input costs R_t (PD) may be given as
    one matrix applied at every step or as per-step (T, n, n)/(T, m, m)
    stacks; Q_terminal weighs the final deviation. x_desired has T+1 rows.
    Optional linear inequalities C_u u <= d_u (t < T) and C_x x <= d_x
    (all t) apply at every step. start_index/initial_state select the MPC
    window: the subproblem starts at knot j from the given state.
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
        self.Q = _per_step(self.Q, T, n, "Q")
        m = np.atleast_2d(np.asarray(self.R, dtype=float)).shape[-1]
        self.R = _per_step(self.R, T, m, "R")
        self.x_desired = np.asarray(self.x_desired, dtype=float)
        if self.x_desired.shape != (T + 1, n):
            raise ConfigurationError(
                f"x_desired must have shape {(T + 1, n)}, got {self.x_desired.shape}")
        for t in range(T):
            _check_psd(self.Q[t], f"Q[{t}]")
            _check_pd(self.R[t], f"R[{t}]")
        _check_psd(self.Q_terminal, "Q_terminal")
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
        if not 0 <= self.start_index < T:
            raise ConfigurationError(
                f"start_index must be in [0, {T - 1}], got {self.start_index}")
        if self.initial_state is not None:
            self.initial_state = np.asarray(self.initial_state, dtype=float)

    @property
    def state_dim(self) -> int:
        return self.Q_terminal.shape[0]

    @property
    def input_dim(self) -> int:
        return self.R.shape[-1]

    def window(self, start_index: int, initial_state) -> "MpcProblem":
        """Same problem re-anchored at knot start_index; skips re-validation."""
        clone = object.__new__(MpcProblem)
        clone.__dict__.update(self.__dict__)
        clone.start_index = int(start_index)
        clone.initial_state = np.asarray(initial_state, dtype=float)
        return clone


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
    `variance` is the joint sampling covariance used to linearize during
    the pass that produced this iterate (None for the initial rollout),
    `linearizations` those per-knot models.
    """

    xs: np.ndarray
    us: np.ndarray
    cost: float
    iteration: int
    variance: np.ndarray | None = None
    linearizations: list[LinearizedDynamics] | None = field(default=None, repr=False)
    infeasible_steps: int = 0


@dataclass(frozen=True)
class ResultRecord:
    """One (mode, seed, iteration) row of a benchmark comparison."""

    task: str
    mode: str
    seed: int
    iteration: int
    cost: float
    infeasible_steps: int
    diverged: bool


@dataclass(frozen=True)
class MpcResult:
    """First input of an MPC window, with the QP it came from.

    `active` lists the window QP's final active rows, sorted; it is empty
    for a relaxed window, whose QP has slack variables and another layout.
    """

    u: np.ndarray
    relaxed: bool
    qp: QpSolution
    active: tuple[int, ...] = ()


def trajectory_cost(iterate, mpc: MpcProblem) -> float:
    """Terminal plus running quadratic cost of a trajectory."""
    if isinstance(iterate, TrajectoryIterate):
        xs, us = iterate.xs, iterate.us
    else:
        xs, us = iterate
    xs = np.asarray(xs, dtype=float)
    us = np.asarray(us, dtype=float)
    T = mpc.horizon
    if xs.shape[0] != T + 1 or us.shape[0] != T:
        raise ConfigurationError("trajectory length does not match the horizon")
    err = xs - mpc.x_desired
    total = float(err[T] @ mpc.Q_terminal @ err[T])
    for t in range(T):
        total += float(err[t] @ mpc.Q[t] @ err[t]) + float(us[t] @ mpc.R[t] @ us[t])
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


def joint_covariance(cov0, mode: GradientMode, state_dim: int, input_dim: int) -> np.ndarray:
    """Joint (state, input) sampling covariance from a scalar variance or matrix.

    A scalar is the per-coordinate variance of the input perturbations; the
    zero-order mode also perturbs the state at the same variance (its
    regression needs excitation in every direction), while the first-order
    mode leaves states unperturbed by default. A full
    (state_dim+input_dim)^2 matrix is used as given.
    """
    cov0 = np.asarray(cov0, dtype=float)
    d = state_dim + input_dim
    if cov0.ndim == 0:
        var = float(cov0)
        diag = np.zeros(d)
        diag[state_dim:] = var
        if mode.kind == "zero_order_bundle":
            diag[:state_dim] = var
        return np.diag(diag)
    if cov0.shape == (d, d):
        return cov0
    raise ConfigurationError(
        f"covariance must be a scalar variance or a {(d, d)} matrix, got {cov0.shape}")


def linearize_trajectory(sys: DynamicalSystem, xs, us, mode: GradientMode,
                         covariance, run_seed: int, iteration: int
                         ) -> list[LinearizedDynamics]:
    """Per-knot linear models around a nominal trajectory.

    `covariance` is the joint (state, input) sampling covariance for the
    bundle modes. Each knot's bundle uses that knot's own seed and one
    batched call on the dynamics. A zero covariance makes every mode take
    the exact path, so degenerate-variance runs of all modes are
    bit-identical.
    """
    xs = np.asarray(xs, dtype=float)
    us = np.asarray(us, dtype=float)
    T = us.shape[0]
    lins = []
    dist = None
    if mode.kind != "exact":
        dist = SmoothingDistribution(covariance)
    for t in range(T):
        x_nom, u_nom = xs[t], us[t]
        if mode.kind == "exact" or dist.is_zero:
            lins.append(linearize_exact(sys, x_nom, u_nom))
            continue
        seed = derive_knot_seed(run_seed, iteration, t)
        if mode.kind == "first_order_bundle":
            a, b = jacobian_bundle_first_order(sys, x_nom, u_nom, dist, mode.samples, seed)
        else:
            a, b = jacobian_bundle_zero_order(sys, x_nom, u_nom, dist, mode.samples, seed)
        f0 = np.asarray(sys.step(x_nom, u_nom), dtype=float)
        c = f0 - a @ x_nom - b @ u_nom
        lins.append(LinearizedDynamics(A=a, B=b, c=c, x_nominal=x_nom, u_nominal=u_nom))
    return lins


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

    def __init__(self, mpc: MpcProblem, lins):
        T, n, m = mpc.horizon, mpc.state_dim, mpc.input_dim
        self.mpc = mpc
        self.A = np.stack([lin.A for lin in lins])
        self.c = np.stack([lin.c for lin in lins])
        F = np.zeros((T + 1, n, T * m))
        for t in range(T):
            F[t + 1] = self.A[t] @ F[t]
            F[t + 1, :, t * m:(t + 1) * m] = lins[t].B
        q_bar = 2.0 * np.concatenate([mpc.Q, mpc.Q_terminal[None]])
        self.QF = (q_bar @ F).reshape((T + 1) * n, T * m)
        P = F.reshape((T + 1) * n, T * m).T @ self.QF
        for t in range(T):
            P[t * m:(t + 1) * m, t * m:(t + 1) * m] += 2.0 * mpc.R[t]
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
        for t in range(j, T):
            g[t - j + 1] = self.A[t] @ g[t - j] + self.c[t]
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
        if not rows:
            return P, q, np.zeros((0, q.shape[0])), np.zeros(0)
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
        opt = _qp.SolverOptions()
        for relaxed in (False, True):
            P, q, G, h = self.window_qp(j, x_j, relaxed)
            y, lam, active, status, iters = _qp._dual_active_set(
                P, q, G, h, opt, start=() if relaxed else start)
            if status == "optimal":
                sol = QpSolution(z=y, ineq_duals=lam, eq_duals=np.zeros(0),
                                 status=status, kkt_residual=0.0, iterations=iters)
                return MpcResult(u=y[:self.mpc.input_dim], relaxed=relaxed, qp=sol,
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


def _riccati_gains(mpc: MpcProblem, lins) -> tuple[np.ndarray, np.ndarray]:
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
        A, B = lins[t].A, lins[t].B
        SA = S @ A
        v = S @ lins[t].c + s
        Q_uu = mpc.R[t] + B.T @ S @ B
        Q_ux = B.T @ SA
        sol = np.linalg.solve(Q_uu, np.column_stack([Q_ux, B.T @ v]))
        K[t], k[t] = -sol[:, :n], -sol[:, n]
        S = mpc.Q[t] + A.T @ SA + Q_ux.T @ K[t]
        S = 0.5 * (S + S.T)
        s = -mpc.Q[t] @ mpc.x_desired[t] + A.T @ v + Q_ux.T @ k[t]
    return K, k


def mpc_solve(mpc: MpcProblem, linearizations) -> MpcResult:
    """First optimal input of the shrinking-horizon MPC window.

    Solves the window starting at `mpc.start_index` from
    `mpc.initial_state` as a condensed QP in the window's stacked inputs,
    whatever the problem's constraints: the same assembly irs_lqr_run uses
    for problems with inequalities. An infeasible window is re-solved with
    penalized slack on the state inequalities and flagged `relaxed`.
    """
    if mpc.initial_state is None:
        raise ConfigurationError("MpcProblem.initial_state must be set for an MPC solve")
    lins = list(linearizations)
    if len(lins) != mpc.horizon:
        raise ConfigurationError(f"need {mpc.horizon} knot linearizations, got {len(lins)}")
    return _CondensedHorizon(mpc, lins).solve(mpc.start_index, mpc.initial_state)


def irs_lqr_run(sys: DynamicalSystem, mpc: MpcProblem, mode: GradientMode,
                cov0, schedule=("geometric", 0.7), max_iters: int = 20,
                seed: int = 0, u_init=None) -> list[TrajectoryIterate]:
    """Iterate bundle-linearization and MPC rollouts; returns all iterates.

    Each iteration linearizes around the current trajectory and rolls the
    true system out under the linear model's MPC inputs: from one Riccati
    pass when the problem has no inequalities, otherwise from a condensed
    QP per window (see the module docstring). Relaxed windows are counted
    in each iterate's `infeasible_steps`.

    `cov0` is the initial sampling covariance (scalar variance or joint
    matrix, see joint_covariance); `schedule` a (policy, gamma) pair fed to
    variance_schedule. Stops at max_iters, when the relative cost change
    stays below 1e-6 for 3 iterations, or when the cost rises for 5
    consecutive iterations (divergence: reported, not patched, since the
    algorithm has no line search).
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
    policy, gamma = (schedule[0], schedule[1]) if len(schedule) > 1 else (schedule[0], 0.5)
    cov_joint0 = joint_covariance(cov0, mode, n, m)
    unconstrained = mpc.C_u is None and mpc.C_x is None

    xs = rollout(sys, mpc.initial_state, us)
    history = [TrajectoryIterate(xs=xs, us=us.copy(),
                                 cost=trajectory_cost((xs, us), mpc), iteration=0)]
    flat_streak = 0
    rise_streak = 0
    for k in range(max_iters):
        cov_k = variance_schedule(cov_joint0, k, policy, gamma)
        lins = linearize_trajectory(sys, xs, us, mode, cov_k, seed, k)
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
        cost = trajectory_cost((xs, us), mpc)
        prev = history[-1].cost
        history.append(TrajectoryIterate(xs=xs, us=us.copy(), cost=cost,
                                         iteration=k + 1, variance=cov_k,
                                         linearizations=lins,
                                         infeasible_steps=infeasible))
        rise_streak = rise_streak + 1 if cost > prev else 0
        if rise_streak >= _DIVERGENCE_STREAK:
            break
        flat = abs(cost - prev) < _CONVERGENCE_RTOL * max(abs(prev), 1e-12)
        flat_streak = flat_streak + 1 if flat else 0
        if flat_streak >= _CONVERGENCE_STREAK:
            break
    return history


def run_comparison(sys: DynamicalSystem, mpc: MpcProblem, modes, seeds,
                   cov0, schedule=("geometric", 0.7), max_iters: int = 20,
                   u_init=None, task: str = "") -> tuple[list[ResultRecord], dict]:
    """Run every gradient mode over shared seeds; per-iteration cost table.

    Returns (records, extras) where records hold one row per
    (mode, seed, iteration) and extras maps (mode, seed) to the final
    iterate and the run's wall time. Wall times are excluded from the
    records so result tables stay byte-reproducible.
    """
    records: list[ResultRecord] = []
    extras: dict = {}
    for mode in modes:
        mode = mode if isinstance(mode, GradientMode) else GradientMode(kind=mode)
        for s in seeds:
            start = time.perf_counter()
            history = irs_lqr_run(sys, mpc, mode, cov0, schedule, max_iters,
                                  seed=int(s), u_init=u_init)
            elapsed = time.perf_counter() - start
            diverged = len(history) > _DIVERGENCE_STREAK and all(
                history[-i].cost > history[-i - 1].cost
                for i in range(1, _DIVERGENCE_STREAK + 1))
            for it in history:
                records.append(ResultRecord(task=task, mode=mode.kind, seed=int(s),
                                            iteration=it.iteration, cost=it.cost,
                                            infeasible_steps=it.infeasible_steps,
                                            diverged=diverged))
            extras[(mode.kind, int(s))] = {"final": history[-1], "wall_time": elapsed}
    return records, extras


def _per_step(mat, T: int, dim: int, name: str) -> np.ndarray:
    mat = np.asarray(mat, dtype=float)
    if mat.shape == (dim, dim):
        return np.repeat(mat[None, :, :], T, axis=0)
    if mat.shape == (T, dim, dim):
        return mat
    raise ConfigurationError(
        f"{name} must be ({dim},{dim}) or ({T},{dim},{dim}), got {mat.shape}")


def _check_psd(mat: np.ndarray, name: str):
    if not np.allclose(mat, mat.T, atol=1e-10):
        raise ConfigurationError(f"{name} must be symmetric")
    if np.linalg.eigvalsh(mat).min() < -1e-10:
        raise ConfigurationError(f"{name} must be positive semidefinite")


def _check_pd(mat: np.ndarray, name: str):
    if not np.allclose(mat, mat.T, atol=1e-10):
        raise ConfigurationError(f"{name} must be symmetric")
    if np.linalg.eigvalsh(mat).min() <= 0.0:
        raise ConfigurationError(f"{name} must be positive definite")
