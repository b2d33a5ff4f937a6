"""Dense strictly-convex quadratic programming with inequality constraints.

Solves  min 1/2 z'Pz + q'z  s.t.  Gz <= h  for small dense problems with a
finite, symmetric, positive-definite P by a dual active-set method
(Goldfarb-Idnani) in the coordinates of P's Cholesky factor, where the
Hessian is the identity: with P^{-1} = W'W, the substitution z = W'y turns
the problem into the least-distance program  min 1/2 |y|^2 + (Wq)'y  s.t.
(GW')y <= h,  whose multipliers are the original ones. The active set
starts at the unconstrained optimum y = -Wq, or at the optimum with a given
start set of rows held as equalities (a warm start, e.g. from the previous
MPC window), then repeatedly adds the most violated inequality, taking
partial steps that drop constraints whose multipliers would go negative.
With the identity Hessian a constraint normal is its own step direction
and the Gram entries of the active rows are their inner products, so each
active-set iteration costs a few small products and one solve in the
active set's dimension. Finite termination and nonnegative multipliers
are properties of the method; a final re-solve on the optimal active set,
in sorted row order, polishes primal and dual values to linear-algebra
precision, so they depend on that set and not on the path that reached
it. A warm start solves on its sorted start set with the polish's own
operands, so when that set is kept whole and nothing is violated, its
solution is returned as the polish would give it, bit for bit, with no
re-solve.

Infeasibility is reported through the solution status, not an exception,
so model-predictive callers can degrade gracefully.

Every factorization is numpy's: solve_qp transforms the problem with
W = L^{-1} for P's Cholesky factor L, and the planner's windows with
trailing blocks of one triangular factor per iteration (irs_lqr). The
checks of P and its factor are memoized on P's bytes, which are all they
read, for callers such as the Anitescu contact step that solve many QPs
with one P: a hit returns fresh work's bits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

__all__ = ["QpProblem", "QpSolution", "solve_qp"]

_MIN_EIG = 1e-9
_FEAS_TOL = 1e-10                     # a row counts as violated above this
_STEP_TOL = 1e-12                     # smallest usable step denominator, relative


@dataclass
class QpProblem:
    """min 1/2 z'Pz + q'z  s.t.  Gz <= h.

    P must be finite and symmetric (np.allclose's test against its
    transpose), with minimum eigenvalue above 1e-9. Definiteness is checked
    at construction by numpy's Cholesky factorization of P - 1e-9 I, which
    reads the lower triangle; solve_qp solves in the coordinates of P's own
    Cholesky factor. G and h are given together or not at all.
    """

    P: np.ndarray
    q: np.ndarray
    G: np.ndarray | None = None
    h: np.ndarray | None = None

    def __post_init__(self):
        self.P = np.asarray(self.P, dtype=float)
        self.q = np.asarray(self.q, dtype=float).ravel()
        n = self.q.shape[0]
        if n == 0:
            raise ConfigurationError("the QP needs at least one variable")
        if self.P.shape != (n, n):
            raise ConfigurationError(f"P must be {n}x{n}, got {self.P.shape}")
        _factor(n, self.P.tobytes())
        if (self.G is None) != (self.h is None):
            raise ConfigurationError("G and h must be given together")
        if self.G is None:
            self.G = np.zeros((0, n))
            self.h = np.zeros(0)
        else:
            self.G = np.atleast_2d(np.asarray(self.G, dtype=float))
            self.h = np.asarray(self.h, dtype=float).ravel()
            if self.G.shape != (self.h.shape[0], n):
                raise ConfigurationError(
                    f"G/h shapes {self.G.shape}/{self.h.shape} inconsistent with n={n}")


@functools.lru_cache(maxsize=32)
def _factor(n: int, data: bytes) -> np.ndarray:
    """Read-only W = L^{-1}, P = LL', of the n x n P with these C-order bytes, once P passes
    QpProblem's checks; P^{-1} = W'W.

    A P that fails raises ConfigurationError on every call: lru_cache keeps no exceptions.
    """
    P = np.frombuffer(data).reshape(n, n)
    magnitude = np.abs(P)
    scale = magnitude.max()                 # NaN or inf if any entry is
    if not math.isfinite(scale):
        raise ConfigurationError("P must be finite")
    # np.allclose(P, P.T, atol) spelled out: its default rtol, finite values only
    atol = 1e-10 * max(1.0, scale)
    if not (np.abs(P - P.T) <= atol + 1e-5 * magnitude.T).all():
        raise ConfigurationError("P must be symmetric")
    shifted = P.copy()                      # P - 1e-9 I, bit for bit
    shifted.flat[::n + 1] -= _MIN_EIG
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        raise ConfigurationError(
            f"P must be positive definite with min eigenvalue > {_MIN_EIG}") from None
    factor = np.linalg.inv(np.linalg.cholesky(P))
    factor.flags.writeable = False
    return factor


@dataclass
class QpSolution:
    z: np.ndarray
    ineq_duals: np.ndarray
    status: str                       # "optimal" | "infeasible" | "max_iter"


def solve_qp(problem: QpProblem) -> QpSolution:
    """Solve the QP; never raises on infeasibility (reported via status, NaN values).

    W comes from the memo of P's current bytes, so the P written last is
    solved: the active set solves (Wq, GW', h) and z = W'y.
    """
    W = _factor(problem.P.shape[0], problem.P.tobytes())
    y, lam, _, status, _ = _dual_active_set(W @ problem.q, problem.G @ W.T, problem.h)
    if status == "infeasible":
        return QpSolution(np.full(problem.q.shape, np.nan),
                          np.full(problem.h.shape, np.nan), status)
    return QpSolution(W.T @ y, lam, status)


def _dual_active_set(q, G, h, start=()):
    """Active-set loop on the least-distance QP  min 1/2 |y|^2 + q'y  s.t.  Gy <= h.

    A QP with Hessian P = (W'W)^{-1} is solved by passing (Wq, GW', h) and
    mapping back with z = W'y; the duals are the same. `start` names rows
    to begin with as equalities (a warm start from a nearby problem's
    active set); the empty default starts from the unconstrained optimum
    -q. If the start rows are linearly dependent the whole start set is
    ignored; otherwise rows with negative multipliers are dropped one at
    a time, most negative first, each drop counting as an iteration,
    before the add loop runs.

    Returns (y, ineq_duals, active, status, iterations), active sorted;
    y and the duals are polished by a final KKT re-solve on the optimal
    active set, so they depend on that set, not on the path to it. The
    polish is skipped when it would repeat the start: the start set is
    solved in sorted order on the polish's operands (G's rows, their Gram
    matrix G_S G_S' and the same right-hand side), so if no row is dropped
    and none is violated that solve is the polish's.
    The status is "max_iter" after 25 + 10(m + 1) iterations without one.
    """
    m = G.shape[0]
    max_iter = 25 + 10 * (m + 1)
    y_free = -q
    if m == 0:
        return y_free, np.zeros(0), [], "optimal", 1
    active = sorted(start)
    iters = 0
    y = y_free
    gram = np.zeros((0, 0))            # Gram block of the active rows
    lam_active: list[float] = []
    if active:
        # The polish's operands: a start set kept whole needs no re-solve.
        g_act = G[active]
        gram = g_act @ g_act.T
        try:
            while active:
                factor = np.linalg.cholesky(gram)
                # The add loop's independence test: each pivot is the step
                # denominator of adding that row after the ones before it.
                if np.any(np.diag(factor) ** 2
                          <= _STEP_TOL * np.maximum(1.0, np.diag(gram))):
                    raise np.linalg.LinAlgError("start rows are linearly dependent")
                lam = np.linalg.solve(gram, g_act @ y_free - h[active])
                k = int(lam.argmin())
                if lam[k] >= 0.0:
                    y = y_free - g_act.T @ lam
                    lam_active = list(lam)
                    break
                iters += 1
                keep = [i for i in range(len(active)) if i != k]
                del active[k]
                gram, g_act = gram[keep][:, keep], g_act[keep]
        except np.linalg.LinAlgError:
            active, gram = [], np.zeros((0, 0))

    while iters < max_iter:
        iters += 1
        resid = G @ y - h
        if active:
            resid[active] = 0.0        # kept exactly active
        worst = int(resid.argmax())
        if resid[worst] <= _FEAS_TOL:
            if iters > 1 or not active:    # a drop or an add moved y off the start's solve
                return _polish(G, h, y_free, active, "optimal", iters)
            lam = np.zeros(m)
            lam[active] = lam_active
            return y, lam, active, "optimal", iters
        row = G[worst]
        g_ww = float(row @ row)
        if active:
            g_act = G[active]
            g_aw = g_act @ row
        else:
            g_aw = np.zeros(0)
        violation = resid[worst]
        denom_tol = _STEP_TOL * max(1.0, g_ww)
        lam_new = 0.0                     # accumulates over partial steps

        while True:
            if active:
                r = np.linalg.solve(gram, g_aw)
                u = row - r @ g_act
                denom = g_ww - float(g_aw @ r)
            else:
                r = np.zeros(0)
                u = row
                denom = g_ww
            t_primal = violation / denom if denom > denom_tol else np.inf
            t_dual = np.inf
            blocker = -1
            for k, (lam_i, r_i) in enumerate(zip(lam_active, r)):
                if r_i > _STEP_TOL and lam_i / r_i < t_dual:
                    t_dual = lam_i / r_i
                    blocker = k
            t = min(t_primal, t_dual)
            if not math.isfinite(t):           # also a NaN step
                return None, None, sorted(active), "infeasible", iters
            y = y - t * u
            lam_active = [li - t * ri for li, ri in zip(lam_active, r)]
            lam_new += t
            violation -= t * denom
            if t_dual < t_primal:
                keep = [i for i in range(len(active)) if i != blocker]
                del active[blocker], lam_active[blocker]
                gram, g_aw, g_act = gram[keep][:, keep], g_aw[keep], g_act[keep]
                continue
            gram = _border(gram, g_aw, g_ww)
            active.append(worst)
            lam_active.append(lam_new)
            break

    return _polish(G, h, y_free, active, "max_iter", iters)


def _polish(G, h, y_free, active, status, iters):
    """Exact re-solve on the final active set, taken in sorted order."""
    m = G.shape[0]
    active = sorted(active)
    if not active:
        return y_free, np.zeros(m), active, status, iters
    g_act = G[active]
    lam_act = np.linalg.solve(g_act @ g_act.T, g_act @ y_free - h[active])
    y = y_free - g_act.T @ lam_act
    lam = np.zeros(m)
    lam[active] = lam_act
    return y, lam, active, status, iters


def _border(gram, g_aw, g_ww):
    """Gram block with one more row and column (g_aw, g_ww), kept symmetric."""
    k = gram.shape[0]
    out = np.empty((k + 1, k + 1))
    out[:k, :k] = gram
    out[:k, k] = out[k, :k] = g_aw
    out[k, k] = g_ww
    return out
