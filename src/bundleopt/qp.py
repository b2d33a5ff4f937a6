"""Dense strictly-convex quadratic programming with inequality constraints.

Solves  min 1/2 z'Pz + q'z  s.t.  Gz <= h  for small dense problems with a
finite, symmetric, positive-definite P by a dual active-set method
(Goldfarb-Idnani): start at the unconstrained optimum, or at the optimum
with a given start set of rows held as equalities (a warm start, e.g. from
the previous MPC window), then repeatedly add the most violated inequality,
taking partial steps that drop constraints whose multipliers would go
negative. Step directions come from a cached Cholesky factor of the Hessian
and the columns P^{-1} g_i of the constraint normals, formed only for rows
in the start set or entering the active set (one batched Cholesky solve per
fill); the Gram entries of the active rows come from those columns, so each
active-set iteration costs only a small solve in the active set's dimension
and no work is spent on rows that never become active. Finite termination
and nonnegative multipliers are properties of the method; a final re-solve
on the optimal active set, in sorted row order, polishes primal and dual
values to linear-algebra precision, so they depend on that set and not on
the path that reached it.

Infeasibility is reported through the solution status, not an exception,
so model-predictive callers can degrade gracefully.

The Cholesky factorizations and solves go through scipy's LAPACK wrappers,
which are imported on the first factorization rather than with the
package. Validating P is that first factorization, so scipy loads when
the first QpProblem is built; plans without inequalities never load it.
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
    at construction by LAPACK's Cholesky factorization of P - 1e-9 I, read
    from the lower triangle as numpy's is; the first QpProblem built
    therefore loads scipy's LAPACK. G and h are given together or not at
    all.
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
        if not np.isfinite(self.P).all():
            raise ConfigurationError("P must be finite")
        # np.allclose(P, P.T, atol) spelled out: its default rtol, finite values only
        atol = 1e-10 * max(1.0, np.abs(self.P).max())
        if not (np.abs(self.P - self.P.T) <= atol + 1e-5 * np.abs(self.P.T)).all():
            raise ConfigurationError("P must be symmetric")
        try:
            # dpotrf reads the upper triangle of the transpose: P's lower one
            _cholesky((self.P - _MIN_EIG * np.eye(n)).T)
        except np.linalg.LinAlgError:
            raise ConfigurationError(
                f"P must be positive definite with min eigenvalue > {_MIN_EIG}") from None
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


@dataclass
class QpSolution:
    z: np.ndarray
    ineq_duals: np.ndarray
    status: str                       # "optimal" | "infeasible" | "max_iter"


def solve_qp(problem: QpProblem) -> QpSolution:
    """Solve the QP; never raises on infeasibility (reported via status, NaN values)."""
    z, lam, _, status, _ = _dual_active_set(problem.P, problem.q, problem.G, problem.h)
    if status == "infeasible":
        return QpSolution(np.full(problem.q.shape, np.nan),
                          np.full(problem.h.shape, np.nan), status)
    return QpSolution(z, lam, status)


def _dual_active_set(P, q, G, h, start=()):
    """Active-set loop on an inequality-only strictly convex QP.

    `start` names rows to begin with as equalities (a warm start from a
    nearby problem's active set); the empty default starts from the
    unconstrained optimum. If the start rows' normals are linearly
    dependent the whole start set is ignored; otherwise rows with negative
    multipliers are dropped one at a time, most negative first, each drop
    counting as an iteration, before the add loop runs.

    Returns (z, ineq_duals, active, status, iterations), active sorted;
    z and the duals are polished by a final KKT re-solve on the optimal
    active set, so they depend on that set, not on the path to it. The
    status is "max_iter" after 25 + 10(m + 1) iterations without one.
    """
    n, m = q.shape[0], G.shape[0]
    max_iter = 25 + 10 * (m + 1)
    chol = _cholesky(P)
    z_free = -_cho_solve(chol, q)
    if m == 0:
        return z_free, np.zeros(0), [], "optimal", 1
    pig = np.empty((n, m))             # P^{-1} g_i, formed only for rows used
    formed = np.zeros(m, dtype=bool)
    active = list(start)
    iters = 0
    z = z_free
    gram = np.zeros((0, 0))            # Gram block of the active normals
    lam_active: list[float] = []
    if active:
        pig[:, active] = _cho_solve(chol, G[active].T)
        formed[active] = True
        gram = G[active] @ pig[:, active]
        try:
            while active:
                factor = _cholesky(gram)
                # The add loop's independence test: each pivot is the step
                # denominator of adding that row after the ones before it.
                if np.any(np.diag(factor) ** 2
                          <= _STEP_TOL * np.maximum(1.0, np.diag(gram))):
                    raise np.linalg.LinAlgError("start rows are linearly dependent")
                lam = _cho_solve(factor, G[active] @ z_free - h[active])
                k = int(lam.argmin())
                if lam[k] >= 0.0:
                    z = z_free - pig[:, active] @ lam
                    lam_active = list(lam)
                    break
                iters += 1
                keep = [i for i in range(len(active)) if i != k]
                del active[k]
                gram = gram[keep][:, keep]
        except np.linalg.LinAlgError:
            active, gram = [], np.zeros((0, 0))

    while iters < max_iter:
        iters += 1
        resid = G @ z - h
        if active:
            resid[active] = 0.0        # kept exactly active
        worst = int(resid.argmax())
        if resid[worst] <= _FEAS_TOL:
            return _polish(G, h, z_free, chol, active, "optimal", iters)
        if not formed[worst]:
            pig[:, worst] = _cho_solve(chol, G[worst])
            formed[worst] = True
        col = pig[:, worst]
        g_ww = float(G[worst] @ col)
        g_aw = G[active] @ col if active else np.zeros(0)
        violation = resid[worst]
        denom_tol = _STEP_TOL * max(1.0, g_ww)
        lam_new = 0.0                     # accumulates over partial steps

        while True:
            if active:
                r = np.linalg.solve(gram, g_aw)
                u = col - pig[:, active] @ r
                denom = g_ww - float(g_aw @ r)
            else:
                r = np.zeros(0)
                u = col
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
            z = z - t * u
            lam_active = [li - t * ri for li, ri in zip(lam_active, r)]
            lam_new += t
            violation -= t * denom
            if t_dual < t_primal:
                keep = [i for i in range(len(active)) if i != blocker]
                del active[blocker], lam_active[blocker]
                gram, g_aw = gram[keep][:, keep], g_aw[keep]
                continue
            gram = _border(gram, g_aw, g_ww)
            active.append(worst)
            lam_active.append(lam_new)
            break

    return _polish(G, h, z_free, chol, active, "max_iter", iters)


def _polish(G, h, z_free, chol, active, status, iters):
    """Exact re-solve on the final active set, taken in sorted order."""
    m = G.shape[0]
    active = sorted(active)
    if not active:
        return z_free, np.zeros(m), active, status, iters
    g_act = G[active]
    cols = _cho_solve(chol, g_act.T)
    lam_act = np.linalg.solve(g_act @ cols, g_act @ z_free - h[active])
    z = z_free - cols @ lam_act
    lam = np.zeros(m)
    lam[active] = lam_act
    return z, lam, active, status, iters


def _border(gram, g_aw, g_ww):
    """Gram block with one more row and column (g_aw, g_ww), kept symmetric."""
    k = gram.shape[0]
    out = np.empty((k + 1, k + 1))
    out[:k, :k] = gram
    out[:k, k] = out[k, :k] = g_aw
    out[k, k] = g_ww
    return out


@functools.cache
def _lapack():
    """scipy's LAPACK module, imported once, on first use."""
    from scipy.linalg import lapack
    return lapack


def _cholesky(a):
    """Upper Cholesky factor by LAPACK dpotrf; LinAlgError unless a is positive definite."""
    c, info = _lapack().dpotrf(a, lower=0, clean=0)
    if info != 0:
        raise np.linalg.LinAlgError(f"dpotrf info={info}: not positive definite")
    return c


def _cho_solve(c, b):
    """Solve with a factor from `_cholesky` (LAPACK dpotrs)."""
    x, info = _lapack().dpotrs(c, b, lower=0)
    if info != 0:
        raise np.linalg.LinAlgError(f"dpotrs failed with info={info}")
    return x

