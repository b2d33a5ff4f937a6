"""Independent reference implementations used to check the package.

Everything here deliberately avoids the code paths under test: closed-form
Gaussian-smoothing identities, Gaussian smoothing by adaptive and
Gauss-Hermite quadrature, the QP problem's acceptance rule,
brute-force active-set enumeration for QPs, a QP's KKT residual, equality
elimination on top of the inequality QP solver, an affine Riccati
recursion for finite-horizon tracking LQR, the stacked (uncondensed) MPC
window QP, a complementarity-enumeration solver for the 1D contact step
and the residuals of its defining equations, central-difference
Jacobians of a batched step, the per-knot trajectory linearization, and
the identities behind linear models and the pendulum's energy.
"""

import itertools
import math
from typing import NamedTuple

import numpy as np
from scipy import integrate
from scipy.linalg import block_diag, solve_triangular
from scipy.stats import norm

from bundleopt.errors import ConfigurationError
from bundleopt.irs_lqr import derive_knot_seed
from bundleopt.qp import QpProblem, solve_qp
from bundleopt.smoothing import SmoothingDistribution, sample_perturbations
from bundleopt.systems import LinearizedDynamics


# ---------------------------------------------------------------------------
# closed-form Gaussian smoothing of the catalog test functions


def smoothed_wiggly(x, sigma):
    """E[(x+w)^2 + 0.1 sin(20(x+w))] and its derivative, w ~ N(0, sigma^2)."""
    damp = math.exp(-200.0 * sigma**2)
    value = x**2 + sigma**2 + 0.1 * damp * np.sin(20.0 * x)
    grad = 2.0 * x + 2.0 * damp * np.cos(20.0 * x)
    return value, grad


def smoothed_heaviside(x, sigma):
    value = norm.cdf(x / sigma)
    grad = norm.pdf(x / sigma) / sigma
    return value, grad


def smoothed_vee(x, sigma):
    """vee(x) = |x| - 2*H(x) + 1 smoothed against N(0, sigma^2)."""
    e_abs = x * math.erf(x / (sigma * math.sqrt(2.0))) \
        + sigma * math.sqrt(2.0 / math.pi) * math.exp(-x**2 / (2.0 * sigma**2))
    value = e_abs - 2.0 * norm.cdf(x / sigma) + 1.0
    grad = math.erf(x / (sigma * math.sqrt(2.0))) - 2.0 * norm.pdf(x / sigma) / sigma
    return value, grad


CLOSED_FORMS = {
    "wiggly_quadratic": smoothed_wiggly,
    "heaviside": smoothed_heaviside,
    "vee": smoothed_vee,
}


# ---------------------------------------------------------------------------
# Gaussian smoothing by quadrature

_TAIL_SIGMAS = 13.0


def quadrature_smoothing(f, x, dist, points=201, grad_f=None, breakpoints=(),
                         continuous=True):
    """Value and gradient of E_w[f(x+w)] by quadrature, for dimension <= 3.

    f maps a length-d vector to a scalar. In 1D, f(x+w) is integrated
    against the Gaussian piece by piece between the breakpoints (kinks or
    jumps) with scipy's adaptive `quad`, since polynomial rules lose their
    accuracy on non-smooth integrands; in 2D and 3D by tensor Gauss-Hermite
    quadrature with `points` nodes per coordinate. The gradient is the
    smoothed grad_f when f is continuous and grad_f is given, and otherwise
    the score-function identity d/dx_i E[f(x+w)] = E[f(x+w) w_i] / sigma_i^2,
    which also captures jump discontinuities.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    d = x.shape[0]
    if dist.dimension != d:
        raise ConfigurationError(
            f"distribution dimension {dist.dimension} != point dimension {d}")
    if d > 3:
        raise ConfigurationError("quadrature smoothing supports dimension <= 3 only")
    if dist.is_zero:
        raise ConfigurationError("quadrature smoothing needs a nonzero variance")
    use_grad = continuous and grad_f is not None

    if d == 1:
        sigma = float(dist.stddevs[0])
        value = _piecewise_1d(f, x[0], sigma, breakpoints, moment=0)
        if use_grad:
            grad = _piecewise_1d(grad_f, x[0], sigma, breakpoints, moment=0)
        else:
            grad = _piecewise_1d(f, x[0], sigma, breakpoints, moment=1) / sigma**2
        return value, np.array([grad])

    nodes, weights = np.polynomial.hermite.hermgauss(points)
    offsets = math.sqrt(2.0) * np.array(list(itertools.product(nodes, repeat=d))) \
        * dist.stddevs
    wgt = np.prod(list(itertools.product(weights, repeat=d)), axis=1) / math.pi ** (d / 2.0)
    vals = np.array([_scalar(f, x + w) for w in offsets])
    if use_grad:
        grad = wgt @ np.array([np.asarray(grad_f(x + w), dtype=float).reshape(d)
                               for w in offsets])
    else:
        grad = offsets.T @ (wgt * vals) / dist.variances
    return float(wgt @ vals), grad


def _scalar(f, point) -> float:
    """f at one point (a length-d vector) as a float."""
    return float(np.asarray(f(point), dtype=float).reshape(()))


def _piecewise_1d(f, x, sigma, breakpoints, moment) -> float:
    """Adaptive quadrature of f(x+w) * w**moment against the N(0, sigma^2) pdf."""
    lo, hi = -_TAIL_SIGMAS * sigma, _TAIL_SIGMAS * sigma
    cuts = sorted(b - x for b in breakpoints if lo < b - x < hi)
    edges = [lo, *cuts, hi]
    norm_const = 1.0 / (sigma * math.sqrt(2.0 * math.pi))

    def integrand(w):
        return (_scalar(f, np.array([x + w])) * w**moment * norm_const
                * math.exp(-0.5 * (w / sigma) ** 2))

    return sum(integrate.quad(integrand, a, b, epsabs=1e-13, epsrel=1e-11, limit=200)[0]
               for a, b in zip(edges[:-1], edges[1:]))


# ---------------------------------------------------------------------------
# brute-force QP oracle


def qp_problem_accepts(P) -> bool:
    """QpProblem's rule for a finite P, through numpy instead of LAPACK calls.

    P must be symmetric within np.allclose (atol 1e-10 * max(1, max|P|)),
    and numpy's Cholesky, which reads the lower triangle, must factor
    P - 1e-9 I.
    """
    n = P.shape[0]
    if not np.allclose(P, P.T, atol=1e-10 * max(1.0, np.abs(P).max())):
        return False
    try:
        np.linalg.cholesky(P - 1e-9 * np.eye(n))
    except np.linalg.LinAlgError:
        return False
    return True



def enumerate_qp(P, q, G, h, A_eq=None, b_eq=None, tol=1e-9):
    """Global optimum by trying every active set; None if infeasible.

    Returns (objective, z, duals) for the best KKT-consistent candidate.
    """
    n = q.shape[0]
    m = G.shape[0] if G is not None else 0
    G = np.zeros((0, n)) if G is None else G
    h = np.zeros(0) if h is None else h
    A_eq = np.zeros((0, n)) if A_eq is None else A_eq
    b_eq = np.zeros(0) if b_eq is None else b_eq
    p = A_eq.shape[0]
    best = None
    for r in range(m + 1):
        if p + r > n:
            break
        for subset in map(list, itertools.combinations(range(m), r)):
            N = np.vstack([A_eq, G[subset]])
            k = N.shape[0]
            kkt = np.block([[P, N.T], [N, np.zeros((k, k))]]) if k else P
            rhs = np.concatenate([-q, b_eq, h[subset]]) if k else -q
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                continue
            z = sol[:n]
            lam_subset = sol[n + p:]
            if k and np.max(np.abs(N @ z - rhs[n:])) > 1e-7:
                continue                      # singular system, garbage solve
            if m and np.any(G @ z - h > tol):
                continue
            if np.any(lam_subset < -tol):
                continue
            obj = 0.5 * z @ P @ z + q @ z
            if best is None or obj < best[0] - 1e-12:
                lam = np.zeros(m)
                lam[subset] = lam_subset
                best = (obj, z, lam)
    return best


def random_qp(rng, n_max=6, m_max=8, with_equalities=False):
    n = int(rng.integers(1, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    M = rng.standard_normal((n, n))
    P = M.T @ M + np.eye(n)
    q = rng.standard_normal(n)
    G = rng.standard_normal((m, n))
    h = G @ rng.standard_normal(n) + rng.uniform(-0.5, 1.0, m)
    A = b = None
    if with_equalities and n >= 2:
        p = int(rng.integers(1, n))
        A = rng.standard_normal((p, n))
        b = rng.standard_normal(p)
    return P, q, G, h, A, b


# ---------------------------------------------------------------------------
# KKT residual, and equality constraints by nullspace elimination


def kkt_residual(P, q, G, h, z, lam, A_eq=None, b_eq=None, nu=None) -> float:
    """Max of stationarity, primal, dual and complementarity violations.

    For min 1/2 z'Pz + q'z s.t. Gz <= h, A_eq z = b_eq at primal z with
    inequality multipliers lam and equality multipliers nu; G and A_eq
    may be None.
    """
    n = q.shape[0]
    G = np.zeros((0, n)) if G is None else G
    h = np.zeros(0) if h is None else h
    A_eq = np.zeros((0, n)) if A_eq is None else A_eq
    b_eq = np.zeros(0) if b_eq is None else b_eq
    nu = np.zeros(A_eq.shape[0]) if nu is None else nu
    if z.shape[0] != n or lam.shape[0] != G.shape[0] or nu.shape[0] != A_eq.shape[0]:
        raise ConfigurationError("solution dimensions do not match the problem")
    stat = P @ z + q + G.T @ lam + A_eq.T @ nu
    parts = [float(np.max(np.abs(stat))) if stat.size else 0.0]
    if G.shape[0]:
        slack = G @ z - h
        parts.append(float(max(0.0, np.max(slack))))
        parts.append(float(max(0.0, -np.min(lam))))
        parts.append(float(np.max(np.abs(lam * slack))))
    if A_eq.shape[0]:
        parts.append(float(np.max(np.abs(A_eq @ z - b_eq))))
    return max(parts)


class EqQpSolution(NamedTuple):
    z: np.ndarray
    ineq_duals: np.ndarray
    eq_duals: np.ndarray
    status: str                       # "optimal" | "infeasible" | "max_iter"


def solve_eq_qp(P, q, G, h, A_eq, b_eq) -> EqQpSolution:
    """min 1/2 z'Pz + q'z  s.t.  Gz <= h,  A_eq z = b_eq.

    The equalities are eliminated through a QR nullspace basis,
    z = z_part + Z y with A_eq Z = 0, and the reduced inequality QP in y
    goes to solve_qp. A_eq must have full row rank; inconsistent
    equalities are reported as infeasible, with NaN values.
    """
    problem = QpProblem(P=P, q=q, G=G, h=h)
    P, q, G, h = problem.P, problem.q, problem.G, problem.h
    A = np.atleast_2d(np.asarray(A_eq, dtype=float))
    b = np.asarray(b_eq, dtype=float).ravel()
    n, m, p = q.shape[0], G.shape[0], A.shape[0]
    if A.shape[1] != n or b.shape != (p,):
        raise ConfigurationError(f"A_eq/b_eq shapes {A.shape}/{b.shape} "
                                 f"inconsistent with n={n}")
    infeasible = EqQpSolution(np.full(n, np.nan), np.full(m, np.nan), np.full(p, np.nan),
                              "infeasible")
    q_full, r_full = np.linalg.qr(A.T, mode="complete")
    r1 = r_full[:p, :]
    diag = np.abs(np.diag(r1))
    if diag.size and diag.min() <= 1e-12 * max(1.0, diag.max()):
        z_ls, *_ = np.linalg.lstsq(A, b, rcond=None)
        if np.max(np.abs(A @ z_ls - b)) > 1e-8 * max(1.0, float(np.abs(b).max())):
            return infeasible
        raise ConfigurationError("A_eq must have full row rank")
    z_part = q_full[:, :p] @ solve_triangular(r1.T, b, lower=True)
    basis = q_full[:, p:]
    if basis.shape[1] == 0:
        if m and np.max(G @ z_part - h) > 1e-9:
            return infeasible
        status, y, lam = "optimal", np.zeros(0), np.zeros(m)
    else:
        p_red = basis.T @ P @ basis
        p_red = 0.5 * (p_red + p_red.T)
        reduced = solve_qp(QpProblem(P=p_red, q=basis.T @ (P @ z_part + q),
                                     G=G @ basis, h=h - G @ z_part))
        if reduced.status == "infeasible":
            return infeasible
        status, y, lam = reduced.status, reduced.z, reduced.ineq_duals
    z = z_part + (basis @ y if y.size else 0.0)
    resid = P @ z + q + G.T @ lam
    nu = solve_triangular(r1, q_full[:, :p].T @ (-resid), lower=False)
    return EqQpSolution(z, lam, nu, status)


# ---------------------------------------------------------------------------
# finite-horizon tracking LQR (affine dynamics) by backward recursion


def riccati_tracking(A, B, c, Q, R, Q_terminal, x_desired, x0):
    """Optimal cost and first input for the affine tracking problem.

    Cost: sum_t (x_t - xd_t)'Q(x_t - xd_t) + u_t'Ru_t plus the terminal
    term, dynamics x_{t+1} = A x_t + B u_t + c. Value functions are kept as
    V_t(x) = x'Sx + 2s'x + k.
    """
    T = x_desired.shape[0] - 1
    n = A.shape[0]
    S = Q_terminal.copy()
    s = -Q_terminal @ x_desired[T]
    k = float(x_desired[T] @ Q_terminal @ x_desired[T])
    first_u = None
    for t in reversed(range(T)):
        M = R + B.T @ S @ B
        P2 = B @ np.linalg.solve(M, B.T)
        W = S - S @ P2 @ S
        v = S @ c + s
        S_new = Q + A.T @ W @ A
        s_new = -Q @ x_desired[t] + A.T @ (W @ c + (np.eye(n) - S @ P2) @ s)
        k_new = float(x_desired[t] @ Q @ x_desired[t] + c @ S @ c + 2 * s @ c
                      + k - v @ P2 @ v)
        if t == 0:
            first_u = -np.linalg.solve(M, B.T @ (S @ (A @ x0 + c) + s))
        S, s, k = S_new, s_new, k_new
    return float(x0 @ S @ x0 + 2 * s @ x0 + k), first_u


# ---------------------------------------------------------------------------
# stacked MPC window QP (dynamics kept as equality constraints)

SLACK_WEIGHT = 1e6        # the planner's penalty on relaxed state-constraint slack
HESSIAN_RIDGE = 1e-8


def assemble_mpc_qp(mpc, linearizations, relax_state_constraints=False):
    """Stacked QP over (x_j..x_T, u_j..u_{T-1}) for the MPC window.

    Dynamics enter as equality constraints x_{t+1} = A_t x_t + B_t u_t + c_t
    (one block per step of the window) along with the pinned initial state.
    With relax_state_constraints, state inequalities get quadratically
    penalized slack variables so an infeasible window still produces a
    usable input. A tiny ridge keeps the stacked Hessian positive definite
    when state costs are only PSD. Returns ((P, q, G, h, A_eq, b_eq), index
    of u_j in z), the first element solve_eq_qp's arguments.
    """
    T, j = mpc.horizon, mpc.start_index
    n, m = mpc.state_dim, mpc.input_dim
    W = T - j
    nx, nu = (W + 1) * n, W * m
    relax = relax_state_constraints and mpc.C_x is not None
    n_sx = mpc.C_x.shape[0] * (W + 1) if relax else 0
    nz = nx + nu + n_sx

    blocks = [mpc.Q] * (T - j) + [mpc.Q_terminal] + [mpc.R] * (T - j)
    P = 2.0 * block_diag(*blocks)
    P = block_diag(P, 2.0 * SLACK_WEIGHT * np.eye(n_sx)) if n_sx else P
    P[np.diag_indices_from(P)] += HESSIAN_RIDGE
    q = np.zeros(nz)
    for t in range(j, T):
        q[(t - j) * n:(t - j + 1) * n] = -2.0 * mpc.Q @ mpc.x_desired[t]
    q[W * n:(W + 1) * n] = -2.0 * mpc.Q_terminal @ mpc.x_desired[T]

    A_eq = np.zeros((n + W * n, nz))
    b_eq = np.zeros(n + W * n)
    A_eq[:n, :n] = np.eye(n)
    b_eq[:n] = mpc.initial_state
    for t in range(j, T):
        r = n + (t - j) * n
        A_eq[r:r + n, (t - j + 1) * n:(t - j + 2) * n] = np.eye(n)
        A_eq[r:r + n, (t - j) * n:(t - j + 1) * n] = -linearizations.A[t]
        A_eq[r:r + n, nx + (t - j) * m:nx + (t - j + 1) * m] = -linearizations.B[t]
        b_eq[r:r + n] = linearizations.c[t]

    g_rows, h_vals = [], []
    if mpc.C_u is not None:
        for t in range(j, T):
            row = np.zeros((mpc.C_u.shape[0], nz))
            row[:, nx + (t - j) * m:nx + (t - j + 1) * m] = mpc.C_u
            g_rows.append(row)
            h_vals.append(mpc.d_u)
    if mpc.C_x is not None:
        px = mpc.C_x.shape[0]
        for t in range(j, T + 1):
            row = np.zeros((px, nz))
            row[:, (t - j) * n:(t - j + 1) * n] = mpc.C_x
            if n_sx:
                s0 = nx + nu + (t - j) * px
                row[:, s0:s0 + px] = -np.eye(px)
            g_rows.append(row)
            h_vals.append(mpc.d_x)
        if n_sx:
            nonneg = np.zeros((n_sx, nz))
            nonneg[:, nx + nu:] = -np.eye(n_sx)
            g_rows.append(nonneg)
            h_vals.append(np.zeros(n_sx))
    G = np.vstack(g_rows) if g_rows else None
    h = np.concatenate(h_vals) if g_rows else None
    return (P, q, G, h, A_eq, b_eq), nx


# ---------------------------------------------------------------------------
# 1D contact LCP oracle


def lcp_oracle_1d(xu, xa, command, m, h, k):
    """Solve the 1D contact step by enumerating both complementarity modes.

    Each mode's linear system is solved numerically and kept only if its
    inequality holds (gap >= 0 for separation, impulse >= 0 for contact);
    the first valid mode in the order (separation, contact) is returned as
    (xu_next, xa_next, impulse, mode).
    """
    del xa  # the robot's current position does not enter either mode
    candidates = []
    # separation: impulse = 0; the robot balance h*k*(command - xa_next) = 0
    # puts the robot on its command; valid if the resulting gap is >= 0.
    if xu - command >= 0.0:
        candidates.append((xu, command, 0.0, "separation"))
    # contact: unknowns (xu_next, xa_next, impulse) from
    #   m*(xu_next - xu)/h - impulse = 0        (box momentum)
    #   -impulse + h*k*(command - xa_next) = 0  (robot force balance)
    #   xu_next - xa_next = 0                   (touching)
    mat = np.array([[m / h, 0.0, -1.0],
                    [0.0, -h * k, -1.0],
                    [1.0, -1.0, 0.0]])
    rhs = np.array([m / h * xu, -h * k * command, 0.0])
    xu_next, xa_next, impulse = np.linalg.solve(mat, rhs)
    if impulse >= 0.0:
        candidates.append((float(xu_next), float(xa_next), float(impulse), "contact"))
    assert candidates, "complementarity problem has a solution by construction"
    return candidates[0]


def residuals_1d(state, nxt, diag, params) -> dict[str, float]:
    """Defining-equation residuals of a 1D contact step (all should be ~0)."""
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
# Gaussian blend of the 1D contact Jacobian (piecewise-constant Jacobians)


def blended_jacobian_1d(xu, command, sigma, c_ratio):
    """Expected (A, B) of the two-piece pusher under N(command, sigma^2).

    The Jacobian is piecewise constant in the command, so its Gaussian
    average is the contact-probability blend of the two pieces.
    """
    p_contact = norm.cdf((command - xu) / sigma) if sigma > 0 else float(command >= xu)
    s = 1.0 / (1.0 + c_ratio)
    a_sep = np.array([[1.0, 0.0], [0.0, 0.0]])
    b_sep = np.array([[0.0], [1.0]])
    a_con = np.array([[c_ratio * s, 0.0], [c_ratio * s, 0.0]])
    b_con = np.array([[s], [s]])
    a = p_contact * a_con + (1.0 - p_contact) * a_sep
    b = p_contact * b_con + (1.0 - p_contact) * b_sep
    return a, b


# ---------------------------------------------------------------------------
# finite-difference Jacobians


FD_STEP = 1e-6


def finite_difference_jacobians(step_batch, xs, us):
    """Central-difference Jacobians of a batched step at each row of (xs, us).

    Makes one step_batch call on all 2(n+m)N perturbed rows and returns
    (A, B) with shapes (N, n', n) and (N, n', m), n' the output size.
    """
    xs = np.asarray(xs, dtype=float)
    us = np.asarray(us, dtype=float)
    n = xs.shape[1]
    z = np.concatenate([xs, us], axis=1)
    rows, d = z.shape
    e = FD_STEP * np.eye(d)
    probes = np.concatenate([z[:, None, :] + e, z[:, None, :] - e], axis=1).reshape(-1, d)
    f = np.asarray(step_batch(probes[:, :n], probes[:, n:]), dtype=float)
    f = f.reshape(rows, 2, d, -1)
    jac = ((f[:, 0] - f[:, 1]) / (2 * FD_STEP)).transpose(0, 2, 1)
    return jac[:, :, :n], jac[:, :, n:]


# ---------------------------------------------------------------------------
# per-knot trajectory linearization


def per_knot_linearization(sys, xs, us, mode, variances, run_seed, iteration):
    """irs_lqr.linearize_trajectory one knot at a time, with its own calls.

    Each knot draws its samples from derive_knot_seed and makes its own
    call on the dynamics: the exact mode steps the knot itself, the
    first-order bundle averages its n sampled Jacobians, the zero-order
    bundle solves its own normal equations. All-zero variances take the
    exact path. The knots' models are stacked only at the end.
    """
    xs = np.asarray(xs, dtype=float)
    us = np.asarray(us, dtype=float)
    nx = xs.shape[1]
    dist = None if mode.kind == "exact" else SmoothingDistribution(variances)
    models = []
    for t in range(us.shape[0]):
        x_nom, u_nom = xs[t], us[t]
        if dist is None or dist.is_zero:
            (a,), (b,) = sys.jacobians_batch(x_nom[None], u_nom[None])
            f0 = np.asarray(sys.step(x_nom, u_nom), dtype=float)
            models.append((a, b, f0 - a @ x_nom - b @ u_nom))
            continue
        z = sample_perturbations(dist, mode.samples, derive_knot_seed(run_seed, iteration, t))
        if mode.kind == "first_order_bundle":
            a, b = sys.jacobians_batch(x_nom + z[:, :nx], u_nom + z[:, nx:])
            a, b = np.sum(a, axis=0) / mode.samples, np.sum(b, axis=0) / mode.samples
        else:
            f = np.asarray(sys.step_batch(np.concatenate([x_nom[None], x_nom + z[:, :nx]]),
                                          np.concatenate([u_nom[None], u_nom + z[:, nx:]])),
                           dtype=float)
            coef = np.linalg.solve(z.T @ z, z.T @ (f[1:] - f[0])).T
            a, b = coef[:, :nx], coef[:, nx:]
        models.append((a, b, xs[t + 1] - a @ x_nom - b @ u_nom))
    return LinearizedDynamics(*(np.stack(part) for part in zip(*models)))


# ---------------------------------------------------------------------------
# identities of linear models and of the pendulum


def linear_prediction(lin, xs, us):
    """Next states A[t] x_t + B[t] u_t + c[t] of the stacked models, knot by knot."""
    return np.array([a @ x + b @ u + c for a, b, c, x, u in zip(lin.A, lin.B, lin.c, xs, us)])


def linearization_residual(lin, x_nom, u_nom, f_nominal) -> float:
    """max |step(knot) - (A x + B u + c)| over the knots, the models' defining identity."""
    return float(np.max(np.abs(np.asarray(f_nominal) - linear_prediction(lin, x_nom, u_nom))))


def pendulum_energy(pendulum, x) -> float:
    """Kinetic plus potential energy, zero hanging at rest."""
    theta, omega = float(x[0]), float(x[1])
    return (0.5 * pendulum.mass * pendulum.length**2 * omega**2
            + pendulum.mass * pendulum.gravity * pendulum.length * (1.0 - np.cos(theta)))
