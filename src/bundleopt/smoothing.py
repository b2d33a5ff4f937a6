"""Randomized-smoothing estimators.

Monte-Carlo estimators of smoothed ("bundled") objectives and dynamics:
the sample mean of an objective under perturbations, the first-order
gradient bundle (mean of sampled gradients), the zero-order gradient
bundle (least-squares regression on sampled function deviations), and the
analogous Jacobian bundles for discrete-time dynamics. Also provides the
variance schedule used by the iterative optimizer.

The Jacobian bundles make one batched call on the dynamics per knot: the
first-order bundle one jacobians_batch call on its n perturbed points,
the zero-order bundle one step_batch call (see systems.py for the batch
protocol).

Determinism contract: every estimator is a pure function of its inputs and
the 64-bit seed. Samples come from numpy's PCG64 generator, and reductions
run in a fixed order over the sample axis, so results are bit-identical
no matter how callers parallelize around these functions.

Scalar functions are functions of a length-d vector. Functions carrying a
truthy ``vectorized`` attribute are instead called on whole batches: with
an (n,) array of scalars when d == 1, or an (n, d) array otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, SingularRegressionError

__all__ = [
    "SmoothingDistribution",
    "BundleEstimate",
    "sample_perturbations",
    "bundled_objective_estimate",
    "first_order_gradient_bundle",
    "zero_order_gradient_bundle",
    "jacobian_bundle_first_order",
    "jacobian_bundle_zero_order",
    "variance_schedule",
]

_PSD_TOL = 1e-10


class SmoothingDistribution:
    """Zero-mean Gaussian perturbation density with a fixed covariance.

    The covariance may be singular; coordinates with an all-zero covariance
    row produce exactly-zero perturbation components. Sampling is
    deterministic in the seed.
    """

    def __init__(self, covariance, kind: str = "gaussian"):
        if kind != "gaussian":
            raise ConfigurationError(f"unsupported distribution kind {kind!r}")
        cov = np.atleast_2d(np.asarray(covariance, dtype=float))
        if cov.shape[0] != cov.shape[1]:
            raise ConfigurationError(f"covariance must be square, got {cov.shape}")
        if not np.allclose(cov, cov.T, atol=1e-12):
            raise ConfigurationError("covariance must be symmetric")
        cov = 0.5 * (cov + cov.T)
        scale = max(1.0, float(np.max(np.abs(cov))))
        eigval, eigvec = np.linalg.eigh(cov)
        if eigval.min() < -_PSD_TOL * scale:
            raise ConfigurationError(
                "covariance must be positive semidefinite "
                f"(min eigenvalue {eigval.min():.3e})")
        self.kind = kind
        self.covariance = cov
        self.dimension = cov.shape[0]
        self._factor = eigvec * np.sqrt(np.clip(eigval, 0.0, None))
        self._factor[~np.any(cov, axis=1), :] = 0.0

    @staticmethod
    def isotropic(dimension: int, stddev: float) -> "SmoothingDistribution":
        """Gaussian with covariance stddev**2 * I."""
        return SmoothingDistribution(np.eye(dimension) * float(stddev) ** 2)

    @property
    def is_zero(self) -> bool:
        """True when the covariance is exactly zero (degenerate sampling)."""
        return not np.any(self.covariance)

    def frozen_coordinates(self) -> np.ndarray:
        """Boolean mask of coordinates that never receive perturbation."""
        return ~np.any(self.covariance, axis=1)

    def sample(self, n: int, seed: int) -> np.ndarray:
        """Draw n i.i.d. perturbations, shape (n, dimension)."""
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((n, self.dimension))
        return z @ self._factor.T

    def __repr__(self):
        return f"SmoothingDistribution(kind={self.kind!r}, dimension={self.dimension})"


@dataclass(frozen=True)
class BundleEstimate:
    """A Monte-Carlo estimate together with the per-entry summand variance.

    `empirical_variance` holds the sample variance (ddof=1) of the
    individual summands, entrywise; the variance of `value` itself is
    empirical_variance / sample_count, which tests turn into CLT bounds.
    """

    value: np.ndarray
    sample_count: int
    empirical_variance: np.ndarray


def sample_perturbations(dist: SmoothingDistribution, n: int, seed: int) -> np.ndarray:
    """Draw a reproducible batch of n perturbations, shape (n, dimension)."""
    if n < 1:
        raise ConfigurationError(f"sample count must be >= 1, got {n}")
    return dist.sample(n, seed)


def bundled_objective_estimate(f, x, dist: SmoothingDistribution, n: int,
                               seed: int) -> BundleEstimate:
    """Sample mean of f over Gaussian perturbations of x.

    Estimates the smoothed objective (the convolution of f with the
    perturbation density) at x.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    w = sample_perturbations(dist, n, seed)
    values = _eval_batch(f, x[None, :] + w)
    return BundleEstimate(value=np.mean(values, axis=0), sample_count=n,
                          empirical_variance=_variance(values))


def first_order_gradient_bundle(f, grad_f, x, dist: SmoothingDistribution, n: int,
                                seed: int) -> BundleEstimate:
    """Mean of sampled gradients grad_f(x + w_i).

    grad_f only needs to be defined almost everywhere; at kinks the
    function's one-sided (right) derivative convention applies. For
    functions with jump discontinuities this estimator is biased: the
    samples never see the jump, no matter how many are drawn.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if grad_f is None:
        grad_f = f.gradient
    w = sample_perturbations(dist, n, seed)
    grads = _grad_batch(grad_f, x[None, :] + w)
    return BundleEstimate(value=np.mean(grads, axis=0), sample_count=n,
                          empirical_variance=_variance(grads))


def zero_order_gradient_bundle(f, x, dist: SmoothingDistribution, n: int,
                               seed: int) -> BundleEstimate:
    """Derivative-free gradient estimate by least squares on sampled deviations.

    Solves argmin_g sum_i (f(x+w_i) - f(x) - g.w_i)^2 via the normal
    equations. This is the regression form of the expected-finite-difference
    estimator; unlike literal division by the perturbation it stays finite
    for samples near zero.

    With an exactly-zero covariance there is nothing to regress on; the
    estimate degenerates to a central finite difference (step 1e-6) at x.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    d = x.shape[0]
    if dist.is_zero:
        g = np.empty(d)
        for i in range(d):
            e = np.zeros(d)
            e[i] = 1e-6
            g[i] = (_eval_point(f, x + e) - _eval_point(f, x - e)) / 2e-6
        return BundleEstimate(value=g, sample_count=n, empirical_variance=np.zeros(d))
    if n < d:
        raise ConfigurationError(
            f"zero-order estimate needs at least dim(x)={d} samples, got {n}")
    w = sample_perturbations(dist, n, seed)
    f0 = _eval_point(f, x)
    dev = _eval_batch(f, x[None, :] + w) - f0
    gram = w.T @ w
    _require_full_rank(gram, d)
    coef = np.linalg.solve(gram, w.T)     # (d, n)
    g = coef @ dev
    # Summands of the estimator: g = mean_i of n * coef[:, i] * dev_i.
    per_sample = n * coef.T * dev[:, None]
    return BundleEstimate(value=g, sample_count=n, empirical_variance=_variance(per_sample))


def jacobian_bundle_first_order(dynamics, x_nom, u_nom, dist: SmoothingDistribution,
                                n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo average of dynamics Jacobians at jointly perturbed points.

    `dist` is over the stacked (state, input) perturbation of dimension
    n_x + n_u; zero covariance blocks freeze the corresponding variables.
    One jacobians_batch call evaluates all n points; the sum runs over the
    samples in order. Returns (A_hat, B_hat).
    """
    x_nom = np.asarray(x_nom, dtype=float)
    u_nom = np.asarray(u_nom, dtype=float)
    nx, nu = x_nom.shape[0], u_nom.shape[0]
    _check_joint_dim(dist, nx, nu)
    z = sample_perturbations(dist, n, seed)
    a, b = dynamics.jacobians_batch(x_nom + z[:, :nx], u_nom + z[:, nx:])
    return np.sum(a, axis=0) / n, np.sum(b, axis=0) / n


def jacobian_bundle_zero_order(dynamics, x_nom, u_nom, dist: SmoothingDistribution,
                               n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares fit of the local dynamics from sampled deviations.

    Regresses f(x+w_i, u+v_i) - f(x, u) onto the stacked perturbations
    (w_i, v_i), giving the zero-order Jacobian bundle (A_hat, B_hat); one
    step_batch call evaluates all n sampled steps.
    Requires n >= dim(x)+dim(u) samples and perturbation variance in every
    direction. With an exactly-zero covariance the fit degenerates and the
    dynamics' own Jacobians at the nominal point are returned instead.
    """
    x_nom = np.asarray(x_nom, dtype=float)
    u_nom = np.asarray(u_nom, dtype=float)
    nx, nu = x_nom.shape[0], u_nom.shape[0]
    _check_joint_dim(dist, nx, nu)
    if dist.is_zero:
        return dynamics.jacobians(x_nom, u_nom)
    if np.any(dist.frozen_coordinates()):
        raise ConfigurationError(
            "zero-order Jacobian bundle needs perturbation variance in every "
            "state and input direction (or an exactly-zero covariance for the "
            "degenerate exact fallback)")
    d = nx + nu
    if n < d:
        raise ConfigurationError(
            f"zero-order Jacobian bundle needs at least dim(x)+dim(u)={d} samples, got {n}")
    z = sample_perturbations(dist, n, seed)
    f0 = np.asarray(dynamics.step(x_nom, u_nom), dtype=float)
    dev = np.asarray(dynamics.step_batch(x_nom + z[:, :nx], u_nom + z[:, nx:]),
                     dtype=float) - f0
    gram = z.T @ z
    _require_full_rank(gram, d)
    coef = np.linalg.solve(gram, z.T @ dev).T
    return coef[:, :nx], coef[:, nx:]


def variance_schedule(cov0, k: int, policy: str = "geometric",
                      gamma: float = 0.5) -> np.ndarray:
    """Covariance at iteration k under the given decay policy.

    "geometric": gamma**k * cov0 with 0 < gamma < 1 (square-summable, so the
    iterative optimizer converges to a stationary point of the original
    problem). "constant": cov0 at every iteration.
    """
    if k < 0:
        raise ConfigurationError(f"iteration index must be >= 0, got {k}")
    cov0 = np.atleast_2d(np.asarray(cov0, dtype=float))
    if policy == "constant":
        return cov0.copy()
    if policy == "geometric":
        if not 0.0 < gamma < 1.0:
            raise ConfigurationError(f"geometric decay rate must be in (0, 1), got {gamma}")
        return gamma**k * cov0
    raise ConfigurationError(f"unknown variance schedule policy {policy!r}")


def _eval_batch(f, points: np.ndarray) -> np.ndarray:
    """Evaluate a scalar function on (n, d) points, vectorized when supported."""
    if getattr(f, "vectorized", False):
        arg = points[:, 0] if points.shape[1] == 1 else points
        return np.asarray(f(arg), dtype=float).reshape(points.shape[0])
    return np.array([float(f(p)) for p in points])


def _eval_point(f, x: np.ndarray) -> float:
    if getattr(f, "vectorized", False) and x.shape == (1,):
        return float(np.asarray(f(x[0]), dtype=float))
    return float(f(x))


def _grad_batch(grad_f, points: np.ndarray, dim: int | None = None) -> np.ndarray:
    """Vector values of grad_f on (n, d) points as an (n, dim) array (dim d by default)."""
    n = points.shape[0]
    dim = points.shape[1] if dim is None else dim
    if getattr(grad_f, "vectorized", False):
        arg = points[:, 0] if points.shape[1] == 1 else points
        out = np.asarray(grad_f(arg), dtype=float)
    else:
        out = np.array([np.atleast_1d(np.asarray(grad_f(p), dtype=float)) for p in points])
    if out.size != n * dim:
        raise ConfigurationError(
            f"function gives {out.size} values on {n} points, expected {dim} per point")
    return out.reshape(n, dim)


def _variance(summands: np.ndarray) -> np.ndarray:
    if summands.shape[0] > 1:
        return np.var(summands, axis=0, ddof=1)
    return np.zeros(summands.shape[1:])


def _require_full_rank(gram: np.ndarray, d: int):
    tol = 1e-12 * max(1.0, float(np.max(np.abs(gram))))
    if np.linalg.matrix_rank(gram, tol=tol) < d:
        raise SingularRegressionError(
            "perturbation samples do not span the space; raise the sample count n")


def _check_joint_dim(dist: SmoothingDistribution, nx: int, nu: int):
    if dist.dimension != nx + nu:
        raise ConfigurationError(
            f"distribution dimension {dist.dimension} != dim(x)+dim(u) = {nx + nu}")
