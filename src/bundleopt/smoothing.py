"""Randomized-smoothing estimators.

Monte-Carlo estimators of smoothed ("bundled") objectives and dynamics:
the sample mean of an objective under perturbations, the first-order
gradient bundle (mean of sampled gradients), the zero-order gradient
bundle (least-squares regression on sampled function deviations), and the
analogous Jacobian bundles for discrete-time dynamics. Also provides the
variance schedule used by the iterative optimizer.

Every perturbation density is a zero-mean Gaussian with independent
coordinates, given by one variance per coordinate; a sample is a standard
normal draw scaled by the standard deviations.

The Jacobian bundles take a stack of K knots and one seed: one draw of
K n perturbations gives the knots their n samples each, in knot order,
and one batched call on the dynamics evaluates them all, jacobians_batch
for the first-order bundle and step_batch for the zero-order one (see
systems.py for the batch protocol).

Determinism contract: every estimator is a pure function of its inputs and
its seed. Samples come from numpy's PCG64 generator, and reductions run in
a fixed order over the sample axis, so results are bit-identical no matter
how callers parallelize around these functions. A Generator seed is
advanced, so draws in parts continue one stream as one draw would.

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

class SmoothingDistribution:
    """Zero-mean Gaussian perturbation density with independent coordinates.

    `variances` holds one variance per coordinate, `stddevs` their square
    roots. A zero variance freezes its coordinate: its perturbation
    components are exactly zero. Sampling is deterministic in the seed.
    """

    def __init__(self, variances):
        variances = np.array(variances, dtype=float)
        if variances.ndim != 1:
            raise ConfigurationError(
                f"variances must be a 1-D array, got shape {variances.shape}")
        if not np.all(np.isfinite(variances) & (variances >= 0.0)):
            raise ConfigurationError(f"variances must be finite and >= 0, got {variances}")
        self.variances = variances
        self.stddevs = np.sqrt(variances)
        self.dimension = variances.shape[0]

    @staticmethod
    def isotropic(dimension: int, stddev: float) -> "SmoothingDistribution":
        """Gaussian with variance stddev**2 in each of `dimension` coordinates."""
        return SmoothingDistribution(np.full(dimension, float(stddev) ** 2))

    @property
    def is_zero(self) -> bool:
        """True when every variance is exactly zero (degenerate sampling)."""
        return not np.any(self.variances)

    def __repr__(self):
        return f"SmoothingDistribution(dimension={self.dimension})"


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


def sample_perturbations(dist: SmoothingDistribution, n: int, seed) -> np.ndarray:
    """n perturbations, shape (n, dimension), from any seed np.random.default_rng
    takes: an int, a tuple of ints, or a Generator, which the draw advances."""
    if n < 1:
        raise ConfigurationError(f"sample count must be >= 1, got {n}")
    return np.random.default_rng(seed).standard_normal((n, dist.dimension)) * dist.stddevs


def bundled_objective_estimate(f, x, dist: SmoothingDistribution, n: int,
                               seed) -> BundleEstimate:
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
                                seed) -> BundleEstimate:
    """Mean of sampled gradients grad_f(x + w_i); f itself is not evaluated.

    grad_f only needs to be defined almost everywhere; at kinks the
    function's one-sided (right) derivative convention applies. For
    functions with jump discontinuities this estimator is biased: the
    samples never see the jump, no matter how many are drawn.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    w = sample_perturbations(dist, n, seed)
    grads = _eval_batch(grad_f, x[None, :] + w, x.shape[0])
    return BundleEstimate(value=np.mean(grads, axis=0), sample_count=n,
                          empirical_variance=_variance(grads))


def zero_order_gradient_bundle(f, x, dist: SmoothingDistribution, n: int,
                               seed) -> BundleEstimate:
    """Derivative-free gradient estimate by least squares on sampled deviations.

    Solves argmin_g sum_i (f(x+w_i) - f(x) - g.w_i)^2 via the normal
    equations. This is the regression form of the expected-finite-difference
    estimator; unlike literal division by the perturbation it stays finite
    for samples near zero.

    A zero variance, in one coordinate or all, leaves a direction with
    nothing to regress on: SingularRegressionError.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    d = x.shape[0]
    if n < d:
        raise ConfigurationError(
            f"zero-order estimate needs at least dim(x)={d} samples, got {n}")
    w = sample_perturbations(dist, n, seed)
    f0 = _eval_batch(f, x[None, :])[0]
    dev = _eval_batch(f, x[None, :] + w) - f0
    gram = w.T @ w
    _require_full_rank(gram, d)
    coef = np.linalg.solve(gram, w.T)     # (d, n)
    g = coef @ dev
    # Summands of the estimator: g = mean_i of n * coef[:, i] * dev_i.
    per_sample = n * coef.T * dev[:, None]
    return BundleEstimate(value=g, sample_count=n, empirical_variance=_variance(per_sample))


def jacobian_bundle_first_order(dynamics, x_nom, u_nom, dist: SmoothingDistribution,
                                n: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo average of dynamics Jacobians at jointly perturbed points.

    x_nom (K, n_x) and u_nom (K, n_u) stack K knots (one knot is a stack
    of one), each taking n samples of one draw from `seed` (see _knots).
    `dist` is over the joint (state, input) perturbation; zero variances
    freeze variables. One jacobians_batch call evaluates all K n points;
    each knot's sum runs over its samples in order. Returns (A_hat, B_hat),
    (K, n_x, n_x) and (K, n_x, n_u).
    """
    x_nom, u_nom, z = _knots(x_nom, u_nom, dist, n, seed)
    (k, nx), nu = x_nom.shape, u_nom.shape[1]
    jac = dynamics.jacobians_batch((x_nom[:, None] + z[:, :, :nx]).reshape(-1, nx),
                                   (u_nom[:, None] + z[:, :, nx:]).reshape(-1, nu))
    return tuple(np.sum(j.reshape(k, n, *j.shape[1:]), axis=1) / n for j in jac)


def jacobian_bundle_zero_order(dynamics, x_nom, u_nom, dist: SmoothingDistribution,
                               n: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares fit of the local dynamics from sampled deviations.

    Knots, seed and shapes as in jacobian_bundle_first_order. Each knot
    regresses f(x+w_i, u+v_i) - f(x, u) onto its perturbations (w_i, v_i);
    one step_batch call evaluates every knot's nominal and n sampled steps.
    Requires n >= dim(x)+dim(u) samples and perturbation variance in every
    direction.
    """
    if np.any(dist.variances == 0.0):
        raise ConfigurationError(
            "zero-order Jacobian bundle needs perturbation variance in every "
            "state and input direction")
    d = dist.dimension
    if n < d:
        raise ConfigurationError(
            f"zero-order Jacobian bundle needs at least dim(x)+dim(u)={d} samples, got {n}")
    x_nom, u_nom, z = _knots(x_nom, u_nom, dist, n, seed)
    (k, nx), nu = x_nom.shape, u_nom.shape[1]
    # row 0 of each knot is the nominal point f(x, u), rows 1..n the sampled steps
    xs = np.concatenate([x_nom[:, None], x_nom[:, None] + z[:, :, :nx]], axis=1)
    us = np.concatenate([u_nom[:, None], u_nom[:, None] + z[:, :, nx:]], axis=1)
    f = np.asarray(dynamics.step_batch(xs.reshape(-1, nx), us.reshape(-1, nu)),
                   dtype=float).reshape(k, n + 1, nx)
    dev = f[:, 1:] - f[:, :1]
    zt = z.transpose(0, 2, 1)
    gram = zt @ z
    _require_full_rank(gram, d)
    # coef[k] is the transpose of knot k's solve output, as a view
    coef = np.linalg.solve(gram, zt @ dev).transpose(0, 2, 1)
    return coef[:, :, :nx], coef[:, :, nx:]


def variance_schedule(var0, k: int, policy: str = "geometric",
                      gamma: float = 0.5) -> np.ndarray:
    """Variances at iteration k under the given decay policy.

    "geometric": gamma**k * var0 with 0 < gamma < 1 (square-summable, so the
    iterative optimizer converges to a stationary point of the original
    problem). "constant": var0 at every iteration. var0 may have any shape.
    """
    if k < 0:
        raise ConfigurationError(f"iteration index must be >= 0, got {k}")
    var0 = np.asarray(var0, dtype=float)
    if policy == "constant":
        return var0.copy()
    if policy == "geometric":
        if not 0.0 < gamma < 1.0:
            raise ConfigurationError(f"geometric decay rate must be in (0, 1), got {gamma}")
        return gamma**k * var0
    raise ConfigurationError(f"unknown variance schedule policy {policy!r}")


def _eval_batch(f, points: np.ndarray, dim: int | None = None) -> np.ndarray:
    """Values of f on (n, d) points, vectorized when supported.

    Returns shape (n,), or (n, dim) for a function with dim outputs, always
    contiguous, as the loop's are: a strided dot product sums in another order.
    """
    n = points.shape[0]
    if getattr(f, "vectorized", False):
        out = f(points[:, 0] if points.shape[1] == 1 else points)
    else:
        out = [f(p) for p in points]
    out = np.ascontiguousarray(out, dtype=float)
    if out.size != n * (dim or 1):
        raise ConfigurationError(
            f"function gives {out.size} values on {n} points, expected {dim or 1} per point")
    return out.reshape(n if dim is None else (n, dim))


def _variance(summands: np.ndarray) -> np.ndarray:
    if summands.shape[0] > 1:
        return np.var(summands, axis=0, ddof=1)
    return np.zeros(summands.shape[1:])


def _require_full_rank(gram: np.ndarray, d: int):
    tol = 1e-12 * np.maximum(1.0, np.max(np.abs(gram), axis=(-2, -1)))
    if np.any(np.linalg.matrix_rank(gram, tol=tol) < d):
        raise SingularRegressionError(
            "perturbation samples do not span the space; raise the sample count n")


def _knots(x_nom, u_nom, dist: SmoothingDistribution, n: int, seed):
    """Knots (K, n_x), (K, n_u) checked against dist, and their samples
    (K, n, n_x + n_u): one draw from `seed`, knot k taking rows k n on."""
    x_nom, u_nom = np.asarray(x_nom, dtype=float), np.asarray(u_nom, dtype=float)
    if (x_nom.ndim != 2 or u_nom.ndim != 2 or len(x_nom) != len(u_nom)
            or x_nom.shape[1] + u_nom.shape[1] != dist.dimension):
        raise ConfigurationError(
            f"knots must stack as (K, n_x), (K, n_u) with n_x + n_u = "
            f"{dist.dimension}, got {x_nom.shape} and {u_nom.shape}")
    z = sample_perturbations(dist, len(x_nom) * n, seed)
    return x_nom, u_nom, z.reshape(len(x_nom), n, dist.dimension)
