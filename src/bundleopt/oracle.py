"""High-accuracy Gaussian smoothing of functions, by closed form or quadrature.

`convolution_oracle` evaluates the smoothed value and gradient of a scalar
function without Monte Carlo. It exists as an independent reference for
testing the sampling estimators, and is limited to Gaussian perturbations
(independent coordinates, as every SmoothingDistribution has) in
dimension <= 3.

One-dimensional catalog functions (functions.TestFunction with a
`smoothed` closed form) return that closed form. Other one-dimensional
functions are integrated piece by piece between their declared
breakpoints (kinks or jumps) with scipy's adaptive `quad`, since
polynomial rules lose their accuracy on non-smooth integrands; scipy is
imported on the first such call, not with the package. Higher dimensions
use tensor Gauss-Hermite quadrature. The quadrature gradient comes from
the function's own gradient when it is continuous, and otherwise from the
score-function identity  d/dx_i E[f(x+w)] = E[f(x+w) w_i] / sigma_i^2,
which also captures jump discontinuities.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError
from .smoothing import SmoothingDistribution, _eval_batch

__all__ = ["convolution_oracle", "gauss_hermite_expectation"]

_TAIL_SIGMAS = 13.0


def convolution_oracle(f, x, dist: SmoothingDistribution,
                       quadrature_points: int = 201) -> tuple[float, np.ndarray]:
    """Value and gradient of the smoothed function at x, without sampling.

    Returns (value, gradient) where value = E_w[f(x+w)] and gradient is its
    derivative with respect to x. `f` may carry `breakpoints`, `continuous`,
    `gradient` and `smoothed` attributes (see functions.TestFunction); bare
    callables are treated as smooth.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    d = x.shape[0]
    if dist.dimension != d:
        raise ConfigurationError(
            f"distribution dimension {dist.dimension} != point dimension {d}")
    if d > 3:
        raise ConfigurationError("convolution oracle supports dimension <= 3 only")
    if dist.is_zero:
        raise ConfigurationError("convolution oracle needs a nonzero variance")

    grad_f = getattr(f, "gradient", None)
    continuous = bool(getattr(f, "continuous", True))
    breakpoints = tuple(getattr(f, "breakpoints", ()))

    if d == 1:
        sigma = float(dist.stddevs[0])
        smoothed = getattr(f, "smoothed", None)
        if smoothed is not None:
            value, grad = smoothed(float(x[0]), sigma)
            return value, np.array([grad])
        value = _piecewise_1d(f, float(x[0]), sigma, breakpoints, moment=0)
        if continuous and grad_f is not None:
            grad = _piecewise_1d(grad_f, float(x[0]), sigma, breakpoints, moment=0)
        else:
            grad = _piecewise_1d(f, float(x[0]), sigma, breakpoints, moment=1) / sigma**2
        return value, np.array([grad])

    value = gauss_hermite_expectation(f, x, dist, quadrature_points)
    if continuous and grad_f is not None:
        grad = gauss_hermite_expectation(grad_f, x, dist, quadrature_points,
                                         output_dim=d)
    else:
        grad = gauss_hermite_expectation(
            f, x, dist, quadrature_points, weight_by_offset=True) / dist.variances
    return float(value), np.asarray(grad, dtype=float)


def gauss_hermite_expectation(f, x, dist: SmoothingDistribution, points: int,
                              output_dim: int | None = None,
                              weight_by_offset: bool = False):
    """Tensor Gauss-Hermite approximation of E_w[f(x+w)] (or E[f(x+w) w]).

    With `output_dim`, f is vector-valued with that many outputs and the
    expectation is a vector of that length; ConfigurationError if f gives
    another number of outputs.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    d = x.shape[0]
    nodes, weights = np.polynomial.hermite.hermgauss(points)
    grids = np.meshgrid(*([nodes] * d), indexing="ij")
    xi = np.stack([g.ravel() for g in grids], axis=-1)      # (points**d, d)
    wgt = np.ones(xi.shape[0])
    for g in np.meshgrid(*([weights] * d), indexing="ij"):
        wgt = wgt * g.ravel()
    wgt = wgt / math.pi ** (d / 2.0)
    offsets = math.sqrt(2.0) * xi * dist.stddevs
    pts = x[None, :] + offsets
    vals = _eval_batch(f, pts, output_dim)                  # (q,) or (q, output_dim)
    if output_dim is not None:
        return vals.T @ wgt
    if weight_by_offset:
        return offsets.T @ (wgt * vals)
    return float(wgt @ vals)


def _piecewise_1d(f, x: float, sigma: float, breakpoints: tuple[float, ...],
                  moment: int) -> float:
    """Adaptive quadrature of f(x+w) * w**moment against the Gaussian pdf."""
    from scipy import integrate

    lo, hi = -_TAIL_SIGMAS * sigma, _TAIL_SIGMAS * sigma
    cuts = sorted(b - x for b in breakpoints if lo < b - x < hi)
    edges = [lo, *cuts, hi]
    norm = 1.0 / (sigma * math.sqrt(2.0 * math.pi))
    vectorized = getattr(f, "vectorized", False)

    def integrand(w):
        arg = (x + w) if vectorized else np.array([x + w])
        val = float(np.asarray(f(arg), dtype=float))
        return val * w**moment * norm * math.exp(-0.5 * (w / sigma) ** 2)

    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        part, _ = integrate.quad(integrand, a, b, epsabs=1e-13, epsrel=1e-11, limit=200)
        total += part
    return total
