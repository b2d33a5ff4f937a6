"""Gaussian smoothing without sampling: catalog closed forms and Gauss-Hermite sums.

`convolution_oracle` returns the smoothed value and gradient of a
one-dimensional catalog function (functions.TestFunction) from the closed
form it carries; bundle-eval compares the Monte-Carlo estimators against
it. `gauss_hermite_expectation` approximates E_w[f(x+w)] of a scalar
function by tensor Gauss-Hermite quadrature; contact-probe bundles its
contact steps with it. Both smooth with the Gaussian of a
SmoothingDistribution (independent coordinates).

Functions without a closed form are integrated by the quadrature
reference of the test suite (tests/oracles.py), which checks these
closed forms.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError
from .smoothing import SmoothingDistribution, _eval_batch

__all__ = ["convolution_oracle", "gauss_hermite_expectation"]


def convolution_oracle(f, x, dist: SmoothingDistribution,
                       quadrature_points: int = 201) -> tuple[float, np.ndarray]:
    """Value and gradient of the smoothed catalog function f at the 1-D point x.

    Returns (value, gradient) where value = E_w[f(x+w)], w ~ N(0, sigma^2),
    and gradient is its derivative, both from f.smoothed. ConfigurationError
    for a function without that closed form, a point or distribution that
    is not one-dimensional, or a zero variance. `quadrature_points` is not
    read; it stays until the benchmark adapter of ROADMAP item 1a retires it.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    smoothed = getattr(f, "smoothed", None)
    if smoothed is None:
        raise ConfigurationError(
            "convolution oracle needs a catalog function with a closed-form smoothing")
    if x.shape != (1,) or dist.dimension != 1:
        raise ConfigurationError(
            f"convolution oracle is one-dimensional; got a point of shape {x.shape} "
            f"and a distribution of dimension {dist.dimension}")
    if dist.is_zero:
        raise ConfigurationError("convolution oracle needs a nonzero variance")
    value, grad = smoothed(float(x[0]), float(dist.stddevs[0]))
    return value, np.array([grad])


def gauss_hermite_expectation(f, x, dist: SmoothingDistribution, points: int) -> float:
    """Tensor Gauss-Hermite approximation of E_w[f(x+w)] for a scalar f."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    d = x.shape[0]
    nodes, weights = np.polynomial.hermite.hermgauss(points)
    grids = np.meshgrid(*([nodes] * d), indexing="ij")
    xi = np.stack([g.ravel() for g in grids], axis=-1)      # (points**d, d)
    wgt = np.ones(xi.shape[0])
    for g in np.meshgrid(*([weights] * d), indexing="ij"):
        wgt = wgt * g.ravel()
    wgt = wgt / math.pi ** (d / 2.0)
    pts = x[None, :] + math.sqrt(2.0) * xi * dist.stddevs
    return float(wgt @ _eval_batch(f, pts))
