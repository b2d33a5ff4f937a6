"""Catalog of scalar test functions for the smoothing diagnostics.

Each function maps R -> R (wrapped as a dimension-1 vector function for
the estimators) and is vectorized over numpy arrays. Gradients follow the
right-derivative convention at kinks and jumps: grad(x0) is the
derivative of the piece valid on [x0, x0+eps). Each function carries its
Gaussian smoothing in closed form, which oracle.convolution_oracle returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar

import numpy as np

from .errors import ConfigurationError

__all__ = ["TestFunction", "get_test_function", "TEST_FUNCTION_IDS"]


@dataclass(frozen=True)
class TestFunction:
    """A scalar test function, its gradient and its closed-form smoothing.

    evaluate / gradient are vectorized over numpy arrays. `smoothed(x, sigma)`
    is the (value, derivative) of E[f(x + w)], w ~ N(0, sigma^2).
    """

    __test__ = False          # not a pytest class, despite the name
    vectorized: ClassVar[bool] = True

    id: str
    evaluate: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    smoothed: Callable[[float, float], tuple[float, float]]

    def __call__(self, x):
        return self.evaluate(x)


def _wiggly(x):
    x = np.asarray(x, dtype=float)
    return x**2 + 0.1 * np.sin(20.0 * x)


def _wiggly_grad(x):
    x = np.asarray(x, dtype=float)
    return 2.0 * x + 2.0 * np.cos(20.0 * x)


def _heaviside(x):
    x = np.asarray(x, dtype=float)
    return np.where(x >= 0.0, 1.0, 0.0)


def _heaviside_grad(x):
    # Constant on each piece; the unit jump at 0 has no pointwise derivative.
    x = np.asarray(x, dtype=float)
    return np.zeros_like(x)


def _vee(x):
    x = np.asarray(x, dtype=float)
    return np.where(x >= 0.0, -1.0 + x, 1.0 - x)


def _vee_grad(x):
    x = np.asarray(x, dtype=float)
    return np.where(x >= 0.0, 1.0, -1.0)


def _normal_cdf_pdf(z):
    """Standard normal (cdf, pdf) at z; erfc keeps the lower tail's relative accuracy."""
    cdf = 0.5 * math.erfc(-z / math.sqrt(2.0))
    return cdf, math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def _wiggly_smoothed(x, sigma):
    damp = math.exp(-200.0 * sigma**2)
    return (x**2 + sigma**2 + 0.1 * damp * math.sin(20.0 * x),
            2.0 * x + 2.0 * damp * math.cos(20.0 * x))


def _heaviside_smoothed(x, sigma):
    cdf, pdf = _normal_cdf_pdf(x / sigma)
    return cdf, pdf / sigma


def _vee_smoothed(x, sigma):
    # vee(x) = |x| + 1 - 2 H(x)
    cdf, pdf = _normal_cdf_pdf(x / sigma)
    return (2.0 * sigma * pdf + x * (2.0 * cdf - 1.0) + 1.0 - 2.0 * cdf,
            (2.0 * cdf - 1.0) - 2.0 * pdf / sigma)


# The gradient bundle takes the gradients bare, so they carry the batch flag.
for _fn in (_wiggly_grad, _heaviside_grad, _vee_grad):
    _fn.vectorized = True

_CATALOG = {
    "wiggly_quadratic": TestFunction("wiggly_quadratic", _wiggly, _wiggly_grad,
                                     _wiggly_smoothed),
    "heaviside": TestFunction("heaviside", _heaviside, _heaviside_grad,
                              _heaviside_smoothed),
    "vee": TestFunction("vee", _vee, _vee_grad, _vee_smoothed),
}

TEST_FUNCTION_IDS = tuple(_CATALOG)


def get_test_function(function_id: str) -> TestFunction:
    try:
        return _CATALOG[function_id]
    except KeyError:
        raise ConfigurationError(
            f"unknown test function {function_id!r}; known: {sorted(_CATALOG)}"
        ) from None
