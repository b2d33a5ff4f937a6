"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Invalid configuration: bad variances, schedule parameter, config file, ..."""


class SingularRegressionError(RuntimeError):
    """Least-squares sample matrix is rank deficient.

    Raised by the zero-order estimators when the perturbations do not span
    the regression space. Drawing more samples (larger n) fixes it.
    """


class DivergedError(RuntimeError):
    """A numerical integration or optimization run blew up."""
