"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Invalid input data, schema, or argument."""


class EstimationError(RuntimeError):
    """An estimator could not be evaluated on the given data."""

