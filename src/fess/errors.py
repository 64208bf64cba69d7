"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Invalid input data, schema, or argument."""


class EstimationError(RuntimeError):
    """An estimator could not be evaluated on the given data."""


class FitError(RuntimeError):
    """Model fitting failed to converge.

    The range search of ``fit_model`` converges by construction, so no
    routine in this package raises it; it stays for callers that catch it.
    Carries the best parameter set seen so far in ``best`` (a model or
    ``None``) and its objective value in ``sse``.
    """

    def __init__(self, message, best=None, sse=float("nan")):
        super().__init__(message)
        self.best = best
        self.sse = sse
