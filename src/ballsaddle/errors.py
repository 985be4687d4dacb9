"""Exception hierarchy shared by all ballsaddle modules."""


class BallSaddleError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(BallSaddleError):
    """Operands of different dimensions were combined."""


class InvalidInput(BallSaddleError):
    """An argument violates a precondition (non-finite, wrong sign, bad shape)."""


class HypothesisViolation(BallSaddleError):
    """A hypothesis of the certified statement fails on the given problem.

    Carries an optional ``deficit`` quantifying how far the hypothesis is
    from holding (e.g. how much a required lower bound is missed by).
    """

    def __init__(self, message: str, deficit: float | None = None):
        super().__init__(message)
        self.deficit = deficit


class NonConvergence(BallSaddleError):
    """An iterative solver exhausted its iteration budget."""

    def __init__(self, message: str, residual: float | None = None,
                 iterations: int | None = None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class CertificationError(BallSaddleError):
    """Certified mode met constants that are not certification grade, or a
    user-supplied oracle broke its contract (a non-idempotent projection)."""


class ConfigError(BallSaddleError):
    """A run configuration or problem document fails strict validation.

    ``path`` is the dotted path of the offending field, e.g. ``problem.rho``.
    """

    def __init__(self, message: str, path: str | None = None):
        if path:
            message = f"{path}: {message}"
        super().__init__(message)
        self.path = path
