"""Exception types shared across the package."""


class DomainError(ValueError):
    """Raised when an argument violates an operation's documented domain."""


class ConvergenceError(RuntimeError):
    """Raised when an iterative solver exhausts its iteration budget.

    Attributes
    ----------
    residual : float
        Norm of the eigen-residual at the last iterate (NaN if none was formed).
    iterations : int
        Number of iterations performed.
    """

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations
