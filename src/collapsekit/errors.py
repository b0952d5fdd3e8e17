"""Exception types shared across the package.

The CLI maps these onto process exit codes (see cli.py): config problems
exit 2, training divergence exits 3, solver non-convergence exits 4, and a
singular linear solve (SingularMatrixError, like numpy.linalg.LinAlgError)
exits 6. An OSError from writing or self-validating an artifact exits 5.
"""


class ConfigError(ValueError):
    """An experiment config is missing, malformed, or inconsistent."""


class SingularMatrixError(ValueError):
    """Linear solve requested on a matrix that is singular to working precision."""


class DivergenceError(RuntimeError):
    """An equilibrium does not exist (operator norm >= 1) or the loss left float range."""


class TrainingDivergedError(DivergenceError):
    """Raised when training produced a non-finite loss or an update overflowed
    a ball functional; carries the trace collected so far. After an overflow
    that trace's features, head and classifier are None."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class SolverConvergenceError(RuntimeError):
    """Fixed-point solver failed to reach its threshold and the policy demands an error."""
