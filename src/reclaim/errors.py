"""Exception types shared across the solvers."""


class ReclaimError(Exception):
    """Base class for every error raised by this package."""


class CycleError(ReclaimError):
    """The combined precedence + serialization relation has a directed cycle."""


class CoverageError(ReclaimError):
    """The allocation misses a task or places one twice."""


class WorkDeficitError(ReclaimError):
    """A segmented profile completes less work than the task's cost."""


class InfeasibleError(ReclaimError):
    """No admissible speed assignment can meet the deadline."""


class UnsupportedError(ReclaimError):
    """The requested solver does not cover this instance class."""


class NoConvergenceError(ReclaimError):
    """The iterative solver hit its iteration cap before reaching tolerance."""

    def __init__(self, message, iterations=0, residual=float("nan")):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class LpInfeasibleError(ReclaimError):
    """Phase 1 of the simplex ended with a positive artificial objective."""


class LpNumericalError(ReclaimError):
    """The simplex guard tripped (cycling suspected or unbounded tableau)."""


class BudgetExceededError(ReclaimError):
    """Branch-and-bound ran out of nodes; the best incumbent is attached."""

    def __init__(self, message, best=None, nodes=0):
        super().__init__(message)
        self.best = best
        self.nodes = nodes


class RangeError(ReclaimError):
    """A speed falls outside the admissible range of the model."""
