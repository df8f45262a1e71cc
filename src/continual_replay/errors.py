"""Exception types shared across the package.

Every error raised by the library is a subclass of ContinualReplayError, so
callers can catch one base class. The CLI maps InvalidParameters to exit
code 2 and every other library error, ConsistencyFailure included, to exit
code 3.
"""


class ContinualReplayError(Exception):
    """Base class for all library errors."""


class ConsistencyFailure(ContinualReplayError):
    """Two routes to the same quantity disagree, or a construction broke its promise."""


class NonFiniteInput(ContinualReplayError):
    """An input array contains NaN or Inf entries."""


class DimensionMismatch(ContinualReplayError):
    """Operands live in different ambient dimensions or have incompatible shapes."""


class InconsistentSystem(ContinualReplayError):
    """The linear system X w = y has no exact solution (realizability violated)."""


class RankDeficiency(ContinualReplayError):
    """Sampled rows failed to reach the subspace rank even after a re-draw."""


class NotConverged(ContinualReplayError):
    """Gradient descent failed to reach the convergence tolerance in time."""


class TooFewTasks(ContinualReplayError):
    """Forgetting needs at least two tasks (it excludes the final one)."""


class InvalidParameters(ContinualReplayError):
    """A parameter outside its admissible range: a dimension, epsilon, angle,
    sample count, replay size, or a constraint of the high-dimensional regime
    (CLI exit code 2)."""
