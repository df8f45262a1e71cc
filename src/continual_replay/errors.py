"""Exception types shared across the package.

Every error raised by the library is a subclass of ContinualReplayError, so
callers can catch one base class. The CLI maps ConfigurationError subclasses
to exit code 2 and every other library error, ConsistencyFailure included,
to exit code 3.
"""


class ContinualReplayError(Exception):
    """Base class for all library errors."""


class ConfigurationError(ContinualReplayError):
    """Base class for invalid-parameter errors (CLI exit code 2)."""


class ConsistencyFailure(ContinualReplayError):
    """Two routes to the same quantity disagree, or a construction broke its promise."""


class NonFiniteInput(ContinualReplayError):
    """An input array contains NaN or Inf entries."""


class DimensionMismatch(ContinualReplayError):
    """Operands live in different ambient dimensions or have incompatible shapes."""


class InconsistentSystem(ContinualReplayError):
    """The linear system X w = y has no exact solution (realizability violated)."""


class InvalidDimension(ConfigurationError):
    """Ambient dimension too small for the requested construction."""


class DegenerateWStar(ConfigurationError):
    """The supplied target vector has no component along the error direction."""


class InvalidEpsilon(ConfigurationError):
    """Construction parameter epsilon outside its admissible interval."""


class TooFewSamples(ConfigurationError):
    """Fewer samples requested than the subspace rank requires."""


class RankDeficiency(ContinualReplayError):
    """Sampled rows failed to reach the subspace rank even after a re-draw."""


class InvalidAngle(ConfigurationError):
    """Angle parameter outside [0, pi/2]."""


class NotEnoughSamples(ConfigurationError):
    """Replay selection asked for more samples than earlier tasks provide."""


class Diverged(ContinualReplayError):
    """Gradient descent loss increased for too many consecutive epochs."""


class NotConverged(ContinualReplayError):
    """Gradient descent failed to reach the convergence tolerance in time."""


class TooFewTasks(ContinualReplayError):
    """Forgetting needs at least two tasks (it excludes the final one)."""


class InvalidParameters(ConfigurationError):
    """Generic parameter validation failure."""


class ConstraintViolation(ConfigurationError):
    """A named constant constraint of the high-dimensional regime is violated."""
