"""Exception types shared across the library."""


class SelfCmaError(Exception):
    """Base class for every library-specific error."""


class InvalidDimension(SelfCmaError, ValueError):
    """Search-space dimension outside the supported range."""


class InvalidLambda(SelfCmaError, ValueError):
    """Population size too small to recombine from."""


class InvalidRange(SelfCmaError, ValueError):
    """Empty or inverted interval bounds."""


class DimensionMismatch(SelfCmaError, ValueError):
    """Operands disagree on vector or matrix dimensions."""


class NonPositiveDefinite(SelfCmaError):
    """A covariance matrix lost positive definiteness.

    The sampling distribution is degenerate at this point. Nothing in the
    library patches the matrix: `core.update_distribution` re-raises it for
    a finite covariance and raises `NonFiniteState` for one with a NaN or
    infinite entry, and either ends the run that raised it, in both modes.
    """


class NonFiniteState(SelfCmaError):
    """A strategy state field became NaN or infinite after an update."""


class NonFiniteFitness(SelfCmaError):
    """An objective returned NaN for some candidate."""


class ConfigError(SelfCmaError, ValueError):
    """Invalid experiment configuration; the message names the offending field."""


class EmptyInput(SelfCmaError, ValueError):
    """An aggregate was requested over zero items."""


class MalformedLog(SelfCmaError, ValueError):
    """A run log does not parse (the message names the file) or a rate is not finite."""
