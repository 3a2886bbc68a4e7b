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
    library catches it or patches the matrix: it ends the run that raised
    it, in both modes.
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
    """A run log or summary file does not parse; the message names the file."""
