"""Semantic exception hierarchy.

Every contract violation raises a subclass of :class:`InfoBoundError` so
callers can distinguish bad inputs from genuine bugs, and sweep drivers can
record per-point failures without aborting a whole run.
"""


class InfoBoundError(Exception):
    """Base class for all toolkit errors."""


class NonFiniteError(InfoBoundError):
    """A quantity that must be finite came out NaN or infinite."""


class LengthMismatchError(InfoBoundError, ValueError):
    """A tabulated sequence does not match the grid it is paired with."""


class DegenerateMarginalError(InfoBoundError):
    """Marginal outcome probability is too small to divide by."""


class ZeroLikelihoodError(InfoBoundError):
    """Conditional probability is exactly zero where a log is required."""


class OutsideSupportError(InfoBoundError):
    """Evaluation point lies outside the support of a distribution."""


class ThetaOutsideSupportError(OutsideSupportError):
    """Parameter value lies outside the finite support interval."""


class UnnormalizedOutcomeSpaceError(InfoBoundError):
    """Outcome grid is too coarse: conditional mass deviates from one."""


class NegativeLambdaError(InfoBoundError):
    """Bound kernel went negative beyond tolerance.

    Signals a sensitivity smaller than the squared score, which violates
    the kernel's contract.
    """


class ZeroWeightError(InfoBoundError):
    """Weight function vanishes at the requested evaluation point."""


class InvalidWeightError(InfoBoundError):
    """Weight function violates a support or boundary requirement."""


class DimensionMismatchError(InfoBoundError, ValueError):
    """Operator or vector dimensions are inconsistent."""


class IllConditionedError(InfoBoundError):
    """Support determination of a density matrix is ambiguous."""


class ZeroOutcomeProbabilityError(InfoBoundError):
    """Measurement outcome has numerically zero probability."""


class NonPositiveDiffusionError(InfoBoundError, ValueError):
    """Diffusion constant must be strictly positive."""


class InvalidParameterError(InfoBoundError, ValueError):
    """A constructor argument lies outside its admissible range."""


class ConfigError(InfoBoundError):
    """Run configuration is invalid; the message carries field paths."""
