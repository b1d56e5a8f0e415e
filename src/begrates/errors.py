"""Exception hierarchy.

Two broad classes matter to callers (and to the CLI exit codes): bad inputs
(`ValidationError`) versus failures that arise while computing
(`ComputationError`).
"""


class BegratesError(Exception):
    """Base class for all package errors."""


class ValidationError(BegratesError, ValueError):
    """Invalid or inconsistent inputs."""


class ComputationError(BegratesError, RuntimeError):
    """A computation could not be carried out with the given inputs."""


class ScheduleUnderflowError(ComputationError):
    """A parameter schedule produced beta_n <= 0 or K_n <= 0 at this n."""


class CapExceededError(ComputationError):
    """Requested n exceeds the exact-law size cap."""


class NonIntegrableDensityError(ComputationError):
    """exp(-poly) cannot be normalised (its leading coefficient is not
    positive, or its mass is not computable in double precision), or one of
    its moments is not finite in double precision."""


class EnvelopeGridError(ComputationError):
    """The Stein envelopes need one interval about 0 on which the density is
    representable, and a multi-well density with a barrier (at 0 or between
    wells, within |x| <= 10) where the density is below e^-600 times its
    peak has none."""


class DegenerateFitError(ComputationError):
    """Log-log regression has no slope information (all distances equal)."""


class InvalidCaseParametersError(ValidationError):
    """Case parameters violate the branch predicate of the rate table."""
