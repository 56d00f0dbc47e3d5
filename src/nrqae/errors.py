"""Exception types shared across the package."""


class NrqaeError(Exception):
    """Base class for errors raised by this package."""


class ConfigError(NrqaeError):
    """Invalid experiment configuration or CLI arguments."""


class NonPhysicalChannelError(NrqaeError):
    """A channel specification produced an unusable superoperator."""


class DepthGuardError(NrqaeError):
    """ratio_y's denominator |t_2n| is within the division guard."""


class DegenerateProblemError(NrqaeError):
    """The two prepared states do not span a two-dimensional plane."""


class EstimationFailure(NrqaeError):
    """Every iteration of an estimation run failed."""
