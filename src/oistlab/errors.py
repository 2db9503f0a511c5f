"""Exception hierarchy shared by all oistlab modules.

Configuration problems (bad priors, grids, parameter ranges) raise
``ConfigError``, which is also a ``ValueError``; failures that occur
while a computation is running (degenerate states, non-normalizable
densities) raise a ``NumericError`` subclass. The CLI maps the two
families to distinct exit codes.
"""


class OistlabError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(OistlabError, ValueError):
    """Invalid configuration or violated setup precondition."""


class NumericError(OistlabError):
    """Numerical failure detected during a computation."""


class DegenerateStateError(NumericError):
    """Estimate collapsed to the zero vector after thresholding, or a zero signal."""


class NonNormalizableError(NumericError):
    """Requested stationary density has no finite normalization."""
