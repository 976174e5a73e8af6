"""Exception hierarchy shared across the engine, and its degree cap.

Two broad classes matter to callers (and map onto the CLI exit codes):
configuration problems (bad expressions, bad schemas) and mathematical
domain violations (degree caps, zero traces, unmet preconditions).
"""

from __future__ import annotations


class EngineError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(EngineError):
    """Operands live over different ground sets / tuple lengths."""


class MathDomainError(EngineError):
    """Input is outside the mathematical domain of the operation."""


class DegreeCapExceeded(MathDomainError):
    """A requested degree exceeds the configured cap."""


#: Ceiling for ground-set sizes, of NC(n) and of the series maps; NC(10)
#: has 16,796 elements. The letters of a scalar word, a different cost,
#: are bounded by scalar_space.MAX_DEGREE (8); merging the two caps
#: either way would refuse ``nc list --n 9`` and ``10`` or accept config
#: caps 9 and 10.
DEFAULT_DEGREE_CAP = 10


class ZeroTrace(MathDomainError):
    """Compression requested with alpha0 = 0."""


class CrossingPartition(MathDomainError):
    """The blocks given for a noncrossing partition cross."""


class PreconditionError(MathDomainError):
    """A documented structural precondition does not hold."""


class ConfigError(EngineError):
    """A configuration file is missing, malformed, or inconsistent."""
