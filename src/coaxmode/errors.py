"""Exception types and the public-argument contract shared across the package.

The CLI maps these onto its exit-code contract: validation problems
(bad arguments, bad geometry, unsupported order) exit with 2, numerical
failures (lost brackets, quadrature stagnation, resource caps) with 1.
The public-argument contract lives here too: ``_integer`` takes an int,
not a bool, in a range, and ``_finite_real`` a finite real number.
"""

import math


class CoaxmodeError(Exception):
    """Base class for all package errors."""


class DomainError(CoaxmodeError, ValueError):
    """Argument outside the mathematical domain (e.g. x < 0 for J_m)."""


class OrderError(CoaxmodeError, ValueError):
    """Bessel order outside the supported |m| <= 50 envelope."""


class GeometryError(CoaxmodeError, ValueError):
    """Cavity dimensions violate 0 < a < b, positive height, etc."""


class EvaluationError(CoaxmodeError, ArithmeticError):
    """A function value left the representable range (overflow)."""


class ConditioningError(CoaxmodeError, ArithmeticError):
    """A coefficient ratio is too ill-conditioned to be meaningful."""


class RootFindingError(CoaxmodeError, RuntimeError):
    """A root bracket could not be certified or refined."""


class QuadratureError(CoaxmodeError, RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""

    def __init__(self, message: str, achieved_tolerance: float):
        super().__init__(message)
        self.achieved_tolerance = achieved_tolerance


class ResourceLimitError(CoaxmodeError, RuntimeError):
    """An enumeration would exceed the hard result-size cap."""


# float() accepts these, but they are not real numbers
_NOT_REAL = (str, bytes, bytearray, bool)


def _finite_real(value: float) -> bool:
    """Whether value is a finite real number: not one of _NOT_REAL, nor an int beyond float."""
    try:
        return not isinstance(value, _NOT_REAL) and math.isfinite(value)
    except (TypeError, OverflowError):  # not a real number, or an int beyond float
        return False


def _integer(value: int, name: str, lo: int, hi: int | None = None,
             error: type[CoaxmodeError] = DomainError) -> int:
    """value, if it is an int but not a bool and lies in [lo, hi]; else raise ``error``."""
    if (not isinstance(value, int) or isinstance(value, bool) or value < lo
            or (hi is not None and value > hi)):
        span = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise error(f"{name} must be an integer {span}, got {value!r}")
    return value
