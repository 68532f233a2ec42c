"""Exception types and the public-argument contract shared across the package.

The CLI maps these onto its exit-code contract: validation problems
(bad arguments, bad geometry, unsupported order) exit with 2, numerical
failures (lost brackets, quadrature stagnation, resource caps) with 1.
The public-argument contract lives here too: ``_integer`` takes an int,
not a bool, in a range, and ``_finite_real`` a finite real number.

So does the contract every public record keeps, through ``_record``, which
imports nothing: construction from the annotated fields in order, by
position or keyword (a class-level value is the default), then the class's
``__post_init__`` check; ``Name(field=value, ...)`` as repr; equality only
with a record of the same class and equal fields, and a hash to match; and
AttributeError on assigning or deleting any attribute.

So does the cache policy: ``_memo`` makes every store, root tables too, a bounded
lru_cache, ``_MEMOS`` holds each by name (``cache_info()`` gives bound, size, hits and
misses), and ``clear_caches`` empties them.
"""

import math
from functools import lru_cache


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
    except (TypeError, ValueError, OverflowError):  # not real, a signaling NaN, a huge int
        return False


# qualified name -> the lru_cache of every store in a loaded module
_MEMOS: dict = {}


def _memo(maxsize: int, typed: bool = False):
    """Decorator: fn behind a registered lru_cache of at most ``maxsize`` entries.

    The cache object itself is returned, so a hit stays a C-level lookup.
    """
    def wrap(fn):
        cached = lru_cache(maxsize, typed)(fn)
        _MEMOS[f"{fn.__module__}.{fn.__qualname__}"] = cached
        return cached
    return wrap


def clear_caches() -> None:
    """Empty every memo, root tables too; later calls refill them with the same bits."""
    for store in _MEMOS.values():
        store.cache_clear()


def _integer(value: int, name: str, lo: int, hi: int | None = None,
             error: type[CoaxmodeError] = DomainError) -> int:
    """value, if it is an int but not a bool and lies in [lo, hi]; else raise ``error``."""
    if (not isinstance(value, int) or isinstance(value, bool) or value < lo
            or (hi is not None and value > hi)):
        span = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise error(f"{name} must be an integer {span}, got {value!r}")
    return value


_RECORD_METHODS = """
def __init__(self, {params}):
    _store = self.__dict__{sets}{post}
def __repr__(self):
    return f"{{type(self).__qualname__}}({shown})"
def __eq__(self, other):
    if other.__class__ is self.__class__:
        return ({own}) == ({theirs})
    return NotImplemented
def __hash__(self):
    return hash(({own}))
def __setattr__(self, name, value):
    raise AttributeError(f"cannot assign to field {{name!r}}")
def __delattr__(self, name):
    raise AttributeError(f"cannot delete field {{name!r}}")
"""


def _record(cls):
    """Give cls the record contract; its methods, compiled per class, loop over no fields.

    ``__init__`` writes each field into the instance ``__dict__``, past the
    ``__setattr__`` that refuses every later assignment.
    """
    names = tuple(cls.__annotations__)
    own = "".join(f"self.{n}, " for n in names)
    namespace = {"_defaults": vars(cls)}
    exec(_RECORD_METHODS.format(
        params=", ".join(f"{n}=_defaults[{n!r}]" if n in vars(cls) else n for n in names),
        sets="".join(f"\n    _store[{n!r}] = {n}" for n in names),
        post="\n    self.__post_init__()" if hasattr(cls, "__post_init__") else "",
        shown=", ".join(f"{n}={{self.{n}!r}}" for n in names),
        own=own, theirs=own.replace("self.", "other.")), namespace)
    for name in ("__init__", "__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__"):
        method = namespace[name]
        method.__qualname__ = f"{cls.__qualname__}.{name}"  # as argument errors name it
        setattr(cls, name, method)
    cls.__match_args__ = names
    return cls
