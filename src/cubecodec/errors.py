"""Exception hierarchy shared by all cubecodec modules, and one check per kind of value.

Each check takes the class it raises: :class:`ArgumentError` for a function's
argument, :class:`ValidationError` for a record's field.
"""

import math
import numbers

import numpy as np


class CodecError(Exception):
    """Base class for every error raised by this package."""


class FormatError(CodecError):
    """Container magic / version / dtype tag is not one we understand."""


class CorruptError(CodecError):
    """Structurally broken data: truncation, length mismatch, bad payload."""


class ValidationError(CodecError):
    """Semantically invalid values (non-finite samples, bad wavelength axis, ...)."""


class ArgumentError(CodecError):
    """Caller passed an argument outside an operation's domain."""


class SizeLimitError(CodecError):
    """A cube, or a stream's claimed cube, holds more samples than the codec decodes."""


class RateError(CodecError):
    """Rate control could not reach the requested compression rate.

    ``best_cr`` carries the closest compression rate the search achieved,
    when one exists.
    """

    def __init__(self, message: str, best_cr: float | None = None):
        super().__init__(message)
        self.best_cr = best_cr


def check_int(name: str, value, lo: int, hi: float = math.inf, error: type = ArgumentError) -> int:
    """``value`` as an ``int``; raises ``error`` unless it is an integer in
    ``[lo, hi]`` (numpy integers count, bools do not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or not lo <= value <= hi:
        raise error(f"{name} must be an integer in [{lo}, {hi}], got {value!r}")
    return int(value)


def check_real(name: str, value, lo: float = -math.inf, hi: float = math.inf,
               error: type = ArgumentError) -> float:
    """``value`` as a ``float``; raises ``error`` unless it is a real number in the
    open interval ``(lo, hi)`` (numpy reals count, bools do not, and NaN lies in none)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not lo < value < hi:
        raise error(f"{name} must be a real number in ({lo}, {hi}), got {value!r}")
    return float(value)


def check_type(name: str, value, cls, error: type = ArgumentError):
    """``value``; raises ``error`` unless it is an instance of ``cls`` (a class or a tuple)."""
    if not isinstance(value, cls):
        names = " or ".join(c.__name__ for c in (cls if isinstance(cls, tuple) else (cls,)))
        raise error(f"{name} must be {names}, got {type(value).__name__}")
    return value


def check_array(name: str, value, dtype, error: type = ArgumentError) -> np.ndarray:
    """``value`` as a ``dtype`` array; raises ``error`` unless numpy converts it to
    an array that casts to ``dtype`` within its kind: booleans, integers or, for a
    float ``dtype``, reals.  Strings, objects and complex values do not cast.
    ``dtype`` None takes any real array as it is (float64's kinds, no cast)."""
    try:
        array = np.asarray(value)
    except ValueError:  # a ragged sequence
        array = np.asarray(None)
    if not np.can_cast(array.dtype, np.dtype(dtype), "same_kind"):
        raise error(f"{name} must be an array of {np.dtype(dtype)} values, "
                    f"got {type(value).__name__} of {array.dtype}")
    if dtype is not None and array.dtype != dtype:
        with np.errstate(over="ignore"):  # a real past float32 becomes inf, which a caller rejects
            array = array.astype(dtype)
    return array


def check_axis(name: str, value, dtype, lengths: range, error: type = ArgumentError) -> np.ndarray:
    """``value`` as a contiguous 1-D ``dtype`` array; raises ``error`` unless it is
    numeric (:func:`check_array`), its length lies in ``lengths``, and it is
    finite and strictly increasing."""
    axis = np.ascontiguousarray(check_array(name, value, dtype, error))
    if axis.ndim != 1 or len(axis) not in lengths:
        raise error(f"{name} must be 1-D with {lengths.start} to {lengths.stop - 1} values, "
                    f"got shape {axis.shape}")
    if not np.isfinite(axis).all():  # first, so np.diff never meets inf or NaN
        raise error(f"{name} must be finite and strictly increasing, got non-finite values")
    if not (np.diff(axis) > 0).all():
        raise error(f"{name} must be finite and strictly increasing")
    return axis
