"""Exception hierarchy shared by all cubecodec modules, and the integer argument check."""

import numbers


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


class NumericalError(CodecError):
    """A numeric accumulation produced non-finite intermediate values."""


class RateError(CodecError):
    """Rate control could not reach the requested compression rate.

    ``best_cr`` carries the closest compression rate the search achieved,
    when one exists.
    """

    def __init__(self, message: str, best_cr: float | None = None):
        super().__init__(message)
        self.best_cr = best_cr


def check_int(name: str, value, lo: int, hi: int, error: type = ArgumentError) -> int:
    """``value`` as an ``int``; raises ``error`` unless it is an integer in
    ``[lo, hi]`` (numpy integers count, bools do not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or not lo <= value <= hi:
        raise error(f"{name} must be an integer in [{lo}, {hi}], got {value!r}")
    return int(value)
