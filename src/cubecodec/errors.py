"""Exception hierarchy shared by all cubecodec modules."""


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
