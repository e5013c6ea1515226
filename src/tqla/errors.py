"""Exception types shared across the toolkit."""


class TqlaError(Exception):
    """Base class for all toolkit errors."""


class InvalidShape(TqlaError):
    """Empty input, or operand shapes that do not line up."""


class InvalidThreshold(TqlaError):
    """Negative or non-finite quantization threshold."""


class UnsupportedScheme(TqlaError):
    """Scheme name outside the known set."""


class InvalidParam(TqlaError):
    """Parameter value outside its documented domain."""


class InsufficientHistory(TqlaError):
    """Operation needs more recorded snapshots than are available."""


class FormatError(TqlaError):
    """Malformed input file. `offset` is the byte position when known."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class CacheError(TqlaError):
    """Backward pass invoked without a matching live forward cache."""


class GradientError(TqlaError):
    """Non-finite gradient; the optimizer step was aborted."""


class DegenerateNormalization(UserWarning):
    """Some snapshot layers, not all, have only zero thresholds; their raw values are binned."""
