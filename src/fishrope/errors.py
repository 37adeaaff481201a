"""Exception types shared across the package."""


class FishropeError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(FishropeError, ValueError):
    """Invalid configuration: bad dimensions, unknown encoding, malformed file."""


class DomainError(FishropeError, ValueError):
    """Numeric input outside an operation's valid domain."""


class OutOfImageCircleError(DomainError):
    """Pixel radius lies beyond the image circle (past the clamp band)."""


class ShapeError(FishropeError, ValueError):
    """Array shape inconsistent with the operation's contract."""


class EmptyAttentionError(FishropeError, ValueError):
    """Attention requested over an input with no valid tokens."""


class EmptyOverlapError(FishropeError, ValueError):
    """Scene geometry leaves no overlap between image and ground grid."""


class FormatError(FishropeError, ValueError):
    """Serialized artifact has a bad magic value, version, or structure."""
