"""Exception types shared across the toolkit."""


class FormatError(ValueError):
    """An on-disk file does not conform to its declared format."""


class NumericalError(RuntimeError):
    """A computation produced non-finite values and was aborted."""


class EmptyGenerationError(RuntimeError):
    """The autoregressive stage produced an empty sequence; the caller decides whether to retry."""
