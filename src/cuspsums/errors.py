"""Error types shared across the package."""


class CoefficientOverflowError(OverflowError):
    """Raised when a requested coefficient exceeds the configured integer width.

    Carries the first offending index n; computation never wraps silently.
    """

    def __init__(self, n: int, bits: int):
        self.n = n
        self.bits = bits
        super().__init__(
            f"tau({n}) does not fit in a signed {bits}-bit integer; "
            f"first offending index n={n}"
        )


class InexactConvolutionError(ArithmeticError):
    """The coefficient kernel refused a squaring it cannot prove exact.

    Raised before any transform when a group could reach 2^52, and after an
    inverse transform that does not land near integers; tau is never
    returned from an inexact convolution.
    """


class CacheFormatError(ValueError):
    """Coefficient cache file is malformed, truncated, or of the wrong kind."""


class NodeBudgetError(RuntimeError):
    """An oscillatory integral would exceed its node budget.

    Raised instead of returning an unconverged value.
    """


class ConfigError(ValueError):
    """Invalid experiment configuration (bad key, type, or range)."""
