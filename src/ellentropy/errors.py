"""Exception types shared across the package."""


class EntropyError(ValueError):
    """Base class for domain errors raised by this package."""


class InvalidModel(EntropyError):
    """A semi-axis model violates positivity or monotonicity requirements."""


class IndexBeyondTable(EntropyError):
    """A tabulated model without tail was evaluated past its last entry."""


class DivergentTail(EntropyError):
    """A tail power sum does not converge for the mapped exponent."""


class EnumerationTooLarge(EntropyError):
    """An explicit enumeration would exceed the configured cap.

    The exact count is still available via the ``count`` attribute.
    """

    def __init__(self, message, count):
        super().__init__(message)
        self.count = count


class ScanCapExceeded(EntropyError):
    """An answer lies past what its entry point computes: more axes to
    visit one by one than ``sequences.AXIS_CAP``, an index, a sum, an
    axis or a density parameter eta past the float range, or a block cut
    past 2**53, where float(d) stops being exact."""


class RadiusOutOfRange(EntropyError):
    """A radius lies outside the admissible interval of a certified bound.

    The admissible interval is reported via the ``interval`` attribute
    as a pair ``(0, upper]``.
    """

    def __init__(self, message, interval):
        super().__init__(message)
        self.interval = interval


class NonCompactRegime(EntropyError):
    """The requested quantity is infinite because the body is not compact."""


class UnsupportedCorner(EntropyError):
    """Critical-line classification with neither a summable tail nor a
    positive liminf is outside the supported parameter range."""
