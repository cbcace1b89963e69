"""Small numeric helpers: compensated summation, intervals, exact ceilings,
the radius check."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, NamedTuple

from .errors import EntropyError


class Interval(NamedTuple):
    """A certified enclosure [lo, hi] of a real quantity."""

    lo: float
    hi: float

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def __add__(self, other):  # type: ignore[override]
        if isinstance(other, Interval):
            return Interval(self.lo + other.lo, self.hi + other.hi)
        return Interval(self.lo + other, self.hi + other)

    def scale(self, factor: float) -> "Interval":
        # factor >= 0 preserves orientation
        if factor < 0:
            return Interval(self.hi * factor, self.lo * factor)
        return Interval(self.lo * factor, self.hi * factor)


def kahan_sum(values: Iterable[float]) -> float:
    """Compensated summation; partial sums here reach 1e6 terms."""
    total = 0.0
    carry = 0.0
    for v in values:
        y = v - carry
        t = total + y
        carry = (t - total) - y
        total = t
    return total


def _ceil_ratio(x: float, feps: Fraction) -> int:
    """Exact ceiling of x / eps for eps given as a Fraction (floats are
    exact rationals); an integer ratio keeps its value."""
    return -(-Fraction(x) // feps)


def _check_radius(eps: float, name: str = "eps") -> None:
    """Raise EntropyError unless eps is a positive finite number."""
    if not (eps > 0 and math.isfinite(eps)):
        raise EntropyError(f"{name} must be positive and finite, got {eps!r}")
