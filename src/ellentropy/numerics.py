"""Small numeric helpers: compensated summation, intervals, exact threshold
tests and ceilings, the radius check."""

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


class Threshold:
    """The exact rational k * eps, for an integer k >= 1 and a float eps > 0.

    ``near`` is its correctly rounded float (inf past the float range).  No
    float lies strictly between k * eps and ``near``, so a float x other
    than ``near`` lies on the same side of both: ``below`` compares floats
    and settles only a tie x == near with exact rationals.
    """

    __slots__ = ("k", "eps", "near")

    def __init__(self, k: int, eps: float):
        self.k = k
        self.eps = eps
        if k < 2**53:
            # k converts exactly, so the product is rounded once
            self.near = k * eps
        else:
            try:
                self.near = float(Fraction(k) * Fraction(eps))
            except OverflowError:
                self.near = math.inf

    def below(self, x: float) -> bool:
        """Whether k * eps < x, exactly."""
        near = self.near
        if x != near:
            return x > near
        return x == math.inf or Fraction(x) > Fraction(self.k) * Fraction(self.eps)


def _ceil_ratio(x: float, eps: float) -> int:
    """Exact ceiling of x / eps (floats are exact rationals); an integer
    ratio keeps its value.

    The float quotient is the correctly rounded ratio, and every integer
    below 2**53 is a float, so a quotient there that is not an integer lies
    strictly between the same two integers as the ratio.  Other quotients
    are settled with exact rationals.
    """
    q = x / eps
    if q < 2.0**53:
        n = math.ceil(q)
        if n != q:
            return n
    return -(-Fraction(x) // Fraction(eps))


def _check_radius(eps: float, name: str = "eps") -> None:
    """Raise EntropyError unless eps is a positive finite number."""
    if not (eps > 0 and math.isfinite(eps)):
        raise EntropyError(f"{name} must be positive and finite, got {eps!r}")
