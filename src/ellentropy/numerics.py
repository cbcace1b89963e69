"""Small numeric helpers: compensated summation, intervals, exact threshold
tests and ceilings, the radius check, and ``_power_sum``, the one
Euler-Maclaurin kernel of the package's power sums.  Also ``_Frozen``, the
base of the package's validating value classes."""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, NamedTuple

from .errors import EntropyError, ScanCapExceeded


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


class _Frozen:
    """Base of an immutable value class whose fields are its ``__slots__``,
    in the order of its ``__init__`` parameters.

    Equality and hashing go by the field values within one class, repr
    reads ``Name(field=value, ...)``, and assigning or deleting a field
    raises AttributeError.  A subclass validates its arguments in
    ``__init__`` and stores each field with ``object.__setattr__``.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._values = operator.attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # pickle and copy rebuild through __init__, which validates again
        return type(self), tuple(getattr(self, f) for f in self.__slots__)


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


# B_{2i} / (2i)! for i = 1..8, the Euler-Maclaurin correction weights.
_EM_WEIGHTS = (
    1.0 / 12.0,
    -1.0 / 720.0,
    1.0 / 30240.0,
    -1.0 / 1209600.0,
    1.0 / 47900160.0,
    -691.0 / 1307674368000.0,
    1.0 / 74724249600.0,
    -3617.0 / 10670622842880000.0,
)
# The kernel stops adding explicit terms once its rest is below this share.
_EM_TARGET = 2.0**-46


def _power_sum(s: float, a: int, b, s_err: float) -> tuple:
    """Certified enclosure (lo, hi) of sum_{n=a..b} (n/a)**-s' / a for every
    exponent s' within ``s_err`` of the float s > 0, with b >= a >= 1, or
    b = inf and s > 1: the one kernel of the package's power sums,
    scaled at a so that its terms stay in the float range, and per unit of
    a so that at b = inf it falls with a towards 1/(s-1).

    Explicit terms run from a up to a cut c (up to 16 at first, then 16,
    then doubled, never past b) until a bound on the rest past c falls
    below 2**-46 of the value.  One is the Euler-Maclaurin formula over
    [c, b] per unit of c (L = ln(b/c), weights w_i of ``_EM_WEIGHTS``),
    times (c/a)**-s c/a:

        expm1((1-s) L)/(1-s)  (L at s = 1)  +  ((1 + (b/c)**-s)/2
          + sum_i w_i s(s+1)...(s+2i) c**(-1-2i) (1 - (c/b)**(s+1+2i))) / c;

    every even derivative of x**-s is positive, so the first omitted
    correction bounds its remainder.  The other, for a large s, is
    (c/a)**-s (1 + min(b - c, c/(s-1))), or (c/a)**-s (b - c + 1) for
    s <= 1.  At c = a every part of the formula falls with a, and so do
    the enclosure's ends.  They cover:

    * each term (n/a)**-s, a power of a correctly rounded quotient, within
      exp((s + 2) 2**-52) - 1 relative, and 2**-1074 where it underflows;
    * L within 2**-52 (1 + L), which moves the integral by b (b/c)**-s
      times that, and (b/c)**-s by s times that, relatively; 2**-50 of the
      value covers the few roundings of each term and of the sum;
    * 2**-46 (s + 16) of the corrections' sizes, for some 40 roundings of
      their products and sum, and for each 1 - (c/b)**(s+1+2i) the error
      of (b/c)**-s times s + 13 (L (c/b)**(s+1) <= 1 absorbs the 1 + L).
      The sizes fall and then rise, so they add up to at most
      6 (s/(12 c) + remainder);
    * the exponent: the sum's derivative in s' is minus its mean of
      ln(n/a), at most ln(b/a), and below ln(c/a) + 1/(s'-1) + 1 (less
      over a finite range), so an error e moves the sum by a factor within
      exp(+-e min(ln(b/a), ln(c/a) + 2 + 1/(s-1-e))).

    From s near 3.2e18 on, the first of these bounds passes the float
    range, and the kernel raises ScanCapExceeded naming s.
    """
    try:
        rounding = math.expm1((s + 2.0) * 2.0**-52)
    except OverflowError:
        rounding = math.inf
    if rounding == math.inf:
        raise ScanCapExceeded(
            f"the power sum's rounding bound exp((s + 2) 2**-52) - 1 leaves the float "
            f"range at s = {s!r}"
        )
    terms: list = []
    cut = a
    if a < 16:
        terms = [(n / a) ** -s for n in range(a, min(16, b + 1))]
        cut = 16
    head = math.fsum(terms)
    while True:
        if cut > b:
            value, slack = head / a, 0.0
            break
        first = (cut / a) ** -s
        if b < math.inf:
            L = math.log(b / cut)
            z = (1.0 - s) * L
            integral = L if z == 0.0 else math.expm1(z) / (1.0 - s)
            end = math.exp(-s * L)
        else:
            L, integral, end = math.inf, 1.0 / (s - 1.0), 0.0
        # c**(-1-2i) (1 - (c/b)**(s+1+2i)) = c**(-1-2i) - (b/c)**-s b**(-1-2i)
        poch, power, far = s, 1.0 / cut, end / b
        inverse, outer = power * power, 1.0 / (float(b) * b)
        corrections = 0.0
        for weight, j in zip(_EM_WEIGHTS[:6], (1, 3, 5, 7, 9, 11)):
            corrections += weight * poch * (power - far)
            poch *= (s + j) * (s + j + 1)
            power *= inverse
            far *= outer
        rem = abs(_EM_WEIGHTS[6]) * poch * power
        if rem < math.inf:  # no Pochhammer product overflowed
            tail = integral + (0.5 * (1.0 + end) + corrections) / cut
            factor = first * (cut / a)  # per unit of c to per unit of a
            value = head / a + factor * tail
            if first * rem <= _EM_TARGET * a * value:
                drift = (1.0 + L) * (b + s) * end if end else 0.0
                sizes = 6.0 * (s / (12.0 * cut) + rem)
                err = rem + 2.0**-50 * drift + 2.0**-46 * (s + 16.0) * sizes
                slack = first * err / a + (2.0**-50 * factor + 2.0**-1074) * tail
                break
        room = b - cut if s <= 1.0 else min(b - cut, cut / (s - 1.0))
        rest = (first + 2.0**-1074) * (1.0 + room)
        if rest <= _EM_TARGET * head:
            value, slack = head / a, rest / a
            break
        step = max(16, cut - a)
        terms.extend((n / a) ** -s for n in range(cut, min(cut + step, b + 1)))
        head = math.fsum(terms)
        cut += step
    slack += (rounding + 2.0**-50) * value + len(terms) * 2.0**-1074 / a
    gap = s - 1.0 - s_err
    reach = math.log(cut / a) + 2.0 + 1.0 / gap if gap > 0 else math.inf
    spread = s_err * (min(math.log(b / a), reach) if b < math.inf else reach)
    grow = (math.expm1(spread) if spread < 700.0 else math.inf) + 2.0**-50
    lo = math.nextafter((value - slack) / (1.0 + grow), -math.inf)
    return max(0.0, lo), math.nextafter((value + slack) * (1.0 + grow), math.inf)
