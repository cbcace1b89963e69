"""Semi-axis sequences of ellipsoids and their derived quantities.

Three parametric families of positive non-increasing sequences are
supported:

* ``Canonical(b, c)``: mu_n = c * n**-b, a pure power law;
* ``TwoTermPolynomial(c1, c2, alpha1, alpha2)``:
  mu_n = c1 * n**-alpha1 + c2 * n**-alpha2 with alpha1 < alpha2, so the
  first term dominates and the decay index is alpha1;
* ``Tabulated(values, tail)``: an explicit finite list, optionally
  continued beyond the table by a canonical law evaluated at the global
  index.  Without a tail the model is a complete finite sequence, and
  aggregate quantities treat indices past the table as absent.

Each family implements the ``SemiAxisModel`` protocol: the primitives
every algorithm reads a sequence through.  On top of them the module
provides the threshold counting function M_k(t) = #{n : mu_n > k*t},
certified partial log-products (in closed form for canonical laws; for
two-term laws past a 1,024-axis head, through a series of finite power
sums enclosed by the Euler-Maclaurin formula, so neither cost grows with
d), certified enclosures of tail power sums (through a Hurwitz zeta
enclosure built on the Euler-Maclaurin formula, so their cost does not
grow with the cut), and the Cesaro mean of log(mu_n / mu_N).
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, List, NamedTuple, Optional, Protocol

from .constants import _EM_WEIGHTS, LN2, _hurwitz_tail
from .errors import DivergentTail, IndexBeyondTable, InvalidModel, ScanCapExceeded
from .numerics import Interval, Threshold, _check_radius, kahan_sum

# Most axes a computation visits one by one: the exact entropy's runs and
# the per-axis fallback of a two-term log-product raise ScanCapExceeded
# past it.  Searches and closed forms, whose work does not grow with the
# index, are not capped.
AXIS_CAP = 10**8


class SemiAxisModel(Protocol):
    """The primitives of a positive semi-axis sequence mu_1, mu_2, ...

    Only ``axis`` may be called with a table's out-of-range index (it
    raises); the others treat indices past a complete table as absent.
    """

    @property
    def decay_index(self) -> Optional[float]:
        """Regular-variation index b of mu_n ~ n**-b, None for a complete table."""

    @property
    def length(self) -> Optional[int]:
        """Length of a complete table, None for an unbounded model."""

    @property
    def rising_head(self) -> bool:
        """Whether n**e mu_n does not fall before ``monotone_start(e)``, so
        that the indices there passing a threshold form a suffix; False for
        a table, whose head may take any shape."""

    def axis(self, n: int) -> float:
        """mu_n for an index n >= 1, by direct formula evaluation."""

    def monotone_start(self, e: float = 0.0) -> int:
        """An index from which n**e mu_n is non-increasing, for e at most
        the decay index (e = 0: the sequence itself); raises
        ScanCapExceeded when n**e mu_n rises for ever or past the float
        range."""

    def last_exceeding(self, start: int, t: Threshold) -> int:
        """The largest n >= start - 1 with mu_m > t for every m in [start, n].

        ``start`` must lie on the non-increasing part of the sequence (see
        ``monotone_start``), where the passing indices form a prefix; the
        result is start - 1 when mu_start <= t.
        """

    def tail_power_sum(self, d: int, theta: float) -> Interval:
        """Certified enclosure of sum_{n > d} mu_n**theta for d >= 0, with
        lo >= 0 and hi > 0 when the sum is positive; raises DivergentTail
        when theta times the decay index is at most 1."""

    def log_product(self, d: int) -> Interval:
        """Certified enclosure of sum_{n <= d} log2 mu_n for d >= 1."""


def _above(model: SemiAxisModel, n: int, t: Threshold) -> bool:
    """The membership test mu_n > t: the float mu_n, compared exactly
    (floats are exact rationals), with no tolerance either way."""
    return t.below(model.axis(n))


def last_passing(
    passes: Callable[[int], bool], lo: int, hi: Optional[int] = None, near: Optional[int] = None
) -> int:
    """The largest n <= hi with passes(m) for every m in (lo, n]; lo when
    passes(lo + 1) fails or lo = hi.

    The passing indices past lo must form a prefix, as they do for a
    threshold test on a non-increasing sequence.  The search starts from
    ``near``, a guess at the answer (lo by default, clamped into [lo, hi]):
    a gallop up from it while the tests pass, or down from it to a passing
    index when it fails, then a bisection of the bracket, so
    O(log |answer - near|) tests; hi = None leaves the search unbounded.
    """
    n = lo if near is None else max(lo, near if hi is None else min(near, hi))
    fail = None if hi is None else hi + 1
    if n > lo and not passes(n):
        fail, step = n, 1
        n = fail - 1
        while n > lo and not passes(n):
            fail, step = n, 2 * step
            n = max(lo, fail - step)
    else:
        step = 1
        while (fail is None or n + step < fail) and passes(n + step):
            n += step
            step *= 2
        fail = n + step if fail is None else min(n + step, fail)
    while fail - n > 1:
        mid = (n + fail) // 2
        if passes(mid):
            n = mid
        else:
            fail = mid
    return n


def _log2_sum(values: Iterable[float], count: int, largest: float, smallest: float) -> Interval:
    """Enclosure of the sum of log2 v over ``count`` floats v in [smallest, largest].

    The Kahan sum of math.log2 misses the exact sum by at most one ulp per
    logarithm plus the summation error, together below
    2**-51 * sum |log2 v| <= 2**-51 * count * max|log2 v|; the slack is
    twice that.
    """
    total = kahan_sum(map(math.log2, values))
    slack = 2.0**-50 * count * max(abs(math.log2(largest)), abs(math.log2(smallest)))
    return Interval(total - slack, total + slack)


# A tail sum stops adding explicit terms once its Euler-Maclaurin
# remainder is below this fraction of the value.
_EM_TARGET = 2.0**-46
# Explicit head terms a two-term tail sum adds before its binomial series,
# and the axes a two-term log-product sums one by one before its series.
_HEAD_TERMS = 1024
# Largest number of series terms in a two-term tail sum or log-product.
_SERIES_TERMS = 64


def _outward(lo: float, hi: float) -> Interval:
    """[lo, hi] moved one float outward, for a sum of positive terms:
    lo stays >= 0, and hi is at least the smallest positive float."""
    return Interval(max(0.0, math.nextafter(lo, -math.inf)), math.nextafter(hi, math.inf))


def _scaled(z: Interval, factor: float) -> Interval:
    """z times a positive factor computed within one ulp (a float power),
    rounded outward; the 2**-1074 covers a factor that underflowed."""
    err = 2.0**-50 * factor + 2.0**-1074
    return _outward(z.lo * (factor - err), z.hi * (factor + err))


def _powers_sum(terms: list, rel: float) -> Interval:
    """Enclosure of the exact sum of values whose float powers are
    ``terms``, each within ``rel`` relative (and 2**-1074 absolute, for an
    underflowed term); math.fsum adds half an ulp."""
    total = math.fsum(terms)
    slack = (rel + 2.0**-51) * total + len(terms) * 2.0**-1074
    return Interval(total - slack, total + slack)


def _hurwitz(s: float, a: int, s_err: float) -> Interval:
    """Certified enclosure of zeta(s', a) = sum_{n >= a} n**-s' for every
    exponent s' within ``s_err`` of the float s > 1, with a >= 1.

    Explicit terms run from a up to a cut (none at first, then 16, then
    doubled) until the Euler-Maclaurin remainder at the cut
    (``constants._hurwitz_tail``) falls below 2**-46 of the value, or the
    cut's own term underflows, which bounds the rest by
    2**-1074 (1 + cut/(s-1)).  The corrections stop before their powers of
    the cut leave the normal range.  The enclosure is the value plus or
    minus:

    * the remainder, which the first omitted correction bounds, since every
      even derivative of x**-s is positive;
    * the rounding of the formula, under 48 half-ulps of the sum of its
      terms' sizes.  The correction sizes |c_i| fall and then rise (their
      ratios increase with i), so their sum is at most 6 (|c_1| + remainder);
    * the rounding of the explicit terms (pow within one ulp, fsum within
      half of one) and 2**-1074 per term or step that underflowed;
    * the exponent: d ln zeta(s', a)/ds' is minus the mean of ln n under
      the weights n**-s', below ln(cut) + 1/(s'-1) + 1, so an exponent
      error e moves the sum by a factor within
      exp(+-e (ln(cut) + 1/(s-1-e) + 2)); the second + 1 covers float(n)
      rounding past 2**53.  When s - e <= 1 the sum may diverge, and hi is
      infinite.
    """
    terms: list = []
    cut = a
    while True:
        head = math.fsum(terms)
        first = float(cut) ** -s
        if first == 0.0:
            slack = 2.0**-1074 * (1.0 + cut / (s - 1.0))
            value = head
            break
        corrections = 6
        if cut > 1:
            # every power cut**(-s-1-2i) the corrections use stays >= 2**-960
            fit = ((math.log2(first) + 960.0) / math.log2(cut) - 1.0) / 2.0
            corrections = max(0, min(6, math.floor(fit)))
        tail, rem = _hurwitz_tail(s, cut, corrections)
        value = head + tail
        if rem <= _EM_TARGET * value:
            size = first * (cut / (s - 1.0) + 0.5 + s / (2.0 * cut)) + 6.0 * rem
            slack = rem * (1.0 + 2.0**-40) + 2.0**-47 * size + 2.0**-1070 * (1.0 + s)
            break
        step = max(16, cut - a)
        terms.extend(float(n) ** -s for n in range(cut, cut + step))
        cut += step
    slack += 2.0**-50 * value + len(terms) * 2.0**-1074
    gap = s - 1.0 - s_err
    spread = s_err * (math.log(cut) + 2.0 + 1.0 / gap) if gap > 0 else math.inf
    grow = (math.expm1(spread) if spread < 700.0 else math.inf) + 2.0**-50
    return _outward((value - slack) / (1.0 + grow), (value + slack) * (1.0 + grow))


def _power_sum(s: float, a: int, b: int, s_err: float) -> Interval:
    """Certified enclosure of sum_{n=a..b} (n/a)**-s' for every exponent s'
    within ``s_err`` of the float s > 0, with b >= a >= 1, in O(1).

    The Euler-Maclaurin formula over [a, b], scaled at a, with L = ln(b/a):

        a expm1((1-s) L)/(1-s)  (a L at s = 1)  +  (1 + (b/a)**-s)/2
          + sum_i w_i s(s+1)...(s+2i) a**(-1-2i) (1 - (a/b)**(s+1+2i)),

    with the weights of ``constants._hurwitz_tail``.  Every even derivative
    of x**-s is positive, so the first omitted correction bounds the
    remainder, which is small while s is well below 2 pi a.  The rounding
    is covered by:

    * L within 2**-52 (1 + L) (the quotient b/a, then the logarithm), which
      moves the integral by a (b/a)**(1-s) = b (b/a)**-s times that, and
      (b/a)**-s by s times that, relatively; 2**-50 of the value covers
      the few roundings of each term and of the sum;
    * 2**-44 (1 + L)(s + 16) of the corrections' sizes at a: their
      Pochhammer products and powers of a carry some 30 roundings, and each
      factor 1 - (a/b)**(s+1+2i) the error of (b/a)**-s times s + 13;
    * the exponent: the sum's derivative in s' is at most L times the sum.
    """
    L = math.log(b / a)
    z = (1.0 - s) * L
    integral = a * L if z == 0.0 else a * math.expm1(z) / (1.0 - s)
    end = math.exp(-s * L)
    corrections, sizes = [], []
    shrink = a / b
    poch, power, ratio = s, 1.0 / a, end * shrink
    for i, weight in enumerate(_EM_WEIGHTS[:6]):
        sizes.append(abs(weight) * poch * power)
        corrections.append(weight * poch * power * (1.0 - ratio))
        poch *= (s + 2 * i + 1) * (s + 2 * i + 2)
        power /= a * a
        ratio *= shrink * shrink
    rem = abs(_EM_WEIGHTS[6]) * poch * power
    value = integral + 0.5 * (1.0 + end) + math.fsum(corrections)
    slack = (
        rem
        + 2.0**-50 * (value + (1.0 + L) * (b + s) * end)
        + 2.0**-44 * (1.0 + L) * (s + 16.0) * math.fsum(sizes)
    )
    grow = math.expm1(s_err * L) + 2.0**-52
    return _outward((value - slack) / (1.0 + grow), (value + slack) * (1.0 + grow))


@dataclass(frozen=True)
class Canonical:
    """mu_n = c * n**-b with b, c > 0."""

    b: float
    c: float

    length = None
    rising_head = True  # the head is empty

    def __post_init__(self):
        if not (self.b > 0 and self.c > 0):
            raise InvalidModel("canonical model requires b > 0 and c > 0")

    @property
    def decay_index(self) -> float:
        return self.b

    def axis(self, n: int) -> float:
        return self.c * float(n) ** (-self.b)

    def monotone_start(self, e: float = 0.0) -> int:
        return 1

    def last_exceeding(self, start: int, t: Threshold) -> int:
        """Closed form, checked exactly at its two neighbours; where its
        float drift moves the answer, which it does over many indices once
        the answer passes 2**53, a search from it.  The check alone runs
        the same two tests as that search, without building it: the exact
        entropy calls this once per distinct count, and going through the
        search every time made it about 9% slower (CPython 3.11)."""
        try:
            x = (self.c / t.near) ** (1.0 / self.b)
        except OverflowError:
            x = math.inf
        if not math.isfinite(x):
            raise ScanCapExceeded(f"the indices with mu_n > {t.near} run past the float range")
        n = max(start - 1, math.ceil(x) - 1)
        if (n < start or _above(self, n, t)) and not _above(self, n + 1, t):
            return n
        return last_passing(lambda m: _above(self, m, t), start - 1, near=n)

    def tail_power_sum(self, d: int, theta: float) -> Interval:
        s = self.b * theta
        if s <= 1.0:
            raise DivergentTail(f"tail power sum diverges: theta*b = {s} <= 1")
        # c**theta * zeta(s, d + 1), in O(1) once d + 1 passes the few
        # explicit terms the Hurwitz enclosure needs; s = b*theta is within
        # half an ulp of the exact product
        return _scaled(_hurwitz(s, d + 1, s * 2.0**-53), self.c**theta)

    def log_product(self, d: int) -> Interval:
        """d log2 c - b log2(d!), with log2(d!) = lgamma(d + 1) / ln 2, in O(1).

        The slack covers the error of lgamma and of the float arithmetic
        (2**-40 relative to the two terms) and the rounding of each float
        axis against c * n**-b: 2**-50 per axis, nearly twice the log2
        shift of a relative error of 3 * 2**-53 (one ulp from the power,
        half an ulp from the product).
        """
        scale = d * math.log2(self.c)
        power = self.b * math.lgamma(d + 1) / LN2
        slack = 2.0**-40 * (abs(scale) + power) + d * 2.0**-50
        value = scale - power
        return Interval(value - slack, value + slack)

    def to_json(self) -> dict:
        return {"kind": "canonical", "b": self.b, "c": self.c}


@dataclass(frozen=True)
class TwoTermPolynomial:
    """mu_n = c1 * n**-alpha1 + c2 * n**-alpha2 with c1 > 0, alpha1 < alpha2.

    n**alpha2 mu_n = c1 n**(alpha2 - alpha1) + c2 grows with n, so the law
    is positive everywhere exactly when mu_1 = c1 + c2 is.
    """

    c1: float
    c2: float
    alpha1: float
    alpha2: float

    length = None
    rising_head = True

    def __post_init__(self):
        if not (self.c1 > 0 and self.alpha1 > 0 and self.alpha2 > 0):
            raise InvalidModel("two-term model requires c1 > 0 and positive exponents")
        if not self.alpha1 < self.alpha2:
            raise InvalidModel("two-term model requires alpha1 < alpha2")
        if not self.axis(1) > 0:
            raise InvalidModel("two-term model requires mu_1 = c1 + c2 > 0")

    @property
    def decay_index(self) -> float:
        return self.alpha1

    def axis(self, n: int) -> float:
        return self.c1 * float(n) ** (-self.alpha1) + self.c2 * float(n) ** (-self.alpha2)

    def monotone_start(self, e: float = 0.0) -> int:
        """Only c2 < 0 can make x**e mu(x) rise: for e < a1,
        c1 x**(e-a1) + c2 x**(e-a2) then peaks at
        x* = ((a2 - e) |c2| / ((a1 - e) c1))**(1/(a2 - a1)) and falls past
        it; at e = a1 it rises towards c1 for ever."""
        if self.c2 >= 0:
            return 1
        if e >= self.alpha1:
            raise ScanCapExceeded(f"n**{e} mu_n rises for ever")
        ratio = (self.alpha2 - e) * -self.c2 / ((self.alpha1 - e) * self.c1)
        try:
            return int(ratio ** (1.0 / (self.alpha2 - self.alpha1))) + 1
        except OverflowError as exc:
            raise ScanCapExceeded(f"n**{e} mu_n peaks past the float range") from exc

    def last_exceeding(self, start: int, t: Threshold) -> int:
        """A gallop followed by a bisection."""
        return last_passing(lambda n: _above(self, n, t), start - 1)

    def tail_power_sum(self, d: int, theta: float) -> Interval:
        """The head explicitly, then c1**theta times a binomial series.

        With r = c2/c1, delta = alpha2 - alpha1 and x_n = |r| n**-delta,
        mu_n**theta = c1**theta n**-s (1 + r n**-delta)**theta.  Terms are
        summed explicitly while x_n > 1/16 (at most ``_HEAD_TERMS`` of
        them); past that cut m, x = x_{m+1} bounds every x_n and

            sum_{n > m} mu_n**theta
              = c1**theta sum_k binom(theta, k) r**k zeta(s + k delta, m + 1).

        The series runs until a bound on the rest falls below 2**-46 of
        the sum (see ``_binomial_tail``).  When x >= 1, theta >
        2 ``_SERIES_TERMS`` or |r| >= 2**13 (where binom(theta, k) r**k
        could overflow), the factor (1 + r n**-delta)**theta is enclosed
        instead by its values at n = m + 1 and at infinity.
        """
        s = self.alpha1 * theta
        if s <= 1.0:
            raise DivergentTail(f"tail power sum diverges: theta*alpha1 = {s} <= 1")
        r = self.c2 / self.c1
        delta = self.alpha2 - self.alpha1
        m = d
        if r:
            reach = math.log(16.0 * abs(r)) / delta  # x_n <= 1/16 once ln n >= reach
            if reach > math.log(d + 1 + _HEAD_TERMS):
                m = d + _HEAD_TERMS
            else:
                m = max(d, math.ceil(math.exp(reach)) - 1)
        # mu_n is within 4 half-ulps times kappa = (c1 + |c2| n**-delta)/mu_n
        # of its float, largest at n = d + 1; the power multiplies that by theta
        kappa = 1.0
        if r < 0:
            x_first = -r * float(d + 1) ** -delta
            kappa = (1.0 + x_first) / (1.0 - x_first)
        head = _powers_sum(
            [self.axis(n) ** theta for n in range(d + 1, m + 1)], 2.0**-50 * (theta * kappa + 1.0)
        )
        x = abs(r) * float(m + 1) ** -delta * (1.0 + 2.0**-40)
        if x < 1.0 and theta <= 2 * _SERIES_TERMS and abs(r) < 2.0**13:
            rest = self._binomial_tail(m + 1, theta, s, r, delta, x)
        else:
            factor = (1.0 + math.copysign(x, r)) ** theta if x < 1.0 or r > 0 else 0.0
            low, high = min(1.0, factor), max(1.0, factor)
            err = (theta + 4.0) * 2.0**-52  # 1 + x rounds by half an ulp, then the power
            z = _hurwitz(s, m + 1, s * 2.0**-53)
            rest = Interval(z.lo * low * (1.0 - err), z.hi * high * (1.0 + err))
        rest = _scaled(rest, self.c1**theta)
        return _outward(head.lo + rest.lo, head.hi + rest.hi)

    @staticmethod
    def _binomial_tail(a: int, theta: float, s: float, r: float, delta: float, x: float) -> Interval:
        """Enclosure of sum_{n >= a} n**-s (1 + r n**-delta)**theta by the
        binomial series, for |r| n**-delta <= x < 1 on n >= a and
        theta <= 2 ``_SERIES_TERMS``.

        Since zeta(s + k delta, a) <= a**(-k delta) zeta(s, a), the terms
        from k on add up to at most |binom(theta, k)| x**k zeta(s, a) /
        (1 - rho_k), where rho_k = x max(1, (theta - k)/(k + 1)) bounds the
        ratio of successive |binom(theta, j)| x**j for j >= k; at
        k = ``_SERIES_TERMS`` it is x.  The series stops at the first k with
        rho_k < 1 where that bound is below 2**-46 of the sum, and adds it.
        Each coefficient binom(theta, k) r**k is within 4k + 2 half-ulps of
        its exact value, and each float exponent s + k delta within
        4 half-ulps of itself; both are widened for.
        """
        z0 = _hurwitz(s, a, s * 2.0**-51)
        lows, highs = [], []
        coef, bound, size, k = 1.0, 1.0, 0.0, 0  # bound = |binom(theta, k)| x**k
        while True:
            rho = x * max(1.0, (theta - k) / (k + 1))
            if rho < 1.0 and (
                bound * z0.hi <= _EM_TARGET * (1.0 - rho) * math.fsum(lows) or k == _SERIES_TERMS
            ):
                # 2**-1074 covers a bound that underflowed
                rem = (bound + 2.0**-1074) * z0.hi / (1.0 - rho) * (1.0 + 2.0**-40)
                break
            sk = s + k * delta
            term = (_hurwitz(sk, a, sk * 2.0**-51) if k else z0).scale(coef)
            lows.append(term.lo)
            highs.append(term.hi)
            size += (k + 1) * max(-term.lo, term.hi)
            step = (theta - k) / (k + 1)
            coef *= step * r
            bound *= abs(step) * x
            k += 1
        slack = 2.0**-50 * size + rem
        return Interval(math.fsum(lows) - slack, math.fsum(highs) + slack)

    def log_product(self, d: int) -> Interval:
        """The per-axis sum up to ``_HEAD_TERMS`` axes, then in O(1).

        Every mu_n lies in [min(mu_1, mu_d), c1 + max(c2, 0)] for n <= d,
        since the law rises at most once, before falling; the per-axis sum
        is ``_log2_sum`` of the float axes.  Past the head, with
        r = c2/c1, delta = alpha2 - alpha1 and y_n = r n**-delta,

            log2 mu_n = log2(c1 n**-alpha1) + log2(1 + y_n),

        so the sum is the canonical closed form of (alpha1, c1), plus
        log1p(y_n) / ln 2 summed over the head, plus a series for the axes
        past it (see ``_split_log_product``).  The per-axis sum stays the
        fallback where that series does not converge; past ``AXIS_CAP``
        axes it raises ScanCapExceeded instead.
        """
        if d > _HEAD_TERMS:
            split = self._split_log_product(d)
            if split is not None:
                return split
        if d > AXIS_CAP:
            raise ScanCapExceeded(
                f"a per-axis log-product over {d} axes exceeds the cap {AXIS_CAP}"
            )
        largest = self.c1 + max(self.c2, 0.0)
        smallest = min(self.axis(1), self.axis(d))
        return _log2_sum(map(self.axis, range(1, d + 1)), d, largest, smallest)

    def _split_log_product(self, d: int) -> Optional[Interval]:
        """The log-product for d > ``_HEAD_TERMS`` in O(1), or None where
        the series past the head does not converge within ``_SERIES_TERMS``
        terms (x >= 1 among them), or a**-delta, at the first index a past
        the head, is not a normal float.

        With y = r a**-delta and Q_k = sum_{n=a..d} (n/a)**(-k delta)
        (``_power_sum``), the axes past the head add

            sum_{n=a..d} ln(1 + y_n) = sum_{k>=1} -(-y)**k Q_k / k,

        and x = |y| (1 + 2**-40) bounds every |y_n| there.  Q_k does not
        grow with k, so the terms past K add up to at most
        x**(K+1) Q_K / ((K+1)(1 - x)), with Q_0 = d - ``_HEAD_TERMS``; the
        series stops once that is below 2**-52 of the canonical part, about
        its last bit, so the midpoint is as close to the sum as the
        per-axis sum's.

        Besides the canonical part's own, the slack covers:

        * each float y_n, within 2**-53 (4 + 7 delta) relative (the
          quotient r, the power, its exponent's rounding times ln n, the
          product), which moves log1p(y_n) by that times |y_n|/(1 + y_n);
          log1p and fsum, within 2**-51 of the head;
        * each coefficient (-y)**k / k, within 2**-50 k (1 + delta) of its
          value, and the float exponent k delta, within 2**-51 of itself;
        * the float axes: mu_n is within 2**-51 kappa_n of its float, with
          kappa_n = (1 + |y_n|)/(1 + y_n), which shifts log2 mu_n by up to
          2**-50 kappa_n.  The canonical part covers 2**-50 per axis; the
          rest is 2**-49 |y_n|/(1 + y_n) when r < 0, at most
          2**-49 x/(1 - x) past the head.
        """
        r = self.c2 / self.c1
        delta = self.alpha2 - self.alpha1
        a = _HEAD_TERMS + 1
        scale = float(a) ** -delta
        y = r * scale
        x = abs(y) * (1.0 + 2.0**-40)
        # r > -1 exactly (mu_1 > 0), but the quotient may round to -1
        if not x < 1.0 or scale < sys.float_info.min or r <= -1.0:
            return None
        ys = [r * float(n) ** -delta for n in range(1, a)]
        canon = Canonical(self.alpha1, self.c1).log_product(d)
        target = 2.0**-52 * max(1.0, abs(canon.mid))
        head = math.fsum(map(math.log1p, ys))
        lean = math.fsum(abs(v) / (1.0 + v) for v in ys)
        lows, highs, size = [], [], 0.0
        q_hi, power = float(d - _HEAD_TERMS), 1.0
        for k in range(1, _SERIES_TERMS + 2):
            rest = x**k * q_hi / (k * (1.0 - x)) * (1.0 + 2.0**-40)
            if rest <= target:
                break
            if k > _SERIES_TERMS:
                return None
            power *= -y
            s = k * delta
            q = _power_sum(s, a, d, s * 2.0**-51)
            term = q.scale(-power / k)
            lows.append(term.lo)
            highs.append(term.hi)
            size += k * max(-term.lo, term.hi)
            q_hi = q.hi
        series = Interval(math.fsum(lows), math.fsum(highs))
        # in natural-log units: the head's and the series' rounding, the rest
        err = (
            lean * 2.0**-48 * (1.0 + delta)
            + 2.0**-51 * abs(head)
            + 2.0**-50 * (1.0 + delta) * size
            + rest
        )
        part = (head + series.mid) / LN2
        value = canon.mid + part
        slack = (
            0.5 * canon.width
            + (0.5 * series.width + err) / LN2 * (1.0 + 2.0**-50)
            + 2.0**-50 * (abs(canon.mid) + abs(part))
            + ((d - _HEAD_TERMS) * 2.0**-49 * x / (1.0 - x) if r < 0 else 0.0)
        )
        return Interval(value - slack, value + slack)

    def to_json(self) -> dict:
        return {
            "kind": "two_term",
            "c1": self.c1,
            "c2": self.c2,
            "alpha1": self.alpha1,
            "alpha2": self.alpha2,
        }


@dataclass(frozen=True)
class Tabulated:
    """An explicit finite prefix, optionally continued by a canonical tail.

    The tail, when present, is evaluated at the global index, so the model
    remains a single sequence; the junction must preserve monotonicity.
    Every index past the table is sent to the tail.
    """

    values: tuple
    tail: Optional[Canonical] = None

    rising_head = False

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if not vals:
            raise InvalidModel("tabulated model requires at least one value")
        if any(v <= 0 for v in vals):
            raise InvalidModel("tabulated values must be positive")
        for a, b in zip(vals, vals[1:]):
            if b > a:
                raise InvalidModel("tabulated values must be non-increasing")
        if self.tail is not None and self.tail.axis(len(vals) + 1) > vals[-1]:
            raise InvalidModel("canonical tail exceeds last table value")

    @property
    def decay_index(self) -> Optional[float]:
        return None if self.tail is None else self.tail.b

    @property
    def length(self) -> Optional[int]:
        return len(self.values) if self.tail is None else None

    def axis(self, n: int) -> float:
        if n <= len(self.values):
            return self.values[n - 1]
        if self.tail is None:
            raise IndexBeyondTable(f"index {n} beyond table of length {len(self.values)}")
        return self.tail.axis(n)

    def monotone_start(self, e: float = 0.0) -> int:
        """For e > 0, n**e may rise inside the table, and the canonical
        tail c n**(e-b) is non-increasing past it."""
        return 1 if e <= 0 else len(self.values) + 1

    def last_exceeding(self, start: int, t: Threshold) -> int:
        """A bisection in the table, then the tail's closed form."""
        L = len(self.values)
        # the first failing 0-based position is the last passing 1-based index
        last = bisect.bisect_left(
            self.values, True, lo=min(start - 1, L), key=lambda v: not t.below(v)
        )
        if last < L or self.tail is None:
            return last
        return self.tail.last_exceeding(max(start, L + 1), t)

    def tail_power_sum(self, d: int, theta: float) -> Interval:
        """The table's terms (pow within one ulp, fsum within half of one),
        plus the canonical tail's enclosure past the table."""
        L = len(self.values)
        terms = [v**theta for v in self.values[d:]]
        finite = _powers_sum(terms, 2.0**-51)
        if self.tail is None:
            return _outward(*finite) if terms else Interval(0.0, 0.0)
        rest = self.tail.tail_power_sum(max(d, L), theta)
        return _outward(finite.lo + rest.lo, finite.hi + rest.hi)

    def log_product(self, d: int) -> Interval:
        """A Kahan sum over at most the table, plus the tail's log-product
        from L + 1 to d, rounded outward."""
        L = len(self.values)
        k = min(d, L)
        head = _log2_sum(self.values[:k], k, self.values[0], self.values[k - 1])
        if d <= L:
            return head
        if self.tail is None:
            raise IndexBeyondTable(f"index {d} beyond table of length {L}")
        upto, before = self.tail.log_product(d), self.tail.log_product(L)
        return Interval(
            math.nextafter(head.lo + upto.lo - before.hi, -math.inf),
            math.nextafter(head.hi + upto.hi - before.lo, math.inf),
        )

    def to_json(self) -> dict:
        out: dict = {"kind": "table", "values": list(self.values)}
        if self.tail is not None:
            out["tail"] = self.tail.to_json()
        return out


def _number(x) -> float:
    try:
        return float(x)
    except (TypeError, ValueError) as exc:
        raise InvalidModel(f"model parameter {x!r} is not a number") from exc


def model_from_json(data: dict) -> SemiAxisModel:
    """The model a ``to_json`` dict describes.

    Numbers may also be given as decimal strings, and the table's
    ``values`` as one string of ';'-separated numbers.
    """
    kind = data.get("kind")
    if kind == "canonical":
        return Canonical(b=_number(data["b"]), c=_number(data["c"]))
    if kind == "two_term":
        return TwoTermPolynomial(
            c1=_number(data["c1"]),
            c2=_number(data["c2"]),
            alpha1=_number(data["alpha1"]),
            alpha2=_number(data["alpha2"]),
        )
    if kind == "table":
        values = data["values"]
        if isinstance(values, str):
            values = [v for v in values.split(";") if v]
        tail = data.get("tail")
        return Tabulated(
            values=tuple(_number(v) for v in values),
            tail=None if tail is None else Canonical(b=_number(tail["b"]), c=_number(tail["c"])),
        )
    raise InvalidModel(f"unknown model kind {kind!r}")


def axis(model: SemiAxisModel, n: int) -> float:
    """mu_n by direct formula evaluation."""
    if n < 1:
        raise InvalidModel("axis index must be >= 1")
    return model.axis(n)


def ensure_non_increasing(model: SemiAxisModel, upto: int) -> None:
    """Check mu_n >= mu_{n+1} for n < upto; raises InvalidModel on failure.

    The sequence cannot rise past ``model.monotone_start()``, so only the
    head before it is scanned (a negative second term can make a two-term
    law rise there).
    """
    for n in range(2, min(upto, model.monotone_start()) + 1):
        if model.axis(n) > model.axis(n - 1):
            raise InvalidModel(f"sequence increases at n={n}")


def _law_start(model: SemiAxisModel) -> int:
    """The first index from which an unbounded model follows its decay law
    mu_n ~ c n**-b closely enough to seed a search: past a rising head (1
    for a law that does not rise, and for one that peaks past the float
    range, which no search reaches), and for a table the first index past
    it, where its canonical tail keeps n**b mu_n constant (its monotone
    start at e = b)."""
    if not model.rising_head:
        return model.monotone_start(model.decay_index)
    try:
        return model.monotone_start()
    except ScanCapExceeded:
        return 1


class Passing(NamedTuple):
    """The indices passing a threshold: ``head``, those before the monotone
    start, as ranges; ``prefix``, those from it on, one range."""

    head: List[range]
    prefix: range

    @property
    def count(self) -> int:
        # ends, not len(): a count may pass sys.maxsize
        return sum([r.stop - r.start for r in self.head], self.prefix.stop - self.prefix.start)

    @property
    def last(self) -> int:
        """The largest passing index, 0 when none passes."""
        if self.prefix.stop > self.prefix.start:
            return self.prefix.stop - 1
        return self.head[-1].stop - 1 if self.head else 0


def passing(model: SemiAxisModel, t: Threshold, e: float = 0.0) -> Passing:
    """The indices n with n**e mu_n > t: the float product, compared
    exactly (see ``numerics.Threshold``), for e at most the decay index.

    From ``model.monotone_start(e)`` on, n**e mu_n does not rise, so the
    passing indices there form a prefix: the model's index search finds
    its end at e = 0, and ``last_passing``, bounded by a complete table's
    length, at any other e.  A rising head passes on a suffix, found by
    one search; each index of any other head is tested on its own.  None
    of the searches is capped: one that leaves the float range raises
    ScanCapExceeded, as does a model whose monotone start lies past it.
    """

    def above(n: int) -> bool:
        return t.below(model.axis(n) if e == 0 else float(n) ** e * model.axis(n))

    try:
        start = model.monotone_start(e)
        if e == 0:
            last = model.last_exceeding(start, t)
        else:
            last = last_passing(above, start - 1, model.length)
        if model.rising_head:
            first = last_passing(lambda n: not above(n), 0, start - 1) + 1
            head = [range(first, start)] if first < start else []
        else:
            head = [range(n, n + 1) for n in range(1, start) if above(n)]
    except OverflowError as exc:
        raise ScanCapExceeded(
            f"the indices with n**{e} mu_n > {t.near} run past the float range"
        ) from exc
    return Passing(head, range(start, last + 1))


def counting(model: SemiAxisModel, t: float, k: int = 1) -> int:
    """M_k(t) = #{n : mu_n > k*t}, with strict inequality.

    The count of ``passing``, so M_1(eps) is the effective dimension of
    ``hyperrect.exact_entropy`` at every eps.
    """
    _check_radius(t, "threshold t")
    if k < 1:
        raise InvalidModel("k must be >= 1")
    return passing(model, Threshold(k, t)).count


def log_product(model: SemiAxisModel, d: int) -> float:
    """Sum of log2(mu_n) for n = 1..d (log2 of the axis product): the
    midpoint of the model's certified enclosure."""
    if d < 1:
        raise InvalidModel("d must be >= 1")
    return model.log_product(d).mid


def cesaro_log_ratio(model: SemiAxisModel, N: int) -> float:
    """(1/N) * sum_{n<=N} log2(mu_n / mu_N).

    For a sequence of decay index b this converges to b/ln 2 at rate
    O(log N / N).
    """
    if N < 1:
        raise InvalidModel("N must be >= 1")
    return (model.log_product(N).mid - N * math.log2(model.axis(N))) / N


def tail_power_sum(model: SemiAxisModel, d: int, theta: float) -> Interval:
    """Certified enclosure of sum_{n > d} mu_n**theta.

    A canonical law is c**theta times a Hurwitz zeta value, enclosed by the
    Euler-Maclaurin formula after at most a few dozen explicit terms (see
    ``_hurwitz``), so its cost does not depend on d; a table sums its own
    entries and hands the rest to its canonical tail; a two-term law sums
    its head until the second term is small, then a binomial series of
    Hurwitz values.  The enclosure covers every rounding and has lo >= 0
    and hi > 0 for a positive sum.  Convergence requires the mapped
    exponent theta times the decay index to exceed 1.
    """
    if d < 0:
        raise InvalidModel("d must be >= 0")
    return model.tail_power_sum(d, theta)
