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
certified partial log-products (in closed form for canonical laws),
certified enclosures of tail power sums, and the Cesaro mean of
log(mu_n / mu_N).  The package's Euler-Maclaurin kernel,
``numerics._power_sum``, encloses the power sums behind them, scaled at
their first index; canonical tails scale it by c**theta a**(1-s), so
their cost does not grow with the cut.
Both two-term sums take the same head term by term, then one series of
kernel values (``_series``), so neither cost grows with d.
"""

from __future__ import annotations

import bisect
import math
from typing import Callable, Iterable, List, NamedTuple, Optional, Protocol

from .constants import LN2
from .errors import DivergentTail, IndexBeyondTable, InvalidModel, ScanCapExceeded
from .numerics import _EM_TARGET, Interval, Threshold, _check_radius, _Frozen, _power_sum, kahan_sum

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


# Most explicit head terms a two-term tail sum or log-product adds before
# its series, most terms of that series (which needs about 36/(1 - x) of
# them as x nears 1), and the axes a two-term log-product sums one by one.
_HEAD_TERMS = 1024


def _outward(lo: float, hi: float) -> Interval:
    """[lo, hi] moved one float outward, for a sum of positive terms:
    lo stays >= 0, and hi is at least the smallest positive float."""
    return Interval(max(0.0, math.nextafter(lo, -math.inf)), math.nextafter(hi, math.inf))


def _powers_sum(values: Iterable[float], theta: float, rel: float) -> tuple:
    """Enclosure (lo, hi) of the exact sum of v**theta over values v, each float
    power within ``rel`` relative (2**-1074 where it underflows), math.fsum
    within half an ulp; a power past the float range raises ScanCapExceeded."""
    try:
        terms = [v**theta for v in values]
    except OverflowError as exc:
        raise ScanCapExceeded(f"a power **{theta} of an axis passes the float range") from exc
    total = math.fsum(terms)
    slack = (rel + 2.0**-51) * total + len(terms) * 2.0**-1074
    return total - slack, total + slack


def _scaled_tail(z: tuple, c: float, alpha: float, a: int, theta: float) -> Interval:
    """The kernel enclosure z = (lo, hi) at a times c**theta a**(1 - alpha
    theta) = (c a**-e)**theta, e = alpha - 1/theta > 0, rounded outward:
    the tail sum of the law c n**-alpha from a; ScanCapExceeded past the
    float range.  The float base is within 2**-52 (2 + alpha (1 + ln a))
    of itself (e within 2**-52 alpha, times ln a; pow within one ulp;
    float(a) and the product within half of one), and 2**-1074 (c + 1)
    where it underflows; the powers of its two ends, each within one ulp,
    enclose the factor.  Each step is monotone in a, so the ends do not
    rise with a.
    """
    base = c * float(a) ** -(alpha - 1.0 / theta)
    err = 2.0**-52 * (2.0 + alpha * (1.0 + math.log(a))) * base + (c + 1.0) * 2.0**-1074
    try:
        hi = z[1] * math.nextafter((base + err) ** theta, math.inf)
    except OverflowError as exc:
        raise ScanCapExceeded(f"a tail power sum from index {a} passes the float range") from exc
    return _outward(z[0] * math.nextafter(max(0.0, base - err) ** theta, 0.0), hi)


def _series(
    y: float, x: float, first: int, step: Callable[[int], float], a: int, b, s0: float,
    delta: float, target: float = 0.0, rel: float = 0.0,
) -> Optional[tuple]:
    """Enclosure (lo, hi) of sum_{k >= first} t_k W_k, the one series of
    both two-term sums past their head, where t_first = y**first (first
    is 0 or 1), t_{k+1} = t_k y step(k) and W_k is the kernel
    ``_power_sum`` at s0 + k delta over [a, b]; None where a term passes
    the float range or the rest still misses the target after
    ``_HEAD_TERMS`` terms.

    x < 1 bounds |y|.  W_j <= W_{k-1} for j >= k (<= (b - a + 1)/a before
    the first term), and the bounds x**j prod |step| of |t_j| shrink from
    j = k on by at most rho_k = x max(1, |step(k)|) for both steps here, so
    the rest from k on is at most that bound at k times
    W_{k-1} / (1 - rho_k); the series stops once that is at most
    target + rel |partial sum|, and adds it.  y is within
    2**-53 (4 + delta (1 + ln a)) of r a**-delta (r, the power, its
    exponent times ln a, float(a), the product), step(k) and each product
    within 4 half-ulps, so t_k is within (k + 1) 2**-53 (8 + delta (1 +
    ln a)), which covers the products with W_k and the fsum too;
    s0 + k delta is within 2**-51 of itself.
    """
    coef, bound, k = y**first, x**first, first
    w_hi = (b - a + 1) / a
    lows, highs, size, total = [], [], 0.0, 0.0
    while True:
        ratio = step(k)
        rho = x * max(1.0, abs(ratio))
        if rho < 1.0:
            rest = bound * w_hi / (1.0 - rho) * (1.0 + 2.0**-40)
            if rest <= target + rel * abs(total):
                break
        if k - first == _HEAD_TERMS:
            return None
        sk = s0 + k * delta
        w_lo, w_hi = _power_sum(sk, a, b, sk * 2.0**-51)
        lo, hi = (coef * w_lo, coef * w_hi) if coef >= 0 else (coef * w_hi, coef * w_lo)
        lows.append(lo)
        highs.append(hi)
        size += (k + 1) * max(-lo, hi)
        total += lo
        coef *= ratio * y
        bound *= abs(ratio) * x
        if not (size < math.inf and bound < math.inf):
            return None
        k += 1
    slack = 2.0**-53 * (8.0 + delta * (1.0 + math.log(a))) * size + rest
    return math.fsum(lows) - slack, math.fsum(highs) + slack


class Canonical(_Frozen):
    """mu_n = c * n**-b with b, c > 0."""

    __slots__ = ("b", "c")

    length = None
    rising_head = True  # the head is empty

    def __init__(self, b: float, c: float):
        if not (b > 0 and c > 0):
            raise InvalidModel("canonical model requires b > 0 and c > 0")
        if not (b < math.inf and c < math.inf):
            raise InvalidModel("canonical model requires finite b and c")
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

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
        # c**theta a**(1-s) times the kernel at a = d + 1, in O(1) once a
        # passes the few explicit terms the kernel needs; s = b*theta is
        # within half an ulp of the exact product
        z = _power_sum(s, d + 1, math.inf, s * 2.0**-53)
        return _scaled_tail(z, self.c, self.b, d + 1, theta)

    def log_product(self, d: int) -> Interval:
        """d log2 c - b log2(d!), with log2(d!) = lgamma(d + 1) / ln 2, in O(1).

        The slack covers the error of lgamma and of the float arithmetic
        (2**-40 relative to the two terms) and the rounding of each float
        axis against c * n**-b: 2**-50 per axis, nearly twice the log2
        shift of a relative error of 3 * 2**-53 (one ulp from the power,
        half an ulp from the product).  A sum past the float range (from
        d ~ 1e305) raises ScanCapExceeded.
        """
        scale = d * math.log2(self.c)
        try:
            power = self.b * math.lgamma(d + 1) / LN2
        except OverflowError:
            power = math.inf
        slack = 2.0**-40 * (abs(scale) + power) + d * 2.0**-50
        if not slack < math.inf:
            raise ScanCapExceeded(f"log2 of {len(str(d))}-digit d! passes the float range")
        value = scale - power
        return Interval(value - slack, value + slack)

    def to_json(self) -> dict:
        return {"kind": "canonical", "b": self.b, "c": self.c}


class TwoTermPolynomial(_Frozen):
    """mu_n = c1 * n**-alpha1 + c2 * n**-alpha2 with c1 > 0, alpha1 < alpha2.

    n**alpha2 mu_n = c1 n**(alpha2 - alpha1) + c2 grows with n, so the law
    is positive everywhere exactly when mu_1 = c1 + c2 is.
    """

    __slots__ = ("c1", "c2", "alpha1", "alpha2")

    length = None
    rising_head = True

    def __init__(self, c1: float, c2: float, alpha1: float, alpha2: float):
        object.__setattr__(self, "c1", c1)
        object.__setattr__(self, "c2", c2)
        object.__setattr__(self, "alpha1", alpha1)
        object.__setattr__(self, "alpha2", alpha2)
        if not (c1 > 0 and alpha1 > 0 and alpha2 > 0):
            raise InvalidModel("two-term model requires c1 > 0 and positive exponents")
        if not alpha1 < alpha2:
            raise InvalidModel("two-term model requires alpha1 < alpha2")
        if not self.axis(1) > 0:
            raise InvalidModel("two-term model requires mu_1 = c1 + c2 > 0")
        if not all(map(math.isfinite, (c1, c2, alpha1, alpha2))):
            raise InvalidModel("two-term model requires finite parameters")

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

    def _cut(self, d: int):
        """The one head rule of both sums, (a, r, y, x): they take the n > d
        with x_n = |r| n**-delta > 1/16 (r = c2/c1) term by term, at most
        ``_HEAD_TERMS`` of them; a is the first index past those, y =
        r a**-delta, and x bounds every x_n from a on (2**-40 relative over
        y's rounding, |r| 2**-1073 absolute where the power underflows)."""
        r = self.c2 / self.c1
        delta = self.alpha2 - self.alpha1
        # x_n <= 1/16 once ln n >= reach
        reach = math.log(16.0 * abs(r)) / delta if r else -math.inf
        a = d + 1 + _HEAD_TERMS
        if reach <= math.log(a):
            a = max(d + 1, math.ceil(math.exp(reach)))
        y = r * float(a) ** -delta
        return a, r, y, abs(y) * (1.0 + 2.0**-40) + abs(r) * 2.0**-1073

    def tail_power_sum(self, d: int, theta: float) -> Interval:
        """The head term by term, then a binomial series scaled at the cut.

        With delta = alpha2 - alpha1, s = alpha1 theta and (a, r, y) of
        ``_cut``, mu_n**theta = c1**theta a**-s (n/a)**-s
        (1 + y (n/a)**-delta)**theta for n >= a, so

            sum_{n >= a} mu_n**theta
              = c1**theta a**(1-s) sum_k binom(theta, k) y**k W_k,

        W_k = sum_{n >= a} (n/a)**-(s + k delta) / a (``_series``, to 2**-46
        of the sum).  Where x >= 1 (a head of ``_HEAD_TERMS`` terms), the
        series does not converge; where its terms pass the float range, x
        is within a few hundredths of 1, or (for r < 0 and a large theta)
        its rounding swamps it, it cannot be summed.  There
        (1 + r n**-delta)**theta is enclosed by its values at n = a and at
        infinity instead.
        """
        s = self.alpha1 * theta
        if s <= 1.0:
            raise DivergentTail(f"tail power sum diverges: theta*alpha1 = {s} <= 1")
        a, r, y, x = self._cut(d)
        delta = self.alpha2 - self.alpha1
        # mu_n is within 4 half-ulps times kappa = (c1 + |c2| n**-delta)/mu_n
        # of its float, largest at n = d + 1; the power multiplies that by theta
        kappa = 1.0
        if r < 0:
            x_first = -r * float(d + 1) ** -delta
            kappa = (1.0 + x_first) / (1.0 - x_first)
        head = _powers_sum(map(self.axis, range(d + 1, a)), theta, 2.0**-50 * (theta * kappa + 1.0))
        z = None if x >= 1.0 else _series(
            y, x, 0, lambda k: (theta - k) / (k + 1), a, math.inf, s, delta, rel=_EM_TARGET
        )
        bracket = z is None or z[0] <= 0.0  # rounding cancelled the series
        if bracket:
            z = _power_sum(s, a, math.inf, s * 2.0**-53)
        rest = _scaled_tail(z, self.c1, self.alpha1, a, theta)
        if bracket:
            # past the cut, 1 + r n**-delta lies between 1 and 1 + x (rounded
            # up) when r > 0, and between 0 and 1 when r < 0
            grown = self.c1 * (1.0 + x) * (1.0 + 2.0**-50)
            hi = _scaled_tail(z, grown, self.alpha1, a, theta).hi if r > 0 else rest.hi
            rest = Interval(rest.lo if r > 0 else 0.0, hi)
        return _outward(head[0] + rest.lo, head[1] + rest.hi)

    def log_product(self, d: int) -> Interval:
        """The per-axis sum up to ``_HEAD_TERMS`` axes, then in O(1).

        Every mu_n lies in [min(mu_1, mu_d), c1 + max(c2, 0)] for n <= d,
        since the law rises at most once, before falling; the per-axis sum
        is ``_log2_sum`` of the float axes.  Past ``_HEAD_TERMS`` axes,
        with r = c2/c1, delta = alpha2 - alpha1 and y_n = r n**-delta,

            log2 mu_n = log2(c1 n**-alpha1) + log2(1 + y_n),

        so the sum is the canonical closed form of (alpha1, c1), plus
        log1p(y_n) / ln 2 summed over the head before the cut a
        (``_cut``), plus a series for the axes from a to d (see
        ``_split_log_product``).  The per-axis sum stays the fallback where
        that series does not converge (x >= 1 at the cut) or needs more
        than ``_HEAD_TERMS`` terms (x within a few hundredths of 1); past
        ``AXIS_CAP`` axes it raises ScanCapExceeded instead, as it does where
        mu_d underflows to 0.0 (mu_1 = c1 + c2 is a positive float).
        """
        split = self._split_log_product(d) if d > _HEAD_TERMS else None
        if split is not None:
            return split
        if d > AXIS_CAP:
            raise ScanCapExceeded(
                f"a per-axis log-product over {d} axes exceeds the cap {AXIS_CAP}"
            )
        largest = self.c1 + max(self.c2, 0.0)
        smallest = min(self.axis(1), self.axis(d))
        if smallest == 0.0:
            raise ScanCapExceeded(
                f"axis {d} underflowed to 0.0, so its log2 lies past the float range"
            )
        return _log2_sum(map(self.axis, range(1, d + 1)), d, largest, smallest)

    def _split_log_product(self, d: int) -> Optional[Interval]:
        """The log-product for d > ``_HEAD_TERMS`` in O(1), from (a, r, y, x)
        of ``_cut``; None where x >= 1 or the series gives up.

        With Q_k = sum_{n=a..d} (n/a)**(-k delta) / a, the axes from a on
        add sum_{n=a..d} ln(1 + y_n) = a sum_{k>=1} -(-y)**k Q_k / k
        (``_series``), which stops once its rest is below 2**-52 of the
        canonical part, about its last bit, so the midpoint is as close to
        the sum as the per-axis sum's.  The product with a rounds within
        the 2**-50 of the part that the slack adds.

        Besides the canonical part's and the series' own, the slack covers:

        * each float y_n of the head, within 2**-53 (4 + 7 delta) relative
          (r, the power, its exponent times ln n <= ln 1024, the product),
          which moves log1p(y_n) by that times |y_n|/(1 + y_n); log1p and
          fsum, within 2**-51 of the head;
        * the float axes: mu_n is within 2**-51 kappa_n of its float, with
          kappa_n = (1 + |y_n|)/(1 + y_n), which shifts log2 mu_n by up to
          2**-50 kappa_n.  The canonical part covers 2**-50 per axis; the
          rest is 2**-49 |y_n|/(1 + y_n) when r < 0, at most
          2**-49 x/(1 - x) from the cut on.
        """
        a, r, y, x = self._cut(0)
        if not (x < 1.0 and r > -1.0):  # r > -1 exactly, but the quotient may round to -1
            return None
        delta = self.alpha2 - self.alpha1
        ys = [r * float(n) ** -delta for n in range(1, a)]
        canon = Canonical(self.alpha1, self.c1).log_product(d)
        target = 2.0**-52 * max(1.0, abs(canon.mid))
        head = math.fsum(map(math.log1p, ys))
        lean = abs(math.fsum([v / (1.0 + v) for v in ys]))  # every y_n has the sign of r
        series = _series(y, x, 1, lambda k: -k / (k + 1), a, d, 0.0, delta, target=target / a)
        if series is None:
            return None
        series = Interval(series[0] * a, series[1] * a)
        # in natural-log units: the head's rounding
        err = lean * 2.0**-48 * (1.0 + delta) + 2.0**-51 * abs(head)
        part = (head + series.mid) / LN2
        value = canon.mid + part
        slack = (
            0.5 * canon.width
            + (0.5 * series.width + err) / LN2 * (1.0 + 2.0**-50)
            + 2.0**-50 * (abs(canon.mid) + abs(part))
            + ((d - a + 1) * 2.0**-49 * x / (1.0 - x) if r < 0 else 0.0)
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


class Tabulated(_Frozen):
    """An explicit finite prefix, optionally continued by a canonical tail.

    The tail, when present, is evaluated at the global index, so the model
    remains a single sequence; the junction must preserve monotonicity.
    Every index past the table is sent to the tail.
    """

    __slots__ = ("values", "tail")

    rising_head = False

    def __init__(self, values: tuple, tail: Optional[Canonical] = None):
        vals = tuple(float(v) for v in values)
        if not vals:
            raise InvalidModel("tabulated model requires at least one value")
        if any(v <= 0 for v in vals):
            raise InvalidModel("tabulated values must be positive")
        for a, b in zip(vals, vals[1:]):
            if b > a:
                raise InvalidModel("tabulated values must be non-increasing")
        if tail is not None and tail.axis(len(vals) + 1) > vals[-1]:
            raise InvalidModel("canonical tail exceeds last table value")
        if not all(map(math.isfinite, vals)):
            raise InvalidModel("tabulated values must be finite")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "tail", tail)

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
        finite = _powers_sum(self.values[d:], theta, 2.0**-51)
        if self.tail is None:
            return _outward(*finite) if d < L else Interval(0.0, 0.0)
        rest = self.tail.tail_power_sum(max(d, L), theta)
        return _outward(finite[0] + rest.lo, finite[1] + rest.hi)

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

    A canonical law is c**theta (d+1)**(1-s) times the Euler-Maclaurin
    kernel ``_power_sum`` at d + 1, which adds at most a few dozen
    explicit terms, so its cost does not depend on d; a table sums its own
    entries and hands the rest to its canonical tail; a two-term law sums
    its head until the second term is small, then a binomial series of
    kernel values (a bracket where that series cannot run).  The enclosure
    covers every rounding and has lo >= 0 and hi > 0 for a positive sum;
    a power past the float range raises ScanCapExceeded.  Convergence
    requires the mapped exponent theta times the decay index to exceed 1.
    """
    if d < 0:
        raise InvalidModel("d must be >= 0")
    return model.tail_power_sum(d, theta)
