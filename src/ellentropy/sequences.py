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

On top of evaluation the module provides the threshold counting function
M_k(t) = #{n : mu_n > k*t} and the index search behind it, partial
log-products, certified two-sided bounds on tail power sums, and the
Cesaro mean of log(mu_n / mu_N).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .errors import (
    DivergentTail,
    IndexBeyondTable,
    InvalidModel,
    UnboundedCount,
)
from .numerics import Interval, kahan_sum

@dataclass(frozen=True)
class Canonical:
    """mu_n = c * n**-b with b, c > 0."""

    b: float
    c: float

    def __post_init__(self):
        if not (self.b > 0 and self.c > 0):
            raise InvalidModel("canonical model requires b > 0 and c > 0")

    def to_json(self) -> dict:
        return {"kind": "canonical", "b": self.b, "c": self.c}


@dataclass(frozen=True)
class TwoTermPolynomial:
    """mu_n = c1 * n**-alpha1 + c2 * n**-alpha2 with c1 > 0, alpha1 < alpha2.

    Positivity is guaranteed asymptotically by the dominance of the first
    term; the prefix up to the dominance index is checked explicitly.
    """

    c1: float
    c2: float
    alpha1: float
    alpha2: float

    def __post_init__(self):
        if not (self.c1 > 0 and self.alpha1 > 0 and self.alpha2 > 0):
            raise InvalidModel("two-term model requires c1 > 0 and positive exponents")
        if not self.alpha1 < self.alpha2:
            raise InvalidModel("two-term model requires alpha1 < alpha2")
        for n in range(1, self.dominance_index() + 1):
            if self.c1 * n ** (-self.alpha1) + self.c2 * n ** (-self.alpha2) <= 0:
                raise InvalidModel(f"two-term model non-positive at n={n}")

    def dominance_index(self) -> int:
        """Smallest n0 with c1*n**-a1 > |c2|*n**-a2 for all n >= n0."""
        if self.c2 >= 0:
            return 1
        x = (abs(self.c2) / self.c1) ** (1.0 / (self.alpha2 - self.alpha1))
        return max(1, int(math.floor(x)) + 1)

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
    """

    values: tuple
    tail: Optional[Canonical] = None

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
        if self.tail is not None:
            first_tail = self.tail.c * (len(vals) + 1) ** (-self.tail.b)
            if first_tail > vals[-1]:
                raise InvalidModel("canonical tail exceeds last table value")

    def to_json(self) -> dict:
        out: dict = {"kind": "table", "values": list(self.values)}
        if self.tail is not None:
            out["tail"] = self.tail.to_json()
        return out


SemiAxisModel = Union[Canonical, TwoTermPolynomial, Tabulated]


def model_from_json(data: dict) -> SemiAxisModel:
    kind = data.get("kind")
    if kind == "canonical":
        return Canonical(b=float(data["b"]), c=float(data["c"]))
    if kind == "two_term":
        return TwoTermPolynomial(
            c1=float(data["c1"]),
            c2=float(data["c2"]),
            alpha1=float(data["alpha1"]),
            alpha2=float(data["alpha2"]),
        )
    if kind == "table":
        tail = data.get("tail")
        return Tabulated(
            values=tuple(float(v) for v in data["values"]),
            tail=None if tail is None else Canonical(b=float(tail["b"]), c=float(tail["c"])),
        )
    raise InvalidModel(f"unknown model kind {kind!r}")


def table_length(model: SemiAxisModel) -> Optional[int]:
    """Length of a finite table model, None for unbounded models."""
    if isinstance(model, Tabulated) and model.tail is None:
        return len(model.values)
    return None


def decay_index(model: SemiAxisModel) -> Optional[float]:
    """Regular-variation index -b of the model, None for finite tables."""
    if isinstance(model, Canonical):
        return model.b
    if isinstance(model, TwoTermPolynomial):
        return model.alpha1
    if model.tail is not None:
        return model.tail.b
    return None


def axis(model: SemiAxisModel, n: int) -> float:
    """mu_n by direct formula evaluation."""
    if n < 1:
        raise InvalidModel("axis index must be >= 1")
    if isinstance(model, Canonical):
        return model.c * float(n) ** (-model.b)
    if isinstance(model, TwoTermPolynomial):
        return model.c1 * float(n) ** (-model.alpha1) + model.c2 * float(n) ** (-model.alpha2)
    if n <= len(model.values):
        return model.values[n - 1]
    if model.tail is None:
        raise IndexBeyondTable(f"index {n} beyond table of length {len(model.values)}")
    return model.tail.c * float(n) ** (-model.tail.b)


def ensure_non_increasing(model: SemiAxisModel, upto: int) -> None:
    """Check mu_n >= mu_{n+1} for n < upto; raises InvalidModel on failure.

    Canonical models and validated tables are monotone by construction;
    only the two-term family needs the prefix scan (a negative second term
    can make the sequence rise before the dominance index).
    """
    if isinstance(model, TwoTermPolynomial):
        prev = axis(model, 1)
        for n in range(2, upto + 1):
            cur = axis(model, n)
            if cur > prev:
                raise InvalidModel(f"sequence increases at n={n}")
            prev = cur


def _above(model: SemiAxisModel, n: int, t: Fraction) -> bool:
    """The membership test mu_n > t: the float axis(model, n), compared
    exactly (floats are exact rationals), with no tolerance either way."""
    return Fraction(axis(model, n)) > t


def _monotone_start(model: SemiAxisModel) -> int:
    """An index from which the sequence is non-increasing.

    Only a two-term law with c2 < 0 can rise: c1 x**-a1 + c2 x**-a2 then
    peaks at x* = (a2 |c2| / (a1 c1))**(1/(a2 - a1)) and falls past it.
    """
    if isinstance(model, TwoTermPolynomial) and model.c2 < 0:
        peak = (model.alpha2 * -model.c2 / (model.alpha1 * model.c1)) ** (
            1.0 / (model.alpha2 - model.alpha1)
        )
        return int(peak) + 1
    return 1


def _last_exceeding(model: SemiAxisModel, start: int, t: Fraction) -> int:
    """The largest n >= start - 1 with mu_m > t for every m in [start, n].

    ``start`` must lie on the non-increasing part of the sequence (see
    ``_monotone_start``), where the passing indices form a prefix; the
    result is start - 1 when mu_start <= t.  Canonical laws and canonical
    tails take O(1) tests, tables a bisection, and two-term laws a gallop
    followed by a bisection.
    """
    if isinstance(model, Canonical):
        return _last_canonical(model, start, t)
    if isinstance(model, Tabulated):
        L = len(model.values)
        # the first failing 0-based position is the last passing 1-based index
        last = bisect.bisect_left(
            model.values, True, lo=min(start - 1, L), key=lambda v: Fraction(v) <= t
        )
        if last < L or model.tail is None:
            return last
        return _last_canonical(model.tail, max(start, L + 1), t)
    lo, step = start - 1, 1
    while _above(model, lo + step, t):
        lo += step
        step *= 2
    hi = lo + step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _above(model, mid, t):
            lo = mid
        else:
            hi = mid
    return lo


def _last_canonical(model: Canonical, start: int, t: Fraction) -> int:
    """``_last_exceeding`` for a canonical law (or tail, at global indices)."""
    try:
        x = (model.c / float(t)) ** (1.0 / model.b)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise UnboundedCount("threshold underflows the canonical closed form")
    n = max(start - 1, math.ceil(x) - 1)
    # Correct floating-point boundary drift with exact comparisons.
    while _above(model, n + 1, t):
        n += 1
    while n >= start and not _above(model, n, t):
        n -= 1
    return n


def counting(model: SemiAxisModel, t: float, k: int = 1) -> int:
    """M_k(t) = #{n : mu_n > k*t}, with strict inequality.

    The test is the one ``hyperrect.exact_entropy`` uses, so M_1(eps) is
    its effective dimension at every eps.  The rising head of a two-term
    law is tested axis by axis; past it the index search answers.
    """
    if t <= 0:
        raise InvalidModel("threshold t must be positive")
    if k < 1:
        raise InvalidModel("k must be >= 1")
    threshold = Fraction(k) * Fraction(t)
    start = _monotone_start(model)
    head = sum(1 for n in range(1, start) if _above(model, n, threshold))
    return head + _last_exceeding(model, start, threshold) - (start - 1)


def log_product(model: SemiAxisModel, d: int) -> float:
    """Sum of log2(mu_n) for n = 1..d (log2 of the axis product)."""
    if d < 1:
        raise InvalidModel("d must be >= 1")
    return kahan_sum(math.log2(axis(model, n)) for n in range(1, d + 1))


def cesaro_log_ratio(model: SemiAxisModel, N: int) -> float:
    """(1/N) * sum_{n<=N} log2(mu_n / mu_N).

    For a sequence of decay index b this converges to b/ln 2 at rate
    O(log N / N).
    """
    if N < 1:
        raise InvalidModel("N must be >= 1")
    mu_N = axis(model, N)
    return kahan_sum(math.log2(axis(model, n) / mu_N) for n in range(1, N + 1)) / N


# Number of explicit terms summed before bracketing a tail by integrals.
_TAIL_PREFIX = 2000


def tail_power_sum(model: SemiAxisModel, d: int, theta: float) -> Interval:
    """Certified enclosure of sum_{n > d} mu_n**theta.

    The first ``_TAIL_PREFIX`` terms are summed explicitly; the remainder
    is bracketed by the integral comparison

        int_{m+1}^inf f  <=  sum_{n > m} f(n)  <=  f(m+1) + int_{m+1}^inf f,

    applied to the dominating power law.  Convergence requires the mapped
    exponent theta times the decay index to exceed 1.
    """
    if d < 0:
        raise InvalidModel("d must be >= 0")
    if isinstance(model, Tabulated):
        L = len(model.values)
        finite = kahan_sum(model.values[n - 1] ** theta for n in range(d + 1, L + 1))
        if model.tail is None:
            return Interval(finite, finite)
        rest = _canonical_tail_interval(model.tail, max(d, L), theta)
        return rest + finite
    if isinstance(model, Canonical):
        return _canonical_tail_interval(model, d, theta)
    return _two_term_tail_interval(model, d, theta)


def _power_tail_interval(m: int, s: float) -> Interval:
    """Enclosure of sum_{n > m} n**-s via integral comparison; needs s > 1."""
    integral = (m + 1) ** (1.0 - s) / (s - 1.0)
    return Interval(integral, integral + (m + 1) ** (-s))


def _canonical_tail_interval(model: Canonical, d: int, theta: float) -> Interval:
    s = model.b * theta
    if s <= 1.0:
        raise DivergentTail(f"tail power sum diverges: theta*b = {s} <= 1")
    m = d + _TAIL_PREFIX
    prefix = kahan_sum(
        (model.c * float(n) ** (-model.b)) ** theta for n in range(d + 1, m + 1)
    )
    return _power_tail_interval(m, s).scale(model.c**theta) + prefix


def _two_term_tail_interval(model: TwoTermPolynomial, d: int, theta: float) -> Interval:
    s = model.alpha1 * theta
    if s <= 1.0:
        raise DivergentTail(f"tail power sum diverges: theta*alpha1 = {s} <= 1")
    m = max(d, model.dominance_index()) + _TAIL_PREFIX
    prefix = kahan_sum(axis(model, n) ** theta for n in range(d + 1, m + 1))
    # Past m the correction factor mu_n * n**alpha1 = c1 + c2 * n^{a1-a2}
    # is monotone in n, so it is enclosed by its values at m+1 and infinity.
    at_m1 = model.c1 + model.c2 * float(m + 1) ** (model.alpha1 - model.alpha2)
    a_lo, a_hi = min(model.c1, at_m1), max(model.c1, at_m1)
    if a_lo <= 0:
        raise InvalidModel("two-term model not positive past the scanned prefix")
    bracket = _power_tail_interval(m, s)
    return Interval(bracket.lo * a_lo**theta, bracket.hi * a_hi**theta) + prefix
