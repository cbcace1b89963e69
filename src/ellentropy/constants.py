"""Special functions and universal constants of the entropy formulas.

Provides extended Hoelder exponents with an explicit infinity, the
Riemann zeta function via Euler-Maclaurin summation, volumes of lp
unit balls, the volume-ratio constant

    Gamma_{p,q} = Gamma(1/p+1) p^(1/p) / (Gamma(1/q+1) q^(1/q) e^(1/q-1/p)),

with the limit convention p^(1/p) -> 1 at p = infinity, and the series
constant

    S(b) = sum_{k>=1} log2(1 + 1/k) k^(-1/b)

that governs the exact sup-norm entropy of canonical hyperrectangles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import EntropyError
from .numerics import kahan_sum

LN2 = math.log(2.0)


@dataclass(frozen=True)
class HolderExponent:
    """An exponent in [1, inf]; infinity is math.inf, never a large float.

    All formulas consume the exponent through ``reciprocal()``, which is
    exactly 0.0 at infinity, so limit conventions hold without tolerance.
    """

    value: float

    def __post_init__(self):
        v = float(self.value)
        object.__setattr__(self, "value", v)
        if math.isnan(v) or v < 1.0:
            raise EntropyError(f"Hoelder exponent must lie in [1, inf], got {v}")

    @property
    def is_inf(self) -> bool:
        return math.isinf(self.value)

    def reciprocal(self) -> float:
        return 0.0 if self.is_inf else 1.0 / self.value

    def __str__(self) -> str:
        return "inf" if self.is_inf else f"{self.value:g}"


ExponentLike = Union[HolderExponent, float, int, str, Fraction]


def as_exponent(p: ExponentLike) -> HolderExponent:
    """Coerce a float, int, Fraction, or the string 'inf' to an exponent."""
    if isinstance(p, HolderExponent):
        return p
    if isinstance(p, str):
        return HolderExponent(math.inf if p.strip().lower() in ("inf", "infinity") else float(p))
    return HolderExponent(float(p))


def _scaled_log(p: HolderExponent) -> float:
    """log(p)/p with the limit value 0 at p = infinity."""
    return 0.0 if p.is_inf else math.log(p.value) / p.value


def gamma_pq(p: ExponentLike, q: ExponentLike) -> float:
    """The volume-ratio constant Gamma_{p,q}; equals 1 exactly when p = q."""
    p, q = as_exponent(p), as_exponent(q)
    rp, rq = p.reciprocal(), q.reciprocal()
    log_num = math.lgamma(1.0 + rp) + _scaled_log(p)
    log_den = math.lgamma(1.0 + rq) + _scaled_log(q)
    return math.exp(log_num - log_den - (rq - rp))


def unit_ball_log_volume(p: ExponentLike, d: int) -> float:
    """ln vol of the unit ball of the lp norm in R^d.

    Closed form (2 Gamma(1+1/p))^d / Gamma(1+d/p); at p = infinity this
    reduces to the cube volume 2^d.
    """
    if d < 1:
        raise EntropyError("dimension must be >= 1")
    rp = as_exponent(p).reciprocal()
    return d * (LN2 + math.lgamma(1.0 + rp)) - math.lgamma(1.0 + d * rp)


def volume_ratio(p: ExponentLike, q: ExponentLike, d: int) -> float:
    """V_{p,q,d} = (vol B_p / vol B_q)^(1/d) in R^d."""
    return math.exp((unit_ball_log_volume(p, d) - unit_ball_log_volume(q, d)) / d)


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


def _hurwitz_tail(s: float, a: int, corrections: int = 6):
    """Euler-Maclaurin value of sum_{n >= a} n**-s with a certified remainder.

    Returns (value, remainder_bound); the remainder bound is the magnitude
    of the first omitted correction term, valid for real s > 1.
    """
    value = a ** (1.0 - s) / (s - 1.0) + 0.5 * a ** (-s)
    poch = s
    power = a ** (-s - 1.0)
    inv_a2 = 1.0 / (a * a)
    for i in range(corrections):
        value += _EM_WEIGHTS[i] * poch * power
        poch *= (s + 2 * i + 1) * (s + 2 * i + 2)
        power *= inv_a2
    remainder = abs(_EM_WEIGHTS[corrections] * poch * power)
    return value, remainder


def zeta(s: float) -> float:
    """Riemann zeta for real s > 1, absolute error well below 1e-12."""
    if not s > 1.0:
        raise EntropyError(f"zeta requires s > 1, got {s}")
    a = 25
    head = kahan_sum(float(n) ** (-s) for n in range(1, a))
    tail, _ = _hurwitz_tail(s, a)
    return head + tail


def zeta_series_constant(b: float) -> float:
    """S(b) = sum_{k>=1} log2(1+1/k) k^(-1/b), remainder certified.

    The head of the series is summed directly.  The tail is expanded via
    ln(1+1/k) = sum_j (-1)^(j+1) / (j k^j), each inner power sum enclosed
    by its Euler-Maclaurin value plus remainder bound, and the alternating
    truncation bounded by the first omitted term.  The total enclosure
    width must come out below 1e-10.
    """
    if not b > 0:
        raise EntropyError(f"series constant requires b > 0, got {b}")
    K = 4096
    rb = 1.0 / b
    head = kahan_sum(math.log1p(1.0 / k) / LN2 * k ** (-rb) for k in range(1, K + 1))

    lo = hi = 0.0
    j = 1
    while True:
        term, rem = _hurwitz_tail(j + rb, K + 1)
        contrib = term / (j * LN2)
        spread = rem / (j * LN2)
        if contrib < 1e-10 / 4.0:
            # Alternating series: the dropped part is within +-contrib.
            lo -= contrib + spread
            hi += contrib + spread
            break
        if j % 2 == 1:
            lo += contrib - spread
            hi += contrib + spread
        else:
            lo -= contrib + spread
            hi -= contrib - spread
        j += 1

    if hi - lo > 1e-10:
        raise EntropyError("tail enclosure wider than the certified target")
    return head + 0.5 * (lo + hi)
