"""Special functions and universal constants of the entropy formulas.

Provides extended Hoelder exponents with an explicit infinity, the
Riemann zeta function on the Euler-Maclaurin kernel of ``numerics``,
volumes of lp unit balls, the volume-ratio constant

    Gamma_{p,q} = Gamma(1/p+1) p^(1/p) / (Gamma(1/q+1) q^(1/q) e^(1/q-1/p)),

with the limit convention p^(1/p) -> 1 at p = infinity, and the series
constant

    S(b) = sum_{k>=1} log2(1 + 1/k) k^(-1/b)

that governs the exact sup-norm entropy of canonical hyperrectangles, on
the same kernel.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from .errors import EntropyError
from .numerics import _Frozen, _power_sum

LN2 = math.log(2.0)


class HolderExponent(_Frozen):
    """An exponent in [1, inf]; infinity is math.inf, never a large float.

    All formulas consume the exponent through ``reciprocal()``, which is
    exactly 0.0 at infinity, so limit conventions hold without tolerance.
    """

    __slots__ = ("value",)

    def __init__(self, value: float):
        v = float(value)
        if math.isnan(v) or v < 1.0:
            raise EntropyError(f"Hoelder exponent must lie in [1, inf], got {v}")
        object.__setattr__(self, "value", v)

    @property
    def is_inf(self) -> bool:
        return math.isinf(self.value)

    def reciprocal(self) -> float:
        return 1.0 / self.value  # 1.0 / inf is exactly 0.0

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


# Relative width of the enclosures that zeta and S(b) return the midpoints of.
_WIDTH = 2.0**-40


def _midpoint(lo: float, hi: float, what: str) -> float:
    """The midpoint of an enclosure [lo, hi] of a positive value;
    EntropyError where it is wider than ``_WIDTH`` relative."""
    if not hi - lo <= _WIDTH * lo:
        raise EntropyError(f"{what} has no enclosure within {_WIDTH} relative")
    return 0.5 * (lo + hi)


def zeta(s: float) -> float:
    """Riemann zeta for real s > 1, within 2**-41 relative: the midpoint of
    the kernel ``numerics._power_sum`` from n = 1.  EntropyError from s
    near 2**11 on, where its bound on the rounding of its powers passes
    ``_WIDTH``; past 2**11 the kernel is not called."""
    if not 1.0 < s < 2.0**11:
        raise EntropyError(f"zeta requires 1 < s < 2**11, got {s}")
    return _midpoint(*_power_sum(s, 1, math.inf, 0.0), f"zeta({s!r})")


def zeta_series_constant(b: float) -> float:
    """S(b) = sum_{k>=1} log2(1+1/k) k^(-1/b) for finite b > 0, within
    2**-41 relative: the midpoint of a certified enclosure, or EntropyError
    where that is wider than ``_WIDTH`` (from b near 2,000 on, as the float
    s = 1 + 1/b below keeps 1/b only to about b 2**-53 relative).

    The first 32 terms are summed directly: the first is 1, the others are
    within 2**-50 relative, and the rounding of 1/b moves them by under
    2**-52 in all (t e^-t <= 1/e at t = ln(k)/b).  Past them, since
    ln(1 + 1/k) = sum_j (-1)^(j+1) / (j k^j), the rest is the alternating
    series of the terms a^(1-s) / (j ln 2) times the kernel
    ``numerics._power_sum`` at a = 33, s = j + 1/b, for every exponent
    within s 2**-52 of the float s; that factor is within
    2**-50 + 2**-51 s ln(a) relative of its float.  Term j is below
    a^(1-s) (1/a + 1/(s-1)) / (j ln 2) and falls with j, so once that
    bound is below 2**-44 of the head it bounds the rest.
    """
    if not 0.0 < b < math.inf:
        raise EntropyError(f"series constant requires finite b > 0, got {b}")
    rb, a = 1.0 / b, 33
    head = math.fsum([math.log1p(1.0 / k) / LN2 * k**-rb for k in range(1, a)])
    lows, highs, slack = [head], [head], 2.0**-49 * head + a * 2.0**-1074
    j = 1
    while True:
        s = j + rb
        scale = float(a) ** (1.0 - s) / (j * LN2)
        rest = scale * (1.0 / a + 1.0 / (j - 1 + rb)) * (1.0 + 2.0**-40) + 2.0**-1070
        if rest <= 2.0**-44 * head:
            break
        s_err = s * 2.0**-52
        # where the float s does not resolve s - 1, the kernel has no bound
        lo, hi = _power_sum(s, a, math.inf, s_err) if s - 1.0 > s_err else (0.0, math.inf)
        lows.append(scale * (lo if j % 2 else -hi))
        highs.append(scale * (hi if j % 2 else -lo))
        slack += (2.0**-50 + 2.0**-51 * s * math.log(a)) * scale * hi + 2.0**-1070
        j += 1
    lo = math.nextafter(math.fsum(lows) - slack - rest, -math.inf)
    hi = math.nextafter(math.fsum(highs) + slack + rest, math.inf)
    return _midpoint(lo, hi, f"S({b!r})")
