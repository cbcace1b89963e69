"""Regime classification and asymptotic entropy evaluators.

For a p-ellipsoid with semi-axes decaying at index b, compactness in the
q-norm is decided by the position of q relative to the critical value
p/(pb+1) (read as 1/b when p is infinite):

  q < p/(pb+1)                         not compact;
  q = p/(pb+1), liminf n mu_n^(1/b)>0  not compact;
  q = p/(pb+1), sum mu_n^(1/b) < inf   critical, entropy finite;
  p/(pb+1) < q <= p                    compact, two-sided constants;
  p < q                                compact, lower constant only.

In the compact ranges the entropy scales as eps^(-1/b*) with
b* = b + 1/p - 1/q, and the canonical-decay constants are

  lower edge  (b/ln2) (Gamma_{p,q} c / eps)^(1/b*),
  upper edge  (b/ln2 + 1) (gamma_{p,q,b} c / eps)^(1/b*),

with gamma_{p,q,b} = (b/b*)^(1/q-1/p).  The Hilbert case p = q = 2 has
the exact leading constant b c^(1/b)/ln2 and a second-order expansion for
two-term polynomial decay.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional, Union

from .constants import LN2, ExponentLike, as_exponent, gamma_pq
from .errors import EntropyError, NonCompactRegime, ScanCapExceeded, UnsupportedCorner
from .numerics import Threshold, _check_radius
from .sequences import SemiAxisModel, passing

NONCOMPACT_A = "NonCompact_a"
NONCOMPACT_B = "NonCompact_b"
CRITICAL_II = "Critical_ii"
COMPACT_III = "Compact_iii"
COMPACT_IV = "Compact_iv"


class Regime(NamedTuple):
    """Classification outcome plus the constants attached to the case."""

    case: str
    b_star: float
    lower_const: Optional[float] = None
    upper_const: Optional[float] = None
    exact_const: Optional[float] = None

    @property
    def compact(self) -> bool:
        return self.case in (CRITICAL_II, COMPACT_III, COMPACT_IV)


RationalLike = Union[int, float, Fraction, str]


def _as_fraction(name: str, x: RationalLike) -> Optional[Fraction]:
    """Exact rational value, or None for +infinity; EntropyError naming
    ``name`` for a value that is neither (nan, -inf, text that is no
    number)."""
    if isinstance(x, str) and x.strip().lower() in ("inf", "infinity"):
        return None
    if x == math.inf:
        return None
    try:
        return Fraction(x)
    except (TypeError, ValueError, OverflowError):
        raise EntropyError(f"{name} must be a real number or inf, got {x!r}") from None


def gamma_pqb(
    p: ExponentLike, q: ExponentLike, b: float, b_star: Optional[float] = None
) -> float:
    """(b / b*)^(1/q - 1/p), with b* = b + 1/p - 1/q in floats unless given."""
    rp, rq = as_exponent(p).reciprocal(), as_exponent(q).reciprocal()
    if b_star is None:
        b_star = b + rp - rq
    return (b / b_star) ** (rq - rp)


def _case(p, q, b, tail_summable_inv_b: bool, liminf_n_mu_pos: bool) -> tuple:
    """(case, b*, p, q, b) of ``classify``, with p, q and b as floats: the
    case from the exact test alone, before any constant is formed.  b* is
    b + 1/p - 1/q in floats, or, in a compact case where that is not
    positive (within rounding of the critical line), the exact b* rounded
    once."""
    fp, fq, fb = _as_fraction("p", p), _as_fraction("q", q), _as_fraction("b", b)
    if fb is None or fb <= 0:
        raise EntropyError("b must be a positive real")
    for x, f in ((p, fp), (q, fq)):
        if f is not None and f < 1:
            raise EntropyError(f"Hoelder exponent must lie in [1, inf], got {x}")
    if fq is None:
        below = critical = False  # q = inf exceeds the finite critical value
    elif fp is None:
        # convention: p/(pb+1) -> 1/b at p = infinity
        below, critical = fq < 1 / fb, fq == 1 / fb
    else:
        # q ? p/(pb+1)  <=>  q (p b + 1) ? p
        lhs = fq * (fp * fb + 1)
        below, critical = lhs < fp, lhs == fp

    try:
        pv, qv, bv = (math.inf if f is None else float(f) for f in (fp, fq, fb))
    except OverflowError:
        raise EntropyError("p, q and b must lie in the float range") from None
    if bv == 0.0:
        raise EntropyError("p, q and b must lie in the float range")
    b_star = bv + 1.0 / pv - 1.0 / qv

    if below:
        case = NONCOMPACT_A
    elif critical:
        if tail_summable_inv_b and liminf_n_mu_pos:
            raise EntropyError(
                "flags inconsistent: a positive liminf forces a divergent sum"
            )
        if liminf_n_mu_pos:
            case = NONCOMPACT_B
        elif tail_summable_inv_b:
            case = CRITICAL_II
        else:
            raise UnsupportedCorner(
                "critical line with vanishing n mu_n^(1/b) and divergent sum"
            )
    else:
        q_le_p = (fp is None) if fq is None else (fp is None or fq <= fp)
        case = COMPACT_III if q_le_p else COMPACT_IV
        if b_star <= 0.0:
            b_star = float(fb + (0 if fp is None else 1 / fp) - (0 if fq is None else 1 / fq))
    return case, b_star, pv, qv, bv


def classify(
    p: RationalLike,
    q: RationalLike,
    b: RationalLike,
    tail_summable_inv_b: bool = False,
    liminf_n_mu_pos: bool = True,
) -> Regime:
    """Place (p, q, b) in its compactness case, with exact boundary tests.

    The two flags describe the behavior of the sequence at the critical
    line: whether sum mu_n^(1/b) converges and whether n mu_n^(1/b) stays
    bounded away from zero.  Canonical laws always have the latter
    (n (c/n^b)^(1/b) = c^(1/b)), so they land in the non-compact case.

    Inputs given as ints, Fractions, or fraction strings are compared in
    exact arithmetic, so regime boundaries are decided without rounding.
    A constant past the float range (from b near 134 at p = 2, q = 1)
    raises ScanCapExceeded naming it.
    """
    case, b_star, pv, qv, bv = _case(p, q, b, tail_summable_inv_b, liminf_n_mu_pos)
    if case == CRITICAL_II:
        return Regime(case, b_star, lower_const=gamma_pq(pv, qv), upper_const=1.0)
    if case not in (COMPACT_III, COMPACT_IV):
        return Regime(case, b_star)
    lower = _scaled_power(
        "lower constant Gamma_pq (b/ln2)^b*", gamma_pq(pv, qv), bv / LN2, b_star, ScanCapExceeded
    )
    if case == COMPACT_IV:
        return Regime(case, b_star, lower_const=lower)
    upper = _scaled_power(
        "upper constant gamma_pqb (b/ln2 + 1)^b*",
        gamma_pqb(pv, qv, bv, b_star), bv / LN2 + 1.0, b_star, ScanCapExceeded,
    )
    exact = None
    if pv == 2.0 and qv == 2.0:
        exact = _scaled_power("exact constant (b/ln2)^b", 1.0, bv / LN2, bv, ScanCapExceeded)
    return Regime(case, b_star, lower_const=lower, upper_const=upper, exact_const=exact)


def _finite(what: str, value, error: type = EntropyError) -> float:
    """value, or ``error`` naming ``what`` when it is not a finite real
    float."""
    if not (isinstance(value, float) and math.isfinite(value)):
        raise error(f"{what} leaves the float range")
    return value


def _scaled_power(
    what: str, factor: float, base: float, exponent: float, error: type = EntropyError
) -> float:
    """factor * base**exponent, or ``error`` naming ``what`` when the value
    leaves the (real) float range."""
    try:
        out = factor * base**exponent
    except OverflowError:
        out = math.inf
    return _finite(what, out, error)


class EntropyBand(NamedTuple):
    """Two-sided asymptotic enclosure in bits (leading terms only)."""

    lower_bits: float
    upper_bits: float
    upper_constant_unconfirmed: bool = False


def canonical_band(
    p: ExponentLike, q: ExponentLike, b: float, c: float, eps: float
) -> EntropyBand:
    """Leading-order band for canonical decay c/n^b in a compact regime.

    In the two-sided range the edges carry the constants above.  For
    p < q only the lower edge has a confirmed constant; the upper edge is
    returned at its known growth order (an extra log-log or log power)
    with constant 1 and flagged as unconfirmed.
    """
    _check_radius(eps)
    if c <= 0 or b <= 0:
        raise EntropyError("b and c must be positive")
    pe, qe = as_exponent(p), as_exponent(q)
    # the case alone: the band edges need none of classify's constants
    case, bst = _case(pe.value, qe.value, b, False, True)[:2]
    if case not in (COMPACT_III, COMPACT_IV):
        raise NonCompactRegime(f"no finite band in case {case}")
    lower = _scaled_power("lower band edge", b / LN2, gamma_pq(pe, qe) * c / eps, 1.0 / bst)
    if case == COMPACT_III:
        base = gamma_pqb(pe, qe, b, bst) * c / eps
        upper = _scaled_power("upper band edge", b / LN2 + 1.0, base, 1.0 / bst)
        return EntropyBand(lower, upper, False)
    loginv = math.log2(1.0 / eps)
    factor = math.log2(max(2.0, loginv)) if b >= 1.0 else loginv ** (1.0 - b)
    upper = _scaled_power("upper band edge", factor, eps, -1.0 / bst)
    return EntropyBand(lower, upper, True)


def hilbert_second_order(
    alpha1: float, alpha2: float, c1: float, c2: float, eps: float
) -> float:
    """Two-term p=q=2 expansion for decay c1/n^a1 + c2/n^a2.

    Requires alpha1 < alpha2 < alpha1 + 1/2 so the second term dominates
    the expansion error.
    """
    if not (0 < alpha1 < alpha2 < alpha1 + 0.5):
        raise EntropyError("need alpha1 < alpha2 < alpha1 + 1/2")
    _check_radius(eps)
    if c1 <= 0:
        raise EntropyError("c1 must be positive")
    frak_a = alpha1 - alpha2 + 1.0
    scale = _scaled_power("Hilbert leading term", alpha1, c1, 1.0 / alpha1) / LN2
    lead = _scaled_power("Hilbert leading term", scale, eps, -1.0 / alpha1)
    scale = _scaled_power("Hilbert second-order term", c2, c1, (1.0 - alpha2) / alpha1)
    second = _scaled_power(
        "Hilbert second-order term", scale / (LN2 * frak_a), eps, -frak_a / alpha1
    )
    return _finite("Hilbert second-order expansion", lead + second)


def entropy_estimator(model: SemiAxisModel, eps: float) -> float:
    """sum_{n <= d*} log2(mu_n / eps) with d* = max{n : mu_n > eps}.

    Reproduces the p = q = 2 asymptotic orders; the reference level eps
    (instead of mu_{d*}) changes the value by O(1) only.  d* is the last
    index ``passing`` finds, as for ``counting``.  The sum is the midpoint
    of the model's log-product enclosure minus d* log2 eps; a sum that
    leaves the float range raises ScanCapExceeded.
    """
    _check_radius(eps)
    d_star = passing(model, Threshold(1, eps)).last
    if d_star == 0:
        return 0.0
    value = model.log_product(d_star).mid - d_star * math.log2(eps)
    if not math.isfinite(value):
        raise ScanCapExceeded(f"the sum over d* = {d_star:.3g} axes leaves the float range")
    return value


def effective_dimension(
    model: SemiAxisModel, p: ExponentLike, q: ExponentLike, eps: float
) -> int:
    """max{d : d^(1/q-1/p) mu_d > eps}; 0 when the surrogate never exceeds eps.

    This is the dimension-selection heuristic for covering at radius eps:
    the surrogate must eventually decay (decay index above 1/q - 1/p).
    The index is the last one ``passing`` finds at e = 1/q - 1/p.
    """
    _check_radius(eps)
    rp, rq = as_exponent(p).reciprocal(), as_exponent(q).reciprocal()
    e = rq - rp
    b = model.decay_index
    if b is not None and b < e:
        raise ScanCapExceeded(
            f"d^(1/q-1/p) mu_d grows without bound: decay index b = {b} "
            f"is below 1/q - 1/p = {e}"
        )
    return passing(model, Threshold(1, eps), e).last
