"""Per-axis references for the exact sup-norm entropy, the log-product
and the effective dimension.

``ellentropy.hyperrect`` groups the axes into runs of equal count and
searches for each run's end.  The functions here take the direct route
instead: one exact rational division per axis, scanned in axis order, and
the threshold counts M_k read off a histogram of those counts.  They are
the oracle the grouped computation is tested against.

Likewise ``log_product`` sums log2 mu_n axis by axis, where the models
enclose the sum in closed form, and ``effective_dimension`` walks every
index up to its answer (with a stop rule past any table), where the
library searches past the monotone start.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional

from ellentropy.constants import ExponentLike, as_exponent
from ellentropy.errors import EntropyError, InvalidModel, ScanCapExceeded
from ellentropy.numerics import kahan_sum
from ellentropy.sequences import SemiAxisModel, Tabulated, axis

AXIS_CAP = 10**8


def ceil_fraction(r: Fraction) -> int:
    # Exact ceiling; an integer ratio keeps its value.
    return -((-r.numerator) // r.denominator)


def axis_ratios(model: SemiAxisModel, eps: float) -> List[Fraction]:
    """Exact ratios mu_n/eps for every axis with mu_n > eps.

    The supported families are unimodal at worst (a negative second term
    can lift the head of a two-term sequence), so the scan only stops once
    the axes sit at or below eps while non-increasing.
    """
    if eps <= 0:
        raise InvalidModel("eps must be positive")
    feps = Fraction(eps)
    ratios: List[Fraction] = []
    table = isinstance(model, Tabulated) and model.tail is None
    prev = None
    for n in range(1, AXIS_CAP + 1):
        if table and n > len(model.values):
            break
        mu = axis(model, n)
        if mu > eps:
            ratios.append(Fraction(mu) / feps)
        elif prev is not None and mu <= prev:
            break
        prev = mu
    else:
        raise ScanCapExceeded("axis scan exceeded cap; model does not decay?")
    return ratios


def per_axis_counts(model: SemiAxisModel, eps: float) -> tuple:
    """ceil(mu_n/eps) for every axis needing more than one point."""
    return tuple(ceil_fraction(r) for r in axis_ratios(model, eps))


def product(model: SemiAxisModel, eps: float) -> int:
    """The covering number as a sequential product of the per-axis counts."""
    return math.prod(per_axis_counts(model, eps))


def threshold_counts(model: SemiAxisModel, eps: float) -> List[int]:
    """[M_1, ..., M_K] with K = max per-axis count - 1, from exact ratios."""
    counts = per_axis_counts(model, eps)
    if not counts:
        return []
    K = max(counts) - 1
    hist = [0] * (K + 2)
    for m in counts:
        hist[1] += 1
        hist[m] -= 1  # axis contributes to M_k for k = 1..m-1
    M = []
    running = 0
    for k in range(1, K + 1):
        running += hist[k]
        M.append(running)
    return M


def counting_product(model: SemiAxisModel, eps: float) -> Fraction:
    """prod_k ((k+1)/k)**M_k as an exact rational.

    Telescoping makes this equal to the integer covering number; the
    equality is asserted at the integer level.
    """
    out = Fraction(1)
    for k, m in enumerate(threshold_counts(model, eps), start=1):
        out *= Fraction(k + 1, k) ** m
    return out



def log_product(model: SemiAxisModel, d: int) -> float:
    """Sum of log2(mu_n) for n = 1..d (log2 of the axis product)."""
    if d < 1:
        raise InvalidModel("d must be >= 1")
    return kahan_sum(math.log2(model.axis(n)) for n in range(1, d + 1))


SCAN_CAP = 10**8


def _largest_index_exceeding(
    surrogate, eps: float, finite_end: Optional[int], table: int
) -> int:
    """max{d : surrogate(d) > eps}, 0 if none.

    Past the first ``table`` indices the supported families give
    surrogates of the form A d^u + B d^v (at most one sign change of the
    derivative), so once the value sits at or below eps while
    non-increasing it never recovers.  A table need not be unimodal, so
    every index inside it is tested.  ``finite_end`` bounds the scan for
    complete finite tables.
    """
    last = 0
    prev = None
    end = SCAN_CAP if finite_end is None else min(SCAN_CAP, finite_end)
    for d in range(1, end + 1):
        val = surrogate(d)
        if val > eps:
            last = d
        elif d > table and prev is not None and val <= prev:
            return last
        prev = val
    if finite_end is not None and end == finite_end:
        return last
    raise ScanCapExceeded(f"surrogate still above eps at the scan cap {SCAN_CAP}")


def effective_dimension(
    model: SemiAxisModel, p: ExponentLike, q: ExponentLike, eps: float
) -> int:
    """max{d : d^(1/q-1/p) mu_d > eps}; 0 when the surrogate never exceeds eps.

    This is the dimension-selection heuristic for covering at radius eps:
    the surrogate must eventually decay (decay index above 1/q - 1/p).
    """
    if eps <= 0:
        raise EntropyError("eps must be positive")
    rp, rq = as_exponent(p).reciprocal(), as_exponent(q).reciprocal()
    e = rq - rp
    table = len(model.values) if isinstance(model, Tabulated) else 0
    return _largest_index_exceeding(
        lambda d: d**e * axis(model, d), eps, model.length, table
    )
