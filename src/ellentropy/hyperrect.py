"""Exact sup-norm entropy of hyperrectangles and optimal coverings.

An infinity-ellipsoid is the hyperrectangle prod [-mu_n, mu_n].  Its
sup-norm covering number factors over the axes:

    N(eps) = prod_n ceil(mu_n / eps),

so the entropy is an exact integer log.  The same number has a second,
counting-function form

    H(eps) = sum_k log2(1 + 1/k) * M_k(eps),   M_k(t) = #{n : mu_n > k t}.

Both routes are driven by the exact rational ratios mu_n / eps (floats are
exact rationals), decided in float arithmetic wherever that is exact (see
``numerics.Threshold`` and ``numerics._ceil_ratio``).  The per-axis counts
take few distinct values, so they are computed as runs: at each axis the
count v is taken once, and an index search jumps to the last axis whose
count is still v.  The work is one search per distinct count, in a rising
head as past it.  ``bits`` is log2 of the exact product, rounded as
``math.log2`` rounds it, but taken from two 192-bit products that enclose
it; the full integer is built only for ``exact_product`` or when those
two cannot decide the rounding.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .errors import EnumerationTooLarge, InvalidModel, ScanCapExceeded
from .numerics import Threshold, _ceil_ratio, _check_radius, kahan_sum
from .sequences import AXIS_CAP, SemiAxisModel, _above, axis, last_passing, passing

ENUMERATION_CAP = 10**7

Runs = Tuple[Tuple[int, int], ...]


class HyperrectEntropy(NamedTuple):
    """Exact entropy of a hyperrectangle in sup-norm.

    ``count_runs`` holds the counts ceil(mu_n/eps) of the axes needing more
    than one point as (count, multiplicity) pairs, one per maximal run of
    equal counts, in axis order; axes already inside one ball are omitted.
    ``per_axis_counts`` expands the runs to one count per axis.
    """

    bits: float
    count_runs: Runs
    effective_dim: int

    @property
    def per_axis_counts(self) -> Tuple[int, ...]:
        return tuple(
            itertools.chain.from_iterable(itertools.repeat(v, m) for v, m in self.count_runs)
        )

    def exact_product(self) -> int:
        """The covering number as an exact integer."""
        return _run_product(self.count_runs)


def _count_runs(model: SemiAxisModel, eps: float) -> Tuple[Runs, int]:
    """The runs of counts ceil(mu_n/eps) > 1 in axis order, and their total
    multiplicity (the effective dimension).

    The axes with mu_n > eps are those ``passing`` finds; their number is
    checked against the cap before any run is built.  On a stretch of the
    head, where mu_n does not fall, a run of count v ends at the last axis
    with mu_n <= v eps; past the head, at the last axis with
    mu_n > (v - 1) eps.
    """
    _check_radius(eps)
    found = passing(model, Threshold(1, eps))
    dim = found.count
    if dim > AXIS_CAP:
        raise ScanCapExceeded(f"effective dimension {dim} exceeds the cap {AXIS_CAP}")
    runs: List[Tuple[int, int]] = []

    def add(v: int, m: int) -> None:
        if runs and runs[-1][0] == v:
            m += runs.pop()[1]
        runs.append((v, m))

    for stretch in found.head:
        n = stretch.start
        while n < stretch.stop:
            v = _ceil_ratio(axis(model, n), eps)
            t = Threshold(v, eps)
            end = last_passing(lambda m: not _above(model, m, t), n, stretch.stop - 1)
            add(v, end - n + 1)
            n = end + 1
    n = found.prefix.start
    while n < found.prefix.stop:
        v = _ceil_ratio(axis(model, n), eps)
        end = model.last_exceeding(n + 1, Threshold(v - 1, eps))
        add(v, end - n + 1)
        n = end + 1
    return tuple(runs), dim


def _run_product(runs: Runs) -> int:
    """prod v**m over the runs, multiplied as a balanced tree."""
    factors = [v**m for v, m in runs] or [1]
    while len(factors) > 1:
        factors = [math.prod(factors[i : i + 2]) for i in range(0, len(factors), 2)]
    return factors[0]


# Bits kept by the directed products of ``_directed_log2``; the largest
# run power (in bits) taken exactly; the size of an exact partial product
# that is multiplied in.
_PRODUCT_BITS = 192
_EXACT_BITS = 2**14
_FOLD_BITS = 1024


def _cut(m: int, e: int, up: bool) -> Tuple[int, int]:
    """m * 2**e with m cut to ``_PRODUCT_BITS`` bits, rounded down or up."""
    s = m.bit_length() - _PRODUCT_BITS
    if s <= 0:
        return m, e
    return (-(-m >> s) if up else m >> s), e + s


def _power(v: int, m: int, up: bool) -> Tuple[int, int]:
    """v**m rounded down or up to ``_PRODUCT_BITS`` bits, as (mantissa,
    exponent), by binary powering that rounds every product the same way."""
    base, be = _cut(v, 0, up)
    acc, ae = 1, 0
    while True:
        if m & 1:
            acc, ae = _cut(acc * base, ae + be, up)
        m >>= 1
        if not m:
            return acc, ae
        base, be = _cut(base * base, 2 * be, up)


def _round53(m: int, e: int) -> Tuple[int, int]:
    """m * 2**e rounded to 53 bits, ties to even, as (mantissa, exponent)."""
    s = m.bit_length() - 53
    if s <= 0:
        return m, e
    q, r = m >> s, m & ((1 << s) - 1)
    half = 1 << (s - 1)
    if r > half or (r == half and q & 1):
        q += 1
        if q >> 53:
            q, s = q >> 1, s + 1
    return q, e + s


def _directed_log2(runs: Runs) -> Optional[float]:
    """math.log2 of prod v**m over the runs without the full product, or
    None when the enclosure below cannot decide it.

    Two products enclose the exact one.  Run powers of at most
    ``_EXACT_BITS`` bits are multiplied exactly, and the partial product is
    folded in once it passes ``_FOLD_BITS`` bits; larger powers come from
    ``_power``.  After each fold both products are cut to
    ``_PRODUCT_BITS`` bits, one rounding down and the other up.

    CPython's log2 of a positive int rounds it to 53 bits, ties to even;
    below 2**1024 it takes log2 of that float, and from 2**1024 on log2 of
    its mantissa in [1/2, 1) plus its exponent.  Rounding is monotone, so
    when both ends round alike the exact product rounds the same way, and
    the same steps give its log2.
    """
    lo, le, hi, he = 1, 0, 1, 0
    exact = 1
    for v, m in runs:
        if m * v.bit_length() <= _EXACT_BITS:
            exact *= v**m
            if exact.bit_length() <= _FOLD_BITS:
                continue
        else:
            a, ae = _power(v, m, False)
            b, be = _power(v, m, True)
            lo, le, hi, he = lo * a, le + ae, hi * b, he + be
        lo, le = _cut(lo * exact, le, False)
        hi, he = _cut(hi * exact, he, True)
        exact = 1
    rounded = _round53(lo * exact, le)
    if rounded != _round53(hi * exact, he):
        return None
    q, e = rounded
    if q.bit_length() + e <= 1024:
        return math.log2(math.ldexp(q, e))
    return math.log2(math.ldexp(q, -53)) + (e + 53)


def exact_entropy(model: SemiAxisModel, eps: float) -> HyperrectEntropy:
    """Exact sup-norm entropy: the runs of per-axis counts, and ``bits``,
    equal bit for bit to math.log2 of their exact integer product.

    The bits come from the 192-bit directed products of ``_directed_log2``;
    only when those cannot decide the rounding is the full product built.
    """
    runs, dim = _count_runs(model, eps)
    bits = _directed_log2(runs)
    if bits is None:
        bits = math.log2(_run_product(runs))
    return HyperrectEntropy(bits=bits, count_runs=runs, effective_dim=dim)


def exact_entropy_counting(model: SemiAxisModel, eps: float) -> float:
    """The counting-function form sum_k log2(1+1/k) M_k(eps), in bits.

    M_k is constant for k between adjacent distinct counts k1 < k2 (k1 = 1
    below the smallest): there it is #{n : ceil(mu_n/eps) >= k2}, and the
    terms for k in [k1, k2) telescope to M_k * log2(k2/k1).
    """
    multiplicity = Counter()
    for v, m in _count_runs(model, eps)[0]:
        multiplicity[v] += m
    counts = sorted(multiplicity, reverse=True)
    M = 0
    terms = []
    for k2, k1 in zip(counts, counts[1:] + [1]):
        M += multiplicity[k2]
        terms.append(M * math.log2(k2 / k1))
    return kahan_sum(terms)


def optimal_covering(axes: Sequence[float], eps: float) -> List[Tuple[float, ...]]:
    """The optimal product-grid covering of prod [-mu_i, mu_i] in sup-norm.

    Axis i carries m_i = ceil(mu_i/eps) points at -mu_i + (2j-1) mu_i/m_i;
    the half-spacing mu_i/m_i never exceeds eps, so every point of the
    hyperrectangle is within eps of a center (closed balls).  The center
    count equals the exact covering number.
    """
    _check_radius(eps)
    if any(a <= 0 for a in axes):
        raise InvalidModel("axes must be positive")
    counts = [_ceil_ratio(a, eps) if a > eps else 1 for a in axes]
    total = math.prod(counts)
    if total > ENUMERATION_CAP:
        # the exact count rides on the exception; render huge ones in log2
        shown = str(total) if total.bit_length() <= 64 else f"2^{math.log2(total):.2f}"
        raise EnumerationTooLarge(
            f"covering has {shown} centers, above the cap {ENUMERATION_CAP}", count=total
        )
    grids = []
    for a, m in zip(axes, counts):
        grids.append([-a + (2 * j - 1) * a / m for j in range(1, m + 1)])
    return list(itertools.product(*grids))
