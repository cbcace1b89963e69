"""Exact sup-norm entropy of hyperrectangles and optimal coverings.

An infinity-ellipsoid is the hyperrectangle prod [-mu_n, mu_n].  Its
sup-norm covering number factors over the axes:

    N(eps) = prod_n ceil(mu_n / eps),

so the entropy is an exact integer log.  The same number has a second,
counting-function form

    H(eps) = sum_k log2(1 + 1/k) * M_k(eps),   M_k(t) = #{n : mu_n > k t}.

Both routes are driven by the exact rational ratios mu_n / eps (floats are
exact rationals).  The per-axis counts take few distinct values, so they
are computed as runs: at each axis the count v is taken once, and the
index search of ``sequences`` jumps to the last axis whose count is still
v.  The work is one search per distinct count; head axes, whose counts all
differ, cost one step each.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

from . import constants
from .errors import EnumerationTooLarge, InvalidModel, ScanCapExceeded, UnboundedCount
from .numerics import _ceil_ratio, _check_radius, kahan_sum
from .sequences import AXIS_CAP, SemiAxisModel, axis

ENUMERATION_CAP = 10**7

Runs = Tuple[Tuple[int, int], ...]


@dataclass(frozen=True)
class HyperrectEntropy:
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

    A rising two-term head is taken axis by axis; past it each run ends at
    the last axis with mu_n > (v - 1) eps.  A dimension above the cap
    raises before any run is built.
    """
    _check_radius(eps)
    feps = Fraction(eps)
    runs: List[Tuple[int, int]] = []

    def add(v: int, m: int) -> None:
        if runs and runs[-1][0] == v:
            m += runs.pop()[1]
        runs.append((v, m))

    start = model.monotone_start()
    for n in range(1, start):
        v = _ceil_ratio(axis(model, n), feps)
        if v > 1:
            add(v, 1)
    try:
        last = model.last_exceeding(start, feps)
    except UnboundedCount as exc:
        raise ScanCapExceeded(f"effective dimension beyond the cap {AXIS_CAP}") from exc
    dim = sum(m for _, m in runs) + last - start + 1
    if dim > AXIS_CAP:
        raise ScanCapExceeded(f"effective dimension {dim} exceeds the cap {AXIS_CAP}")
    n = start
    while n <= last:
        v = _ceil_ratio(axis(model, n), feps)
        end = model.last_exceeding(n + 1, (v - 1) * feps)
        add(v, end - n + 1)
        n = end + 1
    return tuple(runs), dim


def _run_product(runs: Runs) -> int:
    """prod v**m over the runs, multiplied as a balanced tree."""
    factors = [v**m for v, m in runs] or [1]
    while len(factors) > 1:
        factors = [math.prod(factors[i : i + 2]) for i in range(0, len(factors), 2)]
    return factors[0]


def exact_entropy(model: SemiAxisModel, eps: float) -> HyperrectEntropy:
    """Exact sup-norm entropy; the axis product is accumulated as a big
    integer before taking the log, so the bits value is exact up to one
    float rounding."""
    runs, dim = _count_runs(model, eps)
    return HyperrectEntropy(bits=math.log2(_run_product(runs)), count_runs=runs, effective_dim=dim)


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
    feps = Fraction(eps)
    counts = [_ceil_ratio(a, feps) if a > eps else 1 for a in axes]
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


def canonical_asymptotic(b: float, c: float, eps: float) -> float:
    """Leading term c^(1/b) eps^(-1/b) S(b) of the canonical exact entropy.

    The remainder is O(log(1/eps)) as eps -> 0.
    """
    _check_radius(eps)
    return c ** (1.0 / b) * eps ** (-1.0 / b) * constants.zeta_series_constant(b)
