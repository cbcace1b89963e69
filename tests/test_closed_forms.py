"""Closed-form log-products, the searched effective dimension and the
searched block cut.

Each model encloses sum_{n <= d} log2 mu_n (in O(1) for canonical laws,
and past a 1,024-axis head for two-term laws), and ``effective_dimension``
searches past the model's monotone start for every 1/q - 1/p.  Both are
checked against per-axis walks over the golden model grid, the two-term
log-products also against a 40-digit mpmath sum of the exact law, and the
calls that used to walk every axis up to d* are held to a time budget.
"""

import collections
import functools
import itertools
import math
import random
import time

import mpmath
import per_axis_reference as ref
import pytest
from forwarding import Forwarding
from test_golden import EXPONENTS, MODELS, RADII

from ellentropy.asymptotics import effective_dimension, entropy_estimator
from ellentropy.block_decomp import infinite_upper_bound
from ellentropy.constants import as_exponent, volume_ratio
from ellentropy.errors import EntropyError, ScanCapExceeded
from ellentropy.sequences import (
    AXIS_CAP,
    Canonical,
    Tabulated,
    TwoTermPolynomial,
    cesaro_log_ratio,
)

INF = math.inf
CUTS = (1, 2, 3, 10, 41, 100, 10**3, 1024, 1025, 10**4, 10**5, 10**6)


@pytest.mark.parametrize("label", MODELS)
def test_log_product_encloses_the_per_axis_sum(label):
    model, _ = MODELS[label]
    for d in CUTS:
        if model.length is not None and d > model.length:
            continue
        reference = ref.log_product(model, d)
        enclosure = model.log_product(d)
        assert enclosure.lo <= reference <= enclosure.hi, (label, d)
        assert enclosure.width <= 1e-10 * max(1.0, abs(reference)), (label, d)


# Two-term laws beyond the golden grid: large second terms whose heads stop
# where x = |c2/c1| n**-delta falls to 1/16, x = 0.88 after a head of 1,024
# axes (all three through the series past the head), and x = 3.4 there,
# where the series does not converge (through the per-axis fallback).
TWO_TERM = {
    **{label: MODELS[label][0] for label in MODELS if label.startswith("two-term")},
    "second-dominant": TwoTermPolynomial(1.0, 300.0, 1.2, 3.0),
    "large-r": TwoTermPolynomial(1.0, 1e4, 1.2, 3.0),
    "slow-series": TwoTermPolynomial(1.0, 900.0, 1.0, 2.0),
    "per-axis": TwoTermPolynomial(1.0, 8.0538, 0.9712, 1.097),
}
MP_CUTS = (1024, 1025, 2000, 2 * 10**4)


@functools.lru_cache(maxsize=None)
def _mp_log_products(label):
    """sum_{n <= d} log2 mu_n of the exact law (the floats' exact values)
    for each d in MP_CUTS, summed term by term at 40 digits."""
    model = TWO_TERM[label]
    with mpmath.workdps(40):
        c1, c2, a1, a2 = (mpmath.mpf(v) for v in (model.c1, model.c2, model.alpha1, model.alpha2))
        sums, total = {}, mpmath.mpf(0)
        for n in range(1, max(MP_CUTS) + 1):
            total += mpmath.log(c1 * mpmath.power(n, -a1) + c2 * mpmath.power(n, -a2))
            if n in MP_CUTS:
                sums[n] = total / mpmath.log(2)
    return sums


@pytest.mark.parametrize("label", TWO_TERM)
def test_two_term_log_product_encloses_the_exact_sum(label):
    for d, exact in _mp_log_products(label).items():
        enclosure = TWO_TERM[label].log_product(d)
        assert mpmath.mpf(enclosure.lo) <= exact <= mpmath.mpf(enclosure.hi), (label, d)
        assert enclosure.width <= 1e-10 * max(1.0, abs(float(exact))), (label, d)


def _outcome(fn):
    try:
        return fn()
    except EntropyError as exc:
        return type(exc)


@pytest.mark.parametrize("label", MODELS)
def test_searched_effective_dimension_equals_the_scan(label):
    # the golden grid's cells: answers up to about 10^6
    model, b = MODELS[label]
    for p, q in itertools.product(EXPONENTS, EXPONENTS):
        if b is not None and b - (1 / q - 1 / p) < 0.5:
            continue
        for eps in RADII:
            assert _outcome(lambda: effective_dimension(model, p, q, eps)) == _outcome(
                lambda: ref.effective_dimension(model, p, q, eps)
            ), (label, p, q, eps)


# Tables that are not unimodal under d^(1/q-1/p): a plateau times a rising
# power, alone and continued by a canonical tail.
TABLES = {
    "plateau": Tabulated((1.0, 0.5, 0.5, 0.5, 0.5)),
    "plateau-tail": Tabulated((1.0, 0.5, 0.5, 0.5, 0.5), Canonical(1.0, 2.5)),
}
WALK = 5000


def test_non_unimodal_tables():
    # d mu_d = 1, 1, 1.5, 2, 2.5 and sqrt(d) mu_d = 1, .71, .87, 1, 1.12,
    # 1.02, .94, .88, ... (the tail is 2.5 / sqrt(d) from d = 6 on)
    assert effective_dimension(TABLES["plateau"], INF, 1, 1.0) == 5
    assert effective_dimension(TABLES["plateau-tail"], 2, 1, 0.9) == 7


@pytest.mark.parametrize("label", [*MODELS, *TABLES])
def test_effective_dimension_equals_the_walk(label):
    """The search equals max{d <= WALK : d^e mu_d > eps}, walked with no
    stop rule, wherever that maximum is below WALK and e = 1/q - 1/p lies
    below the decay index (at or past it the exact surrogate never falls)."""
    model = MODELS[label][0] if label in MODELS else TABLES[label]
    b = model.decay_index
    end = WALK if model.length is None else min(WALK, model.length)
    for p, q in itertools.product(EXPONENTS, EXPONENTS):
        e = as_exponent(q).reciprocal() - as_exponent(p).reciprocal()
        if b is not None and e >= b:
            continue
        values = [d**e * model.axis(d) for d in range(1, end + 1)]
        for eps in RADII + (0.9, 1.0):
            walked = max((d for d, v in enumerate(values, 1) if v > eps), default=0)
            if walked < WALK:
                assert effective_dimension(model, p, q, eps) == walked, (label, p, q, eps)


def test_effective_dimension_tests_only_the_last_head_index():
    # d^0.5 mu_d peaks near d = 1.4e6 below 0.9: the rising head before it
    # passes nowhere, which its last index alone shows
    start = time.perf_counter()
    assert effective_dimension(TwoTermPolynomial(1.0, -0.5, 0.515, 0.6), 2, 1, 0.9) == 0
    assert time.perf_counter() - start < 0.05


def test_effective_dimension_equals_the_walk_on_rising_heads():
    """Random laws with c2 < 0 whose d^e mu_d, at a grid exponent e > 0,
    peaks at a random index up to 10^4: the search equals
    max{d <= 20,000 : d^e mu_d > eps} wherever that maximum is below
    20,000.  The radii sit near random values of the surrogate and between
    its values at the last head index and the monotone start."""
    rng = random.Random(11)
    walk, found = 20_000, collections.Counter()
    pairs = [(p, q) for p, q in itertools.product(EXPONENTS, EXPONENTS) if 1 / q > 1 / p]
    for _ in range(40):
        p, q = rng.choice(pairs)
        e = as_exponent(q).reciprocal() - as_exponent(p).reciprocal()
        delta, u, peak = rng.uniform(0.05, 1.0), rng.uniform(0.05, 0.95), 10 ** rng.uniform(0.5, 4)
        # the peak of d^e (c1 d^-a1 - u c1 d^-a2) lies at peak for this a1
        a1 = e + delta / (peak**delta / u - 1.0)
        c1 = rng.uniform(0.5, 2.0)
        model = TwoTermPolynomial(c1, -u * c1, a1, a1 + delta)
        start = model.monotone_start(e)
        values = [d**e * model.axis(d) for d in range(1, walk + 1)]
        picks = [int(10 ** rng.uniform(0, 4.3)) - 1 for _ in range(4)]
        radii = [values[i] * rng.uniform(0.99, 1.01) for i in picks]
        radii.append(0.5 * (values[start - 2] + values[start - 1]))
        for eps in radii:
            walked = max((d for d, v in enumerate(values, 1) if v > eps), default=0)
            if walked < walk:
                assert effective_dimension(model, p, q, eps) == walked, (model, p, q, eps)
                found["none" if walked == 0 else "head" if walked < start else "tail"] += 1
    assert min(found["none"], found["head"], found["tail"]) >= 5, found


def test_effective_dimension_at_the_decay_index():
    # Canonical(0.5, 1) at 1/q - 1/p = 0.5: the surrogate is 1 for every d
    assert effective_dimension(Canonical(0.5, 1.0), 2, 1, 2.0) == 0
    with pytest.raises(ScanCapExceeded):
        effective_dimension(Canonical(0.5, 1.0), 2, 1, 0.5)
    # 1 - 0.5 d^-0.5 rises towards 1 for ever: no index to search from
    start = time.perf_counter()
    for eps in (0.5, 2.0):
        with pytest.raises(ScanCapExceeded):
            effective_dimension(TwoTermPolynomial(1.0, -0.5, 0.5, 1.0), 2, 1, eps)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "model",
    [
        TwoTermPolynomial(1.0, -0.5, 0.5005, 0.5015),  # peak near d = 1.2e176
        TwoTermPolynomial(1.0, -0.5, 0.500001, 0.501001),  # peak past the floats
    ],
    ids=repr,
)
def test_effective_dimension_raises_at_once_on_a_far_peak(model):
    # at 1/q - 1/p = 0.5 just below alpha1, d^0.5 mu_d rises far past the cap
    start = time.perf_counter()
    with pytest.raises(ScanCapExceeded):
        effective_dimension(model, 2, 1, 0.5)
    assert time.perf_counter() - start < 1.0


def test_effective_dimension_of_ten_billion_returns_at_once():
    # d^(1/2) / d > 1e-5 up to d = 10^10, past the 10^8 axes an exact
    # entropy visits
    start = time.perf_counter()
    assert effective_dimension(Canonical(1, 1), 2, 1, 1e-5) == 9_999_999_999
    assert time.perf_counter() - start < 1.0


def test_block_cut_reaches_a_billion():
    # the tail mu_{d+1} = 1/(d+1) drops to 1e-9 at d = 10^9 - 1
    _, cert = infinite_upper_bound(Canonical(1, 1), INF, INF, 1e-7)
    assert cert.effective_dimension == 9_999_999
    _, cert = infinite_upper_bound(Canonical(1, 1), INF, INF, 1e-9)
    assert cert.effective_dimension == 999_999_999


# (p, q) with 1/q - 1/p exact in floats: the rounding of the float
# exponent e would move an answer near 10^15 by many units
DYADIC_PAIRS = ((2.0, 2.0), (INF, 2.0), (2.0, 1.0), (INF, 1.0), (1.0, INF), (INF, INF), (1.0, 2.0))


def _scale(c, level, slope):
    """(c / level)**(1 / slope), the real crossing of a canonical law, to 40
    digits."""
    with mpmath.workdps(40):
        return float((mpmath.mpf(c) / level) ** (1 / mpmath.mpf(slope)))


def test_answers_past_the_axis_cap_follow_the_scale_law():
    # d^e c d^-b > eps for d < x = (c/eps)^(1/(b-e)), and the case-I cut is
    # the last d with c d^-b > eps 2^(-1/q); x is near a half-integer
    # between 10^8 and 10^15, so the exact search lies within 1 of it
    checked = 0
    for (b, c), (p, q), x in itertools.product(
        ((1.0, 1.0), (2.0, 0.5), (0.75, 3.0), (1.5, 0.7)),
        DYADIC_PAIRS,
        (1.37e8 + 0.5, 2.9e10 + 0.5, 4.4e12 + 0.5, 6.1e14 + 0.5),
    ):
        e = 1 / q - 1 / p
        if b - e < 0.5:
            continue
        model = Canonical(b, c)
        eps = c * x ** -(b - e)
        scale = _scale(c, eps, b - e)
        assert abs(effective_dimension(model, p, q, eps) - scale) <= 1, (b, p, q, x)
        checked += 1
        cut = _scale(c, eps * 2.0 ** (-1 / q), b)
        if p <= q and cut < 1e15:
            _, cert = infinite_upper_bound(model, p, q, eps)
            assert abs(cert.effective_dimension - cut) <= 1, (b, p, q, x)
            checked += 1
    assert checked > 100


@pytest.mark.parametrize(
    "model, p, q, eps",
    [
        (Canonical(1, 1), 2.0, 1.0, 1e-5),  # case II, d = 4e10
        (Canonical(1, 1), INF, INF, 1e-9),  # d = 1e9
        (Canonical(2, 0.5), 2.0, 2.0, 1e-17),  # d = 2.7e8
        (TwoTermPolynomial(1.0, -0.3, 1.6, 2.1), 1.5, 1.5, 1e-14),  # d = 7.5e8
        (MODELS["slow-tail"][0], 2.0, 2.0, 1e-8),  # d = 1.6e9
        (MODELS["slow-tail"][0], 3.0, 2.0, 1e-6),  # case II, d = 1.3e8
    ],
    ids=[
        "canonical-2-1",
        "canonical-inf-inf",
        "canonical-b2",
        "two-term",
        "slow-tail-2-2",
        "slow-tail-3-2",
    ],
)
def test_bound_past_the_axis_cap_covers_its_own_section(model, p, q, eps):
    # covering the body at eps covers its d-dimensional section, which
    # needs at least vol(section) / vol(eps B_q) balls
    result, cert = infinite_upper_bound(model, p, q, eps)
    d = cert.effective_dimension
    assert d > 10**8
    volume = d * (
        math.log2(volume_ratio(p, q, d)) + model.log_product(d).lo / d - math.log2(eps)
    )
    assert 0 < volume <= result.bits


def test_block_cut_past_2_53_raises_after_one_tail_sum():
    # gamma = b - (1/q - 1/p) = 0.1 puts the cut near 3.2e26
    counted = Forwarding(Canonical(0.6, 1))
    with pytest.raises(ScanCapExceeded, match=r"2\*\*53"):
        infinite_upper_bound(counted, 2, 1, 0.01)
    assert counted.tail_calls == 1


def test_two_term_per_axis_fallback_raises_at_once_past_the_axis_cap():
    # x = 3.4 after the 1,024-axis head: the series does not converge, so
    # the log-product falls back to a per-axis sum, 43 ms per 10^5 axes
    start = time.perf_counter()
    with pytest.raises(ScanCapExceeded):
        TWO_TERM["per-axis"].log_product(AXIS_CAP + 1)
    assert time.perf_counter() - start < 1.0
    # x = 0.88 there: the series runs, with no cap on its terms
    enclosure = TWO_TERM["slow-series"].log_product(AXIS_CAP + 1)
    assert enclosure.lo < enclosure.hi < 0
    assert time.perf_counter() - start < 1.0


def test_effective_dimension_raises_at_once_without_an_answer():
    # b = 0.5 < 1/q - 1/p = 1: d^(1/q-1/p) mu_d grows without bound
    start = time.perf_counter()
    with pytest.raises(ScanCapExceeded, match="0.5"):
        effective_dimension(Canonical(0.5, 1.0), INF, 1, 0.5)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "call, budget",
    [
        (lambda: entropy_estimator(Canonical(1, 1), 1e-6), 0.05),
        (lambda: infinite_upper_bound(Canonical(1, 1), INF, INF, 1e-6), 0.05),
        (lambda: effective_dimension(Canonical(1, 1), 2, 2, 1e-6), 0.05),
        (lambda: effective_dimension(Canonical(1, 1), 2, 1, 1e-3), 0.05),
        (lambda: cesaro_log_ratio(Canonical(1, 1), 10**6), 0.05),
        (lambda: infinite_upper_bound(Canonical(1, 1), 2, 1, 1e-3), 1.0),
        (lambda: entropy_estimator(TwoTermPolynomial(1, 1, 1, 1.25), 1e-6), 0.05),
        (lambda: infinite_upper_bound(TwoTermPolynomial(1, 1, 1, 1.25), INF, INF, 1e-6), 0.05),
        (lambda: cesaro_log_ratio(TwoTermPolynomial(1, 1, 1, 1.25), 10**6), 0.05),
        (lambda: TwoTermPolynomial(1, 1, 1, 1.25).log_product(10**6), 0.05),
        (lambda: TwoTermPolynomial(1, 900, 1, 2).log_product(10**5), 5e-3),
        (lambda: TwoTermPolynomial(1, -0.9, 0.01, 0.05).log_product(10**5), 5e-3),
    ],
    ids=[
        "estimator",
        "bound-sup-norm",
        "effdim",
        "effdim-2-1",
        "cesaro",
        "bound-2-1",
        "two-term-estimator",
        "two-term-bound-sup-norm",
        "two-term-cesaro",
        "two-term-log-product",
        "slow-series-log-product",
        "rising-head-log-product",
    ],
)
def test_answer_does_not_walk_to_d_star(call, budget):
    start = time.perf_counter()
    call()
    assert time.perf_counter() - start < budget
