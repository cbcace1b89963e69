"""The float-first exact threshold test and ceiling, against exact rationals.

``Threshold(k, eps).below(x)`` must equal Fraction(x) > k * Fraction(eps)
and ``_ceil_ratio(x, eps)`` must equal ceil(Fraction(x) / Fraction(eps))
for every float, including ties with the rounded threshold, k past 2**53,
thresholds past the float range, subnormal radii and quotients that are
integers, past 2**53 or infinite.
"""

import math
import sys
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from ellentropy.numerics import Threshold, _ceil_ratio

positive = st.floats(min_value=5e-324, max_value=sys.float_info.max)
subnormal = st.floats(min_value=5e-324, max_value=sys.float_info.min, exclude_max=True)
small_k = st.integers(1, 2**53 - 1)
large_k = st.integers(2**53, 2**200)


def _exact_below(k, eps, x):
    return Fraction(x) > Fraction(k) * Fraction(eps)


def _exact_ceil(x, eps):
    return math.ceil(Fraction(x) / Fraction(eps))


def _near(k, eps):
    try:
        return float(Fraction(k) * Fraction(eps))
    except OverflowError:
        return math.inf


def _neighbours(x):
    """x and the floats on either side of it, the positive finite ones."""
    out = [x, math.nextafter(x, 0.0), math.nextafter(x, math.inf)]
    return [v for v in out if 0.0 < v < math.inf]


def _check(k, eps, xs):
    t = Threshold(k, eps)
    assert t.near == _near(k, eps)
    for x in xs:
        assert t.below(x) == _exact_below(k, eps, x), (k, eps, x)


@settings(max_examples=400, deadline=None)
@given(k=st.one_of(small_k, large_k), eps=st.one_of(positive, subnormal), x=positive)
def test_below_at_random_floats(k, eps, x):
    _check(k, eps, [x])


@settings(max_examples=400, deadline=None)
@given(k=st.one_of(small_k, large_k), eps=st.one_of(positive, subnormal))
def test_below_at_the_rounded_threshold_and_its_neighbours(k, eps):
    near = _near(k, eps)
    xs = _neighbours(near) if near < math.inf else [sys.float_info.max]
    _check(k, eps, xs)


def test_below_where_the_product_rounds_twice():
    # mu = 1 at eps = 1e-16: the count k = 10**16 + 1 is past 2**53, where
    # float(k) * eps would round k before the product
    eps = 1e-16
    k = _exact_ceil(1.0, eps)
    assert k >= 2**53
    hits = 0
    for j in range(k - 40, k + 40):
        near = _near(j, eps)
        hits += near != float(j) * eps
        _check(j, eps, _neighbours(near) + [1.0])
    assert hits > 0


def test_below_past_the_float_range():
    big = sys.float_info.max
    _check(2, big, [big])
    assert Threshold(2, big).near == math.inf
    assert Threshold(2, big).below(math.inf)
    _check(10**10, 1e300, [big])
    _check(2**300, 1e300, [big])
    # below the overflow threshold the rounded product is the largest float
    _check(1, big, _neighbours(big))


@settings(max_examples=400, deadline=None)
@given(k=small_k, eps=subnormal)
def test_below_with_a_subnormal_radius(k, eps):
    near = _near(k, eps)
    _check(k, eps, _neighbours(near) + [eps])


@settings(max_examples=400, deadline=None)
@given(x=positive, eps=st.one_of(positive, subnormal))
def test_ceil_ratio_at_random_floats(x, eps):
    assert _ceil_ratio(x, eps) == _exact_ceil(x, eps)


@settings(max_examples=400, deadline=None)
@given(n=st.integers(1, 2**53), e=st.integers(-1070, 900))
def test_ceil_ratio_at_integer_quotients(n, e):
    # eps a power of two, so x = n eps is exact whenever n fits in 53 bits
    eps = math.ldexp(1.0, e)
    x = n * eps
    if 0.0 < x < math.inf and Fraction(x) == n * Fraction(eps):
        for v in _neighbours(x):
            assert _ceil_ratio(v, eps) == _exact_ceil(v, eps)
        assert _ceil_ratio(x, eps) == n


@settings(max_examples=400, deadline=None)
@given(x=st.floats(1e-10, 1e308), scale=st.floats(2.0**53, 1e300))
def test_ceil_ratio_past_two_to_the_53(x, scale):
    eps = x / scale
    if eps > 0.0:
        assert _ceil_ratio(x, eps) == _exact_ceil(x, eps)


def test_ceil_ratio_at_the_edges():
    big = sys.float_info.max
    cases = [
        (big, 5e-324),  # the quotient overflows to inf
        (big, 0.5),
        (1e308, 1e-10),
        (5e-324, big),  # the quotient underflows to 0
        (2.0**53, 1.0),
        (2.0**53 + 2.0, 1.0),
        (math.nextafter(2.0**53, 0.0), 1.0),
        (1.0, 1e-16),
        (0.3, 0.1),
        (1.0, 0.5),
    ]
    for x, eps in cases:
        for v in _neighbours(x):
            assert _ceil_ratio(v, eps) == _exact_ceil(v, eps), (v, eps)
