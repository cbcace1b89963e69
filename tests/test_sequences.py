import math
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellentropy.asymptotics import effective_dimension, entropy_estimator
from ellentropy.errors import DivergentTail, IndexBeyondTable, InvalidModel, ScanCapExceeded
from ellentropy.hyperrect import exact_entropy, exact_entropy_counting
from ellentropy.numerics import Threshold
from ellentropy.sequences import (
    AXIS_CAP,
    Canonical,
    Tabulated,
    TwoTermPolynomial,
    axis,
    cesaro_log_ratio,
    counting,
    ensure_non_increasing,
    last_passing,
    log_product,
    model_from_json,
    passing,
    tail_power_sum,
)

LN2 = math.log(2.0)


class TestAxis:
    def test_canonical(self):
        assert axis(Canonical(b=1, c=1), 4) == 0.25

    def test_two_term_first(self):
        assert axis(TwoTermPolynomial(1, 1, 1, 1.25), 1) == 2.0

    def test_table_lookup(self):
        assert axis(Tabulated((3, 2, 1)), 2) == 2.0

    def test_table_tail_uses_global_index(self):
        m = Tabulated((1.0, 0.5), tail=Canonical(b=1, c=1))
        assert axis(m, 3) == pytest.approx(1 / 3)

    def test_beyond_table_without_tail(self):
        with pytest.raises(IndexBeyondTable):
            axis(Tabulated((3, 2, 1)), 4)


class TestModelValidation:
    def test_nonpositive_two_term_rejected(self):
        with pytest.raises(InvalidModel):
            TwoTermPolynomial(c1=1.0, c2=-2.0, alpha1=1.0, alpha2=1.5)

    def test_two_term_positivity_is_checked_at_mu_1(self):
        # mu_1 = -1: the law is rejected without searching for the index
        # where the first term dominates, (2/1)**(1/1e-6), past the floats
        with pytest.raises(InvalidModel):
            TwoTermPolynomial(1, -2, 1, 1.000001)
        # n**alpha2 mu_n grows with n, so mu_1 > 0 is enough
        m = TwoTermPolynomial(1, -0.9999, 0.001, 0.0011)
        assert 0 < axis(m, 1) < axis(m, 10**6)

    def test_increasing_table_rejected(self):
        with pytest.raises(InvalidModel):
            Tabulated((1.0, 2.0))

    def test_tail_junction_must_stay_monotone(self):
        with pytest.raises(InvalidModel):
            Tabulated((0.1,), tail=Canonical(b=1, c=1))  # tail starts at 1/2 > 0.1

    def test_two_term_rise_detected_on_demand(self):
        m = TwoTermPolynomial(c1=1.0, c2=-0.9, alpha1=0.5, alpha2=3.0)
        with pytest.raises(InvalidModel):
            ensure_non_increasing(m, 3)

    def test_json_round_trip(self):
        models = [
            Canonical(1.5, 2.0),
            TwoTermPolynomial(1, 0.5, 1, 2),
            Tabulated((3, 2, 1), tail=Canonical(b=2, c=9)),
        ]
        for m in models:
            assert model_from_json(m.to_json()) == m


class TestCounting:
    def test_canonical_enumeration(self):
        # 1/n > 0.3 exactly for n = 1, 2, 3
        assert counting(Canonical(1, 1), 0.3) == 3

    def test_empty_above_largest_axis(self):
        assert counting(Canonical(1, 1), 0.6, k=2) == 0
        assert counting(Tabulated((1.0, 0.5)), 1.5) == 0

    def test_table(self):
        assert counting(Tabulated((1.0, 0.5)), 0.4) == 2

    def test_strict_inequality_at_tie(self):
        # mu_4 = 0.25 is not > 0.25, so the count stops at 3
        assert counting(Canonical(1, 1), 0.25) == 3
        assert counting(Canonical(2, 1), 0.25, k=1) == 1  # mu_2 = 1/4 excluded
        # the float mu_n is the test, so a tie at eps = axis(model, n)
        # excludes axis n, as in the exact entropy, for integer b too
        for n in (3, 7, 49, 97):
            eps = axis(Canonical(1, 1), n)
            assert counting(Canonical(1, 1), eps) == n - 1
            assert exact_entropy(Canonical(1, 1), eps).effective_dim == n - 1

    def test_table_with_tail(self):
        m = Tabulated((1.0, 0.5), tail=Canonical(b=1, c=1))
        assert counting(m, 0.3) == 3
        assert counting(m, 0.09) == 11

    def test_two_term_scan(self):
        m = TwoTermPolynomial(1, 1, 1, 1.25)
        # mu_n = 1/n + n^-1.25: mu_3 ~ 0.587, mu_4 ~ 0.427, mu_5 ~ 0.334
        assert counting(m, 0.4) == 4
        # a rising head: mu_1 = 0.1 is below the threshold, mu_2 = 0.59 above
        rising = TwoTermPolynomial(1, -0.9, 0.5, 3)
        assert counting(rising, 0.2) == 23
        assert exact_entropy(rising, 0.2).effective_dim == 23

    @pytest.mark.parametrize("c", [2.5, 1.5])
    def test_canonical_search_past_2_53_takes_few_evaluations(self, monkeypatch, c):
        # at b = 0.25 and eps = 1e-5 the count is near 4e21, and the float
        # closed form misses it by 786,433 indices (c = 2.5, below the
        # count) or 360,448 (c = 1.5, above it)
        evaluate = Canonical.axis
        calls = []

        def budgeted(self, n):
            calls.append(n)
            if len(calls) > 500:
                raise RuntimeError("more than 500 axis evaluations")
            return evaluate(self, n)

        monkeypatch.setattr(Canonical, "axis", budgeted)
        n = counting(Canonical(0.25, c), 1e-5)
        monkeypatch.undo()
        assert axis(Canonical(0.25, c), n) > 1e-5 >= axis(Canonical(0.25, c), n + 1)
        assert n > 2**53

    @given(
        b=st.floats(0.5, 4.0),
        c=st.floats(0.1, 3.0),
        t=st.floats(0.05, 5.0),
        k=st.integers(1, 6),
    )
    @settings(max_examples=150)
    def test_counting_matches_scan(self, b, c, t, k):
        model = Canonical(b, c)
        fast = counting(model, t, k)
        slow = 0
        n = 1
        while axis(model, n) > k * t:
            slow += 1
            n += 1
        assert fast == slow

    @given(
        t=st.floats(0.05, 2.0),
        k=st.integers(1, 5),
    )
    @settings(max_examples=60)
    def test_monotone_in_k_and_t(self, t, k):
        model = Canonical(1.2, 2.0)
        assert counting(model, t, k) >= counting(model, t, k + 1)
        assert counting(model, t, k) >= counting(model, t * 1.5, k)
        if k * t >= axis(model, 1):
            assert counting(model, t, k) == 0


INF = math.inf


def _effective_dimension_sup(model, eps):
    return effective_dimension(model, INF, INF, eps)


class TestLastPassing:
    @settings(max_examples=300, deadline=None)
    @given(
        lo=st.integers(0, 50),
        length=st.integers(0, 10**6),
        span=st.one_of(st.none(), st.integers(0, 10**6)),
        near=st.one_of(st.none(), st.integers(-10, 2 * 10**6)),
    )
    def test_any_guess_finds_the_prefix_end(self, lo, length, span, near):
        # the indices up to lo + length pass; a search from any guess finds
        # the end in (lo, hi], testing only indices there, and within
        # O(log |answer - guess|) tests
        end, hi = lo + length, None if span is None else lo + span
        tested = []

        def passes(n):
            tested.append(n)
            return n <= end

        found = last_passing(passes, lo, hi, near)
        assert found == (end if hi is None else min(end, hi))
        assert all(lo < n <= (n if hi is None else hi) for n in tested)
        guess = lo if near is None else max(lo, near if hi is None else min(near, hi))
        assert len(tested) <= 2 * math.log2(abs(found - guess) + 1) + 3

    def test_default_guess_is_the_gallop_from_lo(self):
        tested = []
        last_passing(lambda n: tested.append(n) or n <= 12, 0)
        assert tested == [1, 3, 7, 15, 11, 13, 12]


class TestPassing:
    @pytest.mark.parametrize(
        "model",
        [
            Canonical(1.0, 1.0),
            TwoTermPolynomial(1.0, -0.9, 1.0, 3.0),  # rises from n = 1 to n = 2
            # n**0.5 mu_n rises, falls and rises again in the table
            Tabulated((1.0, 0.9, 0.8, 0.3, 0.29), Canonical(1.0, 1.4)),
            Tabulated((1.0, 0.9, 0.8, 0.3, 0.29)),
        ],
        ids=repr,
    )
    @pytest.mark.parametrize("e", [0.0, 0.25, 0.5, -0.5])
    def test_passing_set_equals_the_walk(self, model, e):
        walk = range(1, 2001 if model.length is None else model.length + 1)
        for eps in (0.05, 0.3, 0.62, 1.2):
            found = passing(model, Threshold(1, eps), e)
            walked = [n for n in walk if float(n) ** e * axis(model, n) > eps]
            if model.length is None:
                assert walked[-1:] != [walk[-1]]  # the walk reaches past the set
            assert [n for r in (*found.head, found.prefix) for n in r] == walked
            assert found.count == len(walked)
            assert found.last == (walked[-1] if walked else 0)

    def test_counts_past_sys_maxsize(self):
        # mu_1 = 0.1 passes, so the whole rising head up to its monotone
        # start near 2.1e16 does, and the prefix past it ends past 10**100
        model = TwoTermPolynomial(1.0, -0.9, 0.01, 0.05)
        found = passing(model, Threshold(1, 0.05))
        assert found.head == [range(1, model.monotone_start())]
        assert found.count == found.last > 10**100 > sys.maxsize

    @pytest.mark.parametrize(
        "model, eps",
        [
            (TwoTermPolynomial(1.0, 0.5, 0.001, 1.0), 0.1),  # d* near 10**1000
            (TwoTermPolynomial(1, -0.9999, 0.001, 0.0011), 0.5),  # peak near e**952
            (Canonical(0.001, 1.0), 0.1),  # d* near 10**1000
        ],
        ids=repr,
    )
    @pytest.mark.parametrize(
        "entry",
        [
            counting,
            exact_entropy,
            exact_entropy_counting,
            entropy_estimator,
            _effective_dimension_sup,
        ],
        ids=lambda f: f.__name__,
    )
    def test_past_the_float_range_raises_scan_cap(self, model, eps, entry):
        start = time.perf_counter()
        with pytest.raises(ScanCapExceeded):
            entry(model, eps)
        assert time.perf_counter() - start < 1.0

    def test_axis_cap_binds_only_the_exact_entropy(self):
        # c/n > 1 exactly for n <= 10**8 at c = 1e8 + 0.5, and 10**8 + 1
        # at c = 1e8 + 1.5; the estimator and the effective dimension visit
        # no axis one by one, so they answer past the cap
        at, past = Canonical(1.0, 1e8 + 0.5), Canonical(1.0, 1e8 + 1.5)
        assert counting(at, 1.0) == AXIS_CAP
        assert exact_entropy(at, 1.0).effective_dim == AXIS_CAP
        assert entropy_estimator(at, 1.0) == at.log_product(AXIS_CAP).mid
        assert _effective_dimension_sup(at, 1.0) == AXIS_CAP
        assert counting(past, 1.0) == AXIS_CAP + 1
        with pytest.raises(ScanCapExceeded):
            exact_entropy(past, 1.0)
        assert entropy_estimator(past, 1.0) == past.log_product(AXIS_CAP + 1).mid
        assert _effective_dimension_sup(past, 1.0) == AXIS_CAP + 1


class TestLogProduct:
    def test_canonical_d3(self):
        assert log_product(Canonical(1, 1), 3) == pytest.approx(-math.log2(6), abs=1e-12)

    def test_single_axis(self):
        m = Canonical(2, 5)
        assert log_product(m, 1) == pytest.approx(math.log2(5))

    def test_table(self):
        assert log_product(Tabulated((2, 2)), 2) == pytest.approx(2.0, abs=1e-15)

    @pytest.mark.parametrize(
        "model, d",
        [
            (Canonical(0.01, 1), 10**307),
            (Tabulated((2.0, 1.0), Canonical(0.01, 1)), 10**307),
            (TwoTermPolynomial(1, 0.5, 0.01, 1), 10**307),
            (Canonical(1, 1), 2 * 10**305),
        ],
        ids=["canonical", "table-tail", "two-term", "canonical-b1"],
    )
    def test_lgamma_past_the_float_range_raises_scan_cap(self, model, d):
        # lgamma(d + 1) overflows from d ~ 2.5e305, and b lgamma(d + 1) / ln 2
        # already from d ~ 1.8e305 at b = 1
        for call in (log_product, cesaro_log_ratio):
            with pytest.raises(ScanCapExceeded, match="float range"):
                call(model, d)

    def test_two_term_axis_underflowed_to_zero_raises_scan_cap(self):
        # alpha1 ~ 2e17: mu_n underflows to 0.0 from n = 2, and log2(0.0)
        # would be a bare math domain error
        m = TwoTermPolynomial(1e11, 1.0, 1.8e17, 2e17)
        assert m.axis(5) == 0.0
        with pytest.raises(ScanCapExceeded, match="axis 5 underflowed to 0.0"):
            m.log_product(5)


class TestTailPowerSum:
    def test_basel(self):
        iv = tail_power_sum(Canonical(1, 1), 0, 2.0)
        assert iv.lo <= math.pi**2 / 6 <= iv.hi
        assert iv.width < 1e-6

    def test_shifted_tail_within_integral_bracket(self):
        iv = tail_power_sum(Canonical(1, 1), 10, 2.0)
        assert 1 / 11 <= iv.lo <= iv.hi <= 1 / 10

    def test_empty_tail_of_table(self):
        iv = tail_power_sum(Tabulated((5.0,)), 1, 3.0)
        assert iv == (0.0, 0.0)

    def test_divergent(self):
        with pytest.raises(DivergentTail):
            tail_power_sum(Canonical(1, 1), 0, 1.0)
        with pytest.raises(DivergentTail):
            tail_power_sum(TwoTermPolynomial(1, 1, 0.5, 1.0), 0, 2.0)

    @pytest.mark.parametrize("b,theta,d", [
        (1.0, 2.0, 0), (1.0, 3.0, 7), (0.7, 2.0, 3), (2.5, 1.0, 0), (1.4, 1.5, 20),
    ])
    def test_sandwich_against_brute_force(self, b, theta, d):
        # Partial sum of 1e6 terms plus an analytic remainder bracket must
        # land inside the certified interval.
        model = Canonical(b, 2.0)
        n = np.arange(d + 1, 10**6 + d + 1, dtype=np.float64)
        partial = float(np.sum((2.0 * n**-b) ** theta))
        s = b * theta
        m = d + 10**6
        rem_lo = 2.0**theta * (m + 1) ** (1 - s) / (s - 1)
        rem_hi = rem_lo + 2.0**theta * (m + 1) ** (-s)
        iv = tail_power_sum(model, d, theta)
        assert iv.lo <= partial + rem_hi
        assert partial + rem_lo <= iv.hi

    def test_two_term_contains_direct_sum(self):
        model = TwoTermPolynomial(1.0, -0.3, 1.1, 1.6)
        direct = sum(axis(model, n) ** 2 for n in range(1, 400000))
        iv = tail_power_sum(model, 0, 2.0)
        assert iv.lo <= direct + 1e-4
        assert direct <= iv.hi

    def test_table_with_tail_mixes_exact_and_bracket(self):
        m = Tabulated((1.0, 0.5), tail=Canonical(b=1, c=1))
        iv = tail_power_sum(m, 0, 2.0)
        truth = math.pi**2 / 6 - 1 - 0.25 + 1.0 + 0.25  # zeta(2) with first two replaced
        assert iv.lo <= truth <= iv.hi


class TestCesaro:
    def test_constant_table(self):
        assert cesaro_log_ratio(Tabulated((1.0, 1.0, 1.0)), 3) == 0.0

    @pytest.mark.parametrize("b,c", [(1.0, 1.0), (2.0, 5.0)])
    def test_canonical_limit(self, b, c):
        val = cesaro_log_ratio(Canonical(b, c), 10**5)
        assert val == pytest.approx(b / LN2, rel=1e-3)

    def test_rate_fitted_constant(self):
        # |value - b/ln2| <= K log(N)/N with K fitted at N = 1e3
        b = 0.5
        model = Canonical(b, 1.0)
        err = lambda N: abs(cesaro_log_ratio(model, N) - b / LN2)
        K = err(10**3) * 10**3 / math.log(10**3)
        for N in (10**4, 10**5):
            assert err(N) <= K * math.log(N) / N * (1 + 1e-9)


@given(
    b=st.floats(0.2, 5.0),
    c=st.floats(0.05, 20.0),
    n=st.integers(1, 1000),
)
@settings(max_examples=100)
def test_canonical_monotone(b, c, n):
    m = Canonical(b, c)
    assert axis(m, n) >= axis(m, n + 1)


@given(
    c1=st.floats(0.5, 3.0),
    c2=st.floats(-0.45, 3.0),
    a1=st.floats(0.5, 2.0),
    gap=st.floats(0.1, 1.5),
)
@settings(max_examples=100)
def test_two_term_positive_wherever_accepted(c1, c2, a1, gap):
    try:
        m = TwoTermPolynomial(c1, c2, a1, a1 + gap)
    except InvalidModel:
        return
    for n in list(range(1, 30)) + [100, 1000]:
        assert axis(m, n) > 0
