import math
import time
from fractions import Fraction

import pytest

from ellentropy.asymptotics import (
    COMPACT_III,
    COMPACT_IV,
    CRITICAL_II,
    NONCOMPACT_A,
    NONCOMPACT_B,
    canonical_band,
    classify,
    effective_dimension,
    entropy_estimator,
    gamma_pqb,
    hilbert_second_order,
)
from ellentropy.constants import gamma_pq
from ellentropy.errors import EntropyError, NonCompactRegime, ScanCapExceeded, UnsupportedCorner
from ellentropy.sequences import Canonical, Tabulated, TwoTermPolynomial, axis, cesaro_log_ratio

INF = math.inf
LN2 = math.log(2.0)


class TestClassify:
    def test_hilbert_case(self):
        r = classify(2, 2, 1)
        assert r.case == COMPACT_III
        assert r.b_star == 1.0
        assert r.lower_const == pytest.approx(1 / LN2)
        assert r.upper_const == pytest.approx(1 / LN2 + 1)
        assert r.exact_const == pytest.approx(1 / LN2)

    def test_noncompact_strict(self):
        assert classify(2, 1, Fraction(3, 10)).case == NONCOMPACT_A

    def test_p_below_q(self):
        r = classify(1, 2, 1)
        assert r.case == COMPACT_IV
        assert r.upper_const is None
        assert r.lower_const is not None

    def test_critical_canonical_is_noncompact(self):
        # p = inf convention: critical value is 1/b
        assert classify("inf", 2, Fraction(1, 2)).case == NONCOMPACT_B

    def test_critical_summable(self):
        r = classify("inf", 2, Fraction(1, 2), tail_summable_inv_b=True, liminf_n_mu_pos=False)
        assert r.case == CRITICAL_II
        assert r.lower_const == pytest.approx(gamma_pq(INF, 2))
        assert r.upper_const == 1.0
        assert r.lower_const <= r.upper_const

    def test_exact_rational_boundary(self):
        # q = p/(pb+1) held exactly: p=4, b=1/2 gives critical q = 4/3
        assert classify(4, Fraction(4, 3), Fraction(1, 2)).case == NONCOMPACT_B
        assert classify(4, Fraction(4, 3) + Fraction(1, 10**9), Fraction(1, 2)).case == COMPACT_III
        assert classify(4, Fraction(4, 3) - Fraction(1, 10**9), Fraction(1, 2)).case == NONCOMPACT_A

    def test_b_star_stays_positive_where_its_float_sum_is_zero(self):
        # b + 1/p - 1/q rounds to 0.0, while the exact b* is about 3.7e-17
        b = 0.33333333333333337
        r = classify(1.5, 1, b)
        assert r.case == COMPACT_III
        assert r.b_star == float(Fraction(b) + Fraction(2, 3) - 1) > 0.0
        assert math.isfinite(r.upper_const)
        # elsewhere b* keeps its float sum
        assert classify(2, 1, 0.3).b_star == 0.3 + 0.5 - 1.0

    def test_unsupported_corner(self):
        with pytest.raises(UnsupportedCorner):
            classify(4, Fraction(4, 3), Fraction(1, 2), tail_summable_inv_b=False, liminf_n_mu_pos=False)

    def test_inconsistent_flags(self):
        with pytest.raises(EntropyError):
            classify(4, Fraction(4, 3), Fraction(1, 2), tail_summable_inv_b=True, liminf_n_mu_pos=True)

    def test_totality_on_grid(self):
        grid = [Fraction(n, 2) for n in range(2, 11)] + [None]  # 1..5 step .5, inf
        bs = [Fraction(n, 4) for n in (1, 2, 4, 8, 12)]
        cases = set()
        for p in grid:
            for q in grid:
                for b in bs:
                    pv = "inf" if p is None else p
                    qv = "inf" if q is None else q
                    r = classify(pv, qv, b)  # canonical flags: liminf positive
                    cases.add(r.case)
                    # cross-check against float inequality away from boundary
                    rp = 0.0 if p is None else 1.0 / float(p)
                    rq = 0.0 if q is None else 1.0 / float(q)
                    margin = rq - rp - float(b)
                    if margin > 1e-9:
                        assert r.case == NONCOMPACT_A
                    elif abs(margin) <= 1e-12:
                        assert r.case == NONCOMPACT_B
                    elif rq >= rp:
                        assert r.case == COMPACT_III
                    else:
                        assert r.case == COMPACT_IV
        assert NONCOMPACT_A in cases and COMPACT_III in cases and COMPACT_IV in cases

    @pytest.mark.parametrize("p, q, b, name", [
        (2, 1, "137.532", "lower constant"),  # Compact_iii
        (1, 2, 1000, "lower constant"),  # Compact_iv
        (2, 2, "134.586", "upper constant"),  # the lower one still fits
    ])
    def test_constant_past_the_float_range_raises_naming_it(self, p, q, b, name):
        with pytest.raises(ScanCapExceeded, match=f"{name} .* leaves the float range"):
            classify(p, q, b)

    @pytest.mark.parametrize("p, q, b", [
        (2, 2, math.nan), (math.nan, 2, 1), (2, "nan", 1), (2, 2, "-inf"), (2, -INF, 1),
        (2, 2, "x"), (2, 2, "1e400"), (2, 2, "1e-400"), (0, 2, 1), (2, "0.5", 1),
    ])
    def test_not_a_number_or_exponent_is_an_entropy_error(self, p, q, b):
        with pytest.raises(EntropyError) as info:
            classify(p, q, b)
        assert type(info.value) is EntropyError


class TestCanonicalBand:
    @pytest.mark.parametrize("p, q, b", [(2, 1, 140.0), (1, 2, 1000.0), (2, 2, 1e17)])
    def test_answers_where_the_regime_constants_overflow(self, p, q, b):
        # classify's constants leave the float range; the edges do not use them
        band = canonical_band(p, q, b, 1.0, 0.5)
        bst = b + 1 / p - 1 / q
        assert band.lower_bits == b / LN2 * (gamma_pq(p, q) * 1.0 / 0.5) ** (1.0 / bst)
        assert math.isfinite(band.upper_bits)

    def test_nan_decay_is_an_entropy_error(self):
        with pytest.raises(EntropyError, match="b must be a real number"):
            canonical_band(2, 2, math.nan, 1.0, 0.1)

    def test_overflow_names_the_edge(self):
        with pytest.raises(EntropyError, match="lower band edge leaves the float range"):
            canonical_band(2, 2, 0.005, 1, 1e-3)

    def test_complex_edge_is_typed(self):
        # p < q, b < 1 and eps > 1: log2(1/eps) < 0 has no real power 1 - b
        with pytest.raises(EntropyError, match="upper band edge"):
            canonical_band(1, 2, 0.5, 1, 2.0)

    def test_hilbert_example(self):
        band = canonical_band(2, 2, 1.0, 1.0, 1e-2)
        assert band.lower_bits == pytest.approx(100 / LN2)
        assert band.upper_bits == pytest.approx(100 * (1 / LN2 + 1))
        assert not band.upper_constant_unconfirmed

    def test_edges_tighten_in_b(self):
        ratios = []
        for b in (1.0, 2.0, 4.0, 8.0):
            band = canonical_band(2, 2, b, 1.0, 1e-3)
            ratios.append(band.upper_bits / band.lower_bits)
        assert all(a > b for a, b in zip(ratios, ratios[1:]))

    def test_c_scaling(self):
        p, q, b = 3.0, 2.0, 1.5
        bst = b + 1 / 3 - 1 / 2
        one = canonical_band(p, q, b, 1.0, 1e-2)
        lam = canonical_band(p, q, b, 3.0, 1e-2)
        assert lam.lower_bits == pytest.approx(3 ** (1 / bst) * one.lower_bits, rel=1e-12)
        assert lam.upper_bits == pytest.approx(3 ** (1 / bst) * one.upper_bits, rel=1e-12)

    def test_p_below_q_flags_upper(self):
        band = canonical_band(1, 2, 1.0, 1.0, 1e-3)
        assert band.upper_constant_unconfirmed
        assert band.lower_bits <= band.upper_bits

    def test_noncompact_rejected(self):
        with pytest.raises(NonCompactRegime):
            canonical_band(2, 1, 0.3, 1.0, 1e-2)

    def test_band_ordered_across_two_sided_regime(self):
        for p in (1.0, 1.5, 2.0, 3.0, INF):
            for q in (1.0, 1.5, 2.0, 3.0, INF):
                for b in (0.4, 1.0, 2.5):
                    if classify(p if p != INF else "inf", q if q != INF else "inf", Fraction(b)).case != COMPACT_III:
                        continue
                    band = canonical_band(p, q, b, 1.0, 1e-2)
                    assert band.lower_bits <= band.upper_bits


def hilbert_leading(b, c, eps):
    """The exact p = q = 2 leading term (b/ln2) (c/eps)^(1/b)."""
    return b / LN2 * (c / eps) ** (1.0 / b)


class TestHilbert:
    def test_second_order_overflow_is_typed(self):
        with pytest.raises(EntropyError, match="Hilbert leading term leaves the float range"):
            hilbert_second_order(0.005, 0.006, 1.0, 1.0, 1e-3)

    def test_second_order_reduces_to_leading(self):
        for b, c, eps in ((1.0, 2.0, 1e-3), (2.0, 1.0, 1e-4), (0.5, 3.0, 1e-2)):
            got = hilbert_second_order(b, b + 0.3, c, 0.0, eps)
            assert got == pytest.approx(hilbert_leading(b, c, eps), rel=1e-14)

    def test_second_order_value(self):
        expected = 1000 / LN2 + 1000**0.75 / (0.75 * LN2)
        assert hilbert_second_order(1.0, 1.25, 1.0, 1.0, 1e-3) == pytest.approx(expected)

    def test_negative_correction_lowers(self):
        hi = hilbert_second_order(1.0, 1.25, 1.0, 0.5, 1e-3)
        lo = hilbert_second_order(1.0, 1.25, 1.0, -0.5, 1e-3)
        assert lo < hi

    def test_constraint(self):
        with pytest.raises(EntropyError):
            hilbert_second_order(1.0, 1.6, 1.0, 1.0, 1e-3)


class TestEstimator:
    def test_leading_constant_b1(self):
        est = entropy_estimator(Canonical(1, 1), 1e-4)
        assert est == pytest.approx(hilbert_leading(1, 1, 1e-4), rel=0.02)

    def test_zero_above_mu1(self):
        assert entropy_estimator(Canonical(1, 1), 2.0) == 0.0

    @pytest.mark.parametrize("model", [
        Canonical(0.5, 1),
        Tabulated((1.0,), Canonical(0.5, 1)),
    ], ids=repr)
    def test_far_d_star_answers_without_scanning(self, model):
        # d* = 10^10 - 1, past the 10^8 axes an exact entropy visits
        start = time.perf_counter()
        value = entropy_estimator(model, 1e-5)
        assert time.perf_counter() - start < 1.0
        d_star = 10**10 - 1
        assert axis(model, d_star) > 1e-5 >= axis(model, d_star + 1)
        assert value == model.log_product(d_star).mid - d_star * math.log2(1e-5)

    def test_d_star_past_the_float_range_raises_without_scanning(self):
        # d* = 10^600 overflows the closed form
        start = time.perf_counter()
        with pytest.raises(ScanCapExceeded, match="float range"):
            entropy_estimator(Canonical(0.005, 1), 1e-3)
        assert time.perf_counter() - start < 1.0

    def test_sum_past_the_float_range_raises(self):
        # d* = 10^305.5 is a float, but lgamma(d* + 1) is not
        with pytest.raises(ScanCapExceeded, match="float range"):
            entropy_estimator(Canonical(3 / 305.5, 1), 1e-3)

    def test_rising_head_sets_d_star(self):
        # mu = 0.1, 0.2238, 0.2226, ... falls from n = 3 on; at eps between
        # mu_3 and mu_2 only the head axis 2 lies above eps, so d* = 2 and
        # the sum takes mu_1's negative term too
        model = TwoTermPolynomial(1.0, -0.9, 0.7, 1.2)
        eps = 0.2232
        expected = math.log2(axis(model, 1) / eps) + math.log2(axis(model, 2) / eps)
        assert entropy_estimator(model, eps) == pytest.approx(expected, rel=1e-12)

    def test_second_order_residual_shrinks(self):
        model = TwoTermPolynomial(1.0, 1.0, 1.0, 1.25)
        resid = []
        for eps in (1e-3, 1e-4):
            r = abs(entropy_estimator(model, eps) - hilbert_second_order(1.0, 1.25, 1.0, 1.0, eps))
            resid.append(r / eps**-0.75)
        assert resid[1] < resid[0]


class TestEffectiveDimension:
    def test_p_equals_q(self):
        assert effective_dimension(Canonical(1, 1), 2, 2, 0.25) == 3

    def test_surrogate_never_exceeds(self):
        assert effective_dimension(Canonical(1, 1), INF, 2, 1.0) == 0

    def test_monotone_in_eps(self):
        m = Canonical(1.3, 2.0)
        assert effective_dimension(m, 2, 2, 0.05) >= effective_dimension(m, 2, 2, 0.1)

    def test_rising_surrogate(self):
        # 1/q - 1/p = 1/2 > 0 makes the surrogate sqrt(d) mu_d hump-shaped
        m = Canonical(1, 1)
        d = effective_dimension(m, INF, 2, 0.3)
        assert math.sqrt(d) / d > 0.3 >= math.sqrt(d + 1) / (d + 1)


class TestSumExpansion:
    """sum_{n<=d} log2(mu_n/mu_d) of the two-term law, read from the model's
    log-product as d times its Cesaro mean, against the expansion
    alpha1 d/ln2 + (1/a - 1) c2/(c1 ln2) d^a with a = alpha1 - alpha2 + 1."""

    @staticmethod
    def exact(alpha1, alpha2, c1, c2, d):
        return d * cesaro_log_ratio(TwoTermPolynomial(c1, c2, alpha1, alpha2), d)

    @staticmethod
    def approx(alpha1, alpha2, c1, c2, d):
        a = alpha1 - alpha2 + 1.0
        return alpha1 * d / LN2 + (1.0 / a - 1.0) * c2 / (c1 * LN2) * d**a

    def test_single_axis(self):
        assert self.exact(1.0, 1.25, 1.0, 1.0, 1) == 0.0

    def test_pure_power_stirling(self):
        rel = []
        for d in (100, 1000, 10000):
            exact = self.exact(1.0, 1.5, 1.0, 0.0, d)
            rel.append(abs(exact - self.approx(1.0, 1.5, 1.0, 0.0, d)) / d)
        assert rel[0] > rel[1] > rel[2]

    def test_second_term_rate(self):
        vals = []
        for d in (10**3, 10**4, 10**5):
            exact = self.exact(1.0, 1.25, 1.0, 1.0, d)
            vals.append(abs(exact - self.approx(1.0, 1.25, 1.0, 1.0, d)) / d**0.75)
        assert vals[0] > vals[1] > vals[2]


def test_gamma_pqb_unit_when_p_equals_q():
    assert gamma_pqb(2, 2, 1.7) == 1.0
    # p = inf, q = 2, b = 1: (b / (b + 1/p - 1/q))^(1/q - 1/p) = 2^(1/2)
    assert gamma_pqb(INF, 2, 1.0) == pytest.approx(math.sqrt(2.0), rel=1e-14)
