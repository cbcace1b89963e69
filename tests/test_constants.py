import math
import statistics
import time

import mpmath
import numpy as np
import pytest

from ellentropy.constants import (
    HolderExponent,
    as_exponent,
    gamma_pq,
    unit_ball_log_volume,
    volume_ratio,
    zeta,
    zeta_series_constant,
)
from ellentropy.errors import EntropyError

from series_reference import zeta_series_constant_alternating

INF = math.inf
GRID = [1.0, 1.5, 2.0, 3.0, INF]
LN2 = math.log(2.0)


class TestHolderExponent:
    def test_reciprocal_of_inf_is_exactly_zero(self):
        assert HolderExponent(INF).reciprocal() == 0.0

    def test_parse(self):
        assert as_exponent("inf").is_inf
        assert as_exponent("2").value == 2.0
        assert as_exponent(1).value == 1.0

    def test_domain(self):
        with pytest.raises(EntropyError):
            HolderExponent(0.5)


class TestGammaPQ:
    @pytest.mark.parametrize("p", GRID)
    def test_diagonal_exactly_one(self, p):
        assert gamma_pq(p, p) == 1.0

    def test_value_2_inf(self):
        # independent evaluation route: Gamma(3/2) sqrt(2) e^(1/2)
        expected = math.gamma(1.5) * math.sqrt(2.0) * math.exp(0.5)
        assert gamma_pq(2, INF) == pytest.approx(expected, rel=1e-13)

    def test_product_symmetry(self):
        for p in GRID:
            for q in GRID:
                assert abs(gamma_pq(p, q) * gamma_pq(q, p) - 1.0) <= 1e-12


class TestUnitBallVolume:
    def test_disk(self):
        assert unit_ball_log_volume(2, 2) == pytest.approx(math.log(math.pi), abs=1e-14)

    def test_cross_polytope(self):
        assert unit_ball_log_volume(1, 2) == pytest.approx(math.log(2.0), abs=1e-14)

    def test_cube(self):
        assert unit_ball_log_volume(INF, 3) == math.log(8.0)

    def test_euclidean_closed_form(self):
        for d in (1, 2, 3, 7, 40):
            closed = (d / 2) * math.log(math.pi) - math.lgamma(d / 2 + 1)
            assert unit_ball_log_volume(2, d) == pytest.approx(closed, rel=1e-14)

    @pytest.mark.parametrize("p", [1.5, 3.0])
    @pytest.mark.parametrize("d", [2, 3])
    def test_monte_carlo(self, p, d):
        rng = np.random.default_rng(12345)
        n = 400_000
        pts = rng.uniform(-1.0, 1.0, size=(n, d))
        inside = (np.abs(pts) ** p).sum(axis=1) <= 1.0
        frac = inside.mean()
        vol_hat = 2.0**d * frac
        se = 2.0**d * math.sqrt(frac * (1 - frac) / n)
        assert abs(vol_hat - math.exp(unit_ball_log_volume(p, d))) <= 3 * se


class TestVolumeRatio:
    def test_diagonal(self):
        assert volume_ratio(2, 2, 5) == 1.0

    def test_two_dim_exact(self):
        assert volume_ratio(INF, 2, 2) == pytest.approx(math.sqrt(4 / math.pi), rel=1e-14)
        assert volume_ratio(2, INF, 2) == pytest.approx(math.sqrt(math.pi / 4), rel=1e-14)

    def test_asymptotic_constant_with_fitted_envelope(self):
        # |V/(Gamma d^(1/q-1/p)) - 1| <= K/d on d in [50, 1e4], K fitted at
        # the range endpoints.  The deviation is Theta(log d / d) when an
        # exponent is infinite (one-sided Stirling term), so the envelope
        # grows through the range and the fit must come from the top end.
        ds = [50, 100, 316, 1000, 3162, 10000]
        for p in GRID:
            for q in GRID:
                rp = as_exponent(p).reciprocal()
                rq = as_exponent(q).reciprocal()
                G = gamma_pq(p, q)
                f = [abs(volume_ratio(p, q, d) / (G * d ** (rq - rp)) - 1.0) * d for d in ds]
                K = max(f[0], f[-1]) * 1.05 + 1e-12
                for d, fd in zip(ds, f):
                    assert fd <= K, (p, q, d)
                # and the ratio itself approaches 1
                assert f[-1] / ds[-1] < 1e-3


class TestZeta:
    def test_basel(self):
        assert abs(zeta(2.0) - math.pi**2 / 6) <= 1e-12

    def test_fourth(self):
        assert abs(zeta(4.0) - math.pi**4 / 90) <= 1e-12

    def test_three_halves(self):
        assert zeta(1.5) == pytest.approx(2.6123753486854883, abs=1e-12)

    @pytest.mark.parametrize("s", [1.0 + 2.0**-40, 1.01, 1.5, 2.5, 40.0])
    def test_against_mpmath(self, s):
        with mpmath.workdps(40):
            truth = mpmath.zeta(mpmath.mpf(s))
            assert abs(zeta(s) - truth) <= 2.0**-41 * truth

    @pytest.mark.parametrize("s", [1e3, 1e4, 1e15, 1e19, 1e300])
    def test_large_s_within_promise_or_refused(self, s):
        # zeta(s) rounds to 1 here; the kernel's bound on the rounding of
        # its powers grows with s, and overflows past s near 3e18
        try:
            value = zeta(s)
        except EntropyError:
            return
        assert abs(value - 1.0) <= 2.0**-41

    @pytest.mark.parametrize("s", [1.0, 0.5, INF, math.nan])
    def test_domain(self, s):
        with pytest.raises(EntropyError):
            zeta(s)

    def test_against_partial_sums_with_remainder(self):
        # independent check: 1e6 explicit terms plus integral bracket
        s = 2.5
        n = np.arange(1, 10**6 + 1, dtype=np.float64)
        partial = float((n**-s).sum())
        lo = partial + (10**6 + 1) ** (1 - s) / (s - 1)
        hi = lo + (10**6 + 1) ** (-s)
        assert lo - 1e-14 <= zeta(s) <= hi + 1e-14


class TestZetaSeriesConstant:
    def test_small_b_dominated_by_first_term(self):
        assert zeta_series_constant(0.1) == pytest.approx(1.0, abs=1e-3)

    def test_b_one_against_direct_summation(self):
        # oracle: direct summation to 1e7 plus integral remainder bracket
        k = np.arange(1, 10**7 + 1, dtype=np.float64)
        partial = float((np.log1p(1.0 / k) / LN2 / k).sum())
        hi_rem = (1.0 / LN2) * 1.0 / 10**7  # sum_{k>K} <= (1/ln2) int_K^inf x^-2
        val = zeta_series_constant(1.0)
        assert partial <= val <= partial + hi_rem + 1e-9

    @pytest.mark.parametrize("b", [0.05, 0.3, 0.5, 1.0, 2.0, 5.0, 10.0])
    def test_dual_route_agreement(self, b):
        assert abs(zeta_series_constant(b) - zeta_series_constant_alternating(b)) <= 1e-12

    @pytest.mark.parametrize("b", [1e3, 1e6, 1e9, 1e12])
    def test_large_b_within_promise_or_refused(self, b):
        # the float 1 + 1/b loses 1/b's last bits, about b 2**-53 relative
        truth = zeta_series_constant_alternating(b)
        try:
            value = zeta_series_constant(b)
        except EntropyError:
            return
        assert abs(value - truth) <= 2.0**-40 * truth

    @pytest.mark.parametrize("b", [0.0, -1.0, INF, math.nan, 1e17, 1e300])
    def test_domain(self, b):
        with pytest.raises(EntropyError):
            zeta_series_constant(b)

    def test_time_budget(self):
        zeta_series_constant(1.0)
        times = []
        for _ in range(21):
            start = time.perf_counter()
            zeta_series_constant(1.0)
            times.append(time.perf_counter() - start)
        assert statistics.median(times) < 3e-4
