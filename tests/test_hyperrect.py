import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellentropy.constants import zeta_series_constant
from ellentropy.errors import EnumerationTooLarge, ScanCapExceeded
from ellentropy.hyperrect import (
    canonical_asymptotic,
    exact_entropy,
    exact_entropy_counting,
    optimal_covering,
)
from ellentropy.sequences import Canonical, Tabulated, TwoTermPolynomial, axis, counting

import per_axis_reference as reference

LN2 = math.log(2.0)

axes_lists = st.lists(
    st.floats(0.01, 10.0, allow_nan=False), min_size=1, max_size=8
).map(lambda xs: tuple(sorted(xs, reverse=True)))


class TestExactEntropy:
    def test_three_axis_table(self):
        r = exact_entropy(Tabulated((1.0, 0.5, 1 / 3)), 0.3)
        assert r.count_runs == ((4, 1), (2, 2))
        assert r.per_axis_counts == (4, 2, 2)
        assert r.bits == 4.0
        assert r.effective_dim == 3

    def test_whole_set_in_one_ball(self):
        r = exact_entropy(Canonical(1, 1), 1.0)
        assert r.bits == 0.0
        assert r.per_axis_counts == ()

    def test_canonical_matches_truncation(self):
        assert exact_entropy(Canonical(1, 1), 0.3).bits == 4.0

    def test_counts_non_increasing(self):
        r = exact_entropy(Canonical(0.8, 3.0), 0.07)
        assert all(a >= b for a, b in zip(r.per_axis_counts, r.per_axis_counts[1:]))

    def test_integer_boundary_keeps_count(self):
        # mu_1/eps = 2 exactly: two points per axis, not three
        r = exact_entropy(Tabulated((1.0,)), 0.5)
        assert r.per_axis_counts == (2,)

    def test_sequence_rising_past_eps_after_a_dip(self):
        # mu_1 = 0.1 sits below eps but the sequence then climbs above it;
        # the exact formula must account for every axis above eps
        m = TwoTermPolynomial(c1=1.0, c2=-0.9, alpha1=0.5, alpha2=3.0)
        r = exact_entropy(m, 0.3)
        assert r.effective_dim == 10  # axes n = 2..11 exceed 0.3
        assert reference.counting_product(m, 0.3) == Fraction(r.exact_product())

    def test_cap_raises_before_any_run(self):
        # d* = 10**10 is above the 10**8 cap; the closed form finds it at once
        start = time.perf_counter()
        with pytest.raises(ScanCapExceeded):
            exact_entropy(Canonical(0.5, 1.0), 1e-5)
        assert time.perf_counter() - start < 1.0


def _midpoint(model, n):
    return 0.5 * (axis(model, n) + axis(model, n + 1))


RISING = TwoTermPolynomial(1.0, -0.9, 0.5, 3.0)  # mu_1 = 0.1, mu_2 = 0.59
TAILED = Tabulated((1.0, 0.5), tail=Canonical(1.0, 1.0))
SHORT = Tabulated((1.3, 0.8, 0.8, 0.3))

# (model, eps): eps at axis midpoints, at exact axis values (ties) and at
# integer ratios mu_n/eps (powers of two divide 1/n exactly for n = 2**j)
REFERENCE_CASES = [
    (Canonical(1.0, 1.0), 1e-3),
    (Canonical(1.0, 1.0), 2.0**-10),
    (Canonical(1.0, 3.0), 0.375),
    (Canonical(2.0, 1.0), 2.0**-12),
    (Canonical(0.5, 1.0), 0.03),
    (Canonical(0.5, 1.7), _midpoint(Canonical(0.5, 1.7), 5000)),
    (Canonical(0.75, 2.3), axis(Canonical(0.75, 2.3), 777)),
    (Canonical(0.75, 2.3), _midpoint(Canonical(0.75, 2.3), 20000)),
    (Canonical(2.0, 0.7), axis(Canonical(2.0, 0.7), 12)),
    (RISING, 0.2),
    (RISING, 0.3),
    (RISING, 0.05),
    (RISING, 0.1),
    (TwoTermPolynomial(1.0, -0.3, 1.6, 2.1), 1e-3),
    (TwoTermPolynomial(1.0, -0.3, 0.6, 1.2), _midpoint(TwoTermPolynomial(1.0, -0.3, 0.6, 1.2), 9000)),
    (TwoTermPolynomial(1.0, 1.0, 1.0, 1.25), 1e-4),
    (TwoTermPolynomial(1.0, 1.0, 1.0, 1.25), axis(TwoTermPolynomial(1.0, 1.0, 1.0, 1.25), 40)),
    (TwoTermPolynomial(2.0, 0.5, 0.75, 1.5), 2.0**-8),
    (TAILED, 0.3),
    (TAILED, 0.5),
    (TAILED, 0.09),
    (TAILED, 1e-4),
    (Tabulated((1.0, 0.5), tail=Canonical(2.0, 1.0)), 2.0**-12),
    (SHORT, 0.35),
    (SHORT, 0.8),
    (SHORT, 0.1),
    (SHORT, 0.8 / 3),
    (Tabulated((1.0,)), 0.5),
]


class TestPerAxisReference:
    @pytest.mark.parametrize("model,eps", REFERENCE_CASES)
    def test_runs_match_per_axis_loop(self, model, eps):
        r = exact_entropy(model, eps)
        counts = reference.per_axis_counts(model, eps)
        product = reference.product(model, eps)
        assert r.bits.hex() == (0.0 if product == 1 else math.log2(product)).hex()
        assert r.exact_product() == product
        assert r.per_axis_counts == counts
        assert r.effective_dim == len(counts) == counting(model, eps)
        assert all(a[0] != b[0] for a, b in zip(r.count_runs, r.count_runs[1:]))
        assert exact_entropy_counting(model, eps) == pytest.approx(r.bits, rel=1e-12, abs=1e-12)


class TestCountingForm:
    def test_canonical_telescopes(self):
        # M_1 = 3, M_2 = 1, M_3 = 1: 3 + log2(3/2) + log2(4/3) = 4 bits
        assert exact_entropy_counting(Canonical(1, 1), 0.3) == pytest.approx(4.0, abs=1e-12)

    def test_zero_above_largest_axis(self):
        assert exact_entropy_counting(Canonical(1, 1), 2.0) == 0.0

    def test_flat_table(self):
        val = exact_entropy_counting(Tabulated((2.0, 2.0)), 0.5)
        assert val == pytest.approx(2 * (1 + math.log2(1.5) + math.log2(4 / 3)), abs=1e-12)
        assert val == pytest.approx(math.log2(16), abs=1e-12)

    @given(axes=axes_lists, eps=st.floats(0.005, 20.0))
    @settings(max_examples=200, deadline=None)
    def test_dual_formula_integer_identity(self, axes, eps):
        model = Tabulated(axes)
        assert reference.counting_product(model, eps) == Fraction(exact_entropy(model, eps).exact_product())


class TestOptimalCovering:
    def test_one_axis_grid(self):
        centers = optimal_covering([1.0], 0.3)
        assert centers == [(-0.75,), (-0.25,), (0.25,), (0.75,)]
        assert max(1.0 / 4, 0) <= 0.3  # half-spacing within radius

    def test_small_axis_single_center(self):
        assert optimal_covering([0.2], 0.3) == [(0.0,)]

    def test_product_structure(self):
        centers = optimal_covering([1.0, 0.5], 0.3)
        assert len(centers) == 8

    def test_cardinality_equals_exact_count(self):
        axes = (1.3, 0.8, 0.3)
        eps = 0.21
        centers = optimal_covering(axes, eps)
        assert len(centers) == exact_entropy(Tabulated(axes), eps).exact_product()

    def test_half_spacing_within_radius(self):
        axes = (1.3, 0.8, 0.3)
        eps = 0.21
        counts = list(exact_entropy(Tabulated(axes), eps).per_axis_counts)
        counts += [1] * (len(axes) - len(counts))  # axes already inside one ball
        for a, m in zip(axes, counts):
            assert a / m <= eps + 1e-15

    def test_cap(self):
        with pytest.raises(EnumerationTooLarge) as exc:
            optimal_covering([100.0] * 4, 1e-3)
        assert exc.value.count == 100000**4

    def test_every_sampled_point_is_covered(self):
        axes = np.array([1.0, 0.6, 0.3])
        eps = 0.25
        centers = np.array(optimal_covering(list(axes), eps))
        rng = np.random.default_rng(7)
        pts = rng.uniform(-1.0, 1.0, size=(10**4, 3)) * axes
        dists = np.abs(pts[:, None, :] - centers[None, :, :]).max(axis=2).min(axis=1)
        assert float(dists.max()) <= eps + 1e-12

    def test_greedy_oracle_never_beats_the_grid(self):
        # any covering found by the grid oracle at an effective radius <= eps
        # has at least 2^bits centers
        from ellentropy.constants import HolderExponent
        from ellentropy.finite_bounds import FiniteEllipsoid
        from ellentropy.oracle import greedy_cover

        for axes, eps in [((1.0,), 0.25), ((1.0, 0.5), 0.3), ((1.0, 0.7, 0.4), 0.35)]:
            E = FiniteEllipsoid(HolderExponent(math.inf), axes)
            resolution = 128 if len(axes) == 3 else 512
            delta = max(axes) / resolution  # sup-norm half cell
            rep = greedy_cover(E, math.inf, eps - delta, resolution)
            assert rep.cover_count >= exact_entropy(Tabulated(axes), eps).exact_product()


class TestMonotonicity:
    @given(eps=st.floats(0.02, 2.0), factor=st.floats(1.0, 3.0))
    @settings(max_examples=80)
    def test_bits_monotone(self, eps, factor):
        m = Canonical(1.0, 1.0)
        assert exact_entropy(m, eps * factor).bits <= exact_entropy(m, eps).bits

    @given(axes=axes_lists, scale=st.floats(1.0, 2.0))
    @settings(max_examples=80)
    def test_axis_enlargement(self, axes, scale):
        eps = 0.3
        bigger = tuple(a * scale for a in axes)
        assert (
            exact_entropy(Tabulated(bigger), eps).bits
            >= exact_entropy(Tabulated(axes), eps).bits
        )


class TestCanonicalAsymptotic:
    def test_leading_value(self):
        assert canonical_asymptotic(1.0, 1.0, 1e-3) == pytest.approx(
            1e3 * zeta_series_constant(1.0), rel=1e-12
        )

    def test_scale_homogeneity(self):
        one = canonical_asymptotic(2.0, 1.0, 1e-2)
        two = canonical_asymptotic(2.0, 2.0, 1e-2)
        assert two == pytest.approx(2 ** (1 / 2.0) * one, rel=1e-12)

    def test_residual_per_log_bounded(self):
        vals = []
        for eps in (1e-2, 1e-3, 1e-4):
            gap = abs(
                exact_entropy(Canonical(1, 1), eps).bits
                - canonical_asymptotic(1.0, 1.0, eps)
            )
            vals.append(gap / math.log2(1 / eps))
        assert max(vals) <= 2.0  # empirical constant, fixed at build time
