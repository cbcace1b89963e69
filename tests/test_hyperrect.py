import math
import os
import random
import subprocess
import sys
import textwrap
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ellentropy
from ellentropy.constants import zeta_series_constant
from ellentropy.errors import EnumerationTooLarge, ScanCapExceeded
from ellentropy.hyperrect import (
    _directed_log2,
    _round53,
    _run_product,
    exact_entropy,
    exact_entropy_counting,
    optimal_covering,
)
from ellentropy.sequences import (
    Canonical,
    Tabulated,
    TwoTermPolynomial,
    axis,
    counting,
    last_passing,
)
from test_golden import MODELS, RADII

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


class Tent:
    """A law known only through the protocol: a rising head mu_n = n/start
    for n < start, then (start/n)**8 from start on.  ``calls`` counts the
    axis evaluations; past ``budget`` of them the law raises, so that a walk
    over a long head fails instead of running on."""

    decay_index = 8.0
    length = None
    rising_head = True

    def __init__(self, start, budget=math.inf):
        self.start = start
        self.budget = budget
        self.calls = 0

    def axis(self, n):
        self.calls += 1
        if self.calls > self.budget:
            raise RuntimeError(f"more than {self.budget} axis evaluations")
        return n / self.start if n < self.start else (self.start / n) ** 8

    def monotone_start(self, e=0.0):
        return self.start

    def last_exceeding(self, start, t):
        return last_passing(lambda n: t.below(self.axis(n)), start - 1)


class TestRisingHead:
    @pytest.mark.parametrize("eps", [0.3, 0.05, 0.001, 0.9, 1.0])
    def test_searched_head_runs_match_the_per_axis_loop(self, eps):
        model = Tent(20_000)
        r = exact_entropy(model, eps)
        counts = reference.per_axis_counts(model, eps)
        assert r.per_axis_counts == counts
        assert r.bits.hex() == (0.0 if not counts else math.log2(math.prod(counts))).hex()
        assert all(a[0] != b[0] for a, b in zip(r.count_runs, r.count_runs[1:]))
        for k in (1, 2, 7):
            assert counting(model, eps, k) == sum(c > k for c in counts)

    def test_head_runs_are_searched(self):
        # a head of 10**6 axes in three runs, and a tail of four
        model = Tent(10**6, budget=500)
        r = exact_entropy(model, 0.3)
        assert [v for v, _ in r.count_runs] == [2, 3, 4, 3, 2]
        tail = sum((10**6 / n) ** 8 > 0.3 for n in range(10**6, 1_200_000))
        assert r.effective_dim == counting(model, 0.3) == 10**6 - 300_001 + tail

    def test_cap_is_checked_before_any_head_run(self):
        with pytest.raises(ScanCapExceeded):
            exact_entropy(Tent(10**9, budget=500), 0.01)

    def test_far_peak_two_term_law_returns_at_once(self):
        # TwoTermPolynomial(1, -0.9, 0.01, 0.05) rises up to its monotone
        # start near 2.1e16; a walk over that head never returns, so the
        # calls run in a child process that a timeout stops
        src = str(Path(ellentropy.__file__).parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        code = textwrap.dedent(
            """
            import math

            from ellentropy.asymptotics import entropy_estimator
            from ellentropy.errors import ScanCapExceeded
            from ellentropy.hyperrect import exact_entropy, exact_entropy_counting
            from ellentropy.sequences import TwoTermPolynomial, counting

            m = TwoTermPolynomial(1.0, -0.9, 0.01, 0.05)
            start = m.monotone_start()
            assert start > 10**16
            n = counting(m, 0.05)
            assert n > 10**100 and m.axis(n) > 0.05 >= m.axis(n + 1)
            assert counting(m, 0.05, 3) < n
            # the estimator reads the log-product's closed form, the exact
            # entropy would visit every axis
            value = entropy_estimator(m, 0.05)
            assert 0 < value < math.inf
            assert value == m.log_product(n).mid - n * math.log2(0.05)
            for f in (exact_entropy, exact_entropy_counting):
                try:
                    f(m, 0.05)
                except ScanCapExceeded:
                    pass
                else:
                    raise AssertionError(f)
            # above every axis: nothing passes, in the head or past it
            assert m.axis(start - 1) < 0.6
            assert counting(m, 0.6) == 0 and entropy_estimator(m, 0.6) == 0.0
            assert exact_entropy(m, 0.6).effective_dim == 0
            """
        )
        subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": path},
            check=True,
            timeout=20,
        )


class TestDirectedProduct:
    def test_bits_equal_log2_of_the_product_on_the_golden_grid(self):
        checked = 0
        for model, _ in MODELS.values():
            for eps in RADII:
                r = exact_entropy(model, eps)
                assert r.bits.hex() == math.log2(r.exact_product()).hex(), (model, eps)
                checked += _directed_log2(r.count_runs) is not None
        assert checked == len(MODELS) * len(RADII)

    def test_fallback_near_the_rounding_boundary(self):
        """Random runs times one last count that puts the product within a
        small fraction of a 53-bit midpoint: the directed ends straddle it,
        and exact_entropy's fallback is needed."""
        rng = random.Random(12)
        undecided = 0
        for _ in range(100):
            runs = [(rng.randint(2, 10**6), rng.randint(1, 3000)) for _ in range(rng.randint(1, 6))]
            head = _run_product(runs)
            size = head.bit_length() + 250 + rng.randint(0, 900)
            # an odd multiple of half an ulp at 53 bits: a tie between floats
            midpoint = (2 * rng.randrange(2**52, 2**53) + 1) << (size - 54)
            last = midpoint // head + rng.choice((0, 1))
            runs.append((last, 1))
            exact = math.log2(_run_product(runs))
            bits = _directed_log2(runs)
            assert bits is None or bits.hex() == exact.hex(), runs
            undecided += bits is None
        assert undecided >= 75

    @pytest.mark.parametrize(
        "runs",
        [
            ((2, 1023),),  # 2**1023: the float path
            ((2, 1023), (3, 1)),  # 1.5 * 2**1024: past the float range
            ((2**1024 - 1, 1),),  # rounds up to 2**1024
            ((2**1024 - 2**970, 1),),  # the largest float
            ((2**1024 - 2**970 + 1, 1),),
            ((3, 646),),  # just below 2**1024
            ((3, 647),),  # just above it
            ((7, 364), (5, 3)),
            ((2, 40_000), (3, 20_001)),  # binary powering on both sides
            ((10**6 + 3, 20_000),),
        ],
    )
    def test_both_sides_of_the_float_range(self, runs):
        exact = math.log2(_run_product(runs))
        assert _directed_log2(runs).hex() == exact.hex()

    def test_round53_matches_float_conversion(self):
        # CPython converts an int to float with one rounding, ties to even;
        # past the float range the reference is scaled down exactly first
        rng = random.Random(3)
        for _ in range(3000):
            bits = rng.randint(1, 1200)
            p = rng.getrandbits(bits) | (1 << (bits - 1))
            if bits > 54 and rng.random() < 0.5:
                p = ((p >> (bits - 54)) | 1) << (bits - 54)  # a tie at 53 bits
            q, e = _round53(p, 0)
            shift = max(0, bits - 1000)
            assert math.ldexp(q, e - shift) == float(Fraction(p, 2**shift)), p

    def test_log2_matches_cpython_at_the_float_range(self):
        # just below 2**1024 CPython takes log2 of the float, from 2**1024 on
        # log2 of the mantissa plus the exponent; the two differ in the last
        # bit for a few products in a thousand
        rng = random.Random(4)
        for _ in range(20_000):
            bits = 1024 if rng.random() < 0.5 else rng.randint(1025, 1100)
            p = rng.getrandbits(bits) | (1 << (bits - 1))
            assert _directed_log2(((p, 1),)) == math.log2(p), p

    @settings(max_examples=100, deadline=None)
    @given(
        runs=st.lists(
            st.tuples(st.integers(2, 2**70), st.integers(1, 3000)), min_size=1, max_size=8
        )
    )
    def test_random_runs(self, runs):
        bits = _directed_log2(runs)
        assert bits is None or bits.hex() == math.log2(_run_product(runs)).hex()

    def test_deep_canonical_product_is_not_built(self):
        # Canonical(0.7, 1) at 1e-4 has d* near 5.2e5
        runs = exact_entropy(Canonical(0.7, 1.0), 1e-4).count_runs
        assert sum(m for _, m in runs) == 517_947

        def best(f):
            times = []
            for _ in range(3):
                start = time.perf_counter()
                value = f(runs)
                times.append(time.perf_counter() - start)
            return value, min(times)

        directed, fast = best(_directed_log2)
        full, slow = best(lambda r: math.log2(_run_product(r)))
        assert directed.hex() == full.hex()
        assert fast < slow / 3


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
    """exact_entropy of c/n^b against its leading term S(b) (c/eps)^(1/b)."""

    @staticmethod
    def leading(b, c, eps):
        return zeta_series_constant(b) * (c / eps) ** (1.0 / b)

    def test_leading_value(self):
        assert exact_entropy(Canonical(1.0, 1.0), 1e-3).bits == pytest.approx(
            self.leading(1.0, 1.0, 1e-3), rel=0.02
        )

    def test_scale_homogeneity(self):
        # c/n^b at eps is (2c)/n^b at 2 eps, axis by axis, so both the
        # entropy and its leading term depend on c/eps only
        one = exact_entropy(Canonical(2.0, 1.0), 1e-2).bits
        two = exact_entropy(Canonical(2.0, 2.0), 2e-2).bits
        assert one == two
        assert self.leading(2.0, 2.0, 1e-2) == pytest.approx(
            2 ** (1 / 2.0) * self.leading(2.0, 1.0, 1e-2), rel=1e-12
        )

    def test_residual_per_log_bounded(self):
        vals = []
        for eps in (1e-2, 1e-3, 1e-4):
            gap = abs(exact_entropy(Canonical(1, 1), eps).bits - self.leading(1.0, 1.0, eps))
            vals.append(gap / math.log2(1 / eps))
        assert max(vals) <= 2.0  # empirical constant, fixed at build time
