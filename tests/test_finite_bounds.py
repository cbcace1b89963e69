import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellentropy.constants import HolderExponent
from ellentropy.errors import EntropyError, RadiusOutOfRange, ScanCapExceeded
from ellentropy.finite_bounds import (
    FD1,
    FD2,
    FiniteEllipsoid,
    admissible_radius,
    density_upper_bound,
    explicit_kappa,
    product_grid_upper_bound,
    volume_lower_bound,
)
from ellentropy.hyperrect import exact_entropy
from ellentropy.sequences import Canonical, axis

INF = math.inf


def ell(p, axes):
    return FiniteEllipsoid(HolderExponent(p), tuple(axes))


class TestVolumeLower:
    def test_one_dimension_below_exact(self):
        E = ell(2, [0.9])
        b = volume_lower_bound(E, 2, 0.2)
        assert b.log2_bound == pytest.approx(math.log2(0.9 / 0.2), rel=1e-12)
        assert 2**b.log2_bound <= math.ceil(0.9 / 0.2)

    def test_two_axis_sup_norm(self):
        b = volume_lower_bound(ell(INF, [1.0, 0.5]), INF, 0.3)
        assert b.log2_bound == pytest.approx(math.log2(0.5 / 0.09), rel=1e-9)
        assert b.log2_bound <= 3.0  # exact value is 3 bits

    def test_clipped_at_zero(self):
        b = volume_lower_bound(ell(2, [0.1, 0.1]), 2, 5.0)
        assert b.log2_bound == 0.0

    def test_validity_flags(self):
        b = volume_lower_bound(ell(1, [1.0]), 2, 0.2)
        assert b.kind == "lower"
        assert b.valid_radius_range == (0.0, INF)


class TestAdmissibleRadius:
    def test_p_equals_q(self):
        E = ell(2, [1.0, 0.8, 0.5])
        assert admissible_radius(E, 2, 1.0, FD1) == (0.0, 0.5)
        assert admissible_radius(E, 2, 1.0, FD2) == (0.0, 0.5)

    def test_fd2_example(self):
        E = ell(INF, [1.0, 1.0, 1.0, 0.1])
        assert admissible_radius(E, 2, 1.0, FD2)[1] == pytest.approx(0.2)

    def test_fd1_example(self):
        E = ell(1, [1.0, 1.0, 1.0, 0.1])
        assert admissible_radius(E, 2, 2.0, FD1)[1] == pytest.approx(0.1)

    def test_fd2_needs_p_at_least_q(self):
        with pytest.raises(EntropyError):
            admissible_radius(ell(1, [1.0, 1.0]), 2, 1.0, FD2)


class TestKappa:
    def test_limit(self):
        assert explicit_kappa(10**4) <= 1.01

    def test_decreasing_tail(self):
        vals = [explicit_kappa(d) for d in (10, 100, 1000, 10**4, 10**5)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_small_dimension_rejected(self):
        with pytest.raises(EntropyError):
            explicit_kappa(2)


class TestDensityUpper:
    def test_sandwich_on_randomized_grid(self):
        import random

        rng = random.Random(2024)
        exponents = [1.0, 2.0, INF]
        for _ in range(50):
            d = rng.randint(3, 16)
            p = rng.choice(exponents)
            q = rng.choice(exponents)
            axes = sorted((rng.uniform(0.3, 1.0) for _ in range(d)), reverse=True)
            E = ell(p, axes)
            eta = 1.0
            eps = 0.8 * admissible_radius(E, q, eta, FD1)[1]
            lower = volume_lower_bound(E, q, eps)
            upper = density_upper_bound(E, q, eps, eta)
            assert lower.log2_bound <= upper.log2_bound

    def test_euclidean_ball_d16(self):
        E = ell(2, [1.0] * 16)
        eps = 0.5
        upper = density_upper_bound(E, 2, eps, 1.0)
        assert math.isfinite(upper.log2_bound)
        assert upper.log2_bound >= volume_lower_bound(E, 2, eps).log2_bound

    def test_pack_oracle_below_bound_d3(self):
        from ellentropy.oracle import greedy_pack

        E = ell(2, [1.0, 0.8, 0.6])
        eps = 0.4
        upper = density_upper_bound(E, 2, eps, 1.0)
        rep = greedy_pack(E, 2, eps, 64)
        assert math.log2(rep.pack_count) <= upper.log2_bound

    def test_cover_oracle_above_volume_lower_d2(self):
        from ellentropy.oracle import greedy_cover

        E = ell(2, [1.0, 0.7])
        eps = 0.3
        rep = greedy_cover(E, 2, eps, 64)
        lower = volume_lower_bound(E, 2, eps + rep.delta)
        assert lower.log2_bound <= math.log2(rep.cover_count)

    def test_out_of_range_reports_interval(self):
        E = ell(2, [1.0, 0.5, 0.25])
        with pytest.raises(RadiusOutOfRange) as exc:
            density_upper_bound(E, 2, 5.0, 1.0)
        assert exc.value.interval[1] == pytest.approx(0.25)

    def test_dimension_guard(self):
        with pytest.raises(EntropyError):
            density_upper_bound(ell(2, [1.0, 0.5]), 2, 0.1, 1.0)

    def test_metadata(self):
        E = ell(INF, [1.0, 0.9, 0.8, 0.7])
        b = density_upper_bound(E, 2, 0.5, 1.0)
        assert b.kind == "upper"
        assert b.case_tag in (FD1, FD2)
        assert b.kappa_used == explicit_kappa(4)

    @given(lam=st.floats(0.1, 10.0))
    @settings(max_examples=60)
    def test_scale_equivariance(self, lam):
        axes = (1.0, 0.6, 0.4)
        eps, eta = 0.3, 1.0
        base_l = volume_lower_bound(ell(2, axes), 2, eps).log2_bound
        base_u = density_upper_bound(ell(2, axes), 2, eps, eta).log2_bound
        scaled = tuple(a * lam for a in axes)
        got_l = volume_lower_bound(ell(2, scaled), 2, eps * lam).log2_bound
        got_u = density_upper_bound(ell(2, scaled), 2, eps * lam, eta).log2_bound
        assert got_l == pytest.approx(base_l, abs=1e-9)
        assert got_u == pytest.approx(base_u, abs=1e-9)


class TestProductGridFallback:
    def test_exact_for_sup_norm(self):
        assert product_grid_upper_bound((1.0, 0.5), INF, 0.3) == pytest.approx(3.0)

    def test_underflowed_axis_after_one_cell_takes_one_cell(self):
        # axes do not increase, so the axis that underflowed is at most 0.01
        assert product_grid_upper_bound((0.01, 0.0), 2, 0.1) == 0.0

    @pytest.mark.parametrize("axes", [(1.0, 0.0), (0.0,)])
    def test_underflowed_axis_past_one_cell_is_a_cap(self, axes):
        with pytest.raises(ScanCapExceeded, match=f"axis {len(axes)} underflowed to 0.0"):
            product_grid_upper_bound(axes, 2, 0.1)

    def test_exact_ceiling_at_decimal_integer_ratios(self):
        # 1/5, 1/10 and 1/20 over 0.01 round to integers in floats, but the
        # exact ratios lie above them and need one more cell each
        model = Canonical(1, 1)
        axes = tuple(axis(model, n) for n in range(1, 100))
        assert product_grid_upper_bound(axes, INF, 0.01) == exact_entropy(model, 0.01).bits

    def test_upper_bounds_oracle_pack(self):
        from ellentropy.oracle import greedy_pack

        E = ell(2, [1.0, 0.5])
        eps = 0.3
        rep = greedy_pack(E, 2, eps, 64)
        assert math.log2(rep.pack_count) <= product_grid_upper_bound(E.axes, 2, eps)


@pytest.mark.parametrize("eta", [math.inf, math.nan])
def test_non_finite_eta_is_an_entropy_error(eta):
    with pytest.raises(EntropyError, match="eta must be finite"):
        density_upper_bound(FiniteEllipsoid(2, (1.0, 1.0, 1.0)), 2, 0.5, eta)
