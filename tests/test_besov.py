import math
from fractions import Fraction

import pytest

from ellentropy.besov import (
    BesovSpec,
    besov_entropy_band,
    semi_axes_from_besov,
)
from ellentropy.constants import HolderExponent
from ellentropy.errors import EntropyError, InvalidModel

INF = math.inf
LN2 = math.log(2.0)


def spec(s, d, p1, vol):
    return BesovSpec(s, d, HolderExponent(p1), vol)


class TestInducedModel:
    def test_p_two_simplifies(self):
        m = semi_axes_from_besov(spec(1.5, 2, 2, 1.0))
        assert m.b == pytest.approx(0.75)  # s/d
        assert m.c == 1.0

    def test_unit_case(self):
        m = semi_axes_from_besov(spec(1.0, 1, 2, 1.0))
        assert (m.b, m.c) == (1.0, 1.0)

    def test_volume_scales_c(self):
        m = semi_axes_from_besov(spec(1.0, 1, 2, 2.0))
        assert m.c == pytest.approx(2.0)

    @pytest.mark.parametrize("vol", [7.05641e7, 1e-7])
    def test_scale_past_the_float_range_rejected(self, vol):
        # vol^e at e ~ 67 overflows for the large volume, underflows for the small
        with pytest.raises(InvalidModel, match=r"vol\^e .* past the float range"):
            semi_axes_from_besov(spec(67.5965, 1, 1.5, vol))

    def test_noncompact_combination_rejected(self):
        with pytest.raises(EntropyError):
            semi_axes_from_besov(spec(0.3, 1, 1, 1.0))


class TestBand:
    def test_reduction_to_hilbert_band(self):
        bb = besov_entropy_band(spec(1.0, 1, 2, 1.0), 1e-2)
        assert bb.band.lower_bits == pytest.approx(100 / LN2)
        assert bb.band.upper_bits == pytest.approx(100 * (1 / LN2 + 1))
        assert bb.b_star == pytest.approx(1.0)

    @pytest.mark.parametrize("s,d,p1", [(1.0, 1, 2.0), (2.0, 3, 4.0), (1.5, 2, INF)])
    def test_volume_doubling_law(self, s, d, p1):
        eps = 1e-2
        one = besov_entropy_band(spec(s, d, p1, 1.0), eps)
        two = besov_entropy_band(spec(s, d, p1, 2.0), eps)
        rp = 0.0 if math.isinf(p1) else 1.0 / p1
        factor = 2.0 ** (1.0 - (d / s) * (rp - 0.5))
        assert two.band.lower_bits / one.band.lower_bits == pytest.approx(factor, rel=1e-12)
        assert two.band.upper_bits / one.band.upper_bits == pytest.approx(factor, rel=1e-12)

    def test_p_two_proportional_to_volume(self):
        one = besov_entropy_band(spec(1.3, 2, 2, 1.0), 1e-2)
        two = besov_entropy_band(spec(1.3, 2, 2, 2.0), 1e-2)
        assert two.band.lower_bits / one.band.lower_bits == pytest.approx(2.0, rel=1e-12)

    def test_holder_zygmund_always_compact(self):
        for s in (0.1, 0.5, 3.0):
            bb = besov_entropy_band(spec(s, 2, INF, 1.0), 1e-2)
            assert math.isfinite(bb.band.upper_bits)
            assert bb.model.b == pytest.approx(s / 2 + 0.5)

    def test_small_p_warns_and_flags_upper(self):
        bb = besov_entropy_band(spec(1.0, 1, 1.5, 1.0), 1e-2)
        assert bb.band.upper_constant_unconfirmed
        assert any("p1 < 2" in w for w in bb.warnings)

    def test_frame_constants_warning_always_present(self):
        bb = besov_entropy_band(spec(1.0, 1, 2, 1.0), 1e-2)
        assert any("wavelet-frame" in w for w in bb.warnings)

    def test_eps_exponent(self):
        s, d = 2.0, 3
        b1 = besov_entropy_band(spec(s, d, 2, 1.0), 1e-2)
        b2 = besov_entropy_band(spec(s, d, 2, 1.0), 1e-3)
        assert b2.band.lower_bits / b1.band.lower_bits == pytest.approx(
            10 ** (d / s), rel=1e-12
        )

    def test_answers_where_the_regime_constants_overflow(self):
        # b = 300: (b/ln2)^b passes the float range, the band edges do not
        bb = besov_entropy_band(spec(300.0, 1, 2, 1.0), 0.5)
        assert bb.band.lower_bits == pytest.approx(300 / LN2 * 2 ** (1 / 300), rel=1e-14)
        assert bb.band.lower_bits <= bb.band.upper_bits < math.inf


class TestSymbolicExponentIdentity:
    @pytest.mark.parametrize(
        "s,d,p1",
        [(1, 1, 2), (Fraction(3, 2), 2, 4), (2, 3, None), (Fraction(7, 5), 4, Fraction(5, 2))],
    )
    def test_b_star_collapses_to_s_over_d(self, s, d, p1):
        rp = Fraction(0) if p1 is None else Fraction(1, 1) / Fraction(p1)
        b = Fraction(s) / d - rp + Fraction(1, 2)  # the decay exponent, exactly
        assert b + rp - Fraction(1, 2) == Fraction(s) / d
        band = besov_entropy_band(spec(float(s), d, INF if p1 is None else float(p1), 1.0), 1e-2)
        assert band.model.b == pytest.approx(float(b), rel=1e-15)
        assert band.b_star == pytest.approx(float(s) / d, rel=1e-15)
