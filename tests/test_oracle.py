import math
import random

import pytest

import grid_reference as reference
from ellentropy.constants import HolderExponent, as_exponent
from ellentropy.errors import EnumerationTooLarge, EntropyError
from ellentropy.finite_bounds import FiniteEllipsoid
from ellentropy.oracle import greedy_cover, greedy_pack, sandwich_report

INF = math.inf


def ell(p, axes):
    return FiniteEllipsoid(HolderExponent(p), tuple(axes))


class TestOneDimension:
    @pytest.mark.parametrize("eps,expected", [(0.2, 5), (0.25, 4), (0.3, 4), (0.45, 3)])
    def test_pack_pins_exact_count(self, eps, expected):
        # away from boundary ties, a fine 1-D grid packs exactly ceil(mu/eps)
        rep = greedy_pack(ell(INF, [1.0]), INF, eps, 4096)
        assert rep.pack_count == expected == math.ceil(1.0 / eps)

    @pytest.mark.parametrize("eps", [0.2, 0.25, 0.3, 0.45])
    def test_cover_pins_exact_count(self, eps):
        rep = greedy_cover(ell(INF, [1.0]), INF, eps, 4096)
        exact = math.ceil(1.0 / eps)
        assert exact <= rep.cover_count <= exact + 1

    def test_pack_explicit_separated_set(self):
        rep = greedy_pack(ell(INF, [1.0]), INF, 0.2, 512)
        assert rep.pack_count >= 3


class TestTwoDimensions:
    def test_product_grid_is_not_beaten(self):
        rep = greedy_cover(ell(INF, [1.0, 0.5]), INF, 0.3, 64)
        assert rep.cover_count >= 8

    def test_huge_radius(self):
        assert greedy_cover(ell(2, [1.0, 0.4]), 2, 10.0, 32).cover_count == 1
        assert greedy_pack(ell(2, [1.0, 0.4]), 2, 10.0, 32).pack_count == 1

    def test_pack_below_reconciled_cover(self):
        rng = random.Random(11)
        for _ in range(8):
            axes = sorted((rng.uniform(0.3, 1.0) for _ in range(2)), reverse=True)
            p = rng.choice([1.0, 2.0, INF])
            q = rng.choice([1.0, 2.0, INF])
            eps = rng.uniform(0.25, 0.6)
            E = ell(p, axes)
            pack = greedy_pack(E, q, eps, 64)
            # cover run at eps - delta upper-bounds N(eps) >= pack(eps)
            cover = greedy_cover(E, q, eps - pack.delta, 64)
            assert pack.pack_count <= cover.cover_count


class TestDeterminismAndRefinement:
    def test_identical_runs(self):
        E = ell(2, [1.0, 0.6, 0.3])
        a = greedy_cover(E, 2, 0.4, 32)
        b = greedy_cover(E, 2, 0.4, 32)
        assert (a.cover_count, a.delta) == (b.cover_count, b.delta)
        pa = greedy_pack(E, 2, 0.4, 32)
        pb = greedy_pack(E, 2, 0.4, 32)
        assert pa.pack_count == pb.pack_count

    def test_refinement(self):
        E = ell(2, [1.0, 0.7])
        packs, deltas = [], []
        for res in (16, 32, 64, 128):
            rep = greedy_pack(E, 2, 0.3, res)
            packs.append(rep.pack_count)
            deltas.append(rep.delta)
        assert all(a <= b for a, b in zip(packs, packs[1:]))
        assert all(a >= b for a, b in zip(deltas, deltas[1:]))


class TestGuards:
    def test_dimension_cap(self):
        with pytest.raises(EntropyError):
            greedy_cover(ell(2, [1.0] * 4), 2, 0.3, 16)

    def test_resolution_floor(self):
        with pytest.raises(EntropyError):
            greedy_cover(ell(2, [1.0]), 2, 0.3, 4)

    def test_grid_cap(self):
        with pytest.raises(EnumerationTooLarge):
            greedy_cover(ell(2, [1.0, 1.0, 1.0]), 2, 0.3, 500)


class TestSandwich:
    def test_random_instances(self):
        rng = random.Random(31337)
        for _ in range(10):
            d = rng.choice([2, 3])
            p = rng.choice([1.0, 2.0, INF])
            q = rng.choice([1.0, 2.0, INF])
            axes = sorted((rng.uniform(0.4, 1.0) for _ in range(d)), reverse=True)
            E = ell(p, axes)
            eps = 0.6 * axes[-1]
            rep = sandwich_report(E, q, eps, resolution=32)
            assert rep.all_ok, (p, q, axes, eps, rep.checks, rep.values)

    def test_exact_inside_brackets_sup_norm(self):
        rep = sandwich_report(ell(INF, [1.0, 0.6, 0.3]), INF, 0.25, resolution=32)
        assert rep.all_ok
        assert "exact_in_lower_bracket" in rep.checks
        assert "exact_in_upper_bracket" in rep.checks

    def test_degenerate_flat_ellipsoid(self):
        rep = sandwich_report(ell(2, [1.0, 1e-6]), 2, 0.4, resolution=64)
        assert rep.all_ok

    def test_report_fields(self):
        rep = sandwich_report(ell(2, [1.0, 0.5]), 2, 0.4, resolution=32)
        assert rep.report.pack_count <= rep.report.cover_count * 4  # sanity
        assert rep.report.delta > 0
        assert rep.values["upper_kind"] in ("density", "product-grid")


EXPONENTS = (1.0, 1.5, 2.0, 3.0, INF)


def _admissible(d, p, q, smallest_axis):
    # the density bound's FD1 radius at eta = 1, as in acceptance criterion 5
    rp, rq = as_exponent(p).reciprocal(), as_exponent(q).reciprocal()
    return d ** (-max(rp - rq, 0.0)) * smallest_axis


def _reference_cases():
    rng = random.Random(5)
    cases = []
    for d in (1, 2, 3):
        for p in EXPONENTS:
            for q in EXPONENTS:
                # d = 3 keeps to resolution 32, fatter axes and larger radii
                # so that the full-grid reference stays fast
                if d == 3:
                    low, factor, resolutions = 0.3, 0.5, (8, 16, 32)
                else:
                    low, factor, resolutions = 0.05, 0.2, (8, 16, 32, 64, 128)
                axes = tuple(sorted((rng.uniform(low, 1.0) for _ in range(d)), reverse=True))
                eps = rng.uniform(factor, 1.2) * _admissible(d, p, q, axes[-1])
                res = rng.choice(resolutions)
                cases.append(pytest.param(p, axes, q, eps, res, id=f"d{d}-p{p}-q{q}-r{res}"))
    for q in (1.0, 2.0, INF):
        cases.append(pytest.param(2.0, (1.0, 1e-6), q, 0.3, 64, id=f"flat-q{q}"))
        cases.append(pytest.param(3.0, (1.0, 0.6, 0.3), q, 2.5, 16, id=f"huge-radius-q{q}"))
    return cases


class TestWindowedMatchesReference:
    @pytest.mark.parametrize("p,axes,q,eps,res", _reference_cases())
    def test_counts_equal_full_grid_sweep(self, p, axes, q, eps, res):
        E = ell(p, axes)
        assert greedy_cover(E, q, eps, res).cover_count == reference.cover_count(E, q, eps, res)
        assert greedy_pack(E, q, eps, res).pack_count == reference.pack_count(E, q, eps, res)


# (cover, pack) of the 50 acceptance criterion-5 instances at resolution
# 64, as the full-grid oracle counted them
CRITERION_5_COUNTS = [
    (4, 4), (5, 4), (77, 15), (642, 16), (83, 8), (14, 8), (8, 4), (68, 19), (82, 19), (158, 29),
    (8, 5), (59, 10), (147, 33), (35, 6), (6, 6), (6, 4), (6, 5), (8, 6), (9, 6), (11, 8),
    (11, 5), (198, 51), (46, 8), (246, 28), (8, 3), (174, 47), (77, 15), (6, 5), (105, 29), (8, 3),
    (25, 4), (14, 8), (11, 7), (72, 11), (102, 19), (48, 15), (121, 14), (25, 7), (97, 19), (36, 6),
    (25, 8), (7, 4), (98, 10), (6, 5), (12, 4), (7, 4), (4, 4), (36, 8), (15, 9), (12, 4),
]


class TestGoldenCounts:
    def test_criterion_5_instances(self):
        # the instance generator of tests/test_acceptance.py, criterion 5
        rng = random.Random(20240809)
        counts = []
        for _ in range(50):
            d = rng.choice([2, 3])
            p = rng.choice([1.0, 2.0, INF])
            q = rng.choice([1.0, 2.0, INF])
            axes = tuple(sorted((rng.uniform(0.45, 1.0) for _ in range(d)), reverse=True))
            E = ell(p, axes)
            rp, rq = as_exponent(p).reciprocal(), as_exponent(q).reciprocal()
            # the same float expression: one ulp of eps can move a count
            eps = 0.75 * d ** (-max(rp - rq, 0.0)) * axes[-1]
            counts.append((greedy_cover(E, q, eps, 64).cover_count, greedy_pack(E, q, eps, 64).pack_count))
        assert counts == CRITERION_5_COUNTS
