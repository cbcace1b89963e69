import math
import random
import sys
import tracemalloc

import pytest

import grid_reference as reference
from ellentropy import oracle
from ellentropy.block_decomp import MixedEllipsoidSpec, mixed_upper_bound
from ellentropy.constants import HolderExponent, as_exponent
from ellentropy.errors import EnumerationTooLarge, EntropyError
from ellentropy.finite_bounds import FiniteEllipsoid
from ellentropy.oracle import greedy_cover, greedy_pack, sandwich_report
from ellentropy.sequences import Tabulated

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

    @pytest.mark.parametrize("eps", [INF, math.nan, 0.0, -0.1])
    def test_eps_must_be_positive_and_finite(self, eps):
        for run in (greedy_cover, greedy_pack, sandwich_report):
            with pytest.raises(EntropyError, match="positive and finite"):
                run(ell(2, [1.0, 0.5]), 2, eps, 16)

    def test_grid_cap(self):
        with pytest.raises(EnumerationTooLarge):
            greedy_cover(ell(2, [1.0, 1.0, 1.0]), 2, 0.3, 500)


class TestMemory:
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, INF])
    def test_peak_below_the_coordinate_grid(self, p):
        # the (64,)*3 + (3,) float64 coordinate grid alone takes 6 MiB
        limit = 64**3 * 3 * 8
        E = ell(p, [1.0, 0.8, 0.6])
        for run in (greedy_cover, greedy_pack):
            tracemalloc.start()
            try:
                run(E, 2.0, 0.3, 64)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < limit, (run.__name__, peak)

    @pytest.mark.parametrize(
        "axes,res,eps",
        [
            ((1.0,), 10**6, 0.01),
            ((1.0,), 10**6, 0.4),
            ((1.0, 0.8), 2048, 0.05),
            ((1.0, 0.8), 2048, 0.4),
        ],
    )
    def test_peak_below_four_body_norm_arrays(self, axes, res, eps):
        # res x res distance tables would take terabytes at d = 1 and
        # another 134 MB at d = 2; the body norms take 8 res^d bytes
        limit = 4 * res ** len(axes) * 8
        for run in (greedy_cover, greedy_pack):
            tracemalloc.start()
            try:
                run(ell(2, axes), 2.0, eps, res)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < limit, (run.__name__, peak)


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

    @pytest.mark.parametrize("dim", [3, 1, 2])
    @pytest.mark.parametrize("mu, eps, gamma", [(0.9, 0.5, 1), (1.0, 0.4, 1), (0.8, 0.35, 2)])
    def test_mixed_route_at_d3_holds(self, mu, eps, gamma, dim):
        # a leading block of size 3 (or 1 or 2, under the product grid) is a
        # Euclidean ball of radius mu, and a packing of it at the inflated
        # radius lower-bounds the mixed entropy
        spec = MixedEllipsoidSpec(Tabulated((mu, 0.2)), (dim, 5))
        upper, cert = mixed_upper_bound(spec, eps, gamma)
        assert cert.block_sizes == (dim,)
        pack = greedy_pack(ell(2, [mu] * dim), 2, upper.epsilon, 32).pack_count
        assert math.log2(pack) <= upper.bits

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
    # radii whose squares, cubes or doubles leave the float range: the
    # computed distances overflow to inf, and the full sweep warns
    overflows = pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    for axes in ((1.0, 0.5), (1.0, 0.6, 0.3)):
        for q in EXPONENTS:
            for eps in (1e154, 1e200, 1e308):
                name = f"float-edge-d{len(axes)}-q{q}-eps{eps:g}"
                cases.append(pytest.param(2.0, axes, q, eps, 8, id=name, marks=overflows))
    # axes near 1e154, where every snap distance can overflow while the
    # distances between cells do not, so the snapped centre must be the
    # full sweep's first retained cell
    for p, axes, eps in (
        (1.0, (1e154, 1e154), 1e155),
        (1.0, (1e154, 1e154, 1e154), 1e155),
        (2.0, (1e154, 5e153, 5e153), 3e154),
        (2.0, (3e154, 1.5e154), 3e155),
    ):
        name = f"huge-axes-d{len(axes)}-p{p}-eps{eps:g}"
        cases.append(pytest.param(p, axes, 2.0, eps, 8, id=name, marks=overflows))
    return cases


def _tie_cases():
    # Dyadic axes and resolutions put every cell centre on a dyadic
    # rational, so coordinate differences are exact multiples of the cell
    # width.  With eps a multiple of the smallest width, grid distances
    # equal eps and 2 eps exactly (for q = 2 along an axis, and at 5 widths
    # also on the 3-4-5 diagonal), which pins the <= and > tie handling.
    cases = []
    for axes, res in (((1.0,), 64), ((1.0, 0.5), 32), ((1.0, 0.5, 0.5), 16)):
        width = 2.0 * axes[-1] / res
        for q in (1.0, 2.0, INF):
            for p, m in ((2.0, 4), (INF, 5)):
                d = len(axes)
                cases.append(pytest.param(p, axes, q, m * width, res, id=f"tie-d{d}-q{q}-m{m}"))
    return cases


class TestWindowedMatchesReference:
    @pytest.mark.parametrize("p,axes,q,eps,res", _reference_cases())
    def test_counts_equal_full_grid_sweep(self, p, axes, q, eps, res):
        E = ell(p, axes)
        assert greedy_cover(E, q, eps, res).cover_count == reference.cover_count(E, q, eps, res)
        assert greedy_pack(E, q, eps, res).pack_count == reference.pack_count(E, q, eps, res)

    @pytest.mark.parametrize("p,axes,q,eps,res", _tie_cases())
    def test_counts_equal_full_grid_sweep_at_exact_ties(self, p, axes, q, eps, res):
        E = ell(p, axes)
        points = reference._points(E, res)
        dist = reference._qnorm(points - points[len(points) // 2], as_exponent(q))
        assert (dist == eps).any() and (dist == 2.0 * eps).any()
        assert greedy_cover(E, q, eps, res).cover_count == reference.cover_count(E, q, eps, res)
        assert greedy_pack(E, q, eps, res).pack_count == reference.pack_count(E, q, eps, res)

    @pytest.mark.parametrize("axes,res", [((0.9,), 25), ((0.9, 0.7), 12), ((0.9, 0.7, 0.55), 10)])
    @pytest.mark.parametrize("scale", [1.0, 0.5])
    @pytest.mark.parametrize("step", [-1, 0, 1])
    def test_counts_equal_full_grid_sweep_at_computed_ties(self, axes, res, scale, step):
        # eps (scale 1) or 2 eps (scale 1/2) at a non-dyadic q = 2 distance
        # the full sweep computes, or one float either side of it
        E = ell(2.0, axes)
        points = reference._points(E, res)
        dist = reference._qnorm(points - points[len(points) // 2], as_exponent(2)).tolist()
        r = min(dist, key=lambda x: abs(x - 0.4 * axes[-1]))
        assert r * 2**30 % 1 != 0  # not a dyadic tie
        eps = scale * r
        if step:
            eps = math.nextafter(eps, step * INF)
        assert greedy_cover(E, 2, eps, res).cover_count == reference.cover_count(E, 2, eps, res)
        assert greedy_pack(E, 2, eps, res).pack_count == reference.pack_count(E, 2, eps, res)

    def test_window_covers_the_rounding_of_a_long_reach(self):
        # the reach (about 19) rounds by far more than the cell width of
        # the 4e-30 axis, which made the snap window empty there
        E = ell(3, (3.39791e27, 7.30267e25, 4.33166e-30))
        assert greedy_cover(E, 1.5, 41.3643, 13).cover_count == reference.cover_count(
            E, 1.5, 41.3643, 13
        )


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


STEP_GRIDS = [
    ((0.9,), 11),
    ((0.9, 0.7), 9),
    ((0.9, 0.7, 0.55), 8),
    ((3.39791e27, 7.30267e25, 4.33166e-30), 13),
]


class TestStepDistances:
    @pytest.mark.parametrize("tabulate", [True, False])
    @pytest.mark.parametrize("q", EXPONENTS)
    @pytest.mark.parametrize("axes,res", STEP_GRIDS)
    def test_equal_the_full_sweep_byte_for_byte(self, axes, res, q, tabulate):
        # from a cell, and from a cell plus a snap shift, to every cell
        q = as_exponent(q)
        d = len(axes)
        sides = oracle._sides(axes, res)
        grid = reference._grid(axes, res)
        full = (slice(0, res),) * d
        for offsets in ([0.0] * d, [0.37 * axes[-1]] * d):
            tables = oracle._tables(sides, q, offsets) if tabulate else None
            for index in ((0,) * d, (res // 2,) * d, (res - 1,) * d):
                want = reference._qnorm(grid - (grid[index] + offsets), q)
                got = oracle._root(oracle._folded(sides, q, index, offsets, full, tables), q)
                assert got.tobytes() == want.tobytes(), (offsets, index)

    @pytest.mark.parametrize("tabulate", [True, False])
    @pytest.mark.parametrize("q", EXPONENTS)
    @pytest.mark.parametrize("axes,res", STEP_GRIDS)
    def test_marked_cells_equal_the_full_sweep_at_a_tie(self, axes, res, q, tabulate):
        # the radius is a computed distance from the centre, so one cell
        # sits exactly on it; every cell within it lies inside the box
        q = as_exponent(q)
        d = len(axes)
        grid = reference._grid(axes, res)
        centre, other = (res // 2,) * d, (res // 2 - 2,) * d
        radius = float(reference._qnorm(grid[other] - grid[centre], q))
        ball = oracle._Ball(oracle._sides(axes, res), axes, res, q, radius, tabulate)
        box = ball.box(centre, 0)
        marked = ball.key(centre, box) <= ball.bound
        want = reference._qnorm(grid - grid[centre], q) <= radius
        assert (marked == want[box]).all()
        assert marked.sum() == want.sum()
        assert marked[tuple(k - sl.start for k, sl in zip(other, box))]

    @pytest.mark.parametrize(
        "r", [5e-324, 1e-160, 0.3, 1.0, 1e154, 1e200, sys.float_info.max, INF]
    )
    def test_sqrt_bound_is_the_largest_passing_sum(self, r):
        s = oracle._sqrt_bound(r)
        assert math.sqrt(s) <= r
        if r == INF:
            assert s == INF
        else:
            assert r < math.sqrt(math.nextafter(s, INF))
