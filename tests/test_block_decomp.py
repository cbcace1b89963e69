import itertools
import math

import numpy as np
import pytest

from ellentropy import block_decomp
from ellentropy.block_decomp import (
    CASE_I,
    CASE_II,
    CASE_III,
    BlockPlan,
    MixedEllipsoidSpec,
    combined_radius,
    infinite_upper_bound,
    mixed_lower_bound,
    mixed_upper_bound,
    omega_lattice_count,
    tail_radius,
)
from ellentropy.errors import DivergentTail, EntropyError, NonCompactRegime, ScanCapExceeded
from ellentropy.finite_bounds import density_upper_bound
from ellentropy.hyperrect import exact_entropy
from ellentropy.sequences import Canonical, Tabulated, TwoTermPolynomial, axis, tail_power_sum

INF = math.inf


class TestCombinedRadius:
    def test_pythagorean(self):
        plan = BlockPlan((1,), (0.3,), ((1.0, 1.0),), CASE_I, 0.4)
        assert combined_radius(plan, 2) == pytest.approx(0.5, rel=1e-14)

    def test_sup_norm_takes_max(self):
        plan = BlockPlan((1,), (0.3,), ((1.0, 1.0),), CASE_I, 0.4)
        assert combined_radius(plan, INF) == 0.4

    def test_max_over_rows(self):
        plan = BlockPlan((1,), (0.3,), ((1.0, 0.0), (0.0, 1.0)), CASE_I, 0.4)
        assert combined_radius(plan, 2) == 0.4
        assert combined_radius(plan, 1) == 0.4


class TestTailRadius:
    def test_case_one_is_next_axis(self):
        assert tail_radius(Canonical(1, 1), 10, INF, INF, 1.0, CASE_I) == axis(
            Canonical(1, 1), 11
        )

    def test_case_three_rejects_canonical(self):
        # n mu_n^(1/b) = c^(1/b) stays positive, so the sum diverges
        with pytest.raises(DivergentTail):
            tail_radius(Canonical(1, 1), 10, INF, 1.0, 1.0, CASE_III)
        with pytest.raises(DivergentTail):
            tail_radius(Canonical(0.5, 1.0), 5, INF, 2.0, 0.5, CASE_III)

    def test_case_three_regime_guard(self):
        with pytest.raises(EntropyError):
            tail_radius(Canonical(1, 1), 10, INF, 2.0, 1.0, CASE_III)  # q != 1/b

    def test_case_two_value(self):
        # p = inf, q = 2, b = 1: theta = 2, alpha_d = sqrt(upper tail sum)
        model = Canonical(1, 1)
        alpha = tail_radius(model, 10, INF, 2.0, 1.0, CASE_II)
        assert alpha == pytest.approx(math.sqrt(tail_power_sum(model, 10, 2.0).hi), rel=1e-14)

    def test_case_two_bounds_sampled_tail_vectors(self):
        # Every vector of the truncated ellipsoid must fit inside alpha_d.
        rng = np.random.default_rng(5)
        model = Canonical(1, 1)
        d, window = 10, 400
        mu = np.array([axis(model, n) for n in range(d + 1, d + window + 1)])
        alpha = tail_radius(model, d, INF, 2.0, 1.0, CASE_II)
        for _ in range(1000):
            x = rng.uniform(-1.0, 1.0, size=window) * mu  # sup-ellipsoid member
            assert float(np.linalg.norm(x)) <= alpha + 1e-12
        # extremal vector
        assert float(np.linalg.norm(mu)) <= alpha + 1e-12

    def test_case_one_bounds_sampled_tail_vectors(self):
        rng = np.random.default_rng(6)
        model = Canonical(1, 1)
        d, window = 4, 50
        mu = np.array([axis(model, n) for n in range(d + 1, d + window + 1)])
        alpha = tail_radius(model, d, 2.0, 2.0, 1.0, CASE_I)
        for _ in range(1000):
            raw = rng.normal(size=window)
            unit = raw / np.linalg.norm(raw / mu)  # ellipsoid norm exactly 1
            assert float(np.linalg.norm(unit)) <= alpha + 1e-12

    def test_mismatched_decay_rejected(self):
        with pytest.raises(EntropyError):
            tail_radius(Canonical(2, 1), 3, INF, 2.0, 1.0, CASE_II)


class TestInfiniteUpperBound:
    def test_dominates_exact_on_grid(self):
        model = Canonical(1, 1)
        for eps in (0.3, 0.1, 0.03):
            result, cert = infinite_upper_bound(model, INF, INF, eps)
            assert result.bits >= exact_entropy(model, eps).bits
            assert result.kind == "certified-upper"
            assert cert.tail_radius <= eps

    def test_hilbert_rate_sanity(self):
        result, _ = infinite_upper_bound(Canonical(1, 1), 2, 2, 1e-2)
        ratio = result.bits * 1e-2
        assert 1 / math.log(2) <= ratio <= 2 * (1 / math.log(2) + 1)

    def test_trivial_covering(self):
        result, cert = infinite_upper_bound(Canonical(1, 1), INF, INF, 1.5)
        assert result.bits == 0.0
        assert cert.effective_dimension == 0
        assert cert.block_sizes == ()

    def test_noncompact_rejected(self):
        with pytest.raises(NonCompactRegime):
            infinite_upper_bound(Canonical(0.3, 1.0), 2, 1, 0.1)

    def test_critical_line_rejected_for_canonical(self):
        with pytest.raises(NonCompactRegime):
            infinite_upper_bound(Canonical(1, 1), INF, 1, 0.1)

    def test_certificate_contents(self):
        result, cert = infinite_upper_bound(Canonical(1, 1), 2, 2, 0.05)
        assert cert.block_sizes == (cert.effective_dimension,)
        assert len(cert.inner_radii) == 1
        rho, alpha = cert.inner_radii[0], cert.tail_radius
        assert (rho**2 + alpha**2) ** 0.5 <= 0.05 * (1 + 1e-12)
        assert cert.omega_count == 1

    def test_radius_round_trip(self):
        # eta = rho / (x mu_d) used to rebuild an admissible radius one ulp
        # below rho, and the bound rejected its own radius
        result, cert = infinite_upper_bound(Canonical(1, 1), 2, 1.5, 0.021695198914988667)
        assert cert.tail_case == CASE_II
        assert "density case FD2" in cert.notes
        assert result.bits > 0

    def test_full_exponent_grid_admits_every_radius(self, monkeypatch):
        # every model family over the full (p, q) grid at log-spaced radii:
        # a bound either holds with rho inside its own admissible interval
        # or the regime is non-compact or past the dimension cap
        bounds = []

        def recording(E, q, eps, eta):
            bound = density_upper_bound(E, q, eps, eta)
            bounds.append((eps, bound.valid_radius_range))
            return bound

        monkeypatch.setattr(block_decomp, "density_upper_bound", recording)
        head = tuple(0.9 * 0.82**i for i in range(24))
        models = [
            Canonical(2.0, 1.0),
            Canonical(1.5, 0.7),
            Canonical(1.0, 0.1),
            TwoTermPolynomial(1.0, -0.3, 1.6, 2.1),
            Tabulated(head, Canonical(0.6677, 0.01)),
            Tabulated(tuple(float(n) ** -0.7 for n in range(1, 41))),
        ]
        exponents = (1.0, 1.5, 2.0, 3.0, INF)
        radii = [0.005 * (0.63 / 0.005) ** (k / 11) for k in range(12)]
        answered = 0
        for model, p, q, eps in itertools.product(models, exponents, exponents, radii):
            bounds.clear()
            try:
                _, cert = infinite_upper_bound(model, p, q, eps)
            except (NonCompactRegime, ScanCapExceeded):
                continue
            answered += 1
            for rho, (lo, hi) in bounds:
                assert rho == cert.inner_radii[0]
                assert lo < rho <= hi, (model, p, q, eps)
        assert answered > 1700

    def test_finite_table_any_radius(self):
        result, cert = infinite_upper_bound(Tabulated((1.0, 0.5, 0.25)), INF, INF, 0.2)
        assert result.bits >= exact_entropy(Tabulated((1.0, 0.5, 0.25)), 0.2).bits


class TestOmegaLattice:
    def test_matches_brute_force(self):
        for dbar, k, gamma in [(9, 1, 1.0), (4, 2, 1.0), (3, 1, 1.2)]:
            budget = math.floor((dbar**gamma + math.sqrt(k + 1)) ** 2)
            brute = sum(
                1
                for m in itertools.product(range(budget + 1), repeat=k + 1)
                if sum(m) <= budget
            )
            assert omega_lattice_count(dbar, k, gamma) == brute


class TestMixedBounds:
    def spec(self, mus=(1.0, 0.5), dims=(9, 9)):
        return MixedEllipsoidSpec(Tabulated(mus), dims)

    def test_single_block_formula(self):
        up, cert = mixed_upper_bound(self.spec(), 0.5, gamma=1.0, rogers_K=1.0)
        expected = math.log2(math.comb(110, 2)) + 9 * math.log2(9 ** (5 / 18) * 2)
        assert up.bits == pytest.approx(expected, rel=1e-12)
        assert cert.omega_count == math.comb(110, 2)
        assert up.epsilon == pytest.approx(0.5 * (1 + math.sqrt(2) / 9))

    def test_monotone_in_eps(self):
        spec = self.spec()
        vals = [mixed_upper_bound(spec, e)[0].bits for e in (0.55, 0.7, 0.9)]
        assert vals[0] >= vals[1] >= vals[2]

    def test_lower_single_interval(self):
        spec = MixedEllipsoidSpec(Tabulated((1.0, 0.2)), (1, 1))
        assert mixed_lower_bound(spec, 0.25).bits == pytest.approx(2.0)

    def test_lower_vanishes_at_mu1(self):
        spec = self.spec()
        assert mixed_lower_bound(spec, 0.999).bits == pytest.approx(
            math.log2(1 / 0.999) * 9, rel=1e-9
        )

    def test_lower_matches_volume_route(self):
        # product of balls seen as a p=q=2 block ellipsoid: the geometric-mean
        # volume bound coincides with the mixed lower bound
        from ellentropy.constants import HolderExponent
        from ellentropy.finite_bounds import FiniteEllipsoid, volume_lower_bound

        mus, dims, eps = (1.0, 0.6, 0.2), (9, 9), 0.5
        spec = MixedEllipsoidSpec(Tabulated(mus), dims)
        lower = mixed_lower_bound(spec, eps)
        axes = (1.0,) * 9 + (0.6,) * 9
        E = FiniteEllipsoid(HolderExponent(2), axes)
        vol = volume_lower_bound(E, 2, eps)
        # same exponent structure: d log2(gmean/eps); V_{2,2,d} = 1
        assert lower.bits == pytest.approx(vol.log2_bound, rel=1e-9)

    def test_sandwich_any_rogers_k(self):
        import random

        rng = random.Random(99)
        for _ in range(20):
            k = rng.randint(1, 3)
            mus = sorted((rng.uniform(0.4, 1.5) for _ in range(k)), reverse=True) + [0.05]
            dims = tuple(rng.randint(9, 20) for _ in range(k)) + (9,)
            spec = MixedEllipsoidSpec(Tabulated(tuple(mus)), dims)
            eps = rng.uniform(0.06, mus[-2] * 0.95) if k > 1 else rng.uniform(0.06, 0.3)
            lo = mixed_lower_bound(spec, eps)
            for K in (1.0, 1e3, 1e6):
                up, _ = mixed_upper_bound(spec, eps, rogers_K=K)
                assert lo.bits <= up.bits

    def test_overhead_shrinks_with_dims(self):
        mus = (1.0, 0.7, 0.4, 0.2)
        eps = 0.3
        per_dim = []
        for m in (9, 18, 36, 72):
            spec = MixedEllipsoidSpec(Tabulated(mus), (m, m, m, m))
            up, _ = mixed_upper_bound(spec, eps)
            lo = mixed_lower_bound(spec, eps)
            per_dim.append((up.bits - lo.bits) / (3 * m))
        assert all(a > b for a, b in zip(per_dim, per_dim[1:]))

    def test_small_blocks_rejected(self):
        with pytest.raises(EntropyError):
            mixed_upper_bound(self.spec(dims=(8, 9)), 0.5)

    def test_eps_above_mu1_rejected(self):
        with pytest.raises(EntropyError):
            mixed_upper_bound(self.spec(), 1.5)
