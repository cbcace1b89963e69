import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from ellentropy import block_decomp, finite_bounds
from ellentropy.asymptotics import canonical_band, classify
from ellentropy.block_decomp import (
    CASE_II,
    MixedEllipsoidSpec,
    infinite_upper_bound,
    mixed_lower_bound,
    mixed_upper_bound,
    omega_lattice_count,
    tail_radius,
)
from ellentropy.errors import EntropyError, NonCompactRegime, ScanCapExceeded
from ellentropy.finite_bounds import (
    _density_upper_bound,
    explicit_kappa,
    product_grid_upper_bound,
)
from ellentropy.hyperrect import exact_entropy
from ellentropy.sequences import (
    Canonical,
    Tabulated,
    TwoTermPolynomial,
    axis,
    last_passing,
    tail_power_sum,
)
from test_golden import MODELS as GOLDEN_MODELS

from forwarding import Forwarding

INF = math.inf
EXPONENTS = (1.0, 1.5, 2.0, 3.0, INF)


class TestTailRadius:
    def test_case_one_is_next_axis(self):
        assert tail_radius(Canonical(1, 1), 10, INF, INF) == axis(Canonical(1, 1), 11)

    def test_critical_line_is_not_compact(self):
        # q = p/(pb+1): n mu_n^(1/b) = c^(1/b) stays positive, so the sum
        # that case III would need diverges
        with pytest.raises(NonCompactRegime):
            tail_radius(Canonical(1, 1), 10, INF, 1.0)

    def test_case_two_value(self):
        # p = inf, q = 2, b = 1: theta = 2, alpha_d = sqrt(upper tail sum)
        model = Canonical(1, 1)
        alpha = tail_radius(model, 10, INF, 2.0)
        assert alpha == pytest.approx(math.sqrt(tail_power_sum(model, 10, 2.0).hi), rel=1e-14)

    def test_case_two_bounds_sampled_tail_vectors(self):
        # Every vector of the truncated ellipsoid must fit inside alpha_d.
        rng = np.random.default_rng(5)
        model = Canonical(1, 1)
        d, window = 10, 400
        mu = np.array([axis(model, n) for n in range(d + 1, d + window + 1)])
        alpha = tail_radius(model, d, INF, 2.0)
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
        alpha = tail_radius(model, d, 2.0, 2.0)
        for _ in range(1000):
            raw = rng.normal(size=window)
            unit = raw / np.linalg.norm(raw / mu)  # ellipsoid norm exactly 1
            assert float(np.linalg.norm(unit)) <= alpha + 1e-12


class TestInfiniteUpperBound:
    # b ~ 7e17 and 2e17: from the second axis on, c n**-b underflows to 0.0
    UNDERFLOWING = Canonical(b=7.03989e17, c=1.02693e-12)

    def test_underflowed_axis_within_one_cell(self):
        # mu_1 = 1e-12 takes one cell at radius ~ eps/2, so mu_2 does too
        result, cert = infinite_upper_bound(self.UNDERFLOWING, 3, 1, 0.00676)
        assert cert.block_sizes == (2,) and result.bits == 0.0

    @pytest.mark.parametrize(
        "model, p, q, eps, match",
        [
            (UNDERFLOWING, 3, 1, 8.073e-20, "axis 2 underflowed to 0.0"),
            (UNDERFLOWING, 3, 1, 9.641e-37, "eta .* mu_d=0.0"),
            (Canonical(b=1.88799e17, c=1.19923e11), 3, 1.5, 2.64738e-63, "eta .* mu_d=0.0"),
        ],
    )
    def test_axis_below_the_float_range_is_a_cap(self, model, p, q, eps, match):
        with pytest.raises(ScanCapExceeded, match=match):
            infinite_upper_bound(model, p, q, eps)

    @pytest.mark.parametrize(
        "model, p, q, eps, bits",
        [
            (
                Tabulated((126557851342830.53, 49252082008376.6, 71973.5167531462,
                           2.023857410434625e-07)),
                3, 3, 2.000850940303659e-276, 3753.6,
            ),
            (Canonical(30, 1), 2, 3, 1e-200, 2.0389e8),
            # eps itself subnormal: the grid step there is far above the 1e-12 margin
            (Tabulated((1.0, 0.5, 0.25, 3e-316)), 2, 3, 1e-315, 3139.16),
        ],
        ids=["table", "canonical", "subnormal-eps"],
    )
    def test_eps_power_below_the_normal_floats_answers(self, model, p, q, eps, bits):
        # eps**q is subnormal or 0.0, so rho is formed scaled by eps; the
        # split still holds exactly: rho**q + alpha**q <= eps**q
        result, cert = infinite_upper_bound(model, p, q, eps)
        assert result.bits == pytest.approx(bits, rel=1e-4)
        (rho,), alpha = cert.inner_radii, cert.tail_radius
        assert rho > 0
        assert Fraction(rho) ** q + Fraction(alpha) ** q <= Fraction(eps) ** q

    @pytest.mark.parametrize(
        "model, p, q, eps",
        [
            # theta = 1/(1/q - 1/p) near 4,000 and 900: mu_1**theta passes 2**1024
            (Canonical(1, 2.0), 2, 1.999, 0.1),
            (Tabulated((3.0, 2.0, 1.0), Canonical(1, 1.0)), 3, 2.99, 0.5),
        ],
        ids=["canonical", "table"],
    )
    def test_tail_power_past_the_float_range_raises_scan_cap(self, model, p, q, eps):
        with pytest.raises(ScanCapExceeded, match="float range"):
            infinite_upper_bound(model, p, q, eps)

    def test_dominates_exact_on_grid(self):
        # the models of the radius sweep below plus a two-axis table, at
        # radii that include decimal-integer ratios mu_n / eps: cuts below
        # d = 3 take the product grid, which must not undercount
        head = tuple(0.9 * 0.82**i for i in range(24))
        models = [
            Canonical(1, 1),
            Canonical(2.0, 1.0),
            Canonical(1.5, 0.7),
            Canonical(1.0, 0.1),
            TwoTermPolynomial(1.0, -0.3, 1.6, 2.1),
            Tabulated(head, Canonical(0.6677, 0.01)),
            Tabulated(tuple(float(n) ** -0.7 for n in range(1, 41))),
            Tabulated((0.2, 0.1)),
        ]
        radii = [0.005 * (0.63 / 0.005) ** (k / 11) for k in range(12)] + [0.3, 0.1, 0.05, 0.01]
        for model, eps in itertools.product(models, radii):
            result, cert = infinite_upper_bound(model, INF, INF, eps)
            assert result.bits >= exact_entropy(model, eps).bits, (model, eps)
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

        def recording(p, q, d, mu_d, lg_gmean, eps, eta):
            bound = _density_upper_bound(p, q, d, mu_d, lg_gmean, eps, eta)
            bounds.append((eps, bound.valid_radius_range))
            return bound

        monkeypatch.setattr(finite_bounds, "_density_upper_bound", recording)
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

    @pytest.mark.parametrize(
        "p, q", [(p, q) for p in EXPONENTS for q in EXPONENTS if q < p], ids=str
    )
    def test_near_the_critical_line_agrees_with_classify(self, p, q):
        # b at e = 1/q - 1/p in floats, an ulp either side, and the exact e
        # rounded once: the bound is refused as non-compact exactly where
        # classify says so, and otherwise answers or meets the float limits
        e = (1.0 / q) - (0.0 if p == INF else 1.0 / p)
        exact = Fraction(1) / Fraction(q) - (0 if p == INF else Fraction(1) / Fraction(p))
        decays = {e, math.nextafter(e, 0.0), math.nextafter(e, INF), float(exact)}
        for b in sorted(decays):
            compact = classify(p, q, b).compact
            try:
                canonical_band(p, q, b, 1.0, 0.5)
            except EntropyError:
                pass
            for eps in (0.5, 1e-3):
                try:
                    result, _ = infinite_upper_bound(Canonical(b, 1.0), p, q, eps)
                except NonCompactRegime:
                    assert not compact, (b, eps)
                except ScanCapExceeded:
                    assert compact, (b, eps)
                else:
                    assert compact and result.bits >= 0.0, (b, eps)

    def test_finite_table_any_radius(self):
        result, cert = infinite_upper_bound(Tabulated((1.0, 0.5, 0.25)), INF, INF, 0.2)
        assert result.bits >= exact_entropy(Tabulated((1.0, 0.5, 0.25)), 0.2).bits


def _gallop_cut(model, case, tail_at, power, eps, target):
    """The cut search the seeded one replaced: a gallop from 0 and a
    bisection up to the limit, whatever the case."""
    if tail_at(0) <= eps:
        return 0
    return last_passing(lambda n: tail_at(n) > target, 0, block_decomp._CUT_LIMIT) + 1


def _bound(model, p, q, eps):
    """The result and certificate as dicts, or the error type."""
    try:
        result, cert = infinite_upper_bound(model, p, q, eps)
    except EntropyError as exc:
        return type(exc)
    return result._asdict(), cert._asdict()


def _tail_sums(model, p, q, eps):
    """The tail sums one bound call evaluates, and whether it returned."""
    counted = Forwarding(model)
    returned = not isinstance(_bound(counted, p, q, eps), type)
    return counted.tail_calls, returned


class TestSeededCut:
    # 0.63 down to 1e-4: far past the radii of the golden bound cells, so
    # cuts run deep, and past the 2**53 limit on the slow tail's q < p cells
    RADII = tuple(0.63 * (1e-4 / 0.63) ** (k / 8) for k in range(9))

    # small cuts that a seed easily overshoots: two-term laws whose second
    # term dominates the first axes, and a rising head
    STEEP_HEADS = (
        (
            TwoTermPolynomial(
                0.6027715443872617,
                7.054632643497453,
                0.6213097195481232,
                3.1639473754718743,
            ),
            1.5, 1.0, 1.0205048027377068,
        ),
        (
            TwoTermPolynomial(
                0.5670021923362087,
                6.749375830042315,
                0.43195489562631934,
                3.330384535476229,
            ),
            INF, 3.0, 1.2272849054006785,
        ),
        (
            TwoTermPolynomial(
                0.14532700886969555,
                2.824435340726291,
                0.42637028464777743,
                1.092288661848835,
            ),
            1.5, 1.0, 1.3136675935805924,
        ),
        (
            TwoTermPolynomial(
                0.39064624874067216,
                6.315487437579501,
                0.5729898038694818,
                1.4188849593476314,
            ),
            1.5, 1.0, 1.1629751105233963,
        ),
        (
            TwoTermPolynomial(1.0, -0.9, 0.7, 1.2),
            2.0, 1.5, 0.2692529729126247,
        ),
        (
            TwoTermPolynomial(1.0, -0.9, 0.7, 1.2),
            3.0, 2.0, 0.2692529729126247,
        ),
    )

    def test_same_certificates_as_the_gallop(self, monkeypatch):
        cells = caps = 0
        for k, (model, _) in enumerate(GOLDEN_MODELS.values()):
            for p, q, eps in itertools.product(EXPONENTS, EXPONENTS, self.RADII):
                seeded = _bound(Forwarding(model) if k % 2 else model, p, q, eps)
                with monkeypatch.context() as patch:
                    patch.setattr(block_decomp, "_cut", _gallop_cut)
                    reference = _bound(model, p, q, eps)
                assert seeded == reference, (model, p, q, eps)
                cells += 1
                caps += seeded is ScanCapExceeded
        assert cells == 12 * 25 * 9 and caps > 30

    def test_no_more_tail_sums_than_the_gallop(self, monkeypatch):
        cells = [
            (model, p, q, eps)
            for model, _ in GOLDEN_MODELS.values()
            for p, q, eps in itertools.product(EXPONENTS, EXPONENTS, self.RADII)
        ]
        for model, p, q, eps in cells + list(self.STEEP_HEADS):
            seeded, _ = _tail_sums(model, p, q, eps)
            with monkeypatch.context() as patch:
                patch.setattr(block_decomp, "_cut", _gallop_cut)
                gallop, returned = _tail_sums(model, p, q, eps)
            # the gallop's caller evaluated alpha_d once more for the
            # certificate after the search; the seeded search reuses it
            assert seeded <= gallop + returned, (model, p, q, eps, seeded, gallop)

    @pytest.mark.parametrize(
        "model",
        [
            Canonical(2.0, 1.0),
            Canonical(1.0, 0.1),
            Canonical(0.8, 2.0),
            TwoTermPolynomial(1.0, -0.3, 1.6, 2.1),
            TwoTermPolynomial(1.0, 1.0, 1.0, 1.25),
        ],
        ids=repr,
    )
    def test_case_two_cut_takes_a_few_tail_sums(self, model):
        b = model.decay_index
        checked = 0
        for p, q, d in itertools.product(EXPONENTS, EXPONENTS, (10, 100, 10**4, 10**6)):
            if not 0 < 1 / q - 1 / p < b:
                continue
            # the radius whose target is alpha_d, so that the cut is d,
            # unless it covers the whole body in one ball
            eps = tail_radius(model, d, p, q) * 2.0 ** (1 / q)
            if eps >= tail_radius(model, 0, p, q):
                continue
            counted = Forwarding(model)
            _, cert = infinite_upper_bound(counted, p, q, eps)
            assert abs(cert.effective_dimension - d) <= 1
            assert counted.tail_calls <= 6, (p, q, d, counted.tail_calls)
            checked += 1
        assert checked >= 12

    def test_case_one_cut_reads_no_tail(self):
        # the closed form: alpha_0, alpha_d and mu_d are the only axes read
        # here, at any cut; the model's own search reads its own axes
        model = Canonical(1.5, 0.7)
        pairs = ((2.0, 2.0), (1.0, 3.0), (INF, INF))
        for (p, q), d in itertools.product(pairs, (10, 10**3, 10**6)):
            eps = 0.5 * (axis(model, d) + axis(model, d + 1)) * 2.0 ** (1 / q)
            counted = Forwarding(model)
            _, cert = infinite_upper_bound(counted, p, q, eps)
            assert cert.effective_dimension == d
            assert (counted.tail_calls, counted.axis_calls) == (0, 3)

    def test_cap_settled_by_one_tail_sum(self):
        # 1/q - 1/p = 2/3 leaves gamma = 0.001 on the slow tail: alpha at
        # the 2**53 limit is still about 0.72, above every radius here
        model = GOLDEN_MODELS["slow-tail"][0]
        for eps in (0.63, 0.1, 0.01, 1e-4):
            counted = Forwarding(model)
            with pytest.raises(ScanCapExceeded):
                infinite_upper_bound(counted, 3.0, 1.0, eps)
            assert counted.tail_calls == 1

    def test_head_peaking_past_the_float_range(self):
        # the head rises up to about e**952, so no law start is in reach to
        # seed from; one ball still covers the body at a large radius
        model = TwoTermPolynomial(1.0, -0.9999, 0.001, 0.0011)
        result, cert = infinite_upper_bound(model, 2.0, 1.9999, 5.0)
        assert (result.bits, cert.effective_dimension) == (0.0, 0)
        with pytest.raises(ScanCapExceeded):
            infinite_upper_bound(model, 2.0, 1.9999, 0.5)

    @pytest.mark.parametrize("p", [2.99, 3.0])
    def test_secant_between_neighbours_past_2_52(self, p):
        # the cut is near 3.2e15, where two neighbouring probes have the
        # same ln(n + 1/2) but different radii: the secant has no slope
        result, cert = infinite_upper_bound(Canonical(0.8, 2.0), p, 1.0, 0.1)
        assert cert.effective_dimension > 2**51 and result.bits > 0

    def test_trivial_cover_takes_one_tail_sum(self):
        counted = Forwarding(Canonical(2.0, 1.0))
        result, cert = infinite_upper_bound(counted, INF, 2.0, 5.0)
        assert (result.bits, cert.effective_dimension) == (0.0, 0)
        assert counted.tail_calls == 1


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
        # one ball of radius 1 in 9 dimensions at eps = 1/2: eta = 1/2, so
        # the density bound is N <= 1 + (kappa(9) (1 + 1/2) / (1/2))^9
        up, cert = mixed_upper_bound(self.spec(), 0.5, gamma=1.0)
        expected = math.log2(math.comb(110, 2)) + math.log2(1 + (3 * explicit_kappa(9)) ** 9)
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

    def test_sandwich(self):
        import random

        rng = random.Random(99)
        for _ in range(20):
            k = rng.randint(1, 3)
            mus = sorted((rng.uniform(0.4, 1.5) for _ in range(k)), reverse=True) + [0.05]
            dims = tuple(rng.randint(9, 20) for _ in range(k)) + (9,)
            spec = MixedEllipsoidSpec(Tabulated(tuple(mus)), dims)
            eps = rng.uniform(0.06, mus[-2] * 0.95) if k > 1 else rng.uniform(0.06, 0.3)
            up, _ = mixed_upper_bound(spec, eps)
            assert mixed_lower_bound(spec, eps).bits <= up.bits

    def test_sweep_in_the_criterion_10_shape(self):
        # the draws of acceptance criterion 10, which the certified-sweep
        # and cli-batch benchmarks also draw: every one answers, ordered
        import random

        rng = random.Random(2024)
        for _ in range(2000):
            k = rng.randint(1, 3)
            mus = sorted((rng.uniform(0.4, 1.5) for _ in range(k)), reverse=True) + [0.05]
            dims = tuple(rng.randint(9, 24) for _ in range(k + 1))
            spec = MixedEllipsoidSpec(Tabulated(tuple(mus)), dims)
            eps = rng.uniform(0.06, 0.95 * (mus[-2] if k > 1 else mus[0]))
            up, _ = mixed_upper_bound(spec, eps)
            lo = mixed_lower_bound(spec, eps)
            assert lo.bits <= up.bits, (mus, dims, eps)

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

    @pytest.mark.parametrize("dims", [(1, 9), (2, 9), (2, 3)])
    def test_small_blocks_take_the_product_grid(self, dims):
        # a leading ball of 1 or 2 dimensions is covered by the grid of its
        # bounding cube, as infinite_upper_bound covers a block under d = 3
        spec = self.spec(dims=dims)
        up, cert = mixed_upper_bound(spec, 0.5)
        assert cert.block_sizes == dims[:1]
        assert cert.notes == ("per block (p = q = 2): product-grid fallback (d < 3)", "gamma=1")
        grid = product_grid_upper_bound((1.0,) * dims[0], 2, 0.5)
        assert up.bits == math.log2(cert.omega_count) + grid
        assert mixed_lower_bound(spec, 0.5).bits <= up.bits

    def test_notes_name_each_block_route(self):
        spec = MixedEllipsoidSpec(Tabulated((1.0, 0.6, 0.4)), (9, 2, 3))
        _, cert = mixed_upper_bound(spec, 0.3)
        assert cert.notes[0] == (
            "per block (p = q = 2): density case FD1, product-grid fallback (d < 3), "
            "density case FD1"
        )

    @pytest.mark.parametrize("dims", [(3, 9), (8, 9)])
    def test_blocks_from_dimension_3_answer(self, dims):
        spec = self.spec(dims=dims)
        up, cert = mixed_upper_bound(spec, 0.5)
        assert cert.block_sizes == dims[:1]
        assert mixed_lower_bound(spec, 0.5).bits <= up.bits

    @pytest.mark.parametrize("gamma", [0.5, math.inf, math.nan])
    def test_gamma_not_finite_or_below_1_rejected(self, gamma):
        with pytest.raises(EntropyError, match="gamma") as info:
            mixed_upper_bound(self.spec(), 0.5, gamma=gamma)
        assert not isinstance(info.value, ScanCapExceeded)

    def test_eta_below_the_float_range_is_a_cap(self):
        # eta = eps / mu_1 = 1e-600 underflows; it is not a bad eta argument
        with pytest.raises(ScanCapExceeded, match="eta .* past the float range"):
            mixed_upper_bound(MixedEllipsoidSpec(Tabulated((1e300,)), (9,)), 1e-300)

    def test_lattice_budget_past_the_float_range_is_a_cap(self):
        with pytest.raises(ScanCapExceeded):
            mixed_upper_bound(self.spec(), 0.5, gamma=300.0)

    def test_eps_above_mu1_rejected(self):
        with pytest.raises(EntropyError):
            mixed_upper_bound(self.spec(), 1.5)

    def test_complete_table_above_eps_has_an_empty_residual(self):
        # every axis of the complete table lies above eps, so both blocks
        # are covered and nothing lies past the table
        up, cert = mixed_upper_bound(self.spec(), 0.1)
        assert cert.block_sizes == (9, 9)
        assert cert.tail_radius == 0.0
        assert mixed_lower_bound(self.spec(), 0.1).bits <= up.bits

    def test_cut_is_the_last_axis_above_eps(self):
        # every axis of the complete table lies above eps, so the cut is the
        # whole table and no axis past it is evaluated
        lower = mixed_lower_bound(self.spec(), 0.1)
        assert lower.bits == pytest.approx(9 * math.log2(10) + 9 * math.log2(5), rel=1e-12)
        # three axes of 1/n lie above 0.3, but only two blocks are given
        with pytest.raises(EntropyError, match="too short"):
            mixed_lower_bound(MixedEllipsoidSpec(Canonical(1.0, 1.0), (9, 9)), 0.3)
