"""End-to-end acceptance checks.

Each test evaluates one numbered criterion at its stated tolerance and
prints a single PASS/FAIL line (run with ``pytest -s`` to see them).
Criterion 3 is known to fail for the (b, c) = (2, 1) instance: the
effective dimension at eps = 1e-4 is only 99 and the estimator's
Stirling-type deficit is about 3.2%, outside the required 2% band; see
the analysis in the test body.  The criterion is asserted as stated
rather than loosened.
"""

import math
import random
from fractions import Fraction

from ellentropy.asymptotics import (
    COMPACT_III,
    COMPACT_IV,
    CRITICAL_II,
    NONCOMPACT_A,
    NONCOMPACT_B,
    classify,
    entropy_estimator,
    hilbert_second_order,
)
from ellentropy.block_decomp import MixedEllipsoidSpec, infinite_upper_bound, mixed_lower_bound, mixed_upper_bound
from ellentropy.constants import (
    HolderExponent,
    as_exponent,
    gamma_pq,
    volume_ratio,
    zeta_series_constant,
)
from ellentropy.finite_bounds import FiniteEllipsoid
from ellentropy.hyperrect import exact_entropy
from ellentropy.oracle import sandwich_report
from ellentropy.sequences import Canonical, Tabulated, cesaro_log_ratio

from per_axis_reference import counting_product
from series_reference import zeta_series_constant_alternating

INF = math.inf
LN2 = math.log(2.0)


def _report(num: int, label: str, ok: bool, detail: str = "") -> bool:
    tag = "PASS" if ok else "FAIL"
    suffix = f" -- {detail}" if detail else ""
    print(f"\n[{tag}] criterion {num}: {label}{suffix}")
    return ok


def test_criterion_1_dual_formula_identity():
    rng = random.Random(108)
    bad = 0
    for _ in range(200):
        d = rng.randint(1, 9)
        axes = tuple(sorted((rng.uniform(0.01, 8.0) for _ in range(d)), reverse=True))
        eps = rng.uniform(0.005, 10.0)
        model = Tabulated(axes)
        if counting_product(model, eps) != Fraction(exact_entropy(model, eps).exact_product()):
            bad += 1
    ok = bad == 0
    assert _report(1, "dual-formula integer identity on 200 random instances", ok,
                   f"{200 - bad}/200 exact"), "integer-level mismatch between the two formulas"


def test_criterion_2_canonical_sup_norm_asymptotic():
    S1 = zeta_series_constant(1.0)
    devs = {}
    for eps in (1e-2, 1e-3, 1e-4):
        H = exact_entropy(Canonical(1, 1), eps).bits
        lead = eps**-1.0 * S1
        devs[eps] = abs(H - lead) / math.log2(1.0 / eps)
    fitted = devs[1e-2]
    stable = all(devs[e] <= 1.10 * fitted for e in (1e-3, 1e-4))
    H4 = exact_entropy(Canonical(1, 1), 1e-4).bits
    rel = abs(H4 - 1e4 * S1) / (1e4 * S1)
    ok = stable and rel <= 0.02
    assert _report(2, "exact sup-norm entropy tracks the series constant", ok,
                   f"residual/log: {fitted:.3f} -> {devs[1e-3]:.3f} -> {devs[1e-4]:.3f}; "
                   f"rel err at 1e-4: {rel:.2e}")


def test_criterion_3_hilbert_leading_constant():
    # Faithful check.  The (2,1) instance sits at effective dimension 99,
    # where sum_{n<=d*} log2(mu_n/eps) trails the limit b c^(1/b)/ln2 by
    # roughly 0.5*ln(2*pi*d*)/d* ~ 3.2%, so the stated 2% tolerance cannot
    # be met at eps = 1e-4 (it is met from roughly eps <= 3e-5 on).
    ratios = {}
    for b, c in ((1.0, 1.0), (2.0, 1.0), (1.0, 3.0)):
        est = entropy_estimator(Canonical(b, c), 1e-4)
        ratios[(b, c)] = est * (1e-4) ** (1.0 / b) * LN2 / (b * c ** (1.0 / b))
    ok = all(0.98 <= r <= 1.02 for r in ratios.values())
    detail = ", ".join(f"(b={b:g},c={c:g}): {r:.4f}" for (b, c), r in ratios.items())
    assert _report(3, "estimator recovers the Hilbert leading constant within 2%", ok, detail), (
        "known spec-level failure for (b,c)=(2,1); see notes/decisions ledger"
    )


def test_criterion_4_second_order_term():
    from ellentropy.sequences import TwoTermPolynomial

    alpha1, alpha2, c1, c2 = 1.0, 1.25, 1.0, 1.0
    model = TwoTermPolynomial(c1=c1, c2=c2, alpha1=alpha1, alpha2=alpha2)
    resid = []
    for eps in (1e-2, 1e-3, 1e-4):
        est = entropy_estimator(model, eps)
        ref = hilbert_second_order(alpha1, alpha2, c1, c2, eps)
        resid.append(abs(est - ref) / eps**-0.75)
    ok = resid[0] > resid[1] > resid[2]
    assert _report(4, "second-order residual strictly decreases", ok,
                   " -> ".join(f"{r:.4f}" for r in resid))


def test_criterion_5_finite_dimensional_sandwich():
    rng = random.Random(20240809)
    exponents = [1.0, 2.0, INF]
    failures = []
    sup_norm_instances = 0
    for i in range(50):
        d = rng.choice([2, 3])
        p = rng.choice(exponents)
        q = rng.choice(exponents)
        axes = tuple(sorted((rng.uniform(0.45, 1.0) for _ in range(d)), reverse=True))
        E = FiniteEllipsoid(HolderExponent(p), axes)
        rp, rq = as_exponent(p).reciprocal(), as_exponent(q).reciprocal()
        eps = 0.75 * d ** (-max(rp - rq, 0.0)) * axes[-1]  # admissible at eta = 1
        rep = sandwich_report(E, q, eps, resolution=64, eta=1.0)
        if p == INF and q == INF:
            sup_norm_instances += 1
        if not rep.all_ok:
            failures.append((i, p, q, axes, eps, rep.checks))
    ok = not failures and sup_norm_instances > 0
    assert _report(5, "oracle sandwich holds on 50 randomized instances", ok,
                   f"{50 - len(failures)}/50 ordered, {sup_norm_instances} sup-norm instances"), failures[:3]


def test_criterion_6_infinite_bound_dominates_exact():
    model = Canonical(1, 1)
    radii = [10 ** (-3 + 2.699 * i / 19) for i in range(20)]  # log-spaced in [1e-3, 0.5]
    bad = []
    for eps in radii:
        upper, _ = infinite_upper_bound(model, INF, INF, eps)
        exact = exact_entropy(model, eps).bits
        if upper.bits < exact:
            bad.append(eps)
    ok = not bad
    assert _report(6, "certified infinite-dimensional bound dominates the exact value", ok,
                   f"{20 - len(bad)}/20 radii"), bad


def test_criterion_7_constants():
    grid = [1.0, 1.5, 2.0, 3.0, INF]
    diag = all(gamma_pq(p, p) == 1.0 for p in grid)
    product = all(
        abs(gamma_pq(p, q) * gamma_pq(q, p) - 1.0) <= 1e-12 for p in grid for q in grid
    )
    # volume-ratio deviation bounded by a fitted K/d across d in [50, 1e4];
    # K is fitted at the range endpoints (the envelope grows like log d for
    # infinite exponents, so the top end dominates the fit)
    ds = [50, 100, 316, 1000, 3162, 10000]
    ratio_ok = True
    for p in grid:
        for q in grid:
            rp, rq = as_exponent(p).reciprocal(), as_exponent(q).reciprocal()
            G = gamma_pq(p, q)
            f = [abs(volume_ratio(p, q, d) / (G * d ** (rq - rp)) - 1.0) * d for d in ds]
            K = max(f[0], f[-1]) * 1.05 + 1e-12
            ratio_ok &= all(fd <= K for fd in f)
    dual = all(
        abs(zeta_series_constant(b) - zeta_series_constant_alternating(b)) <= 1e-8
        for b in (0.5, 1.0, 2.0)
    )
    ok = diag and product and ratio_ok and dual
    assert _report(7, "universal constants", ok,
                   f"diag={diag}, product={product}, volume-ratio={ratio_ok}, zeta-series dual={dual}")


def test_criterion_8_regime_truth_table():
    # hand-derived rows spanning all five cases, the p = inf convention,
    # and the canonical behavior alonan the critical line
    rows = [
        (2, 2, 1, False, COMPACT_III),
        (2, 1, Fraction(3, 10), False, NONCOMPACT_A),
        (1, 2, 1, False, COMPACT_IV),
        ("inf", 2, Fraction(1, 2), False, NONCOMPACT_B),  # crit q = 1/b = 2
        ("inf", 2, Fraction(1, 2), True, CRITICAL_II),
        ("inf", 1, 1, False, NONCOMPACT_B),  # crit q = 1/b = 1
        ("inf", 4, Fraction(1, 2), False, COMPACT_III),
        (4, Fraction(4, 3), Fraction(1, 2), False, NONCOMPACT_B),  # exact boundary
        (4, 1, Fraction(1, 10), False, NONCOMPACT_A),  # crit = 20/7 > 1
        (Fraction(3, 2), 6, 2, False, COMPACT_IV),
    ]
    mismatches = []
    for p, q, b, summable, expected in rows:
        got = classify(p, q, b, tail_summable_inv_b=summable, liminf_n_mu_pos=not summable)
        if got.case != expected:
            mismatches.append((p, q, b, summable, expected, got.case))
    ok = not mismatches
    assert _report(8, "regime classifier matches the 10-row truth table", ok,
                   f"{10 - len(mismatches)}/10 rows"), mismatches


def test_criterion_9_cesaro_rate():
    bad = []
    for b in (0.5, 1.0, 3.0):
        model = Canonical(b, 1.0)
        err = lambda N: abs(cesaro_log_ratio(model, N) - b / LN2)
        K = err(10**3) * 10**3 / math.log(10**3)
        for N in (10**4, 10**5):
            if err(N) > K * math.log(N) / N * (1 + 1e-9):
                bad.append((b, N))
    ok = not bad
    assert _report(9, "Cesaro mean converges at the fitted log(N)/N rate", ok,
                   "b in {0.5, 1, 3}, N in {1e3, 1e4, 1e5}"), bad


def test_criterion_10_mixed_bracket():
    rng = random.Random(4242)
    violations = []
    for _ in range(20):
        k = rng.randint(1, 3)
        mus = sorted((rng.uniform(0.4, 1.5) for _ in range(k)), reverse=True) + [0.05]
        dims = tuple(rng.randint(9, 24) for _ in range(k + 1))
        spec = MixedEllipsoidSpec(Tabulated(tuple(mus)), dims)
        hi = mus[-2] if k > 1 else mus[0]
        eps = rng.uniform(0.06, 0.95 * hi)
        lo = mixed_lower_bound(spec, eps)
        up, _ = mixed_upper_bound(spec, eps)
        if lo.bits > up.bits:
            violations.append((mus, dims, eps))
    # normalized overhead shrinks as the block dimensions grow
    mus = (1.0, 0.7, 0.4, 0.2)
    overhead = []
    for m in (9, 18, 36, 72):
        spec = MixedEllipsoidSpec(Tabulated(mus), (m, m, m, m))
        up, _ = mixed_upper_bound(spec, 0.3)
        lo = mixed_lower_bound(spec, 0.3)
        overhead.append((up.bits - lo.bits) / (3 * m))
    shrinking = all(a > b for a, b in zip(overhead, overhead[1:]))
    ok = not violations and shrinking
    assert _report(10, "mixed-ellipsoid bracket ordered and tightening", ok,
                   f"{20 - len(violations)}/20 ordered; overhead/dim "
                   + " -> ".join(f"{o:.3f}" for o in overhead)), violations
