"""Certified tail power sums against a 200-bit reference.

``tail_power_sum(model, d, theta)`` must enclose sum_{n > d} mu_n**theta,
where mu_n is the exact law (c * n**-b, c1 * n**-a1 + c2 * n**-a2, or the
table's floats) and theta, b, c, ... are the exact values of their floats.
The reference sums at least the first 3,000 terms directly with mpmath at
200 bits and adds the rest, from an index N > d + 3000 on, from
``mpmath.zeta``: for a canonical law c**theta times zeta(b theta, N), for a
two-term law the binomial series of (1 + r n**-delta)**theta over such
zetas.  ``mpmath.zeta(s, a)`` is not
used at small a, where it is off by up to 3.3e-13 relative near s = 29.6,
a = 101.

Each enclosure must contain the reference, have lo >= 0 and hi > 0 for a
positive sum, and, where the sum exceeds 1e-290, a width of at most
1e-11 of hi.  The calls that must not depend on d are held to a time
budget.
"""

import functools
import math
import random
import time

import mpmath
import pytest

from ellentropy.block_decomp import infinite_upper_bound
from ellentropy.errors import DivergentTail, ScanCapExceeded
from ellentropy.sequences import Canonical, Tabulated, TwoTermPolynomial, tail_power_sum

WINDOW = 3000
CUTS = (0, 1, 10, 10**3, 10**6)
# the case-II values of 1/(1/q - 1/p) over the (p, q) grid, and a few large ones
THETAS = (1.0, 1.5, 2.0, 3.0, 6.0, 10.5, 40.0)  # multiples of 1/2 (see _window)

MODELS = {
    "canonical-2": Canonical(2.0, 1.0),
    "canonical-1.5": Canonical(1.5, 0.7),
    "canonical-0.8": Canonical(0.8, 2.0),
    "two-term-negative": TwoTermPolynomial(1.0, -0.3, 1.6, 2.1),
    "two-term-rising": TwoTermPolynomial(1.0, -0.9, 0.7, 1.2),
    "two-term-positive": TwoTermPolynomial(1.0, 1.0, 1.0, 1.25),
    "two-term-second-dominant": TwoTermPolynomial(1.0, 300.0, 1.2, 3.0),
    "table-with-tail": Tabulated((1.0, 0.5, 0.25), Canonical(1.0, 0.5)),
    "slow-tail": Tabulated(tuple(0.9 * 0.82**i for i in range(24)), Canonical(0.6677, 0.01)),
    "finite-table": Tabulated(tuple(float(n) ** -0.7 for n in range(1, 41))),
    "five-values": Tabulated(
        (
            0.8522007589487958,
            0.7700566827932873,
            0.5357109853001781,
            0.44954300178930273,
            0.29597091277831516,
        )
    ),
}

# two-term laws off the grid: large second terms, whose series past the
# head (x = |c2/c1| n**-delta <= 1/16) runs with |r| = 10**4 and 10**6, and
# x >= 1 after a head of 1,024 terms, where the series does not converge
# and the factor (1 + r n**-delta)**theta is enclosed by a monotone bracket
EXTRA = {
    "two-term-large-r": TwoTermPolynomial(1.0, 10000.0, 1.2, 3.0),
    "two-term-huge-r": TwoTermPolynomial(1.0, 1e6, 1.0, 4.0),
    "two-term-bracket": TwoTermPolynomial(1.0, 1e10, 1.2, 4.2),
}

PREC = 200
MP = mpmath.mpf
NEGLIGIBLE = MP(2) ** -120


def _law(model):
    """(exact mu_n as an mpf function, tail past the window as a function of
    (first index, theta)) for the model; tables delegate past their end."""
    if isinstance(model, Canonical):
        b, c = MP(model.b), MP(model.c)

        def tail(N, theta):
            return c**theta * mpmath.zeta(b * theta, N)

        return (lambda n: c * mpmath.power(n, -b)), tail
    if isinstance(model, TwoTermPolynomial):
        c1, c2, a1, a2 = (MP(v) for v in (model.c1, model.c2, model.alpha1, model.alpha2))
        r, delta = c2 / c1, a2 - a1

        def tail(N, theta):
            theta = MP(theta)
            total, k = MP(0), 0
            while True:
                term = mpmath.binomial(theta, k) * r**k * mpmath.zeta(a1 * theta + k * delta, N)
                total += term
                if 2 * k > theta and abs(term) < NEGLIGIBLE * abs(total):
                    return c1**theta * total
                k += 1

        return (lambda n: c1 * mpmath.power(n, -a1) + c2 * mpmath.power(n, -a2)), tail
    values = [MP(v) for v in model.values]
    if model.tail is None:
        return (lambda n: values[n - 1] if n <= len(values) else MP(0)), (lambda N, theta: MP(0))
    mu, tail = _law(model.tail)
    return (lambda n: values[n - 1] if n <= len(values) else mu(n)), tail


@functools.lru_cache(maxsize=None)
def _axes(label, start):
    """mu_n for n in [start, start + WINDOW + 10), 0 past a complete table."""
    mu, _ = _law({**MODELS, **EXTRA}[label])
    return [mu(n) for n in range(start, start + WINDOW + 10)]


@functools.lru_cache(maxsize=None)
def _window(label, start, theta):
    """mu_n**theta for n = start, start + 1, ... up to the window's end, or
    until the terms (non-increasing from n = 4 in every model here) can no
    longer move the sum from n = start + 10 on by 2**-120 of itself.

    Every theta here is a multiple of 1/2, so the power is an integer power
    times a square root."""
    whole, half = int(theta), theta % 1 == 0.5
    terms, total = [], MP(0)
    for i, mu in enumerate(_axes(label, start)):
        if mu == 0:
            break
        term = mu**whole
        if half:
            term *= mpmath.sqrt(mu)
        terms.append(term)
        if i % 16 == 0 and i >= 16:  # test every 16 terms
            total += mpmath.fsum(terms[max(10, i - 16) : i])
            if term * (WINDOW + 10) < NEGLIGIBLE * total:
                break
    return terms


def reference(label, d, theta):
    """sum_{n > d} mu_n**theta at 200 bits: the window d+1 .. N-1 directly,
    with N - d - 1 >= WINDOW, plus the closed-form rest from N on (none
    when the window stopped early: the rest is then negligible too)."""
    # cuts 0, 1 and 10 share one window and one rest
    start = 1 if d <= 10 else d + 1
    N = start + WINDOW + 10
    with mpmath.workprec(PREC):
        terms = _window(label, start, theta)
        head = mpmath.fsum(terms[d + 1 - start :])
        rest = _law({**MODELS, **EXTRA}[label])[1]
        return head + (rest(N, theta) if len(terms) == N - start else 0)


def _diverges(model, theta):
    b = model.decay_index
    return b is not None and b * theta <= 1.0


@pytest.mark.parametrize("label", MODELS)
def test_enclosure_contains_the_reference(label):
    model = MODELS[label]
    misses = []
    for d in CUTS:
        if model.length is not None and d > model.length:
            continue
        for theta in THETAS:
            if _diverges(model, theta):
                with pytest.raises(DivergentTail):
                    tail_power_sum(model, d, theta)
                continue
            iv = tail_power_sum(model, d, theta)
            ref = reference(label, d, theta)
            case = (d, theta, iv, mpmath.nstr(ref, 20))
            if not (MP(iv.lo) <= ref <= MP(iv.hi)) or iv.lo < 0:
                misses.append(("outside", *case))
            if ref > 0 and not iv.hi > 0:
                misses.append(("hi not positive", *case))
            if ref > MP(1e-290) and iv.hi - iv.lo > 1e-11 * iv.hi:
                misses.append(("wide", *case))
    assert not misses, misses


def _tight(label, d, theta):
    """Whether the enclosure contains the reference and is at most 1e-11
    wide relative to it."""
    iv = tail_power_sum({**MODELS, **EXTRA}[label], d, theta)
    ref = reference(label, d, theta)
    return 0 < iv.hi and 0 <= MP(iv.lo) <= ref <= MP(iv.hi) and iv.width <= 1e-11 * iv.hi


@pytest.mark.parametrize(
    "label, d, theta",
    [("two-term-large-r", d, theta) for d in (0, 10, 1000) for theta in (1.5, 3.0)]
    + [("two-term-negative", 0, 130.5)],
)
def test_former_bracket_cells_go_through_the_series(label, d, theta):
    # |r| = 10**4 and theta = 130.5: the series at its coefficients' reach
    assert _tight(label, d, theta)


@pytest.mark.parametrize("d, theta", [(d, theta) for d in (0, 10) for theta in (1.5, 3.0)])
def test_large_ratio_series_contains_the_reference(d, theta):
    # r = 10**6: the head stops at n = 251, where x = 10**6 / 252**3 < 1/16
    assert _tight("two-term-huge-r", d, theta)


@pytest.mark.parametrize("d, theta", [(d, theta) for d in (0, 10) for theta in (1.5, 3.0)])
def test_bracket_fallback_contains_the_reference(d, theta):
    # x = 10**10 n**-3 is about 9.3 at the cut n = d + 1,025
    assert 1e10 * (d + 1025) ** -3.0 >= 1.0
    iv = tail_power_sum(EXTRA["two-term-bracket"], d, theta)
    assert 0 < iv.hi and 0 <= MP(iv.lo) <= reference("two-term-bracket", d, theta) <= MP(iv.hi)


def test_cancelled_series_keeps_a_zero_lower_end():
    # every mu_n is below 0.04, so the sum is below 0.04**897 n**-0.8: it
    # underflows.  The binomial series past the 1,024-term head (x = 0.62)
    # cancels far below its rounding, and its factor c1**theta a**(1-s)
    # underflows too; the enclosure must still start at 0
    model = TwoTermPolynomial(1.0, -0.9785038234027797, 0.8012894324495231, 0.8677117458624988)
    theta = 1 / (1 / 2.99 - 1 / 3)
    iv = tail_power_sum(model, 0, theta)
    assert iv.lo == 0.0 < iv.hi < 1e-300
    result, cert = infinite_upper_bound(model, 3.0, 2.99, 0.63)
    assert (result.bits, cert.effective_dimension) == (0.0, 0)


def test_negative_second_term_at_large_theta_stays_certified():
    """Random laws with -1 < c2/c1 < 0 at theta up to 2,000, where the
    binomial series cancels and the factors underflow: lo is at most the
    first 1,000 terms plus c1**theta zeta(alpha1 theta, N), an upper bound
    of the rest, and hi at least those terms."""
    rng = random.Random(3)
    checked = 0
    with mpmath.workprec(PREC):
        while checked < 15:
            a1, delta = 10 ** rng.uniform(-1, 0.5), 10 ** rng.uniform(-2, 0.5)
            c1, r, theta = 10 ** rng.uniform(-0.5, 0.5), -rng.uniform(0.01, 0.999), 10 ** rng.uniform(0.3, 3.3)
            if a1 * theta <= 1.01:
                continue
            model, d = TwoTermPolynomial(c1, r * c1, a1, a1 + delta), rng.choice((0, 10, 1000))
            iv = tail_power_sum(model, d, theta)
            c1, c2, a1, a2, t = (MP(v) for v in (model.c1, model.c2, model.alpha1, model.alpha2, theta))
            N = d + 1001
            terms = mpmath.fsum(
                mpmath.power(c1 * mpmath.power(n, -a1) + c2 * mpmath.power(n, -a2), t) for n in range(d + 1, N)
            )
            assert MP(iv.lo) <= terms + c1**t * mpmath.zeta(a1 * t, N) and terms <= MP(iv.hi), (model, d, theta)
            checked += 1


def test_scaled_kernel_keeps_a_tiny_zeta_tight():
    # zeta(155.6, 101) is about 2e-312, below the normal floats, but
    # c**theta lifts the sum to 2.3e-248: only a kernel scaled at the cut
    # keeps the bits that a subnormal zeta value would lose
    model, d, theta = Canonical(4.762679986705292, 92.03119460334526), 100, 32.67531949758944
    iv = tail_power_sum(model, d, theta)
    with mpmath.workprec(PREC):
        b, c, t = MP(model.b), MP(model.c), MP(theta)
        ref = mpmath.fsum((c * mpmath.power(n, -b)) ** t for n in range(d + 1, d + 200))
    assert MP(iv.lo) <= ref <= MP(iv.hi)
    assert iv.width <= 1e-11 * iv.hi


def test_empty_table_tail_is_exactly_zero():
    assert tail_power_sum(MODELS["five-values"], 5, 2.0) == (0.0, 0.0)


@pytest.mark.parametrize(
    "call, budget",
    [
        (lambda: tail_power_sum(Canonical(1, 1), 10**12, 2.0), 1e-3),
        (lambda: tail_power_sum(TwoTermPolynomial(1.0, -0.3, 1.6, 2.1), 10, 1.5), 1e-3),
        (lambda: infinite_upper_bound(Canonical(1.5, 0.7), 2, 1.5, 0.01), 3e-3),
    ],
    ids=["canonical-far-cut", "two-term", "case-II-bound"],
)
def test_tail_sum_cost_does_not_grow_with_d(call, budget):
    call()  # warm caches and lazy imports
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    assert best < budget


@pytest.mark.parametrize("call", [
    lambda: tail_power_sum(Canonical(1e19, 1), 0, 1.0),
    lambda: infinite_upper_bound(Canonical(1e19, 1), 2, 1, 0.5),  # s = 2e19
    lambda: infinite_upper_bound(Canonical(7.38e17, 1), 3, 2, 0.5),  # s = 6 b
], ids=["kernel", "bound-p2-q1", "bound-p3-q2"])
def test_rounding_bound_past_the_float_range_raises_naming_s(call):
    # the per-term bound exp((s + 2) 2**-52) - 1 overflows from s near 3.2e18
    with pytest.raises(ScanCapExceeded, match="at s = "):
        call()


def test_rounding_bound_below_the_float_range_answers():
    lo, hi = tail_power_sum(Canonical(1e18, 1), 0, 1.0)
    assert lo <= 1.0 <= hi
