"""Certified upper bounds for infinite-dimensional and mixed ellipsoids.

The workhorse is block decomposition: split the semi-axes into finite
blocks plus an infinite residual, cover each finite block, and absorb the
residual into the covering radius.  The residual's q-norm reach is the
tail radius alpha_d, with two regimes:

  case I   (p <= q):               alpha_d = mu_{d+1};
  case II  (p/(pb+1) < q < p):     alpha_d = (sum_{n>d} mu_n^theta)^(1/q-1/p),
                                   theta = q / (1 - q/p), certified through
                                   the upper end of the tail power sum.

The critical line q = p/(pb+1) would need sum_{n>d} mu_n^(1/b) to
converge, and for every model family here it diverges (n mu_n^(1/b)
tends to c^(1/b) > 0), so the residual is not compact there.  A complete
table has an empty residual past its end, and is case II at every q < p.

Each finite block is covered by ``finite_bounds._block_cover``.  Mixed
ellipsoids (an outer weighted l2 norm over inner l2 blocks) cover each
leading block, a Euclidean ball, through the same cover at p = q = 2, with
weights drawn from the lattice
{omega : dbar^(2 gamma) omega_j^2 integer, ||omega||_2 <= 1 + sqrt(k+1)/dbar^gamma}.
"""

from __future__ import annotations

import itertools
import math
import sys
from functools import partial
from typing import Callable, Dict, Tuple

from .constants import ExponentLike, as_exponent
from .errors import (
    EntropyError,
    NonCompactRegime,
    ScanCapExceeded,
)
from .finite_bounds import _block_cover
from .numerics import Threshold, _check_radius, _Frozen, kahan_sum
from .results import CERTIFIED_LOWER, CERTIFIED_UPPER, BoundCertificate, EntropyResult
from .sequences import (
    SemiAxisModel,
    _law_start,
    axis,
    ensure_non_increasing,
    last_passing,
    passing,
    tail_power_sum,
)

CASE_I = "I"
CASE_II = "II"

# The largest cut dimension: past 2**53, float(d) rounds, and mu_d, d**e
# and the case-I tail radius would need widening for it.
_CUT_LIMIT = 2**53
_LOG_LIMIT = math.log(_CUT_LIMIT + 0.5)


class MixedEllipsoidSpec(_Frozen):
    """Semi-axes plus the block dimensions of a mixed (l2-of-l2) ellipsoid."""

    __slots__ = ("semi_axes", "dims")

    def __init__(self, semi_axes: SemiAxisModel, dims: Tuple[int, ...]):
        dims = tuple(int(d) for d in dims)
        if any(d < 1 for d in dims):
            raise EntropyError("block dimensions must be >= 1")
        object.__setattr__(self, "semi_axes", semi_axes)
        object.__setattr__(self, "dims", dims)


def tail_radius(model: SemiAxisModel, d: int, p: ExponentLike, q: ExponentLike) -> float:
    """The certified q-norm reach alpha_d of the residual block past index d,
    in the case ``_pick_case`` selects (NonCompactRegime on and below the
    critical line)."""
    p, q = as_exponent(p), as_exponent(q)
    return _tail_radii(model, _pick_case(model, p, q), q.reciprocal() - p.reciprocal())(d)


def _pick_case(model: SemiAxisModel, p, q) -> str:
    """The tail case of (p, q); NonCompactRegime where ``asymptotics.classify``
    finds the body not compact, on and below the critical line.

    The float test e = 1/q - 1/p < b decides wherever e lies farther from
    b than four times its rounding error; within that band the exact test
    of ``classify`` does.  A compact case there whose float s = theta b is
    at most 1 raises ScanCapExceeded: its tail sums cannot be enclosed in
    floats (and its cut lies past 2**53 unless eps exceeds the reach of
    the whole residual).
    """
    rp, rq = p.reciprocal(), q.reciprocal()
    b = model.decay_index
    if rp >= rq:
        return CASE_I
    # a complete finite table (b None) has an empty residual from d = length
    if b is None:
        return CASE_II
    e = rq - rp
    # e misses the exact 1/q - 1/p by at most 2**-52 (rq + rp)
    if abs(e - b) > 2.0**-50 * (rq + rp):
        compact = e < b
    else:
        # imported here, so that a bound away from the line never loads it
        from .asymptotics import COMPACT_III, COMPACT_IV, _case

        compact = _case(p.value, q.value, b, False, True)[0] in (COMPACT_III, COMPACT_IV)
        s = b * (1.0 / e)  # as the tail sums compute it
        if compact and s <= 1.0:
            raise ScanCapExceeded(
                f"q lies within rounding of the critical line q = p/(pb+1), where "
                f"theta*b rounds to {s!r}, at most 1: no tail sum can be enclosed in "
                f"floats"
            )
    if compact:
        return CASE_II
    raise NonCompactRegime("q <= p/(pb+1), on or below the critical line: not compact in lq")


def _next_axis(model: SemiAxisModel, d: int) -> float:
    """mu_{d+1}, the case-I tail radius past index d; 0 past a complete table."""
    L = model.length
    return 0.0 if L is not None and d >= L else axis(model, d + 1)


def _tail_radii(model: SemiAxisModel, case: str, power: float) -> Callable[[int], float]:
    """alpha_d as a function of d for a case picked by ``_pick_case``, with
    power = 1/q - 1/p; each value is computed once."""
    if case == CASE_I:
        return lambda d: _next_axis(model, d)
    values: Dict[int, float] = {}
    theta = 1.0 / power
    L = model.length

    def tail_at(d: int) -> float:
        alpha = values.get(d)
        if alpha is None:
            if L is not None and d >= L:
                alpha = 0.0
            else:
                alpha = tail_power_sum(model, d, theta).hi ** power
            values[d] = alpha
        return alpha

    return tail_at


# Probes placed by the power law before the cut search falls back to a
# gallop from the last prediction.
_LAW_PROBES = 4


def _ln(x: float) -> float:
    return math.log(x) if x > 0 else -math.inf


def _cut(model, case: str, tail_at, power: float, eps: float, target: float) -> int:
    """The cut dimension of ``infinite_upper_bound``: 0 when alpha_0 <= eps,
    else the smallest d with alpha_d <= target, where a result past
    ``_CUT_LIMIT`` only says that none up to the limit is.  The radii
    alpha_d do not rise, so the d with alpha_d > target form a prefix and
    every search that brackets its end finds the same cut.

    In case I, alpha_d = mu_{d+1}, so the cut is the last index with
    mu_n > target, from the model's own search: no tail sum at all.

    In case II, past the head of the law, alpha_d ~ C (d + 1/2)**-gamma
    with gamma = b - power (the Euler-Maclaurin form of a tail sum of
    c n**-b), so the level u = ln(x + 1/2) of the real x with
    alpha_x = target is linear in ln alpha.  The first prediction takes
    c = mu_m m**b from the axis m where the decay law starts, then once
    more from the axis at the predicted cut, and C = c (b theta - 1)**-power.
    Each probe shrinks a bracket (a passing index, a failing one) and
    re-anchors the next prediction along the secant through it and the
    index evaluated before it, or along gamma where that is steeper: past
    a passing probe of a two-term law, the slope of ln alpha lies between
    the two, so the prediction stays short of the cut rather than
    overshooting it (an overshoot on a small cut can cost more than the
    whole gallop from 0).  After ``_LAW_PROBES`` probes ``last_passing``
    finishes the bracket from the last prediction.  A cut that the law
    puts in the head, which follows no law (a table's head, a rising
    head), is searched for there from 0; a complete table is searched from
    0 throughout, its radii past the table being 0 for free.  A
    prediction past the limit tests the limit first, which settles
    ScanCapExceeded in one evaluation when alpha_limit > eps.
    """
    if case == CASE_I:
        return 0 if tail_at(0) <= eps else passing(model, Threshold(1, target)).last

    def passes(n: int) -> bool:
        return tail_at(n) > target

    if model.length is not None:
        return 0 if tail_at(0) <= eps else last_passing(passes, 0, _CUT_LIMIT) + 1
    b = model.decay_index
    gamma, s = b - power, b * (1.0 / power)  # s as the tail sums compute it
    log_t = _ln(target)

    def probe(u: float) -> int:
        # the predicted last passing index, ceil(x) - 1; the limit for nan
        return math.ceil(math.exp(u) - 1.5) if u < _LOG_LIMIT else _CUT_LIMIT

    def seed(m: int) -> float:
        # s <= 1 gives the limit, where the tail sum raises DivergentTail
        return (_ln(axis(model, m)) + b * math.log(m) - power * _ln(s - 1.0) - log_t) / gamma

    m = _law_start(model)
    u = seed(m)
    u = seed(max(m, min(probe(u) + 1, _CUT_LIMIT)))
    if probe(u) >= _CUT_LIMIT and tail_at(_CUT_LIMIT) > eps:
        return _CUT_LIMIT + 1  # alpha_0 >= alpha_limit > eps
    if tail_at(0) <= eps:
        return 0
    lo, fail = 0, _CUT_LIMIT + 1
    if probe(u) < m - 1:
        lo = last_passing(passes, 0, m - 1)
        if lo < m - 1:
            return lo + 1
    last = (math.log(lo + 0.5), _ln(tail_at(lo)))  # (ln(n + 1/2), ln alpha_n)
    for _ in range(_LAW_PROBES):
        n = min(max(probe(u), lo + 1), fail - 1)
        alpha = tail_at(n)
        if alpha > target:
            lo = n
        else:
            fail = n
        if fail - lo == 1:
            return fail
        anchor, last = last, (math.log(n + 0.5), _ln(alpha))
        slope = gamma
        # past 2**52 the logarithms of neighbouring probes can be equal
        if anchor[1] > last[1] and last[0] > anchor[0]:
            slope = max(gamma, (anchor[1] - last[1]) / (last[0] - anchor[0]))
        u = last[0] + (last[1] - log_t) / slope
    return last_passing(passes, lo, fail - 1, near=probe(u)) + 1


def infinite_upper_bound(
    model: SemiAxisModel,
    p: ExponentLike,
    q: ExponentLike,
    eps: float,
) -> Tuple[EntropyResult, BoundCertificate]:
    """Certified upper bound on the entropy of an infinite-dimensional
    p-ellipsoid in q-norm, via a single finite block plus residual.

    The cut dimension d is the smallest one whose tail radius is at most
    eps 2^(-1/q) (the equal-q-power split; the full eps when q is the sup
    norm).  In case I it is the last index with mu_n above that radius,
    found by the model's own search; in case II a few tail evaluations
    placed by the power law of the tail radius find it (see ``_cut``).
    The finite block is then covered at the complementary radius through
    ``finite_bounds._block_cover``: the density bound with eta set to the
    smallest admissible value from d = 3 on, the product grid below.  A
    cut past 2**53, where float(d) rounds and the bound is no longer
    certified, raises ScanCapExceeded.
    """
    p, q = as_exponent(p), as_exponent(q)
    _check_radius(eps)
    case = _pick_case(model, p, q)
    rp, rq = p.reciprocal(), q.reciprocal()
    tail_at = _tail_radii(model, case, rq - rp)
    target = eps * 2.0 ** (-rq)
    d = _cut(model, case, tail_at, rq - rp, eps, target)
    if d > _CUT_LIMIT:
        raise ScanCapExceeded(
            f"no dimension up to 2**53, where float(d) stops being exact, "
            f"brings the tail under {target}"
        )
    alpha = tail_at(d)
    if d == 0:
        cert = BoundCertificate(
            effective_dimension=0,
            block_sizes=(),
            inner_radii=(),
            tail_radius=alpha,
            omega_count=1,
            tail_case=case,
        )
        return EntropyResult(0.0, CERTIFIED_UPPER, eps), cert

    ensure_non_increasing(model, d + 1)  # standing assumption of the split
    if q.is_inf:
        rho = eps
    else:
        # one-sided margin so the recombined radius never rounds above eps
        eps_q = eps**q.value
        if eps_q >= sys.float_info.min:
            rho = (eps_q - alpha**q.value) ** q.reciprocal() * (1.0 - 1e-12)
        else:
            # eps**q is subnormal or 0.0: the same radius, scaled by eps
            # (alpha <= target, so the base is at least 1/2)
            rho = eps * (1.0 - (alpha / eps) ** q.value) ** q.reciprocal() * (1.0 - 1e-12)
            if rho < sys.float_info.min:
                # on the subnormal grid the last rounding can pass the 1e-12
                # margin by up to half a step; one step down covers it
                rho = math.nextafter(rho, 0.0)

    # the upper end of the log-product keeps the bound certified
    bits, eta, kappa, route = _block_cover(
        p, q, d, axis(model, d), lambda: model.log_product(d).hi / d, rho,
        map(partial(axis, model), range(1, d + 1)),
    )
    # Singleton weight set Omega = {(1, 1)} contributes log2(1) = 0.
    cert = BoundCertificate(
        effective_dimension=d,
        block_sizes=(d,),
        inner_radii=(rho,),
        tail_radius=alpha,
        omega_count=1,
        tail_case=case,
        eta=eta,
        kappa=kappa,
        notes=(route,),
    )
    return EntropyResult(bits, CERTIFIED_UPPER, eps), cert


def omega_lattice_count(dbar: int, k: int, gamma: float) -> int:
    """Exact size of the weight lattice for a mixed bound.

    Weights are omega_j = sqrt(m_j) / dbar^gamma with m_j non-negative
    integers, constrained by ||omega||_2 <= 1 + sqrt(k+1)/dbar^gamma, i.e.
    sum m_j <= (dbar^gamma + sqrt(k+1))^2.  Counting lattice points in the
    simplex is a binomial coefficient.  The float budget is nudged upward
    before flooring: undercounting the lattice would invalidate the bound,
    overcounting only loosens it immaterially.  A budget past the float
    range raises ScanCapExceeded.
    """
    try:
        x = (dbar**gamma + math.sqrt(k + 1)) ** 2
        budget = math.floor(x * (1.0 + 1e-12))
    except OverflowError:
        raise ScanCapExceeded(
            f"the weight lattice budget (dbar^gamma + sqrt(k+1))^2 at dbar={dbar}, "
            f"gamma={gamma:g} lies past the float range"
        ) from None
    return math.comb(budget + k + 1, k + 1)


def _mixed_cut(spec: MixedEllipsoidSpec, eps: float) -> int:
    """k with mu_{k+1} <= eps < mu_k."""
    _check_radius(eps)
    if not axis(spec.semi_axes, 1) > eps:
        raise EntropyError("mixed bounds require eps < mu_1")
    k = passing(spec.semi_axes, Threshold(1, eps)).last
    if k > len(spec.dims):
        raise EntropyError("dims list too short for this eps")
    return k


def mixed_upper_bound(
    spec: MixedEllipsoidSpec,
    eps: float,
    gamma: float = 1.0,
) -> Tuple[EntropyResult, BoundCertificate]:
    """Certified upper bound on the entropy of a mixed l2-of-l2 ellipsoid.

    Covers each of the k leading blocks (those with mu_j > eps), a
    Euclidean ball of radius mu_j in d_j dimensions, at radius eps through
    the block cover at p = q = 2, as ``infinite_upper_bound`` covers its
    block: the explicit density bound from d_j = 3 on, the product grid of
    the ball's bounding cube below.  It pays log2(#Omega) for the weight
    lattice.  The certified radius is the inflated
    eps_gamma = eps (1 + sqrt(k+1)/dbar^gamma); every finite gamma >= 1
    gives a certified bound, trading #Omega against the inflation.  The
    certificate notes name each block's route, in block order, unless
    every block took the density bound.
    """
    if not 1.0 <= gamma < math.inf:
        raise EntropyError(f"gamma must be finite and >= 1, got {gamma!r}")
    k = _mixed_cut(spec, eps)
    dims = spec.dims[:k]
    dbar = sum(dims)
    n_omega = omega_lattice_count(dbar, k, gamma)
    l2 = as_exponent(2)
    covers = []
    for j, dj in enumerate(dims):
        mu = axis(spec.semi_axes, j + 1)
        covers.append(
            _block_cover(l2, l2, dj, mu, partial(math.log2, mu), eps, itertools.repeat(mu, dj))
        )
    bits = math.log2(n_omega) + kahan_sum(block_bits for block_bits, *_ in covers)
    if all(eta is not None for _, eta, _, _ in covers):
        route = "explicit density bound per block (p = q = 2)"
    else:
        route = "per block (p = q = 2): " + ", ".join(note for *_, note in covers)
    eps_gamma = eps * (1.0 + dbar ** (-gamma) * math.sqrt(k + 1))
    cert = BoundCertificate(
        effective_dimension=dbar,
        block_sizes=tuple(dims),
        inner_radii=(eps,) * k,
        tail_radius=_next_axis(spec.semi_axes, k),
        omega_count=n_omega,
        tail_case=CASE_I,
        notes=(route, f"gamma={gamma:g}"),
    )
    return EntropyResult(bits, CERTIFIED_UPPER, eps_gamma), cert


def mixed_lower_bound(spec: MixedEllipsoidSpec, eps: float) -> EntropyResult:
    """Volume lower bound for the mixed ellipsoid at the same cut."""
    k = _mixed_cut(spec, eps)
    dims = spec.dims[:k]
    dbar = sum(dims)
    bits = kahan_sum(
        dj * math.log2(axis(spec.semi_axes, j + 1)) for j, dj in enumerate(dims)
    ) - dbar * math.log2(eps)
    return EntropyResult(max(0.0, bits), CERTIFIED_LOWER, eps)
