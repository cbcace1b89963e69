"""Certified upper bounds for infinite-dimensional and mixed ellipsoids.

The workhorse is block decomposition: split the semi-axes into finite
blocks plus an infinite residual, cover each finite block, and absorb the
residual into the covering radius.  The residual's q-norm reach is the
tail radius alpha_d, with three regimes:

  case I   (p <= q):               alpha_d = mu_{d+1};
  case II  (p/(pb+1) < q < p):     alpha_d = (sum_{n>d} mu_n^theta)^(1/q-1/p),
                                   theta = q / (1 - q/p), certified through
                                   the upper end of the tail power sum;
  case III (q = p/(pb+1), summable): alpha_d = (sum_{n>d} mu_n^(1/b))^b.

Combined radii maximize the weighted q-combination over a finite weight
set Omega.  Mixed ellipsoids (an outer weighted l2 norm over inner l2
blocks) get the sharper treatment through a sphere-covering density bound
with the Rogers constant kept parametric, weights drawn from the lattice
{omega : dbar^(2 gamma) omega_j^2 integer, ||omega||_2 <= 1 + sqrt(k+1)/dbar^gamma}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from .constants import ExponentLike, as_exponent
from .errors import (
    EntropyError,
    NonCompactRegime,
    ScanCapExceeded,
)
from .finite_bounds import (
    FD1,
    FD2,
    FiniteEllipsoid,
    admissible_radius,
    density_upper_bound,
    product_grid_upper_bound,
)
from .numerics import kahan_sum
from .results import CERTIFIED_LOWER, CERTIFIED_UPPER, BoundCertificate, EntropyResult
from .sequences import (
    SemiAxisModel,
    axis,
    decay_index,
    ensure_non_increasing,
    table_length,
    tail_power_sum,
)

LN2 = math.log(2.0)

CASE_I = "I"
CASE_II = "II"
CASE_III = "III"

_DIM_SCAN_CAP = 10**7


@dataclass(frozen=True)
class BlockPlan:
    """A concrete decomposition: block sizes, per-block covering radii,
    weight rows, and the residual tail radius."""

    block_sizes: Tuple[int, ...]
    inner_radii: Tuple[float, ...]
    omega: Tuple[Tuple[float, ...], ...]
    tail_case: str
    tail_radius: float

    def __post_init__(self):
        k = len(self.block_sizes)
        if len(self.inner_radii) != k:
            raise EntropyError("one inner radius per block required")
        for row in self.omega:
            if len(row) != k + 1:
                raise EntropyError("omega rows must have length k+1")
            if any(w < 0 for w in row):
                raise EntropyError("omega weights must be non-negative")


@dataclass(frozen=True)
class MixedEllipsoidSpec:
    """Semi-axes plus the block dimensions of a mixed (l2-of-l2) ellipsoid."""

    semi_axes: SemiAxisModel
    dims: Tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if any(d < 1 for d in dims):
            raise EntropyError("block dimensions must be >= 1")


def _intrinsic_b(model: SemiAxisModel, b: float) -> None:
    known = decay_index(model)
    if known is not None and not math.isclose(known, b, rel_tol=1e-12):
        raise EntropyError(
            f"model decays with index {known}, not the requested b={b}"
        )


def tail_radius(
    model: SemiAxisModel,
    d: int,
    p: ExponentLike,
    q: ExponentLike,
    b: float,
    case: str,
) -> float:
    """The certified q-norm reach alpha_d of the residual block past index d."""
    p, q = as_exponent(p), as_exponent(q)
    rp, rq = p.reciprocal(), q.reciprocal()
    if case == CASE_I:
        if rp < rq:
            raise EntropyError("case I requires p <= q")
        if table_length(model) is not None and d >= table_length(model):
            return 0.0
        return axis(model, d + 1)
    if b <= 0:
        raise EntropyError("decay index b must be positive")
    _intrinsic_b(model, b)
    if case == CASE_II:
        # p/(pb+1) < q < p, i.e. 0 < 1/q - 1/p < b.
        if not rq > rp:
            raise EntropyError("case II requires q < p")
        if not rq - rp < b:
            raise EntropyError("case II requires q > p/(pb+1)")
        theta = 1.0 / (rq - rp)  # equals q (1 - q/p)^{-1}
        return tail_power_sum(model, d, theta).hi ** (rq - rp)
    if case == CASE_III:
        if not math.isclose(rq - rp, b, rel_tol=1e-12):
            raise EntropyError("case III requires q = p/(pb+1)")
        # Raises DivergentTail whenever sum mu_n^(1/b) = infinity, which is
        # every canonical law (n * mu_n^(1/b) = c^(1/b) stays positive).
        return tail_power_sum(model, d, 1.0 / b).hi ** b
    raise EntropyError(f"unknown tail case {case!r}")


def combined_radius(plan: BlockPlan, q: ExponentLike) -> float:
    """max over omega rows of the weighted q-combination of radii."""
    q = as_exponent(q)
    best = 0.0
    for row in plan.omega:
        parts = [w * r for w, r in zip(row, plan.inner_radii)]
        parts.append(row[-1] * plan.tail_radius)
        if q.is_inf:
            rho = max(parts)
        else:
            rho = kahan_sum(x ** q.value for x in parts) ** (1.0 / q.value)
        best = max(best, rho)
    return best


def _pick_case(model: SemiAxisModel, p, q) -> Tuple[str, Optional[float]]:
    rp, rq = p.reciprocal(), q.reciprocal()
    b = decay_index(model)
    if b is None:
        # Complete finite table: the residual is empty from d = table length.
        if rp >= rq:
            return CASE_I, None
        return CASE_II, None
    if rp >= rq:
        return CASE_I, b
    if rq - rp < b:
        return CASE_II, b
    if math.isclose(rq - rp, b, rel_tol=1e-12):
        raise NonCompactRegime(
            "critical line q = p/(pb+1): canonical-type tails are not compact"
        )
    raise NonCompactRegime("q < p/(pb+1): the ellipsoid is not compact in lq")


def _tail_radius_any(model, d, p, q, case, b) -> float:
    L = table_length(model)
    if L is not None and d >= L:
        return 0.0
    if case == CASE_I:
        return axis(model, d + 1)
    if L is not None:
        # Finite table, q < p: Hoelder over the remaining table entries.
        rp, rq = p.reciprocal(), q.reciprocal()
        theta = 1.0 / (rq - rp)
        return tail_power_sum(model, d, theta).hi ** (rq - rp)
    return tail_radius(model, d, p, q, b, case)


def infinite_upper_bound(
    model: SemiAxisModel,
    p: ExponentLike,
    q: ExponentLike,
    eps: float,
    tail_fraction: Optional[float] = None,
) -> Tuple[EntropyResult, BoundCertificate]:
    """Certified upper bound on the entropy of an infinite-dimensional
    p-ellipsoid in q-norm, via a single finite block plus residual.

    The cut dimension d is the smallest one whose tail radius drops below
    eps * tail_fraction (default: the equal-q-power split 2^(-1/q), or the
    full eps when q is the sup norm); the finite block is then covered at
    the complementary radius through the density bound, with eta set to
    the smallest admissible value.
    """
    p, q = as_exponent(p), as_exponent(q)
    if eps <= 0:
        raise EntropyError("eps must be positive")
    case, b = _pick_case(model, p, q)

    if tail_fraction is None:
        tail_fraction = 1.0 if q.is_inf else 2.0 ** (-q.reciprocal())
    if not 0 < tail_fraction <= 1:
        raise EntropyError("tail_fraction must lie in (0, 1]")

    def tail_at(d: int) -> float:
        return _tail_radius_any(model, d, p, q, case, b)

    if tail_at(0) <= eps:
        cert = BoundCertificate(
            effective_dimension=0,
            block_sizes=(),
            inner_radii=(),
            tail_radius=tail_at(0),
            omega_count=1,
            tail_case=case,
        )
        return EntropyResult(0.0, CERTIFIED_UPPER, eps), cert

    target = eps * tail_fraction
    d = _smallest_dim_with_tail_below(tail_at, target, model)
    ensure_non_increasing(model, d + 1)  # standing assumption of the split
    alpha = tail_at(d)
    if q.is_inf:
        rho = eps
    else:
        # one-sided margin so the recombined radius never rounds above eps
        rho = (eps**q.value - alpha**q.value) ** q.reciprocal() * (1.0 - 1e-12)

    axes = tuple(axis(model, n) for n in range(1, d + 1))
    notes = []
    if d >= 3:
        rp, rq = p.reciprocal(), q.reciprocal()
        ell = FiniteEllipsoid(p, axes)
        candidates = [(rho / (d ** (-max(rp - rq, 0.0)) * axes[-1]), FD1)]
        if rp <= rq:
            candidates.append((rho / (d ** (rq - rp) * axes[-1]), FD2))
        eta, density_case = min(candidates)
        # eta * x * mu_d can round to just below rho; step eta up until the
        # case's admissible radius reaches rho
        while admissible_radius(ell, q, eta, density_case)[1] < rho:
            eta = math.nextafter(eta, math.inf)
        fb = density_upper_bound(ell, q, rho, eta)
        bits = fb.log2_bound
        kappa = fb.kappa_used
        notes.append(f"density case {fb.case_tag}")
    else:
        bits = product_grid_upper_bound(axes, q, rho)
        eta = None
        kappa = None
        notes.append("product-grid fallback (d < 3)")

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
        notes=tuple(notes),
    )
    return EntropyResult(bits, CERTIFIED_UPPER, eps), cert


def _smallest_dim_with_tail_below(tail_at, target: float, model) -> int:
    # A complete finite table always terminates: its tail vanishes past the end.
    hi = 1
    while tail_at(hi) > target:
        hi *= 2
        if hi > _DIM_SCAN_CAP:
            raise ScanCapExceeded(
                f"no dimension below {_DIM_SCAN_CAP} brings the tail under {target}"
            )
    lo = hi // 2  # tail_at(lo) > target when lo >= 1
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if tail_at(mid) > target:
            lo = mid
        else:
            hi = mid
    return hi


DEFAULT_ROGERS_K = 1024.0
"""Placeholder for the sphere-covering density constant.

The covering result guarantees existence of some K > 0 for dimensions
>= 9 but never quantifies it; every number depending on K is therefore
parametric in it, and defaults are chosen generously.  Downstream checks
are either monotone in K or independent of it.
"""


def omega_lattice_count(dbar: int, k: int, gamma: float) -> int:
    """Exact size of the weight lattice for a mixed bound.

    Weights are omega_j = sqrt(m_j) / dbar^gamma with m_j non-negative
    integers, constrained by ||omega||_2 <= 1 + sqrt(k+1)/dbar^gamma, i.e.
    sum m_j <= (dbar^gamma + sqrt(k+1))^2.  Counting lattice points in the
    simplex is a binomial coefficient.  The float budget is nudged upward
    before flooring: undercounting the lattice would invalidate the bound,
    overcounting only loosens it immaterially.
    """
    x = (dbar**gamma + math.sqrt(k + 1)) ** 2
    budget = math.floor(x * (1.0 + 1e-12))
    return math.comb(budget + k + 1, k + 1)


def _mixed_cut(spec: MixedEllipsoidSpec, eps: float) -> int:
    """k with mu_{k+1} <= eps < mu_k."""
    if not axis(spec.semi_axes, 1) > eps:
        raise EntropyError("mixed bounds require eps < mu_1")
    k = 1
    while axis(spec.semi_axes, k + 1) > eps:
        k += 1
        if k > len(spec.dims):
            raise EntropyError("dims list too short for this eps")
    return k


def mixed_upper_bound(
    spec: MixedEllipsoidSpec,
    eps: float,
    gamma: float = 1.0,
    rogers_K: float = DEFAULT_ROGERS_K,
) -> Tuple[EntropyResult, BoundCertificate]:
    """Upper bound on the entropy of a mixed l2-of-l2 ellipsoid.

    Covers each of the k leading blocks (those with mu_j > eps) as a
    Euclidean ball at radius eps using the parametric density bound
    N <= K d^(5/2) (mu/eps)^d, and pays log2(#Omega) for the weight
    lattice.  The certified radius is the inflated
    eps_gamma = eps (1 + sqrt(k+1)/dbar^gamma).
    """
    if gamma < 1:
        raise EntropyError("gamma must be >= 1")
    if rogers_K <= 0:
        raise EntropyError("rogers_K must be positive")
    k = _mixed_cut(spec, eps)
    dims = spec.dims[:k]
    if any(d < 9 for d in dims):
        raise EntropyError("mixed bound requires every covered block dim >= 9")
    dbar = sum(dims)
    n_omega = omega_lattice_count(dbar, k, gamma)
    bits = math.log2(n_omega) + kahan_sum(
        math.log2(rogers_K)
        + 2.5 * math.log2(dj)
        + dj * math.log2(axis(spec.semi_axes, j + 1) / eps)
        for j, dj in enumerate(dims)
    )
    eps_gamma = eps * (1.0 + dbar ** (-gamma) * math.sqrt(k + 1))
    cert = BoundCertificate(
        effective_dimension=dbar,
        block_sizes=tuple(dims),
        inner_radii=(eps,) * k,
        tail_radius=axis(spec.semi_axes, k + 1),
        omega_count=n_omega,
        tail_case=CASE_I,
        notes=(f"parametric in rogers_K={rogers_K:g}", f"gamma={gamma:g}"),
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
