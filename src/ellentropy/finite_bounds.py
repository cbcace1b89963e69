"""Certified covering-number bounds for finite-dimensional ellipsoids.

For a p-ellipsoid with semi-axes mu_1 >= ... >= mu_d > 0 and covering
balls of the q-norm, the volume comparison gives for every eps > 0

    log2 N(eps) >= d * log2(V_{p,q,d} * gmean(mu) / eps),

while a density (random-centers plus saturation) construction gives the
fully explicit upper bound

    log2(N(eps) - 1) <= d * log2(kappa(d) * (1 + eta) * B / eps),

valid on a restricted radius interval, where

    kappa(d) = (1 + 1/(d ln d)) * (d ln d + d ln ln d + 1)^(1/d)

and B is V_{p,q,d} * gmean(mu) for the generic case (FD1) or
d^(1/q-1/p) * gmean(mu) when p >= q (FD2).  The kappa expression comes
from splitting the radius as eps1 = eps * d ln d / (1 + d ln d) between
the random and the saturating centers; it needs d >= 3 so ln ln d > 0.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, NamedTuple, Optional, Sequence, Tuple

from .constants import ExponentLike, HolderExponent, as_exponent, volume_ratio
from .errors import EntropyError, RadiusOutOfRange, ScanCapExceeded
from .numerics import _ceil_ratio, _check_radius, _Frozen, kahan_sum

FD1 = "FD1"
FD2 = "FD2"
VOLUME_LOWER = "volume-lower"


class FiniteEllipsoid(_Frozen):
    """A finite-dimensional p-ellipsoid: exponent plus sorted semi-axes."""

    __slots__ = ("p", "axes")

    def __init__(self, p: ExponentLike, axes: Sequence[float]):
        p = as_exponent(p)
        axes = tuple(float(a) for a in axes)
        if not axes:
            raise EntropyError("ellipsoid needs at least one axis")
        if any(a <= 0 for a in axes):
            raise EntropyError("axes must be positive")
        if any(b > a for a, b in zip(axes, axes[1:])):
            raise EntropyError("axes must be non-increasing")
        if not all(map(math.isfinite, axes)):
            raise EntropyError("axes must be finite")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "axes", axes)

    @property
    def dim(self) -> int:
        return len(self.axes)

    def log2_geometric_mean(self) -> float:
        return kahan_sum(math.log2(a) for a in self.axes) / self.dim


class FiniteBound(NamedTuple):
    """A one-sided certified bound on log2 N(eps).

    Lower bounds hold for every radius; upper bounds are only asserted
    inside ``valid_radius_range`` = (0, upper].
    """

    log2_bound: float
    kind: str  # "lower" | "upper"
    valid_radius_range: Tuple[float, float]
    case_tag: str
    kappa_used: float


def explicit_kappa(d: int) -> float:
    """The concrete kappa(d) of the density construction; d >= 3."""
    if d < 3:
        raise EntropyError("kappa(d) requires d >= 3 (ln ln d must be positive)")
    ld = math.log(d)
    return (1.0 + 1.0 / (d * ld)) * math.exp(
        math.log(d * ld + d * math.log(ld) + 1.0) / d
    )


def volume_lower_bound(E: FiniteEllipsoid, q: ExponentLike, eps: float) -> FiniteBound:
    """log2 N(eps) >= d log2(V_{p,q,d} gmean / eps), clipped at 0."""
    _check_radius(eps)
    q = as_exponent(q)
    d = E.dim
    log2_v = math.log2(volume_ratio(E.p, q, d))
    bits = d * (log2_v + E.log2_geometric_mean() - math.log2(eps))
    return FiniteBound(
        log2_bound=max(0.0, bits),
        kind="lower",
        valid_radius_range=(0.0, math.inf),
        case_tag=VOLUME_LOWER,
        kappa_used=1.0,
    )


def admissible_radius(
    E: FiniteEllipsoid, q: ExponentLike, eta: float, case: str
) -> Tuple[float, float]:
    """The interval (0, r] of radii on which the density bound is asserted.

    FD1 (any p, q): r = eta * d^(-(1/p-1/q)_+) * mu_d.
    FD2 (p >= q):   r = eta * d^(1/q-1/p) * mu_d.
    """
    return _admissible_radius(E.p, q, E.dim, E.axes[-1], eta, case)


def _admissible_radius(
    p: HolderExponent, q: ExponentLike, d: int, mu_d: float, eta: float, case: str
) -> Tuple[float, float]:
    """``admissible_radius`` of a block known by its exponent, dimension
    and smallest axis."""
    if eta <= 0:
        raise EntropyError("eta must be positive")
    if not eta < math.inf:
        raise EntropyError(f"eta must be finite, got {eta!r}")
    q = as_exponent(q)
    rp, rq = p.reciprocal(), q.reciprocal()
    if case == FD1:
        return (0.0, eta * d ** (-max(rp - rq, 0.0)) * mu_d)
    if case == FD2:
        if rp > rq:
            raise EntropyError("FD2 requires p >= q")
        return (0.0, eta * d ** (rq - rp) * mu_d)
    raise EntropyError(f"unknown case {case!r}")


def _density_bits(d: int, eps: float, eta: float, log2_B: float) -> float:
    kappa = explicit_kappa(d)
    # Bound on log2(N-1); reported on N itself.
    on_nm1 = d * (math.log2(kappa) + math.log2(1.0 + eta) + log2_B - math.log2(eps))
    if on_nm1 > 60.0:
        return on_nm1  # adding 1 is below float resolution
    return math.log2(2.0**on_nm1 + 1.0)


def density_upper_bound(
    E: FiniteEllipsoid, q: ExponentLike, eps: float, eta: float
) -> FiniteBound:
    """Explicit upper bound on log2 N(eps) from the density construction.

    Evaluates every case admissible at (eps, eta) and returns the smaller
    bound; raises RadiusOutOfRange (reporting the widest admissible
    interval) when eps lies outside all of them.
    """
    return _density_upper_bound(
        E.p, q, E.dim, E.axes[-1], E.log2_geometric_mean(), eps, eta
    )


def _density_upper_bound(
    p: HolderExponent,
    q: ExponentLike,
    d: int,
    mu_d: float,
    lg_gmean: float,
    eps: float,
    eta: float,
) -> FiniteBound:
    """``density_upper_bound`` of a block known by its exponent, dimension,
    smallest axis and log2 geometric mean of the axes."""
    _check_radius(eps)
    q = as_exponent(q)
    if d < 3:
        raise EntropyError("density bound requires d >= 3")
    rp, rq = p.reciprocal(), q.reciprocal()

    candidates = []
    r1 = _admissible_radius(p, q, d, mu_d, eta, FD1)
    if eps <= r1[1]:
        log2_B = math.log2(volume_ratio(p, q, d)) + lg_gmean
        candidates.append((_density_bits(d, eps, eta, log2_B), FD1, r1))
    if rp <= rq:
        r2 = _admissible_radius(p, q, d, mu_d, eta, FD2)
        if eps <= r2[1]:
            log2_B = (rq - rp) * math.log2(d) + lg_gmean
            candidates.append((_density_bits(d, eps, eta, log2_B), FD2, r2))

    if not candidates:
        widest = r1
        if rp <= rq:
            widest = max(
                widest, _admissible_radius(p, q, d, mu_d, eta, FD2), key=lambda r: r[1]
            )
        raise RadiusOutOfRange(
            f"eps={eps} outside the admissible interval (0, {widest[1]}]",
            interval=widest,
        )
    bits, tag, rng = min(candidates, key=lambda c: c[0])
    return FiniteBound(
        log2_bound=bits,
        kind="upper",
        valid_radius_range=rng,
        case_tag=tag,
        kappa_used=explicit_kappa(d),
    )


def product_grid_upper_bound(
    axes: Sequence[float], q: ExponentLike, eps: float
) -> float:
    """Crude certified upper bound covering the bounding hyperrectangle.

    Axis a is quantized into ceil(a / r) cells at per-axis radius
    r = eps * d^(-1/q), rounded down for finite q so that the q-norm
    combination of the radii stays at most eps.  Each ceiling is exact,
    and the bits are log2 of the integer product of the counts.  Useful
    fallback at dimensions below the density bound's reach.

    The axes do not increase.  So an axis that underflowed to 0.0 is at
    most the one before it, and takes one cell where that one does;
    elsewhere it raises ScanCapExceeded.
    """
    _check_radius(eps)
    rq = as_exponent(q).reciprocal()
    d = len(axes)
    per_axis = eps * d ** (-rq)
    if rq:
        per_axis = math.nextafter(per_axis, 0.0)
    counts = [_ceil_ratio(a, per_axis) for a in axes]
    for n, count in enumerate(counts):
        if count == 0:
            if n == 0 or counts[n - 1] != 1:
                raise ScanCapExceeded(
                    f"axis {n + 1} underflowed to 0.0, and no axis before it "
                    f"bounds it within one cell of radius {per_axis!r}"
                )
            counts[n] = 1
    return math.log2(math.prod(counts))


def _block_cover(
    p: HolderExponent,
    q: HolderExponent,
    d: int,
    mu_d: float,
    lg_gmean: Callable[[], float],
    rho: float,
    axes: Iterable[float],
) -> Tuple[float, Optional[float], Optional[float], str]:
    """Certified log2 of a cover at radius rho of a block of dimension d
    and smallest axis mu_d; returns the bits, eta, kappa and the route
    note of the certificate.

    From d = 3 on it is the density bound, with eta the smallest value
    whose admissible radius reaches rho and ``lg_gmean()`` a certified
    upper end of the block's log2 geometric mean.  Below, it is the product
    grid of ``axes``, the block's d semi-axes, and eta and kappa are None.
    Each route reads only its own input.
    """
    if d < 3:
        bits = product_grid_upper_bound(tuple(axes), q, rho)
        return bits, None, None, "product-grid fallback (d < 3)"
    lg = lg_gmean()
    # eta is rho over each admissible case's radius at eta = 1
    cases = (FD1, FD2) if p.reciprocal() <= q.reciprocal() else (FD1,)
    units = ((_admissible_radius(p, q, d, mu_d, 1.0, case)[1], case) for case in cases)
    eta, density_case = min((rho / u if u > 0.0 else math.inf, case) for u, case in units)
    if not 0.0 < eta < math.inf:
        raise ScanCapExceeded(
            f"eta = rho / (d^x mu_d) at d={d}, mu_d={mu_d!r}, rho={rho!r} "
            f"lies past the float range"
        )
    # eta * x * mu_d can round to just below rho; step eta up until the
    # case's admissible radius reaches rho
    while _admissible_radius(p, q, d, mu_d, eta, density_case)[1] < rho:
        eta = math.nextafter(eta, math.inf)
    fb = _density_upper_bound(p, q, d, mu_d, lg, rho, eta)
    return fb.log2_bound, eta, fb.kappa_used, f"density case {fb.case_tag}"
