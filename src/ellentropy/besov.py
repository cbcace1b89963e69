"""Entropy of Besov-type smoothness balls through their ellipsoid model.

A smoothness-s ball on a bounded domain of dimension d, measured in L2,
has wavelet coefficients forming a p1-ellipsoid whose semi-axes follow
the power law

    mu_n = (vol / n)^(s/d - (1/p1 - 1/2)),

so the induced canonical model has decay index and scale

    b = s/d + 1/2 - 1/p1,    c = vol^b,

and the entropy band in the 2-norm carries the exponent
b* = b + 1/p1 - 1/2 = s/d, making both edges proportional to

    vol^(1 - (d/s)(1/p1 - 1/2)) * eps^(-d/s).

The band is exact only up to the wavelet-frame constants of the
coefficient embedding, which are domain-independent but not quantified;
results carry an explicit warning to that effect.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Tuple

from .asymptotics import EntropyBand, canonical_band
from .constants import ExponentLike, as_exponent
from .errors import EntropyError, InvalidModel, NonCompactRegime
from .numerics import _Frozen
from .sequences import Canonical

FRAME_CONSTANTS_WARNING = "band valid up to wavelet-frame constants"
SMALL_P_WARNING = (
    "p1 < 2: only the lower edge carries a confirmed constant (one-sided regime)"
)


class BesovSpec(_Frozen):
    """Smoothness s, domain dimension d, integrability p1, domain volume."""

    __slots__ = ("s", "d", "p1", "vol_omega")

    def __init__(self, s: float, d: int, p1: ExponentLike, vol_omega: float):
        p1 = as_exponent(p1)
        if not s > 0:
            raise EntropyError("smoothness s must be positive")
        if d < 1:
            raise EntropyError("domain dimension must be >= 1")
        if not vol_omega > 0:
            raise EntropyError("domain volume must be positive")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "p1", p1)
        object.__setattr__(self, "vol_omega", vol_omega)

    @property
    def small_p_warning(self) -> bool:
        return not self.p1.is_inf and self.p1.value < 2.0


def coefficient_decay_exponent(spec: BesovSpec) -> float:
    """s/d - (1/p1 - 1/2), the decay of the coefficient semi-axes."""
    return spec.s / spec.d - (spec.p1.reciprocal() - 0.5)


def semi_axes_from_besov(spec: BesovSpec) -> Canonical:
    """The induced canonical semi-axis model (vol/n)^(s/d - (1/p1 - 1/2))."""
    e = coefficient_decay_exponent(spec)
    if e <= 0:
        raise NonCompactRegime(
            "non-compact parameter combination: s/d must exceed 1/p1 - 1/2"
        )
    try:
        c = spec.vol_omega**e
    except OverflowError:
        c = math.inf
    if not 0.0 < c < math.inf:
        raise InvalidModel(
            f"the induced scale vol^e = {spec.vol_omega!r}^{e!r} lies past the float range"
        )
    return Canonical(b=e, c=c)


class BesovBand(NamedTuple):
    """Entropy band plus the induced model and applicable warnings."""

    band: EntropyBand
    model: Canonical
    b_star: float
    warnings: Tuple[str, ...]


def besov_entropy_band(spec: BesovSpec, eps: float) -> BesovBand:
    """Two-sided (or one-sided for p1 < 2) entropy band at radius eps.

    Applies the canonical band machinery to the induced ellipsoid with
    ambient exponent q = 2; the entropy exponent is b* = s/d.
    """
    model = semi_axes_from_besov(spec)
    band = canonical_band(spec.p1, 2.0, model.b, model.c, eps)
    warnings = [FRAME_CONSTANTS_WARNING]
    if spec.small_p_warning:
        warnings.append(SMALL_P_WARNING)
    return BesovBand(
        band=band,
        model=model,
        b_star=model.b + spec.p1.reciprocal() - 0.5,
        warnings=tuple(warnings),
    )
