"""A second route to the series constant S(b), for cross-checking.

``ellentropy.constants.zeta_series_constant`` sums the head of
S(b) = sum_k log2(1 + 1/k) k^(-1/b) directly and encloses the tail.  The
function here instead samples the zeta function, so the two routes share
no summation and agreement between them checks both.
"""

from __future__ import annotations

from ellentropy.constants import LN2, zeta
from ellentropy.errors import EntropyError


def zeta_series_constant_alternating(b: float) -> float:
    """Cross-check route for S(b) through samples of the zeta function.

    Identical by Fubini to (1/ln 2) sum_l (-1)^(l+1) zeta(l + 1/b) / l; the
    conditionally convergent series is accelerated by splitting off
    sum_l (-1)^(l+1)/l = ln 2, leaving absolutely convergent terms in
    (zeta - 1).
    """
    if not b > 0:
        raise EntropyError(f"series constant requires b > 0, got {b}")
    rb = 1.0 / b
    total = 1.0
    sign = 1.0
    ell = 1
    while True:
        term = sign * (zeta(ell + rb) - 1.0) / (ell * LN2)
        total += term
        if abs(term) < 1e-17:
            break
        sign = -sign
        ell += 1
    return total
