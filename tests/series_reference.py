"""A second route to the series constant S(b), for cross-checking.

``ellentropy.constants.zeta_series_constant`` sums the head of
S(b) = sum_k log2(1 + 1/k) k^(-1/b) directly and encloses the tail.  The
function here instead samples ``mpmath.zeta`` at 40 digits, so the two
routes share no summation and agreement between them checks both.
"""

from __future__ import annotations

import mpmath

from ellentropy.errors import EntropyError


def zeta_series_constant_alternating(b: float) -> float:
    """S(b) at the float b, rounded to a float from about 36 digits,
    through samples of zeta.

    Identical by Fubini to (1/ln 2) sum_l (-1)^(l+1) zeta(l + 1/b) / l; the
    conditionally convergent series is accelerated by splitting off
    sum_l (-1)^(l+1)/l = ln 2, leaving absolutely convergent terms in
    (zeta - 1), which fall by about half from one l to the next.
    """
    if not b > 0:
        raise EntropyError(f"series constant requires b > 0, got {b}")
    with mpmath.workdps(40):
        rb = 1 / mpmath.mpf(b)
        total = mpmath.mpf(1)
        sign = 1
        ell = 1
        while True:
            term = sign * (mpmath.zeta(ell + rb) - 1) / (ell * mpmath.ln2)
            total += term
            if abs(term) < mpmath.mpf(10) ** -36 * total:
                return float(total)
            sign = -sign
            ell += 1
