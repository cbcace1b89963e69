"""Full-grid reference for the greedy grid oracle.

``ellentropy.oracle`` never materializes the grid: it builds distances
from per-axis coordinate vectors and updates only the index window of
cells within reach of each chosen centre.  The loops here take the direct
route instead: they materialize the ``(resolution,)*d + (d,)`` meshgrid of
cell centres and, at every greedy step, recompute the q-norm distance from
the centre to every retained grid point, reducing over the last axis.
They are the oracle the separable, windowed computation is tested
against, and must give the same cover and pack counts.  The norm kernels
below are kept here, independent of the code under test.
"""

from __future__ import annotations

import numpy as np

from ellentropy.constants import ExponentLike, HolderExponent, as_exponent
from ellentropy.finite_bounds import FiniteEllipsoid


def _qnorm(diff: np.ndarray, q: HolderExponent) -> np.ndarray:
    a = np.abs(diff)
    if q.is_inf:
        return a.max(axis=-1)
    if q.value == 1.0:
        return a.sum(axis=-1)
    if q.value == 2.0:
        return np.sqrt((a * a).sum(axis=-1))
    return (a**q.value).sum(axis=-1) ** (1.0 / q.value)


def _pnorm_mu(points: np.ndarray, axes: np.ndarray, p: HolderExponent) -> np.ndarray:
    scaled = np.abs(points) / axes
    if p.is_inf:
        return scaled.max(axis=-1)
    return (scaled**p.value).sum(axis=-1) ** (1.0 / p.value)


def _grid(axes, resolution: int) -> np.ndarray:
    """Cell-centre grid of the bounding box, shape ``(resolution,)*d + (d,)``:
    cell k of axis j has centre -a_j + (k + 1/2) 2 a_j / resolution."""
    sides = [
        -a + (2 * np.arange(1, resolution + 1) - 1) * (a / resolution) for a in axes
    ]
    return np.stack(np.meshgrid(*sides, indexing="ij"), axis=-1)


def _points(E: FiniteEllipsoid, resolution: int) -> np.ndarray:
    # the cell centres as a list in lexicographic order of the indices
    return _grid(E.axes, resolution).reshape(-1, E.dim)


def cover_count(E: FiniteEllipsoid, q: ExponentLike, eps: float, resolution: int) -> int:
    """Greedy cover count with one full-grid distance sweep per step."""
    q = as_exponent(q)
    half = np.array(E.axes) / resolution
    pts = _points(E, resolution)
    axes = np.array(E.axes)
    slack = float(_pnorm_mu(half[None, :], axes, E.p)[0])
    pts = pts[_pnorm_mu(pts, axes, E.p) <= 1.0 + slack]
    diag = np.ones(E.dim)
    shift = 0.95 * eps * diag / float(_qnorm(diag[None, :], q)[0])
    covered = np.zeros(len(pts), dtype=bool)
    count = 0
    while not covered.all():
        i = int(np.argmin(covered))  # first uncovered in lex order
        c = int(np.argmin(_qnorm(pts - (pts[i] + shift), q)))
        if _qnorm((pts[c] - pts[i])[None, :], q)[0] > eps:
            c = i
        count += 1
        covered |= _qnorm(pts - pts[c], q) <= eps
    return count


def pack_count_once(E: FiniteEllipsoid, q: ExponentLike, eps: float, resolution: int) -> int:
    """Greedy 2eps-separated count at one resolution, full-grid sweeps."""
    q = as_exponent(q)
    pts = _points(E, resolution)
    pts = pts[_pnorm_mu(pts, np.array(E.axes), E.p) <= 1.0]
    available = np.ones(len(pts), dtype=bool)
    count = 0
    while available.any():
        i = int(np.argmax(available))  # first available in lex order
        count += 1
        available &= _qnorm(pts - pts[i], q) > 2.0 * eps
    return count


def pack_count(E: FiniteEllipsoid, q: ExponentLike, eps: float, resolution: int) -> int:
    """The best count over the resolution and its halvings down to 8."""
    counts = []
    while resolution >= 8:
        counts.append(pack_count_once(E, q, eps, resolution))
        resolution //= 2
    return max(counts)
