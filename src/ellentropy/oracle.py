"""Brute-force covering and packing estimates in dimensions up to 3.

These are the package's independent ground truths.  A deterministic
axis-aligned grid of cell centers is laid over the ellipsoid's bounding
box.  Greedy selection in a fixed lexicographic scan then produces

* a covering of all retained grid points at radius eps, whose size upper
  bounds N(eps + delta), delta being the q-norm of the half-cell offsets
  (any point of the body sits within delta of a retained grid point);
* a subset of ellipsoid points pairwise more than 2 eps apart, whose size
  lower bounds N(eps) (an eps-ball holds at most one such point).

Determinism is part of the contract: identical inputs give identical
counts, regardless of how the distance computations are batched.

Each greedy step works on an index window: the sub-box of grid cells
whose centres lie, on every axis, within the step's reach of its centre
plus one cell width.  The reach is eps when marking cells covered, 2 eps
when marking cells unavailable to the packing, and, when snapping a
cover centre, a computed distance from the snap target to a retained
cell, which the nearest retained cell cannot exceed.  A cell outside the
window is more than reach + one cell width away in some coordinate, so
its computed q-norm distance exceeds the reach as well and the full-grid
test would leave it unchanged.  Inside the window, distances are taken
only for cells whose state can still change, each by the same float
expression on the same coordinates as in a full-grid sweep, and a
C-ordered sub-box keeps lexicographic order, so ``argmin`` breaks ties
the same way.  The counts therefore do not depend on the batching.
Because the set of covered (or unavailable) cells only grows, the first
uncovered (or available) cell in lexicographic order is found by a
pointer that only moves forward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .constants import ExponentLike, HolderExponent, as_exponent
from .errors import EnumerationTooLarge, EntropyError
from .finite_bounds import (
    FiniteEllipsoid,
    density_upper_bound,
    product_grid_upper_bound,
    volume_lower_bound,
)
from .hyperrect import exact_entropy
from .sequences import Tabulated

GRID_POINT_CAP = 10**7


@dataclass(frozen=True)
class OracleReport:
    """Counts from the grid oracle; either count may be absent.

    ``cover_count`` upper-bounds N(eps + delta); ``pack_count``
    lower-bounds N(eps).  ``grid_resolution`` is the largest per-axis cell
    width, ``delta`` the q-norm of the half-cell offsets.
    """

    cover_count: Optional[int]
    pack_count: Optional[int]
    grid_resolution: float
    delta: float


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


def _grid(axes: Tuple[float, ...], resolution: int) -> np.ndarray:
    """Cell-centre grid of the bounding box, shape ``(resolution,)*d + (d,)``.

    Cell k of axis j has centre -a_j + (k + 1/2) w_j with cell width
    w_j = 2 a_j / resolution; C order over the first d axes is
    lexicographic order in the indices.
    """
    d = len(axes)
    if resolution**d > GRID_POINT_CAP:
        raise EnumerationTooLarge(
            f"grid of {resolution**d} points exceeds the cap", count=resolution**d
        )
    sides = [
        -a + (2 * np.arange(1, resolution + 1) - 1) * (a / resolution) for a in axes
    ]
    return np.stack(np.meshgrid(*sides, indexing="ij"), axis=-1)


def _window(
    axes: Tuple[float, ...], resolution: int, centre: np.ndarray, reach: float
) -> Tuple[slice, ...]:
    """Index box of the cells whose centres lie within ``reach`` of
    ``centre`` on every axis, widened by one cell width on each side."""
    box = []
    for a, c in zip(axes, centre.tolist()):
        w = 2.0 * a / resolution
        lo = math.ceil((c - reach - w + a) / w - 0.5)
        hi = math.floor((c + reach + w + a) / w - 0.5)
        box.append(slice(max(lo, 0), hi + 1))
    return tuple(box)


def _check_instance(E: FiniteEllipsoid, eps: float, resolution: int) -> None:
    if E.dim > 3:
        raise EntropyError("oracle supports dimensions 1 to 3 only")
    if resolution < 8:
        raise EntropyError("resolution must be at least 8")
    if eps <= 0:
        raise EntropyError("eps must be positive")


def _cell_half_widths(E: FiniteEllipsoid, resolution: int) -> np.ndarray:
    return np.array(E.axes) / resolution


def greedy_cover(
    E: FiniteEllipsoid, q: ExponentLike, eps: float, resolution: int
) -> OracleReport:
    """Deterministic greedy covering of the grid points near the ellipsoid.

    Grid points are retained when their ellipsoid norm is at most
    1 + slack, slack being the ellipsoid norm of the half-cell offsets;
    this guarantees that the cell center of any body point is retained, so
    the selected centers cover the whole body at radius eps + delta.

    Each step takes the first uncovered cell in lexicographic order (a
    forward-only pointer, as covered cells stay covered), snaps its
    shifted point to the nearest retained cell inside the window the snap
    can reach, and marks cells covered inside the eps-window of the chosen
    centre only.  Cells outside a window fail the full-grid distance test
    too, so the count equals that of a full-grid sweep at every step.
    """
    q = as_exponent(q)
    _check_instance(E, eps, resolution)
    half = _cell_half_widths(E, resolution)
    grid = _grid(E.axes, resolution)
    axes = np.array(E.axes)
    slack = float(_pnorm_mu(half[None, :], axes, E.p)[0])
    retained = _pnorm_mu(grid, axes, E.p) <= 1.0 + slack
    delta = float(_qnorm(half[None, :], q)[0])

    # Forward-diagonal shift of q-norm length 0.95 eps: the center for the
    # first uncovered point is the grid point nearest to point + shift (the
    # point itself if the snap lands outside radius eps).  In one dimension
    # this is the near-optimal interval rule; in higher dimensions it
    # advances a full frontier instead of hugging the scan axis.
    diag = np.ones(len(E.axes))
    shift = 0.95 * eps * diag / float(_qnorm(diag[None, :], q)[0])
    points = grid.reshape(-1, len(E.axes))
    covered = ~retained  # cells outside the body need no cover
    flat = covered.reshape(-1)
    count = i = 0
    while True:
        i += int(np.argmin(flat[i:]))  # first uncovered in lex order
        if flat[i]:
            break
        point = points[i]
        target = point + shift
        # the nearest retained cell is no farther from target than point,
        # nor than the cell holding target when that one is retained
        reach = float(_qnorm((point - target)[None, :], q)[0])
        home = tuple(np.minimum((target + axes) // (2.0 * half), resolution - 1).astype(int))
        if retained[home]:
            reach = min(reach, float(_qnorm((grid[home] - target)[None, :], q)[0]))
        box = _window(E.axes, resolution, target, reach)
        window = grid[box]
        dist = np.where(retained[box], _qnorm(window - target, q), np.inf)
        centre = window[np.unravel_index(np.argmin(dist), dist.shape)]
        if _qnorm((centre - point)[None, :], q)[0] > eps:
            centre = point
        count += 1
        box = _window(E.axes, resolution, centre, eps)
        sub = covered[box]  # a view: writes land in covered
        todo = ~sub
        sub[todo] = _qnorm(grid[box][todo] - centre, q) <= eps
    return OracleReport(
        cover_count=count,
        pack_count=None,
        grid_resolution=float(2.0 * half.max()),
        delta=delta,
    )


def _greedy_pack_once(E: FiniteEllipsoid, q: HolderExponent, eps: float, resolution: int) -> int:
    grid = _grid(E.axes, resolution)
    available = _pnorm_mu(grid, np.array(E.axes), E.p) <= 1.0  # strict membership
    points = grid.reshape(-1, len(E.axes))
    flat = available.reshape(-1)
    count = i = 0
    while True:
        i += int(np.argmax(flat[i:]))  # first available in lex order
        if not flat[i]:
            return count
        count += 1
        box = _window(E.axes, resolution, points[i], 2.0 * eps)
        sub = available[box]  # a view: writes land in available
        sub[sub] = _qnorm(grid[box][sub] - points[i], q) > 2.0 * eps


def greedy_pack(
    E: FiniteEllipsoid, q: ExponentLike, eps: float, resolution: int
) -> OracleReport:
    """Deterministic greedy 2eps-separated subset of grid points inside E.

    The greedy runs at the requested resolution and at each halving of it
    (down to 8); the best count is reported.  Every run is a valid lower
    bound, and taking the maximum over the halving chain makes the count
    non-decreasing under dyadic refinement.
    """
    q = as_exponent(q)
    _check_instance(E, eps, resolution)
    half = _cell_half_widths(E, resolution)
    chain = [resolution]
    while chain[-1] // 2 >= 8:
        chain.append(chain[-1] // 2)
    count = max(_greedy_pack_once(E, q, eps, r) for r in chain)
    return OracleReport(
        cover_count=None,
        pack_count=count,
        grid_resolution=float(2.0 * half.max()),
        delta=float(_qnorm(half[None, :], q)[0]),
    )


@dataclass(frozen=True)
class SandwichReport:
    """All bounds evaluated on one instance, with the ordering checks.

    ``checks`` maps a named inequality to a bool; ``values`` holds the
    numbers behind them (bits, except the raw counts).
    """

    report: OracleReport
    checks: dict
    values: dict

    @property
    def all_ok(self) -> bool:
        return all(self.checks.values())


def sandwich_report(
    E: FiniteEllipsoid,
    q: ExponentLike,
    eps: float,
    resolution: int = 64,
    eta: float = 1.0,
) -> SandwichReport:
    """Evaluate every bound on one instance and assert the full ordering.

    With delta the grid slack, the verifiable inequalities are

        volume_lower(eps + delta) <= log2(cover count),
        log2(pack count)          <= upper(eps),

    where upper is the density bound for d >= 3 (when eps is admissible)
    and the product-grid bound otherwise, and for p = q = inf the exact
    entropy must sit inside both brackets.
    """
    q = as_exponent(q)
    cover = greedy_cover(E, q, eps, resolution)
    pack = greedy_pack(E, q, eps, resolution)
    report = OracleReport(
        cover_count=cover.cover_count,
        pack_count=pack.pack_count,
        grid_resolution=cover.grid_resolution,
        delta=cover.delta,
    )
    eps_outer = eps + cover.delta
    vl_outer = volume_lower_bound(E, q, eps_outer).log2_bound
    log_cover = math.log2(cover.cover_count)
    log_pack = math.log2(pack.pack_count)

    values = {
        "eps": eps,
        "delta": cover.delta,
        "volume_lower_at_eps_plus_delta": vl_outer,
        "log2_cover": log_cover,
        "log2_pack": log_pack,
        "volume_lower_at_eps": volume_lower_bound(E, q, eps).log2_bound,
    }
    checks = {"volume_lower<=cover": vl_outer <= log_cover + 1e-9}

    upper_bits = None
    if E.dim >= 3:
        try:
            upper_bits = density_upper_bound(E, q, eps, eta).log2_bound
            values["upper_kind"] = "density"
        except EntropyError:
            upper_bits = None
    if upper_bits is None:
        upper_bits = product_grid_upper_bound(E.axes, q, eps)
        values["upper_kind"] = "product-grid"
    values["upper_at_eps"] = upper_bits
    checks["pack<=upper"] = log_pack <= upper_bits + 1e-9
    checks["volume_lower<=upper"] = values["volume_lower_at_eps"] <= upper_bits + 1e-9

    if E.p.is_inf and q.is_inf:
        exact_inner = exact_entropy(Tabulated(E.axes), eps).bits
        exact_outer = exact_entropy(Tabulated(E.axes), eps_outer).bits
        values["exact_at_eps"] = exact_inner
        values["exact_at_eps_plus_delta"] = exact_outer
        checks["exact_in_lower_bracket"] = (
            vl_outer <= exact_outer + 1e-9 and exact_outer <= log_cover + 1e-9
        )
        checks["exact_in_upper_bracket"] = (
            log_pack <= exact_inner + 1e-9 and exact_inner <= upper_bits + 1e-9
        )
    return SandwichReport(report=report, checks=checks, values=values)
