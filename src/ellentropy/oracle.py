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

The grid is never materialized.  Each axis keeps one 1-D vector of its
cell centres, and grid point (k_0, ..., k_{d-1}) is the tuple
(side_0[k_0], ..., side_{d-1}[k_{d-1}]).  Distances over an index box are
built from per-axis terms |side_j[lo:hi] - c_j| (squared for q = 2,
raised to q otherwise) broadcast against each other and folded left to
right, ((t_0 + t_1) + t_2), before the final root; the body mask is the
same kernel on side_j / a_j.  Each term is the float a full-grid sweep computes for that
coordinate, and numpy's reduction over a length-3 last axis adds in the
same left-to-right order (max is exact in any order), so every distance,
and hence every count, is bit-identical to the full-grid sweep of
``tests/grid_reference.py``.

Each greedy step works on an index window: the sub-box of grid cells
whose centres lie, on every axis, within the step's reach of its centre
plus one cell width.  The reach is eps when marking cells covered, 2 eps
when marking cells unavailable to the packing, and, when snapping a
cover centre, a computed distance from the snap target to a retained
cell, which the nearest retained cell cannot exceed.  A cell outside the
window is more than reach + one cell width away in some coordinate, so
its computed q-norm distance exceeds the reach as well and the full-grid
test would leave it unchanged.  Inside the window, a marked cell stays
marked and an unmarked one takes the full-grid test, and a C-ordered
box keeps lexicographic order, so ``argmin`` breaks ties the same way.
The counts therefore do not depend on the batching.  Because the set of
covered (or unavailable) cells only grows, the first uncovered (or
available) cell in lexicographic order is found by a pointer that only
moves forward.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Optional, Sequence, Tuple

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
from .numerics import _check_radius
from .sequences import Tabulated

GRID_POINT_CAP = 10**7


class OracleReport(NamedTuple):
    """Counts from the grid oracle; either count may be absent.

    ``cover_count`` upper-bounds N(eps + delta); ``pack_count``
    lower-bounds N(eps).  ``grid_resolution`` is the largest per-axis cell
    width, ``delta`` the q-norm of the half-cell offsets.
    """

    cover_count: Optional[int]
    pack_count: Optional[int]
    grid_resolution: float
    delta: float


def _fold(terms: Sequence[np.ndarray], op) -> np.ndarray:
    """``op`` over per-axis 1-D terms, left to right, on their open mesh:
    term j varies along axis j, and the result has shape
    ``(len(terms[0]), ..., len(terms[-1]))``."""
    d = len(terms)
    acc = terms[0].reshape((-1,) + (1,) * (d - 1))
    for j in range(1, d):
        acc = op(acc, terms[j].reshape((-1,) + (1,) * (d - 1 - j)))
    return acc


def _qnorm(diffs: Sequence[np.ndarray], q: HolderExponent) -> np.ndarray:
    """q-norms over the open mesh of per-axis coordinate differences."""
    if q.is_inf:
        return _fold([np.abs(x) for x in diffs], np.maximum)
    if q.value == 1.0:
        return _fold([np.abs(x) for x in diffs], np.add)
    if q.value == 2.0:
        s = _fold([x * x for x in diffs], np.add)  # x * x == |x| * |x| exactly
        return np.sqrt(s, out=s)
    s = _fold([np.abs(x) ** q.value for x in diffs], np.add)
    s **= 1.0 / q.value
    return s


def _vnorm(v: np.ndarray, q: HolderExponent) -> float:
    """q-norm of one vector, with the arithmetic of ``_qnorm``.

    For q in {1, 2, inf} the terms are folded left to right in Python
    floats, whose abs, +, * and sqrt round exactly as numpy's do; other
    exponents go through ``_qnorm`` itself, so the powers are numpy's.
    """
    if not (q.is_inf or q.value in (1.0, 2.0)):
        return _qnorm(v[:, None], q).item()
    acc = 0.0
    for x in v.tolist():
        if q.is_inf:
            acc = max(acc, abs(x))
        else:
            acc += x * x if q.value == 2.0 else abs(x)
    return math.sqrt(acc) if q.value == 2.0 else acc


def _pnorm_mu(coords: Sequence[np.ndarray], axes: Sequence[float], p: HolderExponent) -> np.ndarray:
    """Ellipsoid norms over the open mesh of per-axis coordinates
    (|x| / a == |x / a| exactly, as a > 0)."""
    return _qnorm([x / a for x, a in zip(coords, axes)], p)


def _sides(axes: Tuple[float, ...], resolution: int) -> List[np.ndarray]:
    """Cell centres of each axis of the bounding-box grid.

    Cell k of axis j has centre -a_j + (k + 1/2) w_j with cell width
    w_j = 2 a_j / resolution; C order over the indices of the open mesh
    is lexicographic order.
    """
    d = len(axes)
    if resolution**d > GRID_POINT_CAP:
        raise EnumerationTooLarge(
            f"grid of {resolution**d} points exceeds the cap", count=resolution**d
        )
    return [-a + (2 * np.arange(1, resolution + 1) - 1) * (a / resolution) for a in axes]


def _point(sides: Sequence[np.ndarray], index) -> np.ndarray:
    return np.array([side[k] for side, k in zip(sides, index)])


def _box_qnorm(
    sides: Sequence[np.ndarray], box: Tuple[slice, ...], centre: np.ndarray, q: HolderExponent
) -> np.ndarray:
    """q-norm distances from ``centre`` to every grid point of ``box``."""
    return _qnorm([side[sl] - c for side, sl, c in zip(sides, box, centre)], q)


def _window(
    axes: Tuple[float, ...], resolution: int, centre: np.ndarray, reach: float
) -> Tuple[slice, ...]:
    """Index box of the cells whose centres lie within ``reach`` of
    ``centre`` on every axis, widened on each side by one cell width and
    by the rounding of c +- reach + a, which passes the cell width once
    reach is far wider than the axis."""
    box = []
    for a, c in zip(axes, centre.tolist()):
        w = 2.0 * a / resolution
        pad = w + 2.0**-50 * (abs(c) + reach + a)
        lo = math.ceil((c - reach - pad + a) / w - 0.5)
        hi = math.floor((c + reach + pad + a) / w - 0.5)
        box.append(slice(max(lo, 0), hi + 1))
    return tuple(box)


def _check_instance(E: FiniteEllipsoid, eps: float, resolution: int) -> None:
    if E.dim > 3:
        raise EntropyError("oracle supports dimensions 1 to 3 only")
    if resolution < 8:
        raise EntropyError("resolution must be at least 8")
    _check_radius(eps)


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
    sides = _sides(E.axes, resolution)
    axes = np.array(E.axes)
    slack = _vnorm(half / axes, E.p)
    retained = _pnorm_mu(sides, E.axes, E.p) <= 1.0 + slack
    delta = _vnorm(half, q)

    # Forward-diagonal shift of q-norm length 0.95 eps: the center for the
    # first uncovered point is the grid point nearest to point + shift (the
    # point itself if the snap lands outside radius eps).  In one dimension
    # this is the near-optimal interval rule; in higher dimensions it
    # advances a full frontier instead of hugging the scan axis.
    diag = np.ones(len(E.axes))
    shift = 0.95 * eps * diag / _vnorm(diag, q)
    covered = ~retained  # cells outside the body need no cover
    flat = covered.reshape(-1)
    count = i = 0
    while True:
        i += int(flat[i:].argmin())  # first uncovered in lex order
        if flat[i]:
            break
        point = _point(sides, np.unravel_index(i, covered.shape))
        target = point + shift
        # the nearest retained cell is no farther from target than point,
        # nor than the cell holding target when that one is retained
        reach = _vnorm(point - target, q)
        home = tuple(np.minimum((target + axes) // (2.0 * half), resolution - 1).astype(int))
        if retained[home]:
            reach = min(reach, _vnorm(_point(sides, home) - target, q))
        box = _window(E.axes, resolution, target, reach)
        dist = _box_qnorm(sides, box, target, q)
        dist[~retained[box]] = np.inf
        nearest = np.unravel_index(dist.argmin(), dist.shape)
        centre = _point(sides, [sl.start + k for sl, k in zip(box, nearest)])
        if _vnorm(centre - point, q) > eps:
            centre = point
        count += 1
        box = _window(E.axes, resolution, centre, eps)
        covered[box] |= _box_qnorm(sides, box, centre, q) <= eps
    return OracleReport(
        cover_count=count,
        pack_count=None,
        grid_resolution=float(2.0 * half.max()),
        delta=delta,
    )


def _greedy_pack_once(E: FiniteEllipsoid, q: HolderExponent, eps: float, resolution: int) -> int:
    sides = _sides(E.axes, resolution)
    available = _pnorm_mu(sides, E.axes, E.p) <= 1.0  # strict membership
    flat = available.reshape(-1)
    count = i = 0
    while True:
        i += int(flat[i:].argmax())  # first available in lex order
        if not flat[i]:
            return count
        count += 1
        point = _point(sides, np.unravel_index(i, available.shape))
        box = _window(E.axes, resolution, point, 2.0 * eps)
        available[box] &= _box_qnorm(sides, box, point, q) > 2.0 * eps


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
        delta=_vnorm(half, q),
    )


class SandwichReport(NamedTuple):
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
