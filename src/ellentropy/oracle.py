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
(side_0[k_0], ..., side_{d-1}[k_{d-1}]).  A distance is built from the
per-axis terms term(side_j[k_j] - c_j), with term |x|, x * x for q = 2
and |x| ** q otherwise, broadcast against each other and folded left to
right, ((t_0 + t_1) + t_2), before the final root; the body mask is the
same kernel on side_j / a_j.  Each term is the float a full-grid sweep
computes for that coordinate, and numpy's reduction over a length-3 last
axis adds in the same left-to-right order (max is exact in any order),
so every distance, and hence every count, is bit-identical to the
full-grid sweep of ``tests/grid_reference.py``.

Every greedy centre is a grid cell, and a cover's snap target is a cell
plus a fixed shift, so each term a step reads is a fixed entry
term(side_j[k] - (side_j[c] + shift_j)) of a res x res table per axis,
built once per call by one numpy op on the same floats.  The tables are
kept when they take no more doubles than the body mask's norms (res^d),
which holds at d = 3; otherwise each step computes its rows from the
same floats.  At q = 2 a test d <= r compares the sum of squares with
the largest double whose sqrt is at most r: IEEE sqrt is correctly
rounded, hence monotone, so the test is exact and skips the root.

Each greedy step works on an index box that holds every cell the step
can change.  Where the tables are kept and q is 1, 2 or inf, marking
cells covered (radius eps) or unavailable to the packing (radius 2 eps)
reads, per axis and per centre index, the exact extent of the cells
whose own term passes the test, since a rounded fold of non-negative
terms is never below any one of them.  Every other step uses a window:
the cells whose centres lie, on every axis, within the step's reach of
its centre plus one cell width and the rounding of that reach.  The
snap of a cover centre uses a window with reach a computed distance
from the snap target to a retained cell, which the nearest retained cell
cannot exceed.  A cell outside a window is more than reach + one cell
width away in some coordinate, so its computed q-norm distance exceeds
the reach as well and the full-grid test would leave it unchanged.
Inside the box, a marked cell stays marked and an unmarked one takes the
full-grid test, and a C-ordered box keeps lexicographic order, so
``argmin`` breaks ties the same way.  The counts therefore do not depend
on the batching.  Because the set of covered (or unavailable) cells only
grows, the first uncovered (or available) cell in lexicographic order is
found by a pointer that only moves forward, and every cell whose first
index lies below the pointer's is already marked, so a marking box
starts at the pointer's first index.
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


def _is_tight(q: HolderExponent) -> bool:
    """Whether q is 1, 2 or inf: a distance test then needs no root, and
    the exact per-axis extents of its passing terms bound its cells."""
    return q.is_inf or q.value in (1.0, 2.0)


def _term(x: np.ndarray, q: HolderExponent) -> np.ndarray:
    """The per-coordinate term of the q-norm of ``x``, elementwise."""
    if q.is_inf or q.value == 1.0:
        return np.abs(x)
    if q.value == 2.0:
        return x * x  # x * x == |x| * |x| exactly
    return np.abs(x) ** q.value


def _fold(terms: Sequence[np.ndarray], op) -> np.ndarray:
    """Terms shaped for an open mesh, broadcast and folded left to right by
    ``op`` (``np.maximum`` for q = inf, ``np.add`` otherwise)."""
    acc = terms[0]
    for t in terms[1:]:
        acc = op(acc, t)
    return acc


def _root(s: np.ndarray, q: HolderExponent, out=None) -> np.ndarray:
    """The q-norms from their folded terms."""
    if q.is_inf or q.value == 1.0:
        return s
    if q.value == 2.0:
        return np.sqrt(s, out=out)
    return np.power(s, 1.0 / q.value, out=out)


def _qnorm(diffs: Sequence[np.ndarray], q: HolderExponent) -> np.ndarray:
    """q-norms over the open mesh of per-axis coordinate differences."""
    d = len(diffs)
    terms = [_term(x, q).reshape(_axis_shape(j, d)) for j, x in enumerate(diffs)]
    s = _fold(terms, np.maximum if q.is_inf else np.add)
    return _root(s, q, out=s)


def _axis_shape(j: int, d: int) -> Tuple[int, ...]:
    """The shape of a 1-D vector laid along axis j of a d-axis open mesh."""
    return (1,) * j + (-1,) + (1,) * (d - 1 - j)


def _vnorm(v: Sequence[float], q: HolderExponent) -> float:
    """q-norm of one vector of floats, with the arithmetic of ``_qnorm``.

    For q in {1, 2, inf} the terms are folded left to right in Python
    floats, whose abs, +, * and sqrt round exactly as numpy's do; other
    exponents go through ``_qnorm`` itself, so the powers are numpy's.
    """
    if not _is_tight(q):
        return _qnorm(np.array(v)[:, None], q).item()
    if q.is_inf:
        return max(map(abs, v))
    acc = 0.0
    for x in v:
        acc += x * x if q.value == 2.0 else abs(x)
    return math.sqrt(acc) if q.value == 2.0 else acc


def _sqrt_bound(r: float) -> float:
    """The largest double s with sqrt(s) <= r, for r >= 0 (inf at inf).

    sqrt is correctly rounded, hence monotone, so sqrt(s) <= r exactly
    when s <= this bound.  r * r is within a few ulps of it; from inf (r
    past 1.3e154) the first walk steps down to the largest double.
    """
    s = r * r
    while math.sqrt(s) > r:
        s = math.nextafter(s, 0.0)
    while s < math.inf and math.sqrt(math.nextafter(s, math.inf)) <= r:
        s = math.nextafter(s, math.inf)
    return s


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


def _unravel(i: int, shape: Sequence[int]) -> List[int]:
    """The index of flat position ``i`` of a C-ordered array of ``shape``."""
    index = []
    for n in reversed(shape):
        i, k = divmod(i, n)
        index.append(k)
    return index[::-1]


def _window(
    axes: Sequence[float], resolution: int, centre: Sequence[float], reach: float
) -> Tuple[slice, ...]:
    """Index box of the cells whose centres lie within ``reach`` of
    ``centre`` on every axis, widened on each side by one cell width and
    by the rounding of c +- reach + a, which passes the cell width once
    reach is far wider than the axis.  An infinite edge clamps to the grid."""
    box = []
    for a, c in zip(axes, centre):
        w = 2.0 * a / resolution
        pad = w + 2.0**-50 * (abs(c) + reach + a)
        lo = (c - reach - pad + a) / w - 0.5
        hi = (c + reach + pad + a) / w - 0.5
        lo = math.ceil(lo) if lo > 0.0 else 0
        hi = math.floor(hi) + 1 if hi < resolution else resolution
        box.append(slice(lo, hi))
    return tuple(box)


def _tabulates(tables_per_axis: int, d: int, resolution: int) -> bool:
    """Whether a call keeps its res x res term tables: they may take no
    more doubles than its body-norm array of res^d."""
    return tables_per_axis * d * resolution**2 <= resolution**d


def _tables(sides, q: HolderExponent, offsets: Sequence[float]) -> List[np.ndarray]:
    """Per axis, the table of term(side_j[k] - (side_j[c] + offset_j)) over
    every (c, k), one numpy op on the floats a step computes; row c is
    shaped along axis j of the open mesh."""
    d = len(sides)
    return [
        _term(side - (side[:, None] + o), q).reshape((len(side),) + _axis_shape(j, d))
        for j, (side, o) in enumerate(zip(sides, offsets))
    ]


def _folded(sides, q: HolderExponent, index, offsets, box, tables) -> np.ndarray:
    """The folded terms (q-norms before the root) from grid cell ``index``
    plus ``offsets`` to the cells of ``box``, read from ``tables`` when
    they are kept and computed from the same floats otherwise.  Offsets
    0.0 measure from the cell itself and change no term."""
    d = len(sides)
    if tables is None:
        rows = [
            _term(side[sl] - (side.item(c) + o), q).reshape(_axis_shape(j, d))
            for j, (side, c, o, sl) in enumerate(zip(sides, index, offsets, box))
        ]
    else:
        rows = [
            t[(c,) + (slice(None),) * j + (sl,)]
            for j, (t, c, sl) in enumerate(zip(tables, index, box))
        ]
    return _fold(rows, np.maximum if q.is_inf else np.add)


class _Ball:
    """The cells a greedy step marks: those within ``radius`` of a grid
    cell.  ``key`` maps the box's distances to values compared exactly
    with ``bound``: sums of squares against ``_sqrt_bound`` at q = 2, the
    distances themselves otherwise."""

    def __init__(
        self, sides, axes, resolution: int, q: HolderExponent, radius: float, tabulate: bool
    ):
        self.bound = _sqrt_bound(radius) if q.value == 2.0 else radius
        self._q = q
        self._rooted = not _is_tight(q)
        self._sides = sides
        self._axes = axes
        self._resolution = resolution
        self._radius = radius
        self._zeros = [0.0] * len(sides)
        self._tables = _tables(sides, q, self._zeros) if tabulate else None
        self._extents = None
        if tabulate and _is_tight(q):
            # a fold of non-negative terms is never below any one of them,
            # so the cells that can pass are those whose own term passes;
            # a row's own cell (term 0.0) always passes
            self._extents = []
            for t in self._tables:
                passes = t.reshape(resolution, resolution) <= self.bound
                lo = passes.argmax(axis=1).tolist()
                hi = (resolution - passes[:, ::-1].argmax(axis=1)).tolist()
                self._extents.append([slice(*e) for e in zip(lo, hi)])

    def box(self, index: Sequence[int], first: int) -> Tuple[slice, ...]:
        """An index box holding every cell within the radius of ``index``
        whose first index is at least ``first``."""
        if self._extents is None:
            centre = [side.item(c) for side, c in zip(self._sides, index)]
            box = _window(self._axes, self._resolution, centre, self._radius)
        else:
            box = tuple([e[c] for e, c in zip(self._extents, index)])
        return (slice(max(box[0].start, first), box[0].stop),) + box[1:]

    def key(self, index: Sequence[int], box: Tuple[slice, ...]) -> np.ndarray:
        s = _folded(self._sides, self._q, index, self._zeros, box, self._tables)
        return _root(s, self._q) if self._rooted else s


def _check_instance(E: FiniteEllipsoid, eps: float, resolution: int) -> None:
    if E.dim > 3:
        raise EntropyError("oracle supports dimensions 1 to 3 only")
    if resolution < 8:
        raise EntropyError("resolution must be at least 8")
    _check_radius(eps)


def _cell_half_widths(E: FiniteEllipsoid, resolution: int) -> List[float]:
    return [a / resolution for a in E.axes]


@np.errstate(over="ignore")  # a distance past the float range is inf, as in a full sweep
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
    can reach, and marks cells covered inside the eps-box of the chosen
    centre only.  Cells outside a box fail the full-grid distance test
    too, so the count equals that of a full-grid sweep at every step.
    """
    q = as_exponent(q)
    _check_instance(E, eps, resolution)
    d = E.dim
    half = _cell_half_widths(E, resolution)
    widths = [2.0 * h for h in half]
    sides = _sides(E.axes, resolution)
    slack = _vnorm([h / a for h, a in zip(half, E.axes)], E.p)
    retained = _pnorm_mu(sides, E.axes, E.p) <= 1.0 + slack
    delta = _vnorm(half, q)

    # Forward-diagonal shift of q-norm length 0.95 eps: the center for the
    # first uncovered point is the grid point nearest to point + shift (the
    # point itself if the snap lands outside radius eps).  In one dimension
    # this is the near-optimal interval rule; in higher dimensions it
    # advances a full frontier instead of hugging the scan axis.
    shift = [0.95 * eps / _vnorm([1.0] * d, q)] * d
    tabulate = _tabulates(2, d, resolution)
    snaps = _tables(sides, q, shift) if tabulate else None
    ball = _Ball(sides, E.axes, resolution, q, eps, tabulate)
    penalty = np.where(retained, 0.0, math.inf)  # masks the snap to retained cells
    covered = ~retained  # cells outside the body need no cover
    flat = covered.reshape(-1)
    count = i = 0
    while True:
        i += int(flat[i:].argmin())  # first uncovered in lex order
        if flat[i]:
            break
        index = _unravel(i, covered.shape)
        point = [side.item(k) for side, k in zip(sides, index)]
        target = [x + s for x, s in zip(point, shift)]
        # the nearest retained cell is no farther from target than point,
        # nor than the cell holding target when that one is retained
        reach = _vnorm([x - t for x, t in zip(point, target)], q)
        home = tuple(
            [int(min((t + a) // w, resolution - 1)) for t, a, w in zip(target, E.axes, widths)]
        )
        if retained[home]:
            near = [side.item(k) - t for side, k, t in zip(sides, home, target)]
            reach = min(reach, _vnorm(near, q))
        box = _window(E.axes, resolution, target, reach)
        dist = _root(_folded(sides, q, index, shift, box, snaps), q) + penalty[box]
        nearest = int(dist.argmin())
        if reach == math.inf and dist.item(nearest) == math.inf:
            # every distance overflowed: the full sweep takes the first
            # retained cell, and an infinite reach made the box the grid
            nearest = int(retained.reshape(-1).argmax())
        centre = [sl.start + k for sl, k in zip(box, _unravel(nearest, dist.shape))]
        moved = [side.item(c) - x for side, c, x in zip(sides, centre, point)]
        if _vnorm(moved, q) > eps:
            centre = index
        count += 1
        box = ball.box(centre, index[0])  # cells before index are covered
        marked = covered[box]  # a view: |= marks the cells of covered
        marked |= ball.key(centre, box) <= ball.bound
    return OracleReport(
        cover_count=count,
        pack_count=None,
        grid_resolution=2.0 * max(half),
        delta=delta,
    )


def _greedy_pack_once(E: FiniteEllipsoid, q: HolderExponent, eps: float, resolution: int) -> int:
    sides = _sides(E.axes, resolution)
    available = _pnorm_mu(sides, E.axes, E.p) <= 1.0  # strict membership
    ball = _Ball(sides, E.axes, resolution, q, 2.0 * eps, _tabulates(1, E.dim, resolution))
    flat = available.reshape(-1)
    count = i = 0
    while True:
        i += int(flat[i:].argmax())  # first available in lex order
        if not flat[i]:
            return count
        count += 1
        index = _unravel(i, available.shape)
        box = ball.box(index, index[0])  # cells before index are unavailable
        kept = available[box]  # a view: &= clears the cells of available
        kept &= ball.key(index, box) > ball.bound


@np.errstate(over="ignore")
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
        grid_resolution=2.0 * max(half),
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
