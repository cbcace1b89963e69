"""Golden fingerprint of the numeric results over a fixed model grid.

Every cell of the grid (model x radius x (p, q) pair) stores the value a
public entry point returned: floats as ``float.hex``, integers and runs as
JSON, certificates as their sorted ``to_json`` text, and an error as its
class name.  The test recomputes every cell and names each one that moved,
so a refactor that must keep results bit for bit is checked cell by cell.

Record the file again with ``PYTHONPATH=src python tests/test_golden.py``,
and only for cells whose change is intended; it first prints the cells
that move, grouped by model label and family.
"""

from __future__ import annotations

import collections
import itertools
import json
import math
from pathlib import Path

from ellentropy.asymptotics import effective_dimension, entropy_estimator
from ellentropy.block_decomp import infinite_upper_bound
from ellentropy.errors import EntropyError
from ellentropy.hyperrect import exact_entropy, exact_entropy_counting
from ellentropy.sequences import (
    Canonical,
    Tabulated,
    TwoTermPolynomial,
    axis,
    counting,
    tail_power_sum,
)

GOLDEN = Path(__file__).with_name("golden_fingerprint.json")

INF = math.inf
EXPONENTS = (1.0, 1.5, 2.0, 3.0, INF)
RADII = (0.63, 0.2, 0.1, 0.05, 0.01, 0.001)
BOUND_RADII = (0.63, 0.1, 0.01)  # a subset of RADII
AXIS_INDICES = (1, 2, 3, 5, 10, 41, 100, 1000)
TAIL_CUTS = (0, 7, 100)
TAIL_THETAS = (1.0, 2.0, 3.5)

# label: (model, decay index or None for a complete table)
MODELS = {
    "canonical-2": (Canonical(2.0, 1.0), 2.0),
    "canonical-1.5": (Canonical(1.5, 0.7), 1.5),
    "canonical-1-small": (Canonical(1.0, 0.1), 1.0),
    "canonical-1": (Canonical(1.0, 1.0), 1.0),
    "canonical-0.8": (Canonical(0.8, 2.0), 0.8),
    "two-term-negative": (TwoTermPolynomial(1.0, -0.3, 1.6, 2.1), 1.6),
    "two-term-positive": (TwoTermPolynomial(1.0, 1.0, 1.0, 1.25), 1.0),
    "two-term-rising": (TwoTermPolynomial(1.0, -0.9, 0.7, 1.2), 0.7),
    "slow-tail": (
        Tabulated(tuple(0.9 * 0.82**i for i in range(24)), Canonical(0.6677, 0.01)),
        0.6677,
    ),
    "finite-table": (Tabulated(tuple(float(n) ** -0.7 for n in range(1, 41))), None),
    "short-table": (Tabulated((0.2, 0.1)), None),
    "table-with-tail": (Tabulated((1.0, 0.5, 0.25), Canonical(1.0, 0.5)), 1.0),
}


def _reaches_far(b, e) -> bool:
    """Whether a search whose answer grows like (c/eps)**(1/(b - e)) runs
    long; such cells would make the test slow without adding a code path."""
    return b is not None and 0 < b - e < 0.5


def _cell(fn):
    """The value of fn() in its stored form, or the name of its error."""
    try:
        value = fn()
    except EntropyError as exc:
        return "!" + type(exc).__name__
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, tuple) and len(value) == 2 and hasattr(value, "lo"):
        return [value.lo.hex(), value.hi.hex()]
    return value


def _exact(model, eps):
    r = exact_entropy(model, eps)
    return [r.bits.hex(), [list(run) for run in r.count_runs], r.effective_dim]


def _bound(model, p, q, eps):
    result, cert = infinite_upper_bound(model, p, q, eps)
    return [result.bits.hex(), json.dumps(cert.to_json(), sort_keys=True)]


def fingerprint() -> dict:
    cells = {}
    for label, (model, b) in MODELS.items():
        for n in AXIS_INDICES:
            cells[f"{label}|axis|{n}"] = _cell(lambda: axis(model, n))
        for d, theta in itertools.product(TAIL_CUTS, TAIL_THETAS):
            cells[f"{label}|tail|{d}|{theta!r}"] = _cell(lambda: tail_power_sum(model, d, theta))
        for eps in RADII:
            key = f"{label}|{eps!r}"
            cells[f"{key}|exact"] = _cell(lambda: _exact(model, eps))
            cells[f"{key}|dual"] = _cell(lambda: exact_entropy_counting(model, eps))
            cells[f"{key}|estimator"] = _cell(lambda: entropy_estimator(model, eps))
            for k in (1, 2, 3):
                cells[f"{key}|counting|{k}"] = _cell(lambda: counting(model, eps, k))
            if eps not in BOUND_RADII:
                continue
            for p, q in itertools.product(EXPONENTS, EXPONENTS):
                # the cut dimension of the bound and the effective dimension
                e = 1 / q - 1 / p
                if not _reaches_far(b, max(e, 0.0)):
                    cells[f"{key}|bound|{p!r}|{q!r}"] = _cell(lambda: _bound(model, p, q, eps))
                if b is None or b - e >= 0.5:
                    cells[f"{key}|effdim|{p!r}|{q!r}"] = _cell(
                        lambda: effective_dimension(model, p, q, eps)
                    )
    return cells


def test_golden_fingerprint():
    recorded = json.loads(GOLDEN.read_text())
    current = fingerprint()
    assert current.keys() == recorded.keys()
    moved = {k: (recorded[k], current[k]) for k in recorded if recorded[k] != current[k]}
    assert not moved, f"{len(moved)} cells moved, first: {sorted(moved.items())[:5]}"


def _family(key: str) -> str:
    """``label|family`` of a cell key, whose second field is the family
    (axis, tail) or a radius followed by it."""
    label, second, *rest = key.split("|")
    return f"{label}|{second if second in ('axis', 'tail') else rest[0]}"


if __name__ == "__main__":
    recorded = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    current = fingerprint()
    moved = collections.defaultdict(list)
    for key in sorted(current.keys() | recorded.keys()):
        if recorded.get(key) != current.get(key):
            moved[_family(key)].append(key)
    for family, keys in sorted(moved.items()):
        print(f"{family}: {len(keys)} moved")
        for key in keys:
            print(f"  {key}: {recorded.get(key)} -> {current.get(key)}")
    GOLDEN.write_text(json.dumps(current, indent=0, sort_keys=True) + "\n")
