"""The algorithms read a model only through the eight protocol members.

``forwarding.Forwarding`` wraps a model of any family and exposes nothing
but those members; it is not a subclass of any family.  Every entry point
must give it the same results, bit for bit, as the model it wraps.
"""

import ast
import itertools
import json
import math
from pathlib import Path

import pytest

import ellentropy
from ellentropy.asymptotics import effective_dimension, entropy_estimator
from ellentropy.block_decomp import infinite_upper_bound
from ellentropy.errors import EntropyError
from ellentropy.hyperrect import exact_entropy, exact_entropy_counting
from ellentropy.sequences import (
    Canonical,
    Tabulated,
    TwoTermPolynomial,
    cesaro_log_ratio,
    counting,
    ensure_non_increasing,
    log_product,
    tail_power_sum,
)

from forwarding import Forwarding

INF = math.inf


MODELS = [
    Canonical(1.0, 1.0),
    Canonical(2.0, 0.5),
    TwoTermPolynomial(1.0, -0.3, 1.6, 2.1),
    TwoTermPolynomial(1.0, -0.9, 0.7, 1.2),  # rises from n = 1 to n = 2
    TwoTermPolynomial(1.0, 1.0, 1.0, 1.25),
    Tabulated((1.0, 0.5, 0.25), Canonical(1.0, 0.5)),
    Tabulated(tuple(float(n) ** -0.7 for n in range(1, 41))),
]
RADII = (0.3, 0.05, 0.01)
PAIRS = ((INF, INF), (2.0, 2.0), (2.0, 1.5), (1.0, INF))


def outcome(fn):
    """The value fn() returns, comparable across models, or its error type."""
    try:
        value = fn()
    except EntropyError as exc:
        return type(exc)
    if isinstance(value, tuple) and len(value) == 2 and hasattr(value[1], "to_json"):
        result, cert = value
        return result, json.dumps(cert.to_json(), sort_keys=True)
    return value


@pytest.mark.parametrize("model", MODELS, ids=repr)
def test_forwarding_model_gives_the_same_results(model):
    fwd = Forwarding(model)
    for eps in RADII:
        calls = [
            lambda m: counting(m, eps),
            lambda m: counting(m, eps, 3),
            lambda m: exact_entropy(m, eps),
            lambda m: exact_entropy_counting(m, eps),
            lambda m: entropy_estimator(m, eps),
            lambda m: effective_dimension(m, INF, INF, eps),
            lambda m: effective_dimension(m, 2.0, 2.0, eps),
            lambda m: effective_dimension(m, 2.0, 1.0, eps),
        ]
        calls += [
            lambda m, p=p, q=q: infinite_upper_bound(m, p, q, eps) for p, q in PAIRS
        ]
        for call in calls:
            assert outcome(lambda: call(fwd)) == outcome(lambda: call(model))
    for d, theta in itertools.product((0, 5, 60), (1.0, 2.5)):
        assert outcome(lambda: tail_power_sum(fwd, d, theta)) == outcome(
            lambda: tail_power_sum(model, d, theta)
        )
    for d in (1, 3, 40):
        assert outcome(lambda: log_product(fwd, d)) == outcome(lambda: log_product(model, d))
        assert outcome(lambda: cesaro_log_ratio(fwd, d)) == outcome(
            lambda: cesaro_log_ratio(model, d)
        )
    assert outcome(lambda: ensure_non_increasing(fwd, 50)) == outcome(
        lambda: ensure_non_increasing(model, 50)
    )
    for e in (-0.5, 0.0, 0.5):
        assert outcome(lambda: fwd.monotone_start(e)) == outcome(lambda: model.monotone_start(e))


def test_only_sequences_calls_monotone_start():
    # the passing set is derived in one place, ``sequences.passing``, so no
    # other module may look for the monotone start itself
    callers = set()
    for path in Path(ellentropy.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            func = node.func if isinstance(node, ast.Call) else None
            name = getattr(func, "attr", getattr(func, "id", None))
            if name == "monotone_start":
                callers.add(path.name)
    assert callers == {"sequences.py"}
