"""Closed-form log-products and the searched effective dimension.

Each model encloses sum_{n <= d} log2 mu_n (in O(1) for canonical laws),
and ``effective_dimension`` searches past the monotone start where
1/q - 1/p <= 0.  Both are checked against the per-axis walks in
``per_axis_reference`` over the golden model grid, and the calls that
used to walk every axis up to d* are held to a time budget.
"""

import itertools
import math
import time

import per_axis_reference as ref
import pytest
from test_golden import EXPONENTS, MODELS, RADII

from ellentropy.asymptotics import effective_dimension, entropy_estimator
from ellentropy.block_decomp import infinite_upper_bound
from ellentropy.errors import EntropyError, ScanCapExceeded
from ellentropy.sequences import Canonical, cesaro_log_ratio

INF = math.inf
CUTS = (1, 2, 3, 10, 41, 100, 10**3, 10**4, 10**5, 10**6)


@pytest.mark.parametrize("label", MODELS)
def test_log_product_encloses_the_per_axis_sum(label):
    model, _ = MODELS[label]
    for d in CUTS:
        if model.length is not None and d > model.length:
            continue
        reference = ref.log_product(model, d)
        enclosure = model.log_product(d)
        assert enclosure.lo <= reference <= enclosure.hi, (label, d)
        assert enclosure.width <= 1e-10 * max(1.0, abs(reference)), (label, d)


def _outcome(fn):
    try:
        return fn()
    except EntropyError as exc:
        return type(exc)


@pytest.mark.parametrize("label", MODELS)
def test_searched_effective_dimension_equals_the_scan(label):
    model, _ = MODELS[label]
    for p, q in itertools.product(EXPONENTS, EXPONENTS):
        if 1 / q - 1 / p > 0:
            continue
        for eps in RADII:
            assert _outcome(lambda: effective_dimension(model, p, q, eps)) == _outcome(
                lambda: ref.effective_dimension(model, p, q, eps)
            ), (label, p, q, eps)


def test_effective_dimension_raises_at_once_without_an_answer():
    # b = 0.5 < 1/q - 1/p = 1: d^(1/q-1/p) mu_d grows without bound
    start = time.perf_counter()
    with pytest.raises(ScanCapExceeded, match="0.5"):
        effective_dimension(Canonical(0.5, 1.0), INF, 1, 0.5)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "call, budget",
    [
        (lambda: entropy_estimator(Canonical(1, 1), 1e-6), 0.05),
        (lambda: infinite_upper_bound(Canonical(1, 1), INF, INF, 1e-6), 0.05),
        (lambda: effective_dimension(Canonical(1, 1), 2, 2, 1e-6), 0.05),
        (lambda: cesaro_log_ratio(Canonical(1, 1), 10**6), 0.05),
        (lambda: infinite_upper_bound(Canonical(1, 1), 2, 1, 1e-3), 1.0),
    ],
    ids=["estimator", "bound-sup-norm", "effdim", "cesaro", "bound-2-1"],
)
def test_answer_does_not_walk_to_d_star(call, budget):
    start = time.perf_counter()
    call()
    assert time.perf_counter() - start < budget
