"""Every entry point that takes a radius rejects one that is not a positive
finite number with an EntropyError, before any arithmetic on it."""

import math

import pytest

from ellentropy.asymptotics import (
    canonical_band,
    effective_dimension,
    entropy_estimator,
    hilbert_second_order,
)
from ellentropy.block_decomp import (
    MixedEllipsoidSpec,
    infinite_upper_bound,
    mixed_lower_bound,
    mixed_upper_bound,
)
from ellentropy.errors import EntropyError
from ellentropy.finite_bounds import (
    FiniteEllipsoid,
    density_upper_bound,
    product_grid_upper_bound,
    volume_lower_bound,
)
from ellentropy.hyperrect import exact_entropy, exact_entropy_counting, optimal_covering
from ellentropy.sequences import Canonical, Tabulated, counting

MODEL = Canonical(1.0, 1.0)
BODY = FiniteEllipsoid(2, (1.0, 0.7, 0.45))
MIXED = MixedEllipsoidSpec(Tabulated((1.0, 0.5)), (9, 9))

ENTRY_POINTS = {
    "exact_entropy": lambda eps: exact_entropy(MODEL, eps),
    "exact_entropy_counting": lambda eps: exact_entropy_counting(MODEL, eps),
    "counting": lambda eps: counting(MODEL, eps),
    "optimal_covering": lambda eps: optimal_covering((1.0, 0.5), eps),
    "infinite_upper_bound": lambda eps: infinite_upper_bound(MODEL, 2, 2, eps),
    "effective_dimension": lambda eps: effective_dimension(MODEL, 2, 2, eps),
    "entropy_estimator": lambda eps: entropy_estimator(MODEL, eps),
    "volume_lower_bound": lambda eps: volume_lower_bound(BODY, 2, eps),
    "density_upper_bound": lambda eps: density_upper_bound(BODY, 2, eps, 1.0),
    "product_grid_upper_bound": lambda eps: product_grid_upper_bound((1.0, 0.5), 2, eps),
    "canonical_band": lambda eps: canonical_band(2, 2, 1.0, 1.0, eps),
    "hilbert_second_order": lambda eps: hilbert_second_order(1.0, 1.25, 1.0, 1.0, eps),
    "mixed_upper_bound": lambda eps: mixed_upper_bound(MIXED, eps),
    "mixed_lower_bound": lambda eps: mixed_lower_bound(MIXED, eps),
}


@pytest.mark.parametrize("eps", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_radius_must_be_positive_and_finite(name, eps):
    with pytest.raises(EntropyError, match="positive and finite"):
        ENTRY_POINTS[name](eps)
