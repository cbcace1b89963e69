"""Metric entropy of lp-ellipsoids in sequence spaces.

Exact sup-norm entropy of hyperrectangles, certified lower and upper
bounds for finite, infinite-dimensional, and mixed ellipsoids, regime
classification with sharp asymptotic constants, Besov-ball reductions,
and a brute-force covering/packing oracle for desk-scale verification.

The oracle, the only module that needs numpy, is imported on first use.
"""

import importlib

from .asymptotics import (
    Regime,
    canonical_band,
    classify,
    effective_dimension,
    entropy_estimator,
    hilbert_leading,
    hilbert_second_order,
    invert_series,
    sum_expansion_check,
)
from .besov import BesovSpec, besov_entropy_band, semi_axes_from_besov
from .block_decomp import (
    BlockPlan,
    MixedEllipsoidSpec,
    combined_radius,
    infinite_upper_bound,
    mixed_lower_bound,
    mixed_upper_bound,
    tail_radius,
)
from .constants import (
    HolderExponent,
    as_exponent,
    gamma_pq,
    unit_ball_log_volume,
    volume_ratio,
    zeta,
    zeta_series_constant,
)
from .errors import EntropyError
from .finite_bounds import (
    FiniteBound,
    FiniteEllipsoid,
    admissible_radius,
    density_upper_bound,
    volume_lower_bound,
)
from .hyperrect import (
    HyperrectEntropy,
    canonical_asymptotic,
    exact_entropy,
    exact_entropy_counting,
    optimal_covering,
)
from .results import BoundCertificate, EntropyResult
from .sequences import (
    Canonical,
    SemiAxisModel,
    Tabulated,
    TwoTermPolynomial,
    axis,
    cesaro_log_ratio,
    counting,
    log_product,
    tail_power_sum,
)

__version__ = "0.1.0"

_ORACLE_NAMES = ("OracleReport", "greedy_cover", "greedy_pack", "sandwich_report")


def __getattr__(name):
    # import_module, not ``from . import oracle``: the latter looks the
    # name up on this package again, which lands back here
    if name == "oracle" or name in _ORACLE_NAMES:
        oracle = importlib.import_module(f"{__name__}.oracle")
        return oracle if name == "oracle" else getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
