"""Metric entropy of lp-ellipsoids in sequence spaces.

Exact sup-norm entropy of hyperrectangles, certified lower and upper
bounds for finite, infinite-dimensional, and mixed ellipsoids, regime
classification with sharp asymptotic constants, Besov-ball reductions,
and a brute-force covering/packing oracle for desk-scale verification.

Every public name, and every submodule, is imported on first use from
the module ``_SOURCES`` names, so ``import ellentropy`` loads no
submodule and a caller pays only for the modules it touches.  The
oracle is the only module that needs numpy.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it; a submodule maps to itself
_SOURCES = {
    name: module
    for module, names in {
        "asymptotics": "Regime canonical_band classify effective_dimension entropy_estimator"
        " hilbert_second_order",
        "besov": "BesovSpec besov_entropy_band semi_axes_from_besov",
        "block_decomp": "MixedEllipsoidSpec infinite_upper_bound mixed_lower_bound"
        " mixed_upper_bound tail_radius",
        "constants": "HolderExponent as_exponent gamma_pq unit_ball_log_volume volume_ratio"
        " zeta zeta_series_constant",
        "errors": "EntropyError",
        "finite_bounds": "FiniteBound FiniteEllipsoid admissible_radius density_upper_bound"
        " volume_lower_bound",
        "hyperrect": "HyperrectEntropy exact_entropy exact_entropy_counting optimal_covering",
        "numerics": "",
        "oracle": "OracleReport greedy_cover greedy_pack sandwich_report",
        "results": "BoundCertificate EntropyResult",
        "sequences": "Canonical SemiAxisModel Tabulated TwoTermPolynomial axis cesaro_log_ratio"
        " counting log_product tail_power_sum",
    }.items()
    for name in (module, *names.split())
}
# ``import *`` loads every module but the oracle, which would load numpy
__all__ = sorted(name for name, module in _SOURCES.items() if module != "oracle")


def __getattr__(name):
    try:
        module = _SOURCES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    # import_module, not ``from . import oracle``: the latter looks the
    # name up on this package again, which lands back here
    value = importlib.import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(_SOURCES))
