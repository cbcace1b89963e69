"""The package's records and validating value classes.

Records are ``NamedTuple``s; the value classes that check their
arguments are ``__slots__`` classes on ``numerics._Frozen``.  Either way
a class keeps its fields, their order and defaults, its validation
errors, its repr, and equality and hashing by value within the class,
and refuses assignment.
"""

import copy
import inspect
import math
import pickle

import pytest

from ellentropy.asymptotics import EntropyBand, Regime
from ellentropy.besov import BesovBand, BesovSpec
from ellentropy.block_decomp import MixedEllipsoidSpec
from ellentropy.constants import HolderExponent
from ellentropy.errors import EntropyError, InvalidModel
from ellentropy.finite_bounds import FiniteBound, FiniteEllipsoid
from ellentropy.hyperrect import HyperrectEntropy
from ellentropy.numerics import _Frozen
from ellentropy.oracle import OracleReport, SandwichReport
from ellentropy.results import BoundCertificate, EntropyResult
from ellentropy.sequences import Canonical, Tabulated, TwoTermPolynomial

REQUIRED = inspect.Parameter.empty

# (class, its parameters in order with their defaults, keyword arguments,
# the repr those arguments give)
SAMPLES = [
    (HolderExponent, (("value", REQUIRED),), {"value": 2}, "HolderExponent(value=2.0)"),
    (
        Canonical,
        (("b", REQUIRED), ("c", REQUIRED)),
        {"b": 1.0, "c": 2.0},
        "Canonical(b=1.0, c=2.0)",
    ),
    (
        TwoTermPolynomial,
        (("c1", REQUIRED), ("c2", REQUIRED), ("alpha1", REQUIRED), ("alpha2", REQUIRED)),
        {"c1": 1.0, "c2": -0.5, "alpha1": 1.0, "alpha2": 2.0},
        "TwoTermPolynomial(c1=1.0, c2=-0.5, alpha1=1.0, alpha2=2.0)",
    ),
    (
        Tabulated,
        (("values", REQUIRED), ("tail", None)),
        {"values": (1, 0.5), "tail": Canonical(b=1.0, c=0.5)},
        "Tabulated(values=(1.0, 0.5), tail=Canonical(b=1.0, c=0.5))",
    ),
    (
        FiniteEllipsoid,
        (("p", REQUIRED), ("axes", REQUIRED)),
        {"p": "inf", "axes": [1, 0.5]},
        "FiniteEllipsoid(p=HolderExponent(value=inf), axes=(1.0, 0.5))",
    ),
    (
        FiniteBound,
        (
            ("log2_bound", REQUIRED),
            ("kind", REQUIRED),
            ("valid_radius_range", REQUIRED),
            ("case_tag", REQUIRED),
            ("kappa_used", REQUIRED),
        ),
        {
            "log2_bound": 3.5,
            "kind": "upper",
            "valid_radius_range": (0.0, 0.25),
            "case_tag": "FD1",
            "kappa_used": 1.5,
        },
        "FiniteBound(log2_bound=3.5, kind='upper', valid_radius_range=(0.0, 0.25), "
        "case_tag='FD1', kappa_used=1.5)",
    ),
    (
        MixedEllipsoidSpec,
        (("semi_axes", REQUIRED), ("dims", REQUIRED)),
        {"semi_axes": Tabulated((1.0, 0.5)), "dims": [9, 9.0]},
        "MixedEllipsoidSpec(semi_axes=Tabulated(values=(1.0, 0.5), tail=None), dims=(9, 9))",
    ),
    (
        BesovSpec,
        (("s", REQUIRED), ("d", REQUIRED), ("p1", REQUIRED), ("vol_omega", REQUIRED)),
        {"s": 2.0, "d": 1, "p1": "2", "vol_omega": 1.5},
        "BesovSpec(s=2.0, d=1, p1=HolderExponent(value=2.0), vol_omega=1.5)",
    ),
    (
        BesovBand,
        (("band", REQUIRED), ("model", REQUIRED), ("b_star", REQUIRED), ("warnings", REQUIRED)),
        {
            "band": EntropyBand(1.0, 2.0),
            "model": Canonical(b=2.0, c=1.5),
            "b_star": 2.0,
            "warnings": ("w",),
        },
        "BesovBand(band=EntropyBand(lower_bits=1.0, upper_bits=2.0, "
        "upper_constant_unconfirmed=False), model=Canonical(b=2.0, c=1.5), b_star=2.0, "
        "warnings=('w',))",
    ),
    (
        Regime,
        (
            ("case", REQUIRED),
            ("b_star", REQUIRED),
            ("lower_const", None),
            ("upper_const", None),
            ("exact_const", None),
        ),
        {"case": "Compact_iii", "b_star": 1.5, "lower_const": 1.0},
        "Regime(case='Compact_iii', b_star=1.5, lower_const=1.0, upper_const=None, "
        "exact_const=None)",
    ),
    (
        HyperrectEntropy,
        (("bits", REQUIRED), ("count_runs", REQUIRED), ("effective_dim", REQUIRED)),
        {"bits": 3.0, "count_runs": ((2, 3),), "effective_dim": 3},
        "HyperrectEntropy(bits=3.0, count_runs=((2, 3),), effective_dim=3)",
    ),
    (
        OracleReport,
        (
            ("cover_count", REQUIRED),
            ("pack_count", REQUIRED),
            ("grid_resolution", REQUIRED),
            ("delta", REQUIRED),
        ),
        {"cover_count": 4, "pack_count": None, "grid_resolution": 0.125, "delta": 0.0625},
        "OracleReport(cover_count=4, pack_count=None, grid_resolution=0.125, delta=0.0625)",
    ),
    (
        SandwichReport,
        (("report", REQUIRED), ("checks", REQUIRED), ("values", REQUIRED)),
        {
            "report": OracleReport(4, 2, 0.125, 0.0625),
            "checks": {"a": True},
            "values": {"b": 1.0},
        },
        "SandwichReport(report=OracleReport(cover_count=4, pack_count=2, "
        "grid_resolution=0.125, delta=0.0625), checks={'a': True}, values={'b': 1.0})",
    ),
    (
        EntropyResult,
        (("bits", REQUIRED), ("kind", REQUIRED), ("epsilon", REQUIRED)),
        {"bits": 1.0, "kind": "exact", "epsilon": 0.1},
        "EntropyResult(bits=1.0, kind='exact', epsilon=0.1)",
    ),
    (
        BoundCertificate,
        (
            ("effective_dimension", REQUIRED),
            ("block_sizes", REQUIRED),
            ("inner_radii", REQUIRED),
            ("tail_radius", REQUIRED),
            ("omega_count", REQUIRED),
            ("tail_case", "I"),
            ("eta", None),
            ("kappa", None),
            ("notes", ()),
        ),
        {
            "effective_dimension": 3,
            "block_sizes": (3,),
            "inner_radii": (0.1,),
            "tail_radius": 0.05,
            "omega_count": 1,
        },
        "BoundCertificate(effective_dimension=3, block_sizes=(3,), inner_radii=(0.1,), "
        "tail_radius=0.05, omega_count=1, tail_case='I', eta=None, kappa=None, notes=())",
    ),
]

VALUE_CLASSES = [s for s in SAMPLES if issubclass(s[0], _Frozen)]
RECORDS = [s for s in SAMPLES if issubclass(s[0], tuple)]


def _id(sample):
    return sample[0].__name__


def test_every_class_is_a_record_or_a_value_class():
    assert len(VALUE_CLASSES) == 7 and len(RECORDS) == 8


@pytest.mark.parametrize("sample", SAMPLES, ids=_id)
def test_fields_order_and_defaults(sample):
    cls, params, _, _ = sample
    got = tuple((n, p.default) for n, p in inspect.signature(cls).parameters.items())
    assert got == params


@pytest.mark.parametrize("sample", SAMPLES, ids=_id)
def test_keyword_construction_and_repr(sample):
    cls, _, kwargs, text = sample
    obj = cls(**kwargs)
    assert repr(obj) == text
    assert cls(*kwargs.values()) == obj


@pytest.mark.parametrize("sample", SAMPLES, ids=_id)
def test_fields_are_read_only(sample):
    cls, params, kwargs, _ = sample
    obj = cls(**kwargs)
    for name, _ in params:
        value = getattr(obj, name)
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) is value


@pytest.mark.parametrize("sample", SAMPLES, ids=_id)
def test_equal_values_are_equal_and_hash_alike(sample):
    cls, _, kwargs, _ = sample
    a, b = cls(**kwargs), cls(**kwargs)
    assert a == b and not a != b
    if cls is SandwichReport:  # holds dicts, so it has no hash
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("sample", VALUE_CLASSES, ids=_id)
def test_value_classes_compare_within_their_class(sample):
    cls, params, kwargs, _ = sample
    obj = cls(**kwargs)
    values = tuple(getattr(obj, name) for name, _ in params)
    assert obj != values and obj != object()
    assert not hasattr(obj, "__dict__")
    assert pickle.loads(pickle.dumps(obj)) == obj
    assert copy.copy(obj) == obj and copy.deepcopy(obj) == obj


@pytest.mark.parametrize(
    "a, b",
    [
        (HolderExponent(2), HolderExponent(3)),
        (Canonical(1.0, 2.0), Canonical(1.0, 3.0)),
        (TwoTermPolynomial(1.0, 1.0, 1.0, 2.0), TwoTermPolynomial(1.0, 1.0, 1.0, 3.0)),
        (Tabulated((1.0, 0.5)), Tabulated((1.0, 0.5), Canonical(1.0, 1.0))),
        (FiniteEllipsoid(2, (1.0,)), FiniteEllipsoid(3, (1.0,))),
        (MixedEllipsoidSpec(Canonical(1, 1), (3,)), MixedEllipsoidSpec(Canonical(1, 1), (4,))),
        (BesovSpec(1.0, 1, 2, 1.0), BesovSpec(1.0, 2, 2, 1.0)),
    ],
)
def test_different_values_are_unequal(a, b):
    assert a != b and not a == b


@pytest.mark.parametrize("sample", RECORDS, ids=_id)
def test_records_are_named_tuples(sample):
    cls, params, kwargs, _ = sample
    obj = cls(**kwargs)
    assert tuple(obj._asdict()) == tuple(name for name, _ in params)
    assert obj._asdict() == {name: getattr(obj, name) for name, _ in params}


@pytest.mark.parametrize(
    "cls, args, error, message",
    [
        (HolderExponent, (0.5,), EntropyError, "Hoelder exponent must lie in [1, inf], got 0.5"),
        (HolderExponent, (math.nan,), EntropyError, "Hoelder exponent must lie in [1, inf], got nan"),
        (HolderExponent, ("x",), ValueError, "could not convert string to float: 'x'"),
        (Canonical, (0, 1), InvalidModel, "canonical model requires b > 0 and c > 0"),
        (Canonical, (1, -1), InvalidModel, "canonical model requires b > 0 and c > 0"),
        (Canonical, (math.nan, 1), InvalidModel, "canonical model requires b > 0 and c > 0"),
        (
            TwoTermPolynomial,
            (0, 1, 1, 2),
            InvalidModel,
            "two-term model requires c1 > 0 and positive exponents",
        ),
        (TwoTermPolynomial, (1, 1, 2, 1), InvalidModel, "two-term model requires alpha1 < alpha2"),
        (
            TwoTermPolynomial,
            (1, -1, 1, 2),
            InvalidModel,
            "two-term model requires mu_1 = c1 + c2 > 0",
        ),
        (Tabulated, ((),), InvalidModel, "tabulated model requires at least one value"),
        (Tabulated, ((1, -1),), InvalidModel, "tabulated values must be positive"),
        (Tabulated, ((0.5, 1),), InvalidModel, "tabulated values must be non-increasing"),
        (
            Tabulated,
            ((1, 0.5), Canonical(1, 10)),
            InvalidModel,
            "canonical tail exceeds last table value",
        ),
        (FiniteEllipsoid, (2, ()), EntropyError, "ellipsoid needs at least one axis"),
        (FiniteEllipsoid, (2, (1, 0)), EntropyError, "axes must be positive"),
        (FiniteEllipsoid, (2, (0.5, 1)), EntropyError, "axes must be non-increasing"),
        (FiniteEllipsoid, (0.5, (1,)), EntropyError, "Hoelder exponent must lie in [1, inf], got 0.5"),
        (MixedEllipsoidSpec, (Canonical(1, 1), (0, 3)), EntropyError, "block dimensions must be >= 1"),
        (
            MixedEllipsoidSpec,
            (Canonical(1, 1), ("x",)),
            ValueError,
            "invalid literal for int() with base 10: 'x'",
        ),
        (BesovSpec, (0, 1, 2, 1), EntropyError, "smoothness s must be positive"),
        (BesovSpec, (1, 0, 2, 1), EntropyError, "domain dimension must be >= 1"),
        (BesovSpec, (1, 1, 2, 0), EntropyError, "domain volume must be positive"),
        (BesovSpec, (1, 1, 0.5, 1), EntropyError, "Hoelder exponent must lie in [1, inf], got 0.5"),
        # non-finite numbers, which the checks above let through
        (Canonical, (math.inf, 1), InvalidModel, "canonical model requires finite b and c"),
        (Canonical, (1, math.inf), InvalidModel, "canonical model requires finite b and c"),
        (
            TwoTermPolynomial,
            (1, math.inf, 1, 2),
            InvalidModel,
            "two-term model requires finite parameters",
        ),
        (
            TwoTermPolynomial,
            (1, 1, 1, math.inf),
            InvalidModel,
            "two-term model requires finite parameters",
        ),
        (Tabulated, ((math.inf,),), InvalidModel, "tabulated values must be finite"),
        (Tabulated, ((1, math.nan, 0.5),), InvalidModel, "tabulated values must be finite"),
        (FiniteEllipsoid, (2, (math.inf, 1)), EntropyError, "axes must be finite"),
        (FiniteEllipsoid, (2, (1, math.nan)), EntropyError, "axes must be finite"),
    ],
)
def test_validation_errors(cls, args, error, message):
    with pytest.raises(error) as info:
        cls(*args)
    assert type(info.value) is error
    assert str(info.value) == message
