"""Seeded fuzz of the CLI, in process: no input exits 1.

Every subcommand but ``exact`` (whose cost grows with d*, so a random
radius can take minutes) runs on random arguments drawn over wide ranges:
p and q from the grid, scales c in [1e-30, 1e30], radii in [1e-300, 1e3],
decay indices up to 1e3 and, on a share of draws, up to 1e20; canonical,
two-term and table models.  A share of numeric options is replaced by
nan, inf, -inf or 0.  Each call must exit 0, 2, 3 or 4, and print strict
JSON (no NaN or Infinity), to stdout or, on exit 2, to stderr; CSV
``sweep`` output is exempt from the JSON check.  A library-level twin
draws the same families with hypothesis and asks each entry point for a
finite answer or an EntropyError.
"""

import contextlib
import io
import json
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellentropy import asymptotics, besov, block_decomp, finite_bounds
from ellentropy.cli import main
from ellentropy.errors import EntropyError
from ellentropy.sequences import Canonical, Tabulated, TwoTermPolynomial

GRID = ("1", "1.5", "2", "3", "inf")
SPECIAL = ("nan", "inf", "-inf", "0")
SPECIAL_SHARE = 0.05  # of the numbers drawn
DRAWS = 300  # per seed
SEED_SECONDS = 20.0  # wall time of one seed's draws


def _log_uniform(rng, lo, hi):
    return 10 ** rng.uniform(math.log10(lo), math.log10(hi))


class _Draw:
    """The numbers of one random argv; each is replaced by one of
    ``SPECIAL`` with probability ``SPECIAL_SHARE``."""

    def __init__(self, rng):
        self.rng = rng

    def text(self, value):
        if self.rng.random() < SPECIAL_SHARE:
            return self.rng.choice(SPECIAL)
        return f"{value:.6g}"

    def exponent(self):
        if self.rng.random() < SPECIAL_SHARE:
            return self.rng.choice(SPECIAL)
        return self.rng.choice(GRID)

    def scale(self):
        return self.text(_log_uniform(self.rng, 1e-30, 1e30))

    def eps(self):
        return self.text(_log_uniform(self.rng, 1e-300, 1e3))

    def decay(self):
        top = 1e20 if self.rng.random() < 0.2 else 1e3
        return self.text(_log_uniform(self.rng, 1e-3, top))

    def axes(self, most):
        values = sorted(
            (_log_uniform(self.rng, 1e-30, 1e30) for _ in range(self.rng.randint(1, most))),
            reverse=True,
        )
        return ",".join(self.text(v) for v in values)

    def model(self):
        rng = self.rng
        kind = rng.choice(("canonical", "two_term", "table"))
        if kind == "canonical":
            return f"canonical:b={self.decay()},c={self.scale()}"
        if kind == "two_term":
            a1 = _log_uniform(rng, 1e-3, 1e20 if rng.random() < 0.2 else 1e3)
            a2 = a1 * (1.0 + _log_uniform(rng, 1e-6, 10.0))
            c1 = _log_uniform(rng, 1e-30, 1e30)
            c2 = c1 * rng.uniform(-1.0, 10.0)
            return (
                f"two_term:c1={self.text(c1)},c2={self.text(c2)},"
                f"alpha1={self.text(a1)},alpha2={self.text(a2)}"
            )
        values = ";".join(self.axes(4).split(","))
        if rng.random() < 0.5:
            return f"table:values={values}"
        return f"table:values={values},tail_b={self.decay()},tail_c={self.scale()}"


def _argv(rng):
    """One random argv; options are written --opt=value, so that argparse
    reads a value such as -inf as a value."""
    draw = _Draw(rng)
    command = rng.choice((
        "bound-finite", "bound-infinite", "mixed-bound", "classify", "asymptotic",
        "estimator", "oracle", "besov", "constants", "sweep",
    ))
    flags = []
    if command == "bound-finite":
        opts = {"axes": draw.axes(4), "p": draw.exponent(), "q": draw.exponent(),
                "eps": draw.eps()}
        if rng.random() < 0.5:
            opts["eta"] = draw.text(_log_uniform(rng, 1e-3, 1e3))
    elif command == "bound-infinite":
        opts = {"model": draw.model(), "p": draw.exponent(), "q": draw.exponent(),
                "eps": draw.eps()}
    elif command == "mixed-bound":
        dims = ",".join(str(rng.randint(1, 9)) for _ in range(rng.randint(1, 3)))
        opts = {"model": draw.model(), "dims": dims, "eps": draw.eps()}
        if rng.random() < 0.5:
            opts["gamma"] = draw.text(_log_uniform(rng, 1.0, 1e3))
    elif command == "classify":
        opts = {"p": draw.exponent(), "q": draw.exponent(), "b": draw.decay()}
        if rng.random() < 0.2:
            flags.append("--tail-summable")
    elif command == "asymptotic":
        opts = {"p": draw.exponent(), "q": draw.exponent(), "b": draw.decay(),
                "c": draw.scale(), "eps": draw.eps()}
    elif command == "estimator":
        opts = {"model": draw.model(), "eps": draw.eps()}
    elif command == "oracle":
        opts = {"axes": draw.axes(3), "p": draw.exponent(), "q": draw.exponent(),
                "eps": draw.eps(), "resolution": rng.randint(1, 16)}
        if rng.random() < 0.5:
            opts["eta"] = draw.text(_log_uniform(rng, 1e-3, 1e3))
    elif command == "besov":
        opts = {"s": draw.decay(), "d": rng.randint(1, 4), "p1": draw.exponent(),
                "vol": draw.scale(), "eps": draw.eps()}
    elif command == "constants":
        # every choice is drawn, then one is taken
        flags, opts = rng.choice((
            ([], {}),
            (["--gamma-pq"], {"p": draw.exponent(), "q": draw.exponent()}),
            (["--volume-ratio"], {"p": draw.exponent(), "q": draw.exponent(),
                                  "d": rng.randint(1, 50)}),
            ([], {"zeta-series": draw.decay()}),
        ))
    else:
        grid = f"{draw.eps()}:{draw.eps()}:{rng.randint(1, 4)}"
        opts = {"model": draw.model(), "what": rng.choice(("bound-infinite", "estimator")),
                "p": draw.exponent(), "q": draw.exponent(), "eps-grid": grid,
                "format": rng.choice(("csv", "json"))}
    if rng.random() < 0.1:
        flags.append("--nats")
    return [command, *flags, *(f"--{name}={value}" for name, value in opts.items())]


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _fault(argv):
    """None when argv exits 0, 2, 3 or 4 with strict JSON, else what went
    wrong."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except Exception as exc:  # noqa: BLE001 - a traceback is the fault looked for
        return f"raised {type(exc).__name__}: {exc}"
    if code not in (0, 2, 3, 4):
        return f"exit {code}"
    if argv[0] == "sweep" and "--format=json" not in argv and code == 0:
        return None
    text = err.getvalue() if code == 2 else out.getvalue()
    try:
        json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:
        return f"exit {code}, output is not strict JSON ({exc}): {text[:200]!r}"
    return None


# Draw 116 of seed 3 takes most of the gate's time (about 7.6 s of 8.7 s on
# a 2-core Xeon VM): a two-term law whose second term dominates up to
# d* = 2e7, where its log-product sums axis by axis.  It answers, so it
# passes; a seed that takes longer than SEED_SECONDS fails, naming its
# slowest draw, so a draw that lands on a slower path shows up.
@pytest.mark.parametrize("seed", [3, 7, 11])
def test_cli_fuzz_exits_with_a_contract_code_and_strict_json(seed):
    rng = random.Random(seed)
    faults = []
    total, slowest = 0.0, (0.0, "")
    for _ in range(DRAWS):
        argv = _argv(rng)
        start = time.perf_counter()
        fault = _fault(argv)
        took = time.perf_counter() - start
        total, slowest = total + took, max(slowest, (took, " ".join(argv)))
        if fault is not None:
            faults.append((" ".join(argv), fault))
    assert not faults, "\n".join(f"{a}\n    {f}" for a, f in faults[:20])
    assert total < SEED_SECONDS, f"seed took {total:.1f} s; slowest draw {slowest}"


# -- the library-level twin --------------------------------------------------

exponents = st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf])
specials = st.sampled_from([math.nan, math.inf, -math.inf, 0.0])
scales = st.floats(1e-30, 1e30) | specials
radii = st.floats(1e-300, 1e3) | specials
decays = st.floats(1e-3, 1e3) | st.floats(1e3, 1e20) | specials


@st.composite
def models(draw):
    kind = draw(st.sampled_from(["canonical", "two_term", "table"]))
    if kind == "canonical":
        return Canonical(draw(decays), draw(scales))
    if kind == "two_term":
        a1 = draw(decays)
        a2 = a1 * (1.0 + draw(st.floats(1e-6, 10.0)))
        c1 = draw(scales)
        return TwoTermPolynomial(c1, c1 * draw(st.floats(-1.0, 10.0)), a1, a2)
    values = sorted(draw(st.lists(scales, min_size=1, max_size=4)), reverse=True)
    tail = draw(st.none() | st.builds(Canonical, decays, scales))
    return Tabulated(tuple(values), tail)


def _or_none(make):
    """make(), or None where it raises an EntropyError."""
    try:
        return make()
    except EntropyError:
        return None


def _finite_or_typed(call):
    """call() gives finite floats (one, or a tuple of them) or raises an
    EntropyError; any other exception fails the test."""
    value = _or_none(call)
    if value is None:
        return
    for v in value if isinstance(value, tuple) else (value,):
        assert isinstance(v, float) and math.isfinite(v), value


@given(st.data())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_library_answers_finite_or_raises_an_entropy_error(data):
    p, q, eps = data.draw(exponents), data.draw(exponents), data.draw(radii)
    model = _or_none(lambda: data.draw(models()))
    if model is not None:
        _finite_or_typed(lambda: block_decomp.infinite_upper_bound(model, p, q, eps)[0].bits)
        _finite_or_typed(lambda: asymptotics.entropy_estimator(model, eps))
    b, c = data.draw(decays), data.draw(scales)
    _finite_or_typed(lambda: asymptotics.canonical_band(p, q, b, c, eps)[:2])
    _finite_or_typed(lambda: tuple(x for x in asymptotics.classify(p, q, b)[1:] if x is not None))
    axes = sorted(data.draw(st.lists(scales, min_size=1, max_size=4)), reverse=True)
    eta = data.draw(st.floats(1e-3, 1e3) | specials)
    body = _or_none(lambda: finite_bounds.FiniteEllipsoid(p, axes))
    if body is not None:
        _finite_or_typed(lambda: finite_bounds.volume_lower_bound(body, q, eps).log2_bound)
        _finite_or_typed(lambda: finite_bounds.density_upper_bound(body, q, eps, eta).log2_bound)
    s, d, vol = data.draw(decays), data.draw(st.integers(1, 4)), data.draw(scales)
    spec = _or_none(lambda: besov.BesovSpec(s, d, p, vol))
    if spec is not None:
        _finite_or_typed(lambda: besov.besov_entropy_band(spec, eps).band[:2])
