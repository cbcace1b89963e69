"""The four seeded workloads of the ellentropy benchmark.

Every workload is a closed loop: one caller issues one query at a time.
Work is issued in a fixed number of rounds.  A round holds one instance
per stratum of the input property that sets the cost (the effective
dimension d*, the (model, p, q) cell, the oracle grid), so every round
has the same mix.  Within a stratum, round r of R takes the cost-setting
parameter from the r-th of R equal parts of its range, shifted by a
seeded offset, so a run covers each stratum evenly and runs of different
seeds hold nearly the same mix.  Other parameters come from a per-round
``random.Random``; round r of a seed is the same on every run.

A workload receives the imported ``ellentropy`` package and calls it
through module attributes at call time, so a traced run sees its calls.
"""

from __future__ import annotations

import csv
import hashlib
import importlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import redirect_stdout

INF = math.inf
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
PQ_GRID = ("1", "1.5", "2", "3", "inf")
EPS_RANGE = (0.005, 0.63)


def _stratified(offset: float, r: int, rounds: int) -> float:
    """Round r's point in [0, 1): the rounds split it into equal parts."""
    return (offset + r / rounds) % 1.0


def _latin(rng: random.Random, dims: int, rounds: int):
    """A jittered Latin hypercube over the rounds: ``dims`` points per round
    in [0, 1), each coordinate visiting every r-th of ``rounds`` equal parts
    exactly once."""
    columns = [(rng.sample(range(rounds), rounds), rng.random()) for _ in range(dims)]
    return [[(perm[r] + jitter) / rounds for perm, jitter in columns] for r in range(rounds)]


def _golden(offset: float, r: int) -> float:
    """A second sequence, spread evenly for any number of rounds."""
    return (offset + r * GOLDEN) % 1.0


def _log_uniform(lo: float, hi: float, u: float) -> float:
    return lo * (hi / lo) ** u


def _exp(text: str) -> float:
    return INF if text == "inf" else float(text)


class Query:
    __slots__ = ("label", "result", "error", "failed")

    def __init__(self, label, result, error):
        self.label, self.result, self.error, self.failed = label, result, error, False

    @property
    def ok(self) -> bool:
        return self.error is None and not self.failed


class Recorder:
    """Times queries, counts failures and collects the checked outputs."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.latencies = []
        self.query_labels = []
        self.labels = Counter()
        self.failures = Counter()  # by cause
        self.failed = 0
        self.wrong_outputs = 0
        self.ratios = []
        self.round = 0
        self.wall_s = 0.0  # time inside queries
        self.cli_main_s = 0.0  # untraced in-process cli.main time
        self.cli_overhead_s = 0.0
        self.cli_stdout_bytes = 0
        self.cli_bad_exit = 0
        self._digest = hashlib.sha256()
        self._tracebacks = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def call(self, label, fn, *args, allowed=(), **kwargs) -> Query:
        if self.tracer is not None:
            self.tracer.query_id = len(self.latencies)
        start = time.perf_counter()
        try:
            result, error = fn(*args, **kwargs), None
        except Exception as exc:  # a raising query is a result to record
            result, error = None, exc
        elapsed = time.perf_counter() - start
        if self.tracer is not None:
            self.tracer.query_id = -1  # spans between queries are the benchmark's
        self.wall_s += elapsed
        self.latencies.append(elapsed)
        self.query_labels.append(label)
        self.labels[label] += 1
        query = Query(label, result, error)
        if error is not None and not isinstance(error, allowed):
            self.fail(query, _cause(error))
            if not _is_domain_error(error) and self._tracebacks < 3:
                self._tracebacks += 1
                traceback.print_exception(error, file=sys.stderr)
        return query

    def fail(self, query: Query, cause: str) -> None:
        if not query.failed:
            query.failed = True
            self.failed += 1
            self.failures[cause] += 1

    def check(self, query: Query, ok: bool, what: str) -> None:
        """Mark a query whose returned output is wrong."""
        if query.error is None and not ok and not query.failed:
            self.wrong_outputs += 1
            self.fail(query, "output_check")
            print(f"check failed: {query.label}: {what}", file=sys.stderr)

    def frozen(self, *items) -> None:
        """Feed outputs that must not change into the digest (round 0 only)."""
        if self.round == 0:
            self._digest.update(repr(items).encode())

    def digest(self) -> str:
        return self._digest.hexdigest()[:16]


def _is_domain_error(exc) -> bool:
    return any(c.__name__ == "EntropyError" for c in type(exc).__mro__)


def _cause(exc) -> str:
    name = type(exc).__name__
    return {
        "RadiusOutOfRange": "radius_out_of_range",
        "ScanCapExceeded": "scan_cap_exceeded",
        "NonCompactRegime": "non_compact_on_compact_input",
    }.get(name, "other")


# ---------------------------------------------------------------------------
# deep-scan


class DeepScan:
    """Exact, counting and estimator scans at d* log-uniform in [1e3, 1e5]."""

    name = "deep-scan"
    rounds_per_20s = 10  # rounds that take 20 to 30 s on a 2-core VM
    STRATA = 6
    FAMILIES = ("canonical", "two_term", "table_tail")

    def __init__(self, lib, seed):
        self.lib = lib
        self.seed = seed
        off = random.Random(f"{self.name}:{seed}:offsets")
        self.offsets = [(off.random(), off.random()) for _ in range(self.STRATA)]

    def _instance(self, family, d, v, rng):
        """A model of ``family`` and an eps with exactly d axes above eps.

        The decay exponent is 0.5 + v/2: at most 1, so the counting form's
        range of k, about mu_1/eps, stays below d*.
        """
        S = self.lib.sequences
        b = 0.5 + 0.5 * v
        if family == "canonical":
            c = rng.uniform(0.5, 2.0)
            model = S.Canonical(b, c)

            def mu(n):
                return c * float(n) ** (-b)

        elif family == "two_term":
            a1 = b
            a2 = a1 + rng.uniform(0.25, 0.75)
            c1 = rng.uniform(0.5, 2.0)
            c2 = c1 * rng.uniform(-0.3, 0.8)
            model = S.TwoTermPolynomial(c1, c2, a1, a2)

            def mu(n):
                return c1 * float(n) ** (-a1) + c2 * float(n) ** (-a2)

        else:
            c = rng.uniform(0.5, 2.0)
            length = rng.randint(16, 128)
            head = sorted(
                (c * float(n) ** (-b) * rng.uniform(1.0, 1.5) for n in range(1, length + 1)),
                reverse=True,
            )
            model = S.Tabulated(tuple(head), S.Canonical(b, c))

            def mu(n):
                return c * float(n) ** (-b)

        return model, 0.5 * (mu(d) + mu(d + 1))

    def round(self, r, rounds):
        rng = random.Random(f"{self.name}:{self.seed}:{r}")
        tasks = []
        for i, (off_d, off_b) in enumerate(self.offsets):
            u = _stratified(off_d, r, rounds)
            d = round(10 ** (3 + 2 * (i + u) / self.STRATA))
            family = self.FAMILIES[(i + r) % len(self.FAMILIES)]
            model, eps = self._instance(family, d, _golden(off_b, r), rng)
            tasks.append((self._run, (model, eps)))
        return tasks

    def warm_up(self):
        rng = random.Random("warm-up")
        return [(self._run, self._instance(f, 50, 0.5, rng)) for f in self.FAMILIES]

    def _run(self, rec, model, eps):
        H, A, S = self.lib.hyperrect, self.lib.asymptotics, self.lib.sequences
        B = self.lib.block_decomp
        exact = rec.call("exact_entropy", H.exact_entropy, model, eps)
        dual = rec.call("exact_entropy_counting", H.exact_entropy_counting, model, eps)
        rec.call("entropy_estimator", A.entropy_estimator, model, eps)
        eff = rec.call("effective_dimension", A.effective_dimension, model, INF, INF, eps)
        cnt = rec.call("counting", S.counting, model, eps)
        bound = rec.call("infinite_upper_bound", B.infinite_upper_bound, model, "inf", "inf", eps)
        if not exact.ok:
            return
        res = exact.result
        d = res.effective_dim
        rec.check(eff, eff.result == d, f"effective_dimension {eff.result} != {d}")
        rec.check(cnt, cnt.result == d, f"counting {cnt.result} != {d}")
        rec.check(
            dual,
            dual.error is None and math.isclose(dual.result, res.bits, rel_tol=1e-9),
            f"counting form {dual.result} != exact bits {res.bits}",
        )
        if bound.ok:
            upper = bound.result[0].bits
            rec.check(bound, upper >= res.bits, f"upper {upper} < exact {res.bits}")
            if res.bits > 0:
                # certified sup-norm upper bits over exact bits at the same radius
                rec.ratios.append(upper / res.bits)
        rec.frozen(
            "deep", res.bits.hex(), d, sorted(Counter(res.per_axis_counts).items()), cnt.result
        )


# ---------------------------------------------------------------------------
# certified-sweep


def certified_models(lib):
    """(label, model, decay index or None, (b, c) if canonical, CLI text).

    Each model keeps every call's cut dimension below ~3e5 (one call under
    half a second) or past the 1e7 dimension cap; the slow-tail table hits
    that cap on its q < p cells with 1/q - 1/p = 2/3.
    """
    S = lib.sequences
    head = tuple(0.9 * 0.82**i for i in range(24))
    table = tuple(float(n) ** -0.7 for n in range(1, 41))
    out = [
        ("canonical-2", S.Canonical(2.0, 1.0), 2.0, (2.0, 1.0), "canonical:b=2.0,c=1.0"),
        ("canonical-1.5", S.Canonical(1.5, 0.7), 1.5, (1.5, 0.7), "canonical:b=1.5,c=0.7"),
        ("canonical-1", S.Canonical(1.0, 0.1), 1.0, (1.0, 0.1), "canonical:b=1.0,c=0.1"),
        (
            "two-term",
            S.TwoTermPolynomial(1.0, -0.3, 1.6, 2.1),
            1.6,
            None,
            "two_term:c1=1.0,c2=-0.3,alpha1=1.6,alpha2=2.1",
        ),
        (
            "slow-tail",
            S.Tabulated(head, S.Canonical(0.6677, 0.01)),
            0.6677,
            None,
            "table:values=" + ";".join(repr(v) for v in head) + ",tail_b=0.6677,tail_c=0.01",
        ),
        ("finite-table", S.Tabulated(table), None, None, "table:values=" + ";".join(repr(v) for v in table)),
    ]
    return out


class CertifiedSweep:
    """infinite_upper_bound over the full (p, q) grid, with cheap queries mixed in."""

    name = "certified-sweep"
    rounds_per_20s = 48  # rounds that take 20 to 30 s on a 2-core VM

    def __init__(self, lib, seed):
        self.lib = lib
        self.seed = seed
        self.models = certified_models(lib)
        self.cells = [(m, p, q) for m in self.models for p in PQ_GRID for q in PQ_GRID]
        off = random.Random(f"{self.name}:{seed}:offsets")
        self.offsets = [off.random() for _ in self.cells]
        # the reference regime of each cell, decided once before any timing
        self.regimes = {
            (label, p, q): lib.asymptotics.classify(p, q, b)
            for label, _, b, _, _ in self.models
            if b is not None
            for p in PQ_GRID
            for q in PQ_GRID
        }

    def round(self, r, rounds):
        rng = random.Random(f"{self.name}:{self.seed}:{r}")
        tasks = []
        for k, (model, p, q) in enumerate(self.cells):
            eps = _log_uniform(*EPS_RANGE, _stratified(self.offsets[k], r, rounds))
            tasks.append((self._cell, (model, p, q, eps)))
        for _ in range(5):
            tasks.append((self._band, self._band_args(rng)))
        for _ in range(3):
            tasks.append((self._besov, self._besov_args(rng)))
        for _ in range(2):
            tasks.append((self._mixed, self._mixed_args(rng)))
        return tasks

    def warm_up(self):
        rng = random.Random("warm-up")
        return [(self._cell, (m, "2", "1.5", 0.3)) for m in self.models] + [
            (self._band, self._band_args(rng)),
            (self._besov, self._besov_args(rng)),
            (self._mixed, self._mixed_args(rng)),
        ]

    def _cell(self, rec, model, p, q, eps):
        B, H = self.lib.block_decomp, self.lib.hyperrect
        label, m, _, _, _ = model
        regime = self.regimes.get((label, p, q))
        compact = regime is None or regime.compact  # finite tables are compact
        bound = rec.call(
            "infinite_upper_bound",
            B.infinite_upper_bound,
            m,
            p,
            q,
            eps,
            allowed=() if compact else (self.lib.errors.NonCompactRegime,),
        )
        rec.check(bound, compact, "bound returned where classify says not compact")
        if bound.ok:
            result, cert = bound.result
            rec.check(bound, cert.tail_radius <= eps, f"tail radius {cert.tail_radius} > eps {eps}")
            rec.frozen("regime", regime and regime.case, cert.tail_case)
        else:
            rec.frozen("regime", regime and regime.case, type(bound.error).__name__)
        if p == q == "inf":
            # the sup-norm reference at the same shallow radius
            exact = rec.call("exact_entropy", H.exact_entropy, m, eps)
            if exact.ok:
                rec.frozen("exact", exact.result.bits.hex(), exact.result.effective_dim)
                if bound.ok:
                    upper = bound.result[0].bits
                    rec.check(bound, upper >= exact.result.bits, f"upper {upper} < exact")
                    if exact.result.bits > 0:
                        rec.ratios.append(upper / exact.result.bits)

    @staticmethod
    def _band_args(rng):
        p, q = rng.choice(PQ_GRID), rng.choice(PQ_GRID)
        b, c = rng.uniform(0.2, 2.0), rng.uniform(0.5, 2.0)
        return p, q, b, c, _log_uniform(*EPS_RANGE, rng.random())

    def _band(self, rec, p, q, b, c, eps):
        A = self.lib.asymptotics
        regime = rec.call("classify", A.classify, p, q, b)
        if regime.error is not None:
            return
        compact = regime.result.case in ("Compact_iii", "Compact_iv")
        band = rec.call(
            "canonical_band",
            A.canonical_band,
            p,
            q,
            b,
            c,
            eps,
            allowed=() if compact else (self.lib.errors.NonCompactRegime,),
        )
        rec.check(band, compact, "band returned where classify says not compact")
        if band.ok and regime.result.case == "Compact_iii":
            rec.check(band, band.result.lower_bits <= band.result.upper_bits, "band inverted")
        rec.frozen("classify", regime.result.case)

    @staticmethod
    def _besov_args(rng):
        s = rng.uniform(0.5, 3.0)
        d = rng.randint(1, 3)
        p1 = rng.choice(PQ_GRID)
        return s, d, p1, rng.uniform(0.5, 2.0), _log_uniform(*EPS_RANGE, rng.random())

    def _besov(self, rec, s, d, p1, vol, eps):
        Bv = self.lib.besov
        rp = 0.0 if p1 == "inf" else 1.0 / float(p1)
        compact = s / d - (rp - 0.5) > 0
        spec = Bv.BesovSpec(s, d, p1, vol)
        band = rec.call(
            "besov_entropy_band",
            Bv.besov_entropy_band,
            spec,
            eps,
            allowed=() if compact else (self.lib.errors.NonCompactRegime,),
        )
        rec.check(band, compact, "besov band returned for a non-compact ball")

    @staticmethod
    def _mixed_args(rng):
        # the shape of acceptance criterion 10
        k = rng.randint(1, 3)
        mus = sorted((rng.uniform(0.4, 1.5) for _ in range(k)), reverse=True) + [0.05]
        dims = tuple(rng.randint(9, 24) for _ in range(k + 1))
        hi = mus[-2] if k > 1 else mus[0]
        return tuple(mus), dims, rng.uniform(0.06, 0.95 * hi)

    def _mixed(self, rec, mus, dims, eps):
        B = self.lib.block_decomp
        spec = B.MixedEllipsoidSpec(self.lib.sequences.Tabulated(mus), dims)
        up = rec.call("mixed_upper_bound", B.mixed_upper_bound, spec, eps)
        lo = rec.call("mixed_lower_bound", B.mixed_lower_bound, spec, eps)
        if up.ok and lo.ok:
            rec.check(lo, lo.result.bits <= up.result[0].bits, "mixed lower above upper")


# ---------------------------------------------------------------------------
# oracle-sandwich


class OracleSandwich:
    """Grid cover/pack oracle and the sandwich report, d in {1, 2, 3}."""

    name = "oracle-sandwich"
    rounds_per_20s = 6  # rounds that take 20 to 30 s on a 2-core VM
    # resolution 64 at d = 3 costs up to ~10 s per query on a 2-core VM
    RESOLUTION = {1: 64, 2: 64, 3: 32}
    EXPONENTS = (1.0, 2.0, INF)

    def __init__(self, lib, seed):
        self.lib = lib
        self.seed = seed
        self.cells = [(d, p, q) for d in (1, 2, 3) for p in self.EXPONENTS for q in self.EXPONENTS]
        self._design = {}

    def _instance(self, d, p, q, u):
        """Axes in [0.45, 1] and eps at 0.6 to 0.9 of the admissible radius,
        from the point ``u`` = (eps factor, axis 1, ..., axis d)."""
        lib = self.lib
        factor = 0.6 + 0.3 * u[0]
        axes = tuple(sorted((0.45 + 0.55 * v for v in u[1:]), reverse=True))
        E = lib.finite_bounds.FiniteEllipsoid(lib.constants.HolderExponent(p), axes)
        rp = 0.0 if p == INF else 1.0 / p
        rq = 0.0 if q == INF else 1.0 / q
        # admissible at eta = 1, as in acceptance criterion 5
        eps = factor * d ** (-max(rp - rq, 0.0)) * axes[-1]
        return E, q, eps, self.RESOLUTION[d]

    def round(self, r, rounds):
        if rounds not in self._design:
            # the axis ratios and eps factor set the cover count, so the
            # rounds cover their ranges evenly, cell by cell
            rng = random.Random(f"{self.name}:{self.seed}:{rounds}")
            self._design[rounds] = [_latin(rng, 1 + d, rounds) for d, _, _ in self.cells]
        return [
            (self._run, self._instance(d, p, q, self._design[rounds][k][r]))
            for k, (d, p, q) in enumerate(self.cells)
        ]

    def warm_up(self):
        return [(self._run, self._instance(d, 2.0, 2.0, [1.0] + [0.5] * d)) for d in (1, 2)]

    def _run(self, rec, E, q, eps, res):
        O = self.lib.oracle
        cover = rec.call("greedy_cover", O.greedy_cover, E, q, eps, res)
        pack = rec.call("greedy_pack", O.greedy_pack, E, q, eps, res)
        sw = rec.call("sandwich_report", O.sandwich_report, E, q, eps, resolution=res, eta=1.0)
        if not sw.ok:
            return
        rep = sw.result
        rec.check(sw, rep.all_ok, f"sandwich checks {rep.checks}")
        if cover.ok:
            rec.check(cover, cover.result.cover_count == rep.report.cover_count, "cover count not deterministic")
        if pack.ok:
            rec.check(pack, pack.result.pack_count == rep.report.pack_count, "pack count not deterministic")
        rec.frozen("oracle", rep.report.cover_count, rep.report.pack_count)
        if rep.values["log2_pack"] > 0:
            # certified upper over the oracle's certified lower bound log2(pack)
            rec.ratios.append(rep.values["upper_at_eps"] / rep.values["log2_pack"])


# ---------------------------------------------------------------------------
# cli-batch

EXIT_OK, EXIT_NONCOMPACT, EXIT_CAP = 0, 3, 4


class CliBatch:
    """One ``ellentropy`` subprocess at a time, across all 11 subcommands."""

    name = "cli-batch"
    rounds_per_20s = 9  # rounds that take 20 to 30 s on a 2-core VM

    def __init__(self, lib, seed, root=None):
        self.lib = lib
        self.seed = seed
        self.root = root or os.getcwd()
        # "spawn": subprocesses only; "both": also time cli.main in this
        # process; "in-process": cli.main in this process is the query
        self.mode = "spawn"
        self.cli = importlib.import_module(f"{lib.__name__}.cli")
        self.models = certified_models(lib)
        off = random.Random(f"{self.name}:{seed}:offsets")
        self.offsets = [off.random() for _ in range(3)]  # exact d*, bound eps, sweep eps

    # -- inputs ---------------------------------------------------------
    def round(self, r, rounds):
        rng = random.Random(f"{self.name}:{self.seed}:{r}")
        u_exact, u_bound, u_sweep = (_stratified(off, r, rounds) for off in self.offsets)
        # with b = 1 the per-axis counts, and so the digit count of the
        # covering number, depend on d* alone: about 8,000 axes pass the
        # 4,300-digit limit of int-to-str conversion
        b, c = 1.0, rng.uniform(0.5, 2.0)
        d = round(10 ** (3 + math.log10(30) * u_exact))  # d* in [1e3, 3e4]
        eps = 0.5 * (c * float(d) ** (-b) + c * float(d + 1) ** (-b))
        text = self.models[0][4]  # one model, so the bound/exact ratio varies only with eps
        p, q = rng.choice(PQ_GRID), rng.choice(PQ_GRID)
        other = self.models[rng.randrange(len(self.models))][4]
        argvs = [
            ["exact", "--model", f"canonical:b={b!r},c={c!r}", "--eps", repr(eps)],
            [
                "bound-infinite", "--model", text, "--p", "inf", "--q", "inf",
                "--eps", repr(_log_uniform(*EPS_RANGE, u_bound)),
            ],
            ["bound-infinite", "--model", other, "--p", p, "--q", q, "--eps", self._eps(rng)],
            self._bound_finite(rng),
            self._mixed(rng),
            ["classify", "--p", rng.choice(PQ_GRID), "--q", rng.choice(PQ_GRID), "--b", f"{rng.uniform(0.2, 2.0):.4f}"],
            [
                "asymptotic", "--p", rng.choice(PQ_GRID), "--q", rng.choice(PQ_GRID),
                "--b", repr(rng.uniform(0.2, 2.0)), "--c", repr(rng.uniform(0.5, 2.0)), "--eps", self._eps(rng),
            ],
            ["estimator", "--model", f"canonical:b={b!r},c={c!r}", "--eps", repr(eps * 10.0)],
            self._oracle(rng),
            [
                "besov", "--s", repr(rng.uniform(0.5, 3.0)), "--d", str(rng.randint(1, 3)),
                "--p1", rng.choice(PQ_GRID), "--vol", repr(rng.uniform(0.5, 2.0)), "--eps", self._eps(rng),
            ],
            self._constants(rng, r),
            self._sweep(r, u_sweep),
        ]
        return [(self._invoke, (argv,)) for argv in argvs]

    def warm_up(self):
        return [(self._invoke, (["classify", "--p", "2", "--q", "2", "--b", "1"],))]

    @staticmethod
    def _eps(rng):
        return repr(_log_uniform(*EPS_RANGE, rng.random()))

    @staticmethod
    def _bound_finite(rng):
        d = rng.randint(3, 12)
        axes = sorted((rng.uniform(0.2, 1.0) for _ in range(d)), reverse=True)
        p, q = rng.choice(PQ_GRID), rng.choice(PQ_GRID)
        rp, rq = 1.0 / _exp(p), 1.0 / _exp(q)
        eps = rng.uniform(0.3, 1.2) * d ** (-max(rp - rq, 0.0)) * axes[-1]
        return ["bound-finite", "--axes", ",".join(map(repr, axes)), "--p", p, "--q", q, "--eps", repr(eps)]

    @staticmethod
    def _mixed(rng):
        mus, dims, eps = CertifiedSweep._mixed_args(rng)
        return [
            "mixed-bound", "--model", "table:values=" + ";".join(map(repr, mus)),
            "--dims", ",".join(map(str, dims)), "--eps", repr(eps),
        ]

    @staticmethod
    def _oracle(rng):
        d = rng.randint(1, 2)
        axes = sorted((rng.uniform(0.45, 1.0) for _ in range(d)), reverse=True)
        p, q = rng.choice(("1", "2", "inf")), rng.choice(("1", "2", "inf"))
        rp, rq = 1.0 / _exp(p), 1.0 / _exp(q)
        eps = rng.uniform(0.6, 0.9) * d ** (-max(rp - rq, 0.0)) * axes[-1]
        return [
            "oracle", "--axes", ",".join(map(repr, axes)), "--p", p, "--q", q,
            "--eps", repr(eps), "--resolution", "32",
        ]

    @staticmethod
    def _constants(rng, r):
        kind = r % 4
        if kind == 0:
            return ["constants", "--gamma-pq", "--p", rng.choice(PQ_GRID), "--q", rng.choice(PQ_GRID)]
        if kind == 1:
            return [
                "constants", "--volume-ratio", "--p", rng.choice(PQ_GRID),
                "--q", rng.choice(PQ_GRID), "--d", str(rng.randint(1, 50)),
            ]
        if kind == 2:
            return ["constants", "--zeta-series", repr(rng.uniform(0.5, 2.0))]
        return ["constants"]

    def _sweep(self, r, u):
        # bound-infinite rows give most bound/exact ratio samples; exact and
        # estimator have subcommands of their own
        lo = _log_uniform(0.01, 0.1, u)
        return [
            "sweep", "--model", self.models[0][4], "--what", "bound-infinite",
            "--eps-grid", f"{lo!r}:{lo * 5.0!r}:5", "--format", ("json", "csv")[r % 2],
        ]

    # -- expected result, from the library in this process ---------------
    def _expected(self, argv):
        """(exit code implied by the library, values the output must carry)."""
        lib = self.lib
        cli = self.cli
        errors = lib.errors
        sub = argv[0]
        opts = dict(zip(argv[1::2], argv[2::2])) if sub != "constants" else {}
        try:
            if sub == "exact":
                res = lib.hyperrect.exact_entropy(cli.parse_model(opts["--model"]), float(opts["--eps"]))
                return EXIT_OK, {"value_bits": res.bits, "effective_dim": res.effective_dim}
            if sub == "bound-infinite":
                model, eps = cli.parse_model(opts["--model"]), float(opts["--eps"])
                res, _ = lib.block_decomp.infinite_upper_bound(model, opts["--p"], opts["--q"], eps)
                values = {"value_bits": res.bits}
                if opts["--p"] == opts["--q"] == "inf":
                    values["exact_bits"] = [lib.hyperrect.exact_entropy(model, eps).bits]
                return EXIT_OK, values
            if sub == "mixed-bound":
                dims = tuple(int(v) for v in opts["--dims"].split(","))
                spec = lib.block_decomp.MixedEllipsoidSpec(cli.parse_model(opts["--model"]), dims)
                res, _ = lib.block_decomp.mixed_upper_bound(spec, float(opts["--eps"]))
                return EXIT_OK, {"value_bits": res.bits}
            if sub == "classify":
                reg = lib.asymptotics.classify(opts["--p"], opts["--q"], opts["--b"])
                return (EXIT_OK if reg.compact else EXIT_NONCOMPACT), {"case": reg.case}
            if sub == "asymptotic":
                lib.asymptotics.canonical_band(
                    opts["--p"], opts["--q"], float(opts["--b"]), float(opts["--c"]), float(opts["--eps"])
                )
            elif sub == "besov":
                spec = lib.besov.BesovSpec(float(opts["--s"]), int(opts["--d"]), opts["--p1"], float(opts["--vol"]))
                lib.besov.besov_entropy_band(spec, float(opts["--eps"]))
            elif sub == "estimator":
                bits = lib.asymptotics.entropy_estimator(cli.parse_model(opts["--model"]), float(opts["--eps"]))
                return EXIT_OK, {"value_bits": bits}
            elif sub == "sweep":
                model = cli.parse_model(opts["--model"])
                start, stop, count = opts["--eps-grid"].split(":")
                grid = [math.exp(math.log(float(start)) + (math.log(float(stop)) - math.log(float(start))) * i / (int(count) - 1)) for i in range(int(count))]
                exact = [lib.hyperrect.exact_entropy(model, e).bits for e in grid]
                rows = [lib.block_decomp.infinite_upper_bound(model, "inf", "inf", e)[0].bits for e in grid]
                return EXIT_OK, {"rows": rows, "exact_bits": exact}
        except errors.NonCompactRegime:
            return EXIT_NONCOMPACT, {}
        except (errors.ScanCapExceeded, errors.EnumerationTooLarge):
            return EXIT_CAP, {"library_error": "scan_cap_exceeded"}
        except errors.EntropyError as exc:
            # valid input that the library rejects: the CLI should still answer
            return EXIT_OK, {"library_error": _cause(exc)}
        return EXIT_OK, {}

    # -- one query --------------------------------------------------------
    def _invoke(self, rec, argv):
        label = f"cli.{argv[0]}"
        if self.mode == "in-process":
            # traced pass: only cli.main runs, so only its work is traced
            rec.call(label, self._main_in_process, argv)
            return
        expected, values = self._expected(argv)
        if self.mode == "both":
            start = time.perf_counter()
            try:
                self._main_in_process(argv)
            except Exception:  # the subprocess below shows the same defect
                pass
            in_process_s = time.perf_counter() - start
            rec.cli_main_s += in_process_s
        cmd = [sys.executable, "-m", "ellentropy.cli", *argv]
        before = rec.wall_s
        q = rec.call(label, subprocess.run, cmd, cwd=self.root, capture_output=True, timeout=120)
        if self.mode == "both":
            rec.cli_overhead_s += rec.wall_s - before - in_process_s
        if q.error is not None:
            return
        proc = q.result
        rec.cli_stdout_bytes += len(proc.stdout)
        if "library_error" in values:
            rec.fail(q, values["library_error"])
        if proc.returncode != expected:
            rec.cli_bad_exit += 1
            rec.fail(q, "bad_exit")
            return
        try:
            out = self._parse(argv, proc.stdout)
        except ValueError:
            rec.fail(q, "unparsable_stdout")
            return
        self._check(rec, q, argv, out, values)

    def _main_in_process(self, argv):
        with redirect_stdout(io.StringIO()):
            return self.cli.main(list(argv))

    @staticmethod
    def _parse(argv, stdout):
        text = stdout.decode()
        if argv[0] == "sweep" and "csv" in argv:
            rows = list(csv.DictReader(io.StringIO(text)))
            if not rows:
                raise ValueError("empty CSV")
            return {"rows": [{"epsilon": float(r["epsilon"]), "value_bits": float(r["value_bits"])} for r in rows]}
        return json.loads(text)

    @staticmethod
    def _check(rec, q, argv, out, values):
        sub = argv[0]
        if "value_bits" in values:
            rec.check(q, out.get("value_bits") == values["value_bits"], f"{sub} value_bits differ")
        if sub == "exact":
            rec.check(
                q,
                out["certificate"]["effective_dim"] == values["effective_dim"],
                "exact effective_dim differs",
            )
            rec.frozen("cli-exact", out["certificate"]["center_count"])
        if sub == "classify":
            rec.check(q, out["regime"]["case"] == values["case"], "classify case differs")
            rec.frozen("cli-classify", values["case"])
        if sub == "oracle":
            rec.check(q, out["all_ok"] is True, "oracle sandwich not ordered")
            rec.frozen("cli-oracle", out["report"]["cover_count"], out["report"]["pack_count"])
        got = [out.get("value_bits")]
        if sub == "sweep":
            got = [row["value_bits"] for row in out["rows"]]
            csv_out = "csv" in argv
            same = len(got) == len(values["rows"]) and all(
                math.isclose(a, b, rel_tol=1e-11) if csv_out else a == b for a, b in zip(got, values["rows"])
            )
            rec.check(q, same, "sweep rows differ")
        if q.ok:
            # certified upper over exact, on the p = q = inf outputs
            rec.ratios.extend(u / e for u, e in zip(got, values.get("exact_bits", ())) if e > 0)


WORKLOADS = {
    cls.name: cls for cls in (DeepScan, CertifiedSweep, OracleSandwich, CliBatch)
}
