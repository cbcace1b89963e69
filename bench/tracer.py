"""In-memory span tracer that wraps the ellentropy modules from outside.

``Tracer.install`` rebinds every public module-level function of each
``ellentropy`` module, in the module that defines it and in every module
of the package that imported it by name, so calls between modules go
through the wrapper too.  Most functions record a span
``(name, layer, start, end, parent, query_id)``; hot primitives (``HOT``) are
only counted, keyed by the layer of the innermost open span, so their
time stays in the caller's self time.  Nothing is written until
``layer_metrics`` summarises the spans at the end of a run.

A function listed in ``EXPECTED`` that the package no longer defines is
reported as absent, together with every metric derived from it, instead
of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict

LAYERS = (
    "sequences",
    "constants",
    "numerics",
    "hyperrect",
    "finite_bounds",
    "block_decomp",
    "asymptotics",
    "besov",
    "oracle",
    "cli",
)

# Called once per axis or per argument coercion: counted, never spanned.
HOT = frozenset(
    {
        "sequences.axis",
        "sequences.table_length",
        "sequences.decay_index",
        "numerics.kahan_sum",
        "numerics.log2_bigint",
        "constants.as_exponent",
        "constants.log_gamma",
    }
)

# Names the derived metrics read; a missing one makes those metrics absent.
EXPECTED = (
    "sequences.axis",
    "sequences.counting",
    "sequences.tail_power_sum",
    "hyperrect.exact_entropy",
    "block_decomp.infinite_upper_bound",
    "oracle.greedy_cover",
    "oracle.greedy_pack",
    "cli.main",
)

# Metric names of the exception classes counted where they leave a layer.
_ERROR_KEYS = {"RadiusOutOfRange": "radius_out_of_range", "ScanCapExceeded": "scan_cap"}


def _pack_grid_points(resolution: int, dim: int) -> int:
    # greedy_pack runs at the requested resolution and every halving down to 8
    total, r = 0, resolution
    while True:
        total += r**dim
        if r // 2 < 8:
            return total
        r //= 2


def _observe_exact(args, result):
    return {
        "hyperrect.effective_dim_sum": result.effective_dim,
        "hyperrect.distinct_counts_sum": len(set(result.per_axis_counts)),
    }


def _observe_bound(args, result):
    return {"block_decomp.cut_dim_sum": result[1].effective_dimension}


def _observe_cover(args, result):
    points = args["resolution"] ** args["E"].dim
    return {
        "oracle.cover_count_sum": result.cover_count,
        "oracle.grid_points": points,
        # two q-norm sweeps over the grid per selected center
        "oracle.computed_distance_evals": 2 * result.cover_count * points,
    }


def _observe_pack(args, result):
    points = _pack_grid_points(args["resolution"], args["E"].dim)
    return {
        "oracle.pack_count_sum": result.pack_count,
        "oracle.grid_points": points,
        # one q-norm sweep over each grid of the halving chain per packed point
        "oracle.computed_distance_evals": result.pack_count * points,
    }


# Result observers: extract work counts from what a call returned.
OBSERVERS = {
    "hyperrect.exact_entropy": _observe_exact,
    "block_decomp.infinite_upper_bound": _observe_bound,
    "oracle.greedy_cover": _observe_cover,
    "oracle.greedy_pack": _observe_pack,
}


class Tracer:
    """Span and counter store for one traced run of the benchmark."""

    def __init__(self):
        self.spans = []  # (name, layer, start, end, parent, query_id)
        self.counts = Counter()
        self.observed = Counter()
        self.broken_observers = set()
        self.errors = Counter()
        self.query_id = -1  # -1 outside any query
        self.absent = set()
        self.oracle_s = 0.0
        self.oracle_small_s = 0.0
        self._stack = []  # indices of open spans
        self._layers = []  # layer of each open span
        self._restore = []

    # -- installation -------------------------------------------------
    def install(self, package: str = "ellentropy") -> None:
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"{package}.{layer}")
            except ImportError:
                self.absent.add(layer)
        holders = list(modules.values()) + [importlib.import_module(package)]
        wrapped = set()
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapper = self._wrap(fn, name, layer)
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            self._restore.append((holder, key, fn))
                            setattr(holder, key, wrapper)
                wrapped.add(name)
        self.absent.update(n for n in EXPECTED if n not in wrapped)

    def uninstall(self) -> None:
        for holder, key, fn in reversed(self._restore):
            setattr(holder, key, fn)
        self._restore.clear()

    def _wrap(self, fn, name, layer):
        if name in HOT:
            counts, layers = self.counts, self._layers

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[(name, layers[-1] if layers else "bench")] += 1
                return fn(*args, **kwargs)

            return counted

        spans, stack, layers = self.spans, self._stack, self._layers
        clock = time.perf_counter
        observer = OBSERVERS.get(name)
        signature = inspect.signature(fn) if observer else None

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            layers.append(layer)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                # count each error once, where it leaves its layer
                if len(layers) < 2 or layers[-2] != layer:
                    kind = type(exc).__name__
                    self.errors[f"{layer}.{_ERROR_KEYS.get(kind, kind)}"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                layers.pop()
                spans[index] = (name, layer, start, end, parent, self.query_id)
            if observer is not None:
                self._observe(name, observer, signature, args, kwargs, result)
            if layer == "oracle" and (not layers or layers[-1] != "oracle"):
                self._note_oracle(args, kwargs, end - start)
            return result

        return spanned

    def _observe(self, name, observer, signature, args, kwargs, result):
        try:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            for key, value in observer(bound.arguments, result).items():
                self.observed[key] += value
        except (AttributeError, KeyError, TypeError, IndexError):
            self.broken_observers.add(name)

    def _note_oracle(self, args, kwargs, seconds):
        # outermost oracle calls, split by grid size: dimension <= 2 is small
        self.oracle_s += seconds
        E = args[0] if args else kwargs.get("E")
        if getattr(E, "dim", 3) <= 2:
            self.oracle_small_s += seconds

    # -- summary ------------------------------------------------------
    def root_s(self) -> float:
        """Time inside outermost spans, which is the sum of all self times."""
        return sum(end - start for _, _, start, end, parent, _ in self.spans if parent < 0)

    def spans_by_layer(self) -> dict:
        return dict(Counter(layer for _, layer, _, _, _, _ in self.spans))

    def layer_metrics(self, wall_s: float) -> dict:
        """Per-layer numbers; absent ones map to None."""
        child = defaultdict(float)
        for name, layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = Counter()
        fn_self = Counter()
        calls = Counter()
        fn_calls = Counter()
        for i, (name, layer, start, end, parent, _) in enumerate(self.spans):
            own = (end - start) - child.get(i, 0.0)
            self_s[layer] += own
            fn_self[name] += own
            calls[layer] += 1
            fn_calls[name] += 1
        axis_by_layer = Counter()
        for (name, layer), n in self.counts.items():
            calls[name.split(".")[0]] += n
            fn_calls[name] += n
            if name == "sequences.axis":
                axis_by_layer[layer] += n

        out = {}
        for layer in LAYERS:
            present = layer not in self.absent
            out[f"{layer}.calls"] = calls[layer] if present else None
            if layer != "numerics":
                out[f"{layer}.self_s"] = self_s[layer] if present else None

        def need(value, *names):
            return None if any(n in self.absent or n in self.broken_observers for n in names) else value

        distinct = self.observed["hyperrect.distinct_counts_sum"]
        hyper_axis = axis_by_layer["hyperrect"]
        out.update(
            {
                "sequences.axis_calls": need(fn_calls["sequences.axis"], "sequences.axis"),
                "sequences.counting_self_s": need(fn_self["sequences.counting"], "sequences.counting"),
                "sequences.tail_power_sum_calls": need(
                    fn_calls["sequences.tail_power_sum"], "sequences.tail_power_sum"
                ),
                "sequences.tail_power_sum_self_s": need(
                    fn_self["sequences.tail_power_sum"], "sequences.tail_power_sum"
                ),
                "hyperrect.effective_dim_sum": need(
                    self.observed["hyperrect.effective_dim_sum"], "hyperrect.exact_entropy"
                ),
                "hyperrect.distinct_counts_sum": need(distinct, "hyperrect.exact_entropy"),
                "hyperrect.axis_calls_per_distinct_count": need(
                    hyper_axis / distinct if distinct else 0.0,
                    "hyperrect.exact_entropy",
                    "sequences.axis",
                ),
                "asymptotics.scan_len_sum": need(axis_by_layer["asymptotics"], "sequences.axis"),
                "block_decomp.cut_dim_sum": need(
                    self.observed["block_decomp.cut_dim_sum"], "block_decomp.infinite_upper_bound"
                ),
                "block_decomp.radius_out_of_range": self.errors["block_decomp.radius_out_of_range"],
                "block_decomp.scan_cap": self.errors["block_decomp.scan_cap"],
                "finite_bounds.radius_out_of_range": self.errors["finite_bounds.radius_out_of_range"],
                "oracle.grid_points": need(
                    self.observed["oracle.grid_points"], "oracle.greedy_cover", "oracle.greedy_pack"
                ),
                "oracle.computed_distance_evals": need(
                    self.observed["oracle.computed_distance_evals"],
                    "oracle.greedy_cover",
                    "oracle.greedy_pack",
                ),
                "oracle.cover_count_sum": need(
                    self.observed["oracle.cover_count_sum"], "oracle.greedy_cover"
                ),
                "oracle.pack_count_sum": need(self.observed["oracle.pack_count_sum"], "oracle.greedy_pack"),
                "trace.wall_s": wall_s,
                "bench.overhead_s": wall_s - self.root_s(),
            }
        )
        out["oracle.small_grid_share"] = (
            self.oracle_small_s / self.oracle_s if self.oracle_s else 0.0
        )
        return out
