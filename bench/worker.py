"""One workload process of the benchmark, started by ``run.py``.

It imports ``ellentropy``, warms the workload up, prints ``ready`` and
then either exits (``--probe``, a set-up time sample) or runs the
workload and prints one JSON object with its measurements.

``--seconds`` sets the amount of work, not a deadline: the workload's
``rounds_per_20s`` scaled by ``--seconds / 20``.  Every commit then runs
the same inputs for a seed; at ``--seconds 20`` they took 20 to 30 s on a
2-core VM at the first benchmarked commit.

Untraced run: those rounds, each query timed.  Traced run: half as many
rounds untraced, then the same rounds again with every library function
wrapped by ``Tracer``.  The per-layer numbers come from the second pass;
the ratio of the two passes' query times is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import Tracer
from workloads import WORKLOADS, CliBatch, Recorder

ROOT = Path(__file__).resolve().parent.parent
HARD_LIMIT_S = 120.0  # stop starting rounds so the run ends well within 180 s
FAILURE_CAUSES = (
    "radius_out_of_range",
    "scan_cap_exceeded",
    "non_compact_on_compact_input",
    "output_check",
    "bad_exit",
    "unparsable_stdout",
    "other",
)


def run_rounds(workload, rec, rounds, stop=None):
    """Rounds 0 .. stop-1 of ``rounds``; fewer if ``HARD_LIMIT_S`` passes."""
    start = time.perf_counter()
    for r in range(rounds if stop is None else stop):
        rec.round = r
        for fn, args in workload.round(r, rounds):
            fn(rec, *args)
        if time.perf_counter() - start >= HARD_LIMIT_S:
            return r + 1, time.perf_counter() - start
    return rounds, time.perf_counter() - start


def harrell_davis(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile of ``values``.

    A Beta(p(n+1), (1-p)(n+1))-weighted mean of all order statistics.
    Where a few hundred latencies spread over several decades, a single
    order statistic jumps between distant neighbours from run to run;
    this weighted mean does not.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(x):
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp(log_norm + (a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x))

    panels = 8  # Simpson's rule on each interval [i/n, (i+1)/n]
    h = 1.0 / (n * panels)
    total = weights = 0.0
    for i, x in enumerate(xs):
        lo = i / n
        f = [density(lo + j * h) for j in range(panels + 1)]
        w = h / 3.0 * (f[0] + f[-1] + 4.0 * sum(f[1:-1:2]) + 2.0 * sum(f[2:-1:2]))
        total += w * x
        weights += w
    return total / weights


def _src_lines() -> int:
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((ROOT / "src" / "ellentropy").glob("*.py"))
    )


def _peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def _by_label(rec, label):
    return [t for t, lab in zip(rec.latencies, rec.query_labels) if lab == label]


def _report(rec, rounds, wall, name):
    return {
        "workload": name,
        "rounds": rounds,
        "wall_s": wall,
        "samples": rec.attempted,
        "queries_by_function": dict(sorted(rec.labels.items())),
        "median_ms_by_function": {
            label: 1000.0 * statistics.median(_by_label(rec, label)) for label in sorted(rec.labels)
        },
        "total_s_by_function": {label: sum(_by_label(rec, label)) for label in sorted(rec.labels)},
        "failed_by_cause": dict(sorted(rec.failures.items())),
        "failed_ratio": rec.failed / rec.attempted,
        "wrong_outputs": rec.wrong_outputs,
        "exact_digest": rec.digest(),
        "src_lines": _src_lines(),
    }


def untraced(workload, rounds):
    rec = Recorder()
    rounds, wall = run_rounds(workload, rec, rounds)
    lat = rec.latencies
    if not rec.ratios:
        raise SystemExit("no bound/exact ratio was measured")
    metrics = {
        "throughput_qps": (rec.attempted - rec.failed) / sum(lat),
        "latency_p50_ms": 1000.0 * harrell_davis(lat, 0.5),
        "latency_p90_ms": 1000.0 * harrell_davis(lat, 0.9),
        "ok_ratio": 1.0 - rec.failed / rec.attempted,
        "peak_rss_mb": _peak_rss_mb(children=isinstance(workload, CliBatch)),
        "bound_over_exact_p50": harrell_davis(rec.ratios, 0.5),
    }
    report = _report(rec, rounds, wall, workload.name)
    return rec, metrics, report


def _cli_import_s() -> float:
    code = "import time; t = time.perf_counter(); import ellentropy.cli; print(time.perf_counter() - t)"
    samples = []
    for _ in range(3):
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, check=True, timeout=60, cwd=ROOT
        )
        samples.append(float(out.stdout))
    return statistics.median(samples)


def traced(workload, rounds):
    cli = isinstance(workload, CliBatch)
    if cli:
        workload.mode = "both"
    first = Recorder()
    done, wall_a = run_rounds(workload, first, rounds)
    if cli:
        workload.mode = "in-process"  # only in-process work is traced
    tracer = Tracer()
    tracer.install()
    second = Recorder(tracer=tracer)
    try:
        _, wall_b = run_rounds(workload, second, rounds, stop=done)
    finally:
        tracer.uninstall()
    layer = tracer.layer_metrics(wall_b)
    layer.update(
        {
            # the same queries, traced over untraced; the untraced side of
            # cli-batch is cli.main in this process, as in the traced pass
            "trace.overhead_ratio": second.wall_s / (first.cli_main_s if cli else first.wall_s),
            "cli.import_s": _cli_import_s() if cli else 0.0,
            "cli.overhead_s": first.cli_overhead_s,
            "cli.stdout_bytes": first.cli_stdout_bytes,
            "cli.bad_exit": first.cli_bad_exit,
            "failed_ratio": first.failed / first.attempted,
        }
    )
    for cause in FAILURE_CAUSES:
        layer[f"failed.{cause}"] = first.failures[cause]
    report = _report(first, done, wall_a, workload.name)
    report["traced_spans"] = len(tracer.spans)
    report["spans_by_layer"] = tracer.spans_by_layer()
    report["root_span_s"] = tracer.root_s()
    report["traced_query_s"] = second.wall_s
    report["spans_file"] = _write_spans(tracer, workload.name)
    return first, layer, report


def _write_spans(tracer, name) -> str:
    out = ROOT / ".bench_build" / "trace" / f"{name}-{os.getpid()}.tsv"
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", encoding="utf-8") as fh:
        fh.write("name\tstart\tend\tparent\tquery_id\n")
        for name_, _, start, end, parent, qid in tracer.spans:
            fh.write(f"{name_}\t{start!r}\t{end!r}\t{parent}\t{qid}\n")
    return str(out.relative_to(ROOT))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help="exit after warm-up")
    args = ap.parse_args()

    import ellentropy

    cls = WORKLOADS[args.workload]
    workload = cls(ellentropy, args.seed, root=str(ROOT)) if cls is CliBatch else cls(ellentropy, args.seed)
    warm = Recorder()
    for fn, fargs in workload.warm_up():
        fn(warm, *fargs)
    print("ready", flush=True)
    if args.probe:
        return 0

    share = 0.5 if args.trace else 1.0  # a traced run makes two passes
    rounds = max(1, math.ceil(workload.rounds_per_20s * share * args.seconds / 20.0))
    run = traced if args.trace else untraced
    rec, metrics, report = run(workload, rounds)
    print(
        json.dumps(
            {
                "attempted": rec.attempted,
                "failed": rec.failed,
                "wrong_outputs": rec.wrong_outputs,
                "metrics": metrics,
                "report": report,
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
