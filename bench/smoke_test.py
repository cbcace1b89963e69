"""Smoke test of the benchmark itself, at minimal size (``--seconds 1``).

    python3 -m pytest -q bench/smoke_test.py      # or: python3 bench/smoke_test.py

Checks that every metric of BENCHMARK.json is printed with its unit, that
layer self times plus the benchmark's own overhead add up to the traced
wall time, that the outermost spans fit inside the timed queries, that a
renamed library function turns its counters absent instead of failing the
traced run, and that the benchmark refuses to run without the library
sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, trace, cwd=ROOT):
    cmd = [
        sys.executable, str(Path(cwd) / "bench" / "run.py"), "--workload", workload,
        "--seed", "7", "--seconds", "1", "--trace", str(trace),
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    return result


def _assert_metrics(result, wanted):
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in wanted]
    for m in wanted:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), m["name"]


def test_end_to_end_metrics_printed_with_units():
    for workload in WORKLOADS:
        result = _result(_run(workload, 0))
        _assert_metrics(result, SPEC["end_to_end"])
        for m in SPEC["end_to_end"]:
            assert result["metrics"][m["name"]]["value"] > 0, (workload, m["name"])


def test_traced_run_accounts_for_its_wall_time():
    for workload in WORKLOADS:
        proc = _run(workload, 1)
        result = _result(proc)
        report = json.loads(proc.stdout.strip().splitlines()[-2])
        _assert_metrics(result, SPEC["per_layer"])
        values = {k: v["value"] for k, v in result["metrics"].items()}
        layers = sum(v for k, v in values.items() if k.partition(".")[2] == "self_s")
        total = layers + values["bench.overhead_s"]
        assert math.isclose(total, values["trace.wall_s"], rel_tol=1e-6), (workload, total)
        assert values["bench.overhead_s"] >= 0, workload
        assert values["trace.overhead_ratio"] > 0
        # every outermost span lies inside a timed query, and the queries'
        # work is almost all library work
        root, queries = report["root_span_s"], report["traced_query_s"]
        assert 0.5 * queries < root <= queries, (workload, root, queries)
        for layer, spans in report["spans_by_layer"].items():
            assert spans > 0 and values[f"{layer}.self_s"] > 0, (workload, layer)


def test_renamed_function_reports_counters_absent():
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import ellentropy
    from ellentropy import sequences
    from tracer import Tracer
    from workloads import DeepScan, Recorder

    class Moved:
        # still callable by the library, but no longer a module function,
        # as if axis had moved onto the model classes
        def __call__(self, model, n):
            return original(model, n)

    original = sequences.axis
    sequences.axis = Moved()
    tracer = Tracer()
    try:
        tracer.install()
        workload = DeepScan(ellentropy, seed=1)
        rec = Recorder(tracer=tracer)
        for fn, args in workload.warm_up():
            fn(rec, *args)
    finally:
        tracer.uninstall()
        sequences.axis = original
    metrics = tracer.layer_metrics(wall_s=1.0)
    assert "sequences.axis" in tracer.absent
    assert metrics["sequences.axis_calls"] is None
    assert metrics["asymptotics.scan_len_sum"] is None
    assert metrics["hyperrect.effective_dim_sum"] > 0
    assert rec.failed == 0


def test_refuses_to_run_without_library_sources():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(WORKLOADS[0], 0, cwd=tmp)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
