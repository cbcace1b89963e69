"""Benchmark entry point for ellentropy.

    python3 bench/run.py --workload deep-scan --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The library is used from ``src/``; it
needs no build step.  The workload runs in a fresh worker process with
BLAS/OpenMP threads pinned to 1.  With ``--trace 0`` the end-to-end
metrics of ``BENCHMARK.json`` are printed; with ``--trace 1`` a traced
run prints the per-layer metrics.  Earlier lines of standard output are
JSON reports (failures by cause, the output digest, the ``src/`` line
count, absent counters); the last line is the result object.

``setup_s`` is the median, over several fresh worker processes, of the
time from starting the process to its first timed query: interpreter
start, package import and the workload's warm-up.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 4  # plus the measuring worker itself: five set-up samples
DEADLINE_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    for var in THREAD_VARS:
        env[var] = "1"
    # byte-code is cached inside the checkout, never next to the sources
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(ROOT / ".bench_build" / "pycache")
    return env


class Worker:
    """A worker process; ``setup_s`` is the time until it reports ready."""

    def __init__(self, args, probe: bool, env: dict, deadline: float):
        cmd = [
            sys.executable,
            str(HERE / "worker.py"),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        if probe:
            cmd.append("--probe")
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT)
        self._killer = threading.Timer(max(1.0, deadline - time.monotonic()), self.proc.kill)
        self._killer.start()
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - start
        self.ready = line.strip() == b"ready"

    def finish(self):
        """Wait for exit; returns (exit code, remaining standard output)."""
        try:
            rest = self.proc.stdout.read()
            code = self.proc.wait()
        finally:
            self._killer.cancel()
            self.proc.stdout.close()
        return code, rest


def main() -> int:
    ap = argparse.ArgumentParser(description="ellentropy benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "ellentropy" / "__init__.py").is_file():
        print(f"no ellentropy sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    env = child_env()
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            probe = Worker(args, True, env, deadline)
            code, _ = probe.finish()
            if code != 0 or not probe.ready:
                print(f"set-up probe failed with exit code {code}", file=sys.stderr)
                return 1
            setups.append(probe.setup_s)
    worker = Worker(args, False, env, deadline)
    setups.append(worker.setup_s)
    code, rest = worker.finish()
    lines = rest.decode().strip().splitlines()
    if code != 0 or not worker.ready or not lines:
        print(f"workload process failed with exit code {code}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])

    values = dict(result["metrics"])
    values["setup_s"] = statistics.median(setups)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"metrics not produced: {missing}", file=sys.stderr)
        return 1
    absent = sorted(m["name"] for m in wanted if values[m["name"]] is None)
    report = dict(result["report"], absent_metrics=absent)
    if not args.trace:
        report["setup_samples_s"] = setups
    print(json.dumps(report))
    print(
        json.dumps(
            {
                "correct": result["wrong_outputs"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    m["name"]: {"value": 0 if values[m["name"]] is None else values[m["name"]], "unit": m["unit"]}
                    for m in wanted
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
