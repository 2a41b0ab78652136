"""Benchmark of the chiralwalk command line: seeded workloads, oracles, traces.

Usage, from the root of a checkout::

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

The workloads are defined in ``workloads.py`` and listed with their
metrics in ``BENCHMARK.json``. Inputs are generated from the seed into a
scratch directory under ``benchmarks/_work``. Each sample then runs in a
fresh worker process (``worker.py``) with BLAS pinned to
:data:`BLAS_THREADS` threads, driving ``chiralwalk.cli.main(argv)``
in-process in a closed loop with one client, and every output is checked
by the workload's oracle.

``--trace 0`` measures the end-to-end metrics: a closed loop of
``--seconds`` split into :data:`SEGMENTS` fresh processes run in turn,
each timing its own set-up and first operation; the operation times are
pooled. ``--trace 1``
measures the per-layer metrics in one process, from whole passes over
the input pool that alternate between untraced and traced.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. A run record with the raw
samples, machine facts and a calibration probe goes to
``benchmarks/records``; traced runs also write their spans there.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "chiralwalk"
# One BLAS thread: on a small shared machine a second thread mostly adds
# contention noise, and the recorded count makes runs comparable.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SEGMENTS = 16  # fresh worker processes, in sequence, per end-to-end run
RUN_LIMIT_S = 170.0  # every run ends well inside the 180 s allowed


class BenchmarkError(Exception):
    """The benchmark cannot produce a result (not an operation failure)."""


def ref_svd_s() -> float:
    """Calibration probe: median time of a fixed seeded 192x192 complex SVD."""
    import numpy as np

    rng = np.random.default_rng(1810_00371)
    a = rng.standard_normal((192, 192)) + 1j * rng.standard_normal((192, 192))
    times = []
    for _ in range(5):
        start = time.perf_counter()
        np.linalg.svd(a)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def loc_counts(modules) -> dict[str, int]:
    """Non-blank, non-comment lines of each named package module."""
    counts = {}
    for module in modules:
        lines = (PACKAGE / f"{module}.py").read_text(encoding="utf-8").splitlines()
        counts[f"loc.{module}"] = sum(
            1 for line in lines if line.strip() and not line.strip().startswith("#"))
    return counts


def source_facts() -> dict:
    """The commit when the checkout is a git work tree, and a hash of the sources."""
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def tail(times: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten operations beyond it.

    Returns (value, percentile, operations beyond). With ten or fewer
    operations no such percentile exists and the maximum is returned.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


class Runner:
    """Starts worker processes in a work directory under one overall deadline."""

    def __init__(self, work: Path, deadline: float):
        self.work, self.deadline = work, deadline
        self.env = dict(os.environ, **{name: str(BLAS_THREADS) for name in BLAS_ENV})
        self.count = 0

    def worker(self, mode: str, seconds: float = 0.0, first: int = 0,
               spans: Path | None = None) -> dict:
        self.count += 1
        result = self.work / f"result{self.count}.json"
        remaining = self.deadline - time.monotonic()
        if remaining < 5.0:
            raise BenchmarkError("out of time before starting a worker")
        argv = [sys.executable, str(HERE / "worker.py"), mode, str(result),
                str(time.monotonic_ns()), str(seconds), str(max(1.0, remaining - 10.0)),
                str(first)] + ([str(spans)] if spans else [])
        try:
            done = subprocess.run(argv, cwd=self.work, env=self.env, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchmarkError(f"worker {mode} timed out") from exc
        if done.returncode != 0 or not result.exists():
            raise BenchmarkError(f"worker {mode} exited {done.returncode}: {done.stderr[-2000:]}")
        return json.loads(result.read_text(encoding="utf-8"))


def end_to_end(runner: Runner, seconds: float, pool: int) -> tuple[dict, dict, list]:
    # The closed loop is split over fresh processes run one after another,
    # each timing its own set-up and first operation, so those samples are
    # spread over the whole run as the loop's operations are, and see the
    # same machine. Together the segments go through the pool in order.
    samples, next_op = [], 0
    for _ in range(SEGMENTS):
        sample = runner.worker("loop", seconds=seconds / SEGMENTS, first=next_op % pool)
        next_op += 1 + len(sample["times"])
        samples.append(sample)
    times = [t for s in samples for t in s["times"]]
    cold = [s["cold_op_s"] for s in samples]
    loop_s = sum(s["loop_s"] for s in samples)
    tail_value, tail_pct, beyond = tail(times)
    # On a small shared host, other tenants slow a CPU by about 1.5x in
    # bursts, for a share of the time that drifts over minutes. Operation
    # times then gather at a fast and a slow level. The fastest operation
    # and the tail sit at one level each and stay put; the median and the
    # mean follow the drifting share, so they are recorded, not bounded.
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in samples),
        "cold_op_min_s": min(cold),
        "op_min_s": min(times),
        "op_tail_s": tail_value,
        "peak_rss_mb": max(s["peak_rss_kb"] for s in samples) / 1024.0,
        "cold_op_s": statistics.median(cold),
        "op_p50_s": statistics.median(times),
        "ops_per_s": len(times) / loop_s,
    }
    raw = {
        "setup_s": [s["setup_s"] for s in samples],
        "cold_op_s": cold,
        "op_s": times,
        "op_count": len(times),
        "segment_op_counts": [len(s["times"]) for s in samples],
        "loop_s": loop_s,
        "tail_percentile": tail_pct,
        "tail_ops_beyond": beyond,
    }
    return metrics, raw, samples


def per_layer(runner: Runner, seconds: float, spans: Path) -> tuple[dict, dict, list]:
    import tracing

    traced = runner.worker("trace", seconds=seconds, spans=spans)
    metrics = dict(traced["layer"])
    metrics.update(loc_counts(tracing.MODULES))
    metrics["trace.overhead_ratio"] = (statistics.median(traced["traced_times"])
                                       / statistics.median(traced["untraced_times"]))
    raw = {
        "cold_op_s": traced["cold_op_s"],
        "untraced_op_s": traced["untraced_times"],
        "traced_op_s": traced["traced_times"],
        "span_count": traced["span_count"],
        "spans_file": str(spans.relative_to(ROOT)),
    }
    return metrics, raw, [traced]


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args: argparse.Namespace) -> dict:
    started = time.monotonic()
    if not (PACKAGE / "cli.py").is_file():
        raise BenchmarkError(f"no chiralwalk sources under {PACKAGE.parent}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.seconds <= 0:
        raise BenchmarkError("--seconds must be positive")

    for name in BLAS_ENV:
        os.environ[name] = str(BLAS_THREADS)
    import numpy as np

    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise BenchmarkError(f"unknown workload {args.workload!r}; "
                             f"choose from {sorted(workloads.WORKLOADS)}")
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}"
    records = HERE / "records"
    records.mkdir(exist_ok=True)
    work = HERE / "_work" / label
    try:
        pool = workloads.generate(args.workload, args.seed, work)
        probe_start = ref_svd_s()
        runner = Runner(work, started + RUN_LIMIT_S)
        runner.worker("import")  # untimed: fills the file cache and bytecode caches
        if args.trace:
            metrics, raw, samples = per_layer(runner, args.seconds,
                                              records / f"{label}-spans.json.gz")
        else:
            metrics, raw, samples = end_to_end(runner, args.seconds, len(pool))
        probe_end = ref_svd_s()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            work.parent.rmdir()

    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        raise BenchmarkError(f"metrics not measured: {missing}")
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **source_facts(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine.ref_svd_s": {"start": probe_start, "end": probe_end},
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "problems": [p for s in samples for p in s["problems"]][:10],
        "metrics": metrics,
        "raw": raw,
        "wall_s": time.monotonic() - started,
    }
    (records / f"{label}.json").write_text(json.dumps(record, indent=1) + "\n",
                                           encoding="utf-8")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = run(args)
    except (BenchmarkError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
