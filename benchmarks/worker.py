"""One benchmark worker process: set-up, operations, then oracles.

``run.py`` starts a fresh worker for each sample so that set-up and the
first operation are paid in a new interpreter, as every CLI invocation
pays them. Usage::

    python3 worker.py MODE RESULT T0_NS SECONDS MAX_SECONDS FIRST [SPANS]

MODE is ``import`` (set-up only), ``loop`` (one segment of a closed
loop with one client) or ``trace`` (untraced and traced passes over the
pool, alternating). In ``loop`` mode SECONDS is the segment's wall-clock
budget counted from T0_NS, so set-up and the first operation are inside
it. FIRST is the pool index of the first operation. The working
directory holds the workload's ``manifest.json`` and inputs. T0_NS is
``time.monotonic_ns()`` read by the parent just before it started this
process. Only the standard library is imported before set-up is timed;
the checkout's ``src`` directory comes first on the path.
"""

import io
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
MIN_TIMED_OPS = 2  # per loop segment, after the first operation


def _setup(t0_ns: int):
    sys.path.insert(0, str(SRC))
    import chiralwalk
    from chiralwalk import cli

    cli.build_parser()
    setup_s = (time.monotonic_ns() - t0_ns) / 1e9
    if Path(chiralwalk.__file__).resolve().parent != SRC / "chiralwalk":
        raise SystemExit(f"imported {chiralwalk.__file__}, not the checkout's package")
    return cli, setup_s


def run_op(cli, argv: list) -> tuple[float, int, str, str]:
    """Time one in-process CLI invocation; return (seconds, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # the loop goes on; the operation counts as failed
        import traceback

        code = -1
        err.write(traceback.format_exc())
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue()


def main(argv: list) -> None:
    mode, result_path, t0_ns, seconds, max_seconds, first = argv[:6]
    cli, setup_s = _setup(int(t0_ns))
    seconds, max_seconds, first = float(seconds), float(max_seconds), int(first)
    if mode == "import":
        Path(result_path).write_text(f'{{"setup_s": {setup_s!r}}}', encoding="utf-8")
        return

    # Imported after set-up is timed: workloads and tracing import numpy,
    # whose import time belongs to chiralwalk's set-up.
    import gzip
    import json
    import resource

    import tracing
    import workloads

    manifest = json.loads(Path(workloads.MANIFEST).read_text(encoding="utf-8"))
    pool = manifest["ops"]
    outputs = []  # (pool index, exit code, stdout, stderr), checked after timing

    def timed(index: int) -> float:
        elapsed, *output = run_op(cli, pool[index % len(pool)]["argv"])
        outputs.append((index % len(pool), *output))
        return elapsed

    began = time.perf_counter()
    result = {"setup_s": setup_s, "cold_op_s": timed(first)}

    if mode == "loop":
        times, start = [], time.perf_counter()
        # Another operation starts only if, at the last one's length, more
        # than half of it fits in the budget, so segments end on time on average.
        end_ns, last = int(t0_ns) + int(seconds * 1e9), result["cold_op_s"]
        while time.monotonic_ns() + last * 0.5e9 < end_ns or len(times) < MIN_TIMED_OPS:
            if time.perf_counter() - began > max_seconds:
                break
            last = timed(first + 1 + len(times))
            times.append(last)
        result["loop_s"] = time.perf_counter() - start
        result["times"] = times
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    elif mode == "trace":
        # Untraced and traced passes over the whole pool alternate, so both
        # halves see the same machine and time the same inputs, and the
        # per-operation counts do not depend on the clock. Another pair of
        # passes starts only if it would end nearer to the budget.
        tracer = tracing.Tracer()
        untraced, traced, start, pairs = [], [], time.perf_counter(), 0
        while not pairs or (time.perf_counter() - began < max_seconds
                            and (time.perf_counter() - start) * (1 + 0.5 / pairs) < seconds):
            untraced += [timed(index) for index in range(len(pool))]
            undo = tracing.install(tracer)
            try:
                for index in range(len(pool)):
                    tracer.op = len(traced)
                    traced.append(timed(index))
            finally:
                undo()
            pairs += 1
        result["untraced_times"] = untraced
        result["traced_times"] = traced
        result["layer"] = tracing.layer_metrics(tracer.spans, len(traced))
        result["span_count"] = len(tracer.spans)
        names = sorted({record[tracing.NAME] for record in tracer.spans})
        number = {name: k for k, name in enumerate(names)}
        with gzip.open(argv[6], "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump({"names": names,
                       "fields": ["name", "parent", "start_ns", "end_ns", "op", "work"],
                       "spans": [[number[r[0]], *r[1:]] for r in tracer.spans]}, fh)

    problems = []
    for index, code, out, err in outputs:
        found = workloads.check_output(manifest["workload"], pool[index]["facts"], code, out)
        if found:
            problems.append({"pool_index": index, "argv": pool[index]["argv"],
                             "problems": found[:5], "stderr": err[-500:]})
    result["attempted"] = len(outputs)
    result["failed"] = len(problems)
    result["problems"] = problems[:10]
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
