"""The measured process of one benchmark run.

Usage: python bench/worker.py WORKLOAD SEED SECONDS TRACE OUT_JSON
       python bench/worker.py WORKLOAD SEED --setup-only

``bench/run.py`` starts it with the BLAS and OpenMP thread counts pinned
to 1 and ``src`` on the import path. It imports cryomux, builds the
workload's seeded inputs (the set-up it times), then runs ops in a closed
loop with one caller: each op starts when the previous one returns. The
loop runs for SECONDS, and always at least the workload's ``count_ops``
ops, whose spans give the deterministic counts. With TRACE 1 every op runs
twice in a row, untraced and then traced; spans come from the traced run.
Raw op times in seconds, checks and per-layer metrics go to OUT_JSON.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import cryomux  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_metrics, write_spans  # noqa: E402


def _merge_child_spans(tracer: Tracer, path: str, op: int) -> None:
    """Append a traced child process's spans under op ``op``."""
    try:
        with open(path, encoding="utf-8") as handle:
            rows = json.load(handle)
    except (OSError, ValueError):
        return
    finally:
        if os.path.exists(path):
            os.remove(path)
    offset = len(tracer.spans)
    for row in rows:
        row[3] = row[3] + offset if row[3] >= 0 else -1
        row[4] = op
        tracer.spans.append(row)


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    outdir = os.path.abspath(os.path.join(".bench_out", name))
    os.makedirs(outdir, exist_ok=True)
    workload = workloads.WORKLOADS[name](seed, outdir)
    setup_s = time.perf_counter() - STARTED
    if sys.argv[3] == "--setup-only":
        print(json.dumps({"setup_s": setup_s}))
        return 0
    seconds, trace, out_path = float(sys.argv[3]), sys.argv[4] == "1", sys.argv[5]

    tracer = Tracer()
    if trace:
        tracer.install()
    times: list[float] = []
    traced_times: list[float] = []
    failed = 0
    errors: list[str] = []

    def attempt(k: int, traced: bool) -> float | None:
        nonlocal failed
        try:
            ok, elapsed = workload.run(k, traced)
        except Exception:  # an op that raises is a failed op; the loop goes on
            ok, elapsed = False, None
            if len(errors) < 5:
                errors.append(traceback.format_exc())
        if not ok:
            failed += 1
        return elapsed

    loop_start = time.perf_counter()
    deadline = loop_start + seconds
    k = 0
    while k < workload.count_ops or time.perf_counter() < deadline:
        elapsed = attempt(k, traced=False)
        if elapsed is not None:
            times.append(elapsed)
        if trace:
            tracer.op = k
            tracer.active = True
            elapsed = attempt(k, traced=True)
            tracer.active = False
            if getattr(workload, "spans_path", None):
                _merge_child_spans(tracer, workload.spans_path, k)
            if elapsed is not None:
                traced_times.append(elapsed)
        k += 1
    loop_s = time.perf_counter() - loop_start

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "workload": name,
        "seed": seed,
        "setup_s": setup_s,
        "loop_s": loop_s,
        "ops": k,
        "failed": failed,
        "attempted": k * (2 if trace else 1),
        "op_s": times,
        "traced_op_s": traced_times,
        # the CLI workload measures its child processes, the others this one
        "peak_rss_kb": children if name == "cli_session" else own,
        "checks": workload.checks(),
        "accuracy": workload.accuracy(),
        "errors": errors,
        "cryomux_file": os.path.abspath(cryomux.__file__),
        "versions": {
            "python": sys.version.split()[0],
            "numpy": sys.modules["numpy"].__version__,
            "scipy": getattr(sys.modules.get("scipy"), "__version__", None),
        },
    }
    result["cli_step_ms"] = (
        workload.step_ms if name == "cli_session" else {step: [] for step in workloads.CliSession.STEPS}
    )
    if trace:
        rows = tracer.export()
        write_spans(os.path.join(outdir, "spans.jsonl"), rows)
        result["layers"] = layer_metrics(rows, set(range(workload.count_ops)), len(traced_times))
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
