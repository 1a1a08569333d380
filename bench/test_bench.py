"""Checks of the benchmark itself; run with ``python -m pytest bench`` from the repo root.

They start real benchmark runs (about two minutes in all), which is why
they live outside the tier-1 ``testpaths``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import run  # noqa: E402

WORKLOADS = sorted(run.load_workloads())


def _bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def _counts(workload: str) -> dict[str, float]:
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {
        name: metric["value"]
        for name, metric in result["metrics"].items()
        if metric["unit"] in ("count", "ratio")
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = _counts(workload), _counts(workload)
    assert first == second
    assert any(value > 0 for value in first.values())


def test_counts_named_for_claims_are_consistent():
    counts = _counts("power_series")
    assert all(value >= 0.0 for value in counts.values())
    # every series builds the mux and fits every power
    assert counts["muxsim.mux_s_params.calls"] > 0
    assert counts["fitkit.residual.calls"] > 0 and counts["fitkit.jacobian.calls"] > 0
    assert 0.0 < counts["muxsim.mux_s_params.branch_use_ratio"] <= 1.0
    assert 0.0 < counts["fitkit.lm.accept_ratio"] <= 1.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench("--workload", "fit_batch", "--seconds", "1", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tail_keeps_ten_samples_beyond():
    values = [float(v) for v in range(100)]
    value, percentile, beyond = run.tail(values)
    assert (value, beyond) == (89.0, 10)
    assert percentile == 90.0
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_every_workload_in_benchmark_json_is_implemented():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    assert WORKLOADS == sorted(workloads.WORKLOADS)


def test_strict_json_rejects_non_finite_tokens():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    assert workloads.strict_json('{"a": 1.5}') == {"a": 1.5}
    for text in ('{"a": NaN}', '{"a": Infinity}', '{"a": -Infinity}'):
        with pytest.raises(ValueError):
            workloads.strict_json(text)
