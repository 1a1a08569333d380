"""Each subcommand imports only what it calls.

``loss-budget`` and ``stark`` are scalar math, so a fresh process running
them must not import numpy; ``mux-program`` needs the switch model but
neither the chain nor the fits; ``fit-spectrum`` and ``fit-power`` read
their CSV files and fit, without the chain or the switch model. A fresh
interpreter runs a list of steps in turn: the modules a step leaves in
``sys.modules`` stay there for the next, so the numpy-free steps run first,
and the fit steps, which load the fits, get an interpreter of their own.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import cryomux
from cryomux.csvfile import write_power_points, write_trace
from cryomux.fitkit import ComplexTrace, PowerSweepPoint
from cryomux.rfnet import FrequencyGrid

SCRIPT = """
import json, sys
from cryomux.cli import main

MODULES = ("numpy", "cryomux.chain", "cryomux.fitkit", "cryomux.muxsim")
out, steps = sys.argv[1], json.loads(sys.argv[2])
results = {}
for name, argv in steps:
    code = 0 if argv is None else main(argv)
    results[name] = {"code": code, **{m: m in sys.modules for m in MODULES}}
with open(out + "/imports.json", "w", encoding="utf-8") as handle:
    json.dump(results, handle)
"""


def run_steps(out: Path, steps: list) -> dict:
    """{step: {"code": exit code, module: loaded}} after each step, in one fresh interpreter."""
    env = dict(os.environ)
    src = str(Path(cryomux.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(out), json.dumps(steps)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads((out / "imports.json").read_text(encoding="utf-8"))


def test_scalar_subcommands_do_not_import_numpy(tmp_path):
    out = str(tmp_path)
    stark = ["stark", "--chi", "-2e6", "--nu-r", "5.569e9", "--nu-q", "6.58e9"]
    results = run_steps(tmp_path, [
        ("import", None),
        ("loss-budget", ["loss-budget", "-o", out + "/budget.json"]),
        ("stark forward", stark + ["--temp", "0.1", "-o", out + "/forward.json"]),
        ("stark inverse", stark + ["--delta-ac", "-4e6", "-o", out + "/inverse.json"]),
        ("mux-program", ["mux-program", "--port", "2", "-o", out + "/sparams.csv"]),
    ])
    for step in ("import", "loss-budget", "stark forward", "stark inverse"):
        assert results[step] == {
            "code": 0, "numpy": False, "cryomux.chain": False, "cryomux.fitkit": False,
            "cryomux.muxsim": False,
        }, step
    # the S-parameter export needs numpy, but not the chain or the fits
    assert results["mux-program"] == {
        "code": 0, "numpy": True, "cryomux.chain": False, "cryomux.fitkit": False,
        "cryomux.muxsim": True,
    }


def test_fit_subcommands_do_not_import_the_chain(tmp_path):
    f_r, q = 4.9e9, 1.2e4
    grid = FrequencyGrid.linspace(f_r * (1 - 5 / q), f_r * (1 + 5 / q), 201)
    s21 = 0.3 + 1.0 / (1.0 + 2j * q * (grid.points - f_r) / f_r)
    write_trace(str(tmp_path / "trace.csv"), ComplexTrace(grid, s21))
    n = np.logspace(-1.0, 6.0, 25)
    q_n = 1.0 / (8.34e-5 / np.sqrt(1.0 + n) + 1e-6)
    points = [PowerSweepPoint(nk, qk, 1e-3 * qk) for nk, qk in zip(n, q_n)]
    write_power_points(str(tmp_path / "points.csv"), points)
    out = str(tmp_path)
    results = run_steps(tmp_path, [
        ("fit-spectrum", ["fit-spectrum", out + "/trace.csv", "--power-dbm-at-sample", "-120",
                          "-o", out + "/spectrum.json"]),
        ("fit-power", ["fit-power", out + "/points.csv", "-o", out + "/power.json"]),
    ])
    for step in ("fit-spectrum", "fit-power"):
        assert results[step] == {
            "code": 0, "numpy": True, "cryomux.chain": False, "cryomux.fitkit": True,
            "cryomux.muxsim": False,
        }, step
