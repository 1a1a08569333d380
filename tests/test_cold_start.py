"""Each subcommand imports only what it calls.

``loss-budget`` and ``stark`` are scalar math, so a fresh process running
them must not import numpy, and ``mux-program`` needs the switch model but
neither the chain nor the fits. One fresh interpreter checks them in turn:
the modules a step leaves in ``sys.modules`` stay there for the next, so
the numpy-free steps run first.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import cryomux

SCRIPT = """
import json, sys
from cryomux.cli import main

def loaded():
    return {name: name in sys.modules for name in ("numpy", "cryomux.chain", "cryomux.fitkit")}

out = sys.argv[1]
stark = ["stark", "--chi", "-2e6", "--nu-r", "5.569e9", "--nu-q", "6.58e9"]
steps = [("import", None)]
steps += [
    ("loss-budget", ["loss-budget", "-o", out + "/budget.json"]),
    ("stark forward", stark + ["--temp", "0.1", "-o", out + "/forward.json"]),
    ("stark inverse", stark + ["--delta-ac", "-4e6", "-o", out + "/inverse.json"]),
    ("mux-program", ["mux-program", "--port", "2", "-o", out + "/sparams.csv"]),
]
results = {}
for name, argv in steps:
    code = 0 if argv is None else main(argv)
    results[name] = {"code": code, **loaded()}
with open(out + "/imports.json", "w", encoding="utf-8") as handle:
    json.dump(results, handle)
"""


def test_scalar_subcommands_do_not_import_numpy(tmp_path):
    env = dict(os.environ)
    src = str(Path(cryomux.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    results = json.loads((tmp_path / "imports.json").read_text(encoding="utf-8"))
    for step in ("import", "loss-budget", "stark forward", "stark inverse"):
        assert results[step] == {
            "code": 0, "numpy": False, "cryomux.chain": False, "cryomux.fitkit": False
        }, step
    # the S-parameter export needs numpy, but not the chain or the fits
    assert results["mux-program"] == {
        "code": 0, "numpy": True, "cryomux.chain": False, "cryomux.fitkit": False
    }
