"""Every cryomux name that the benchmark under ``bench/`` binds still exists.

The benchmark wraps and calls functions by name, so a rename in ``src/``
breaks its runs without breaking any other test. This reads ``bench/`` as
source text and imports nothing from it.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"

#: names the tracer wraps directly rather than through its TRACED table
TRACER_HOOKS = [
    ("cryomux.chain", "_stage_response"),
    ("cryomux.muxsim", "mux_s_params"),
    ("cryomux.fitkit", "lm_minimize"),
]


def _tree(name: str) -> ast.Module:
    return ast.parse((BENCH / name).read_text(encoding="utf-8"))


def _tracer_table(name: str):
    """The literal value of the top-level assignment ``name = ...`` in tracer.py."""
    for node in _tree("tracer.py").body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"bench/tracer.py no longer assigns {name}")


def _workload_names() -> list[tuple[str, str]]:
    """(module, name) for every cryomux import and module attribute in workloads.py."""
    tree = _tree("workloads.py")
    aliases: dict[str, str] = {}
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cryomux"):
            for alias in node.names:
                names.append((node.module, alias.name))
                submodule = f"{node.module}.{alias.name}"
                if _is_module(submodule):
                    aliases[alias.asname or alias.name] = submodule
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in aliases:
                names.append((aliases[node.value.id], node.attr))
    return sorted(set(names))


def _is_module(name: str) -> bool:
    try:
        return importlib.util.find_spec(name) is not None
    except ModuleNotFoundError:
        return False


BOUND = sorted(
    {(module, fn) for module, fn, _ in _tracer_table("TRACED")}
    | set(TRACER_HOOKS)
    | set(_workload_names())
)


def test_the_bench_binds_the_names_this_test_expects():
    # a parse that found nothing would make the test below vacuous
    assert ("cryomux.chain", "read_trace") in BOUND
    assert ("cryomux.chain", "synthesize_sweep") in BOUND
    assert ("cryomux.fitkit", "fit_spectrum") in BOUND
    assert all(importlib.import_module(m) for m in _tracer_table("CRYOMUX_MODULES"))


@pytest.mark.parametrize("module, name", BOUND, ids=[f"{m}.{n}" for m, n in BOUND])
def test_bench_name_resolves(module, name):
    # as ``from module import name`` resolves it: an attribute, or a submodule
    found = hasattr(importlib.import_module(module), name) or _is_module(f"{module}.{name}")
    assert found, f"{module}.{name} is gone"
