"""Span tracing of cryomux layer boundaries, installed from outside ``src/``.

The tracer replaces each traced function by a wrapper in every cryomux
module namespace that binds it, so calls made through ``from .x import f``
names are caught as well as module-attribute calls. A wrapper records one
span ``[name, start, end, parent, op, extra]`` in memory; spans are written
out and reduced to per-layer metrics after the run. Wrappers record only
while ``active`` is true, so inputs built with the same functions outside
an op leave no spans.
"""

from __future__ import annotations

import importlib
import json
import time

import numpy as np

CRYOMUX_MODULES = (
    "cryomux.rfnet",
    "cryomux.muxsim",
    "cryomux.resonator",
    "cryomux.lossbudget",
    "cryomux.fitkit",
    "cryomux.chain",
    "cryomux.cli",
)

#: (module, function, span name); rfnet's element constructors share one name
TRACED = (
    ("cryomux.rfnet", "cascade", "rfnet.cascade"),
    ("cryomux.rfnet", "abcd_to_s", "rfnet.abcd_to_s"),
    ("cryomux.rfnet", "s_to_abcd", "rfnet.s_to_abcd"),
    ("cryomux.rfnet", "series_element", "rfnet.elements"),
    ("cryomux.rfnet", "shunt_element", "rfnet.elements"),
    ("cryomux.rfnet", "lumped", "rfnet.elements"),
    ("cryomux.rfnet", "attenuator", "rfnet.elements"),
    ("cryomux.resonator", "s21_physics", "resonator.s21_physics"),
    ("cryomux.resonator", "purcell", "resonator.purcell"),
    ("cryomux.lossbudget", "qi_inverse", "lossbudget.qi_inverse"),
    ("cryomux.lossbudget", "budget_total", "lossbudget.budget_total"),
    ("cryomux.chain", "synthesize_sweep", "chain.synthesize_sweep"),
    ("cryomux.chain", "power_at_sample", "chain.power_at_sample"),
    ("cryomux.chain", "solve_photon_number", "chain.solve_photon_number"),
    ("cryomux.chain", "write_trace", "chain.csv_write"),
    ("cryomux.chain", "read_trace", "chain.csv_read"),
    ("cryomux.fitkit", "fit_spectrum", "fitkit.fit_spectrum"),
    ("cryomux.fitkit", "estimate_initial", "fitkit.estimate_initial"),
    ("cryomux.fitkit", "fit_power_sweep", "fitkit.fit_power_sweep"),
    ("cryomux.fitkit", "stark_forward", "fitkit.stark_forward"),
    ("cryomux.fitkit", "_fd_jacobian", "fitkit.jacobian"),
)

STAGE_KINDS = {
    "AttenuatorStage": "attenuator",
    "MuxStage": "mux",
    "SampleStage": "sample",
    "BandpassStage": "bandpass",
    "AmplifierStage": "amplifier",
}

#: span names reported with ``calls`` and ``self_ms``
TIMED_LAYERS = (
    "rfnet.cascade",
    "rfnet.abcd_to_s",
    "rfnet.s_to_abcd",
    "rfnet.elements",
    "muxsim.mux_s_params",
    "resonator.s21_physics",
    "lossbudget.budget_total",
    "chain.synthesize_sweep",
    "chain.power_at_sample",
    "chain.solve_photon_number",
    "chain.csv_write",
    "chain.csv_read",
    "fitkit.fit_spectrum",
    "fitkit.estimate_initial",
    "fitkit.fit_power_sweep",
    "fitkit.stark_forward",
    "fitkit.lm_minimize",
    "fitkit.residual",
    "fitkit.jacobian",
)
#: span names reported with ``calls`` only
COUNTED_LAYERS = ("resonator.purcell", "lossbudget.qi_inverse")
#: counts normalised per fit (per lm_minimize call) instead of per op
PER_FIT = ("fitkit.residual", "fitkit.jacobian")

NAME, START, END, PARENT, OP, EXTRA = range(6)


class _ReadTracking(tuple):
    """Branch tuple that notes which branch indices the caller reads."""

    def __getitem__(self, index):
        self.read.add(index)
        return tuple.__getitem__(self, index)

    def __iter__(self):
        self.read.update(range(len(self)))
        return tuple.__iter__(self)


class Tracer:
    """Records spans at cryomux layer boundaries while ``active``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.active = False

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self.stack.pop()

    def _plain(self, name: str, fn):
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)

        return wrapper

    def _stage(self, fn):
        def wrapper(stage, grid):
            if not self.active:
                return fn(stage, grid)
            kind = STAGE_KINDS.get(type(stage).__name__, type(stage).__name__)
            rec = self._open(f"chain.stage.{kind}")
            try:
                return fn(stage, grid)
            finally:
                self._close(rec)

        return wrapper

    def _mux(self, fn):
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = self._open("muxsim.mux_s_params")
            try:
                branches = _ReadTracking(fn(*args, **kwargs))
            finally:
                self._close(rec)
            branches.read = set()
            rec[EXTRA] = branches
            return branches

        return wrapper

    def _residual(self, fn, lm_index: int):
        """Residual callable handed to one lm_minimize call.

        Calls made directly by the minimizer (not inside the Jacobian) are
        the initial evaluation and the trial steps. A trial is accepted by
        the minimizer's rule exactly when its cost does not exceed the best
        cost so far, so ``extra`` marks it 1 (accepted) or 0 (rejected).
        """
        best = [None]

        def wrapper(x):
            rec = self._open("fitkit.residual")
            try:
                out = fn(x)
            finally:
                self._close(rec)
            if rec[PARENT] == lm_index:
                r = np.asarray(out, dtype=float).ravel()
                cost = 0.5 * float(r @ r) if np.all(np.isfinite(r)) else None
                if best[0] is None:
                    best[0] = cost
                elif cost is not None and cost <= best[0]:
                    best[0] = cost
                    rec[EXTRA] = 1
                else:
                    rec[EXTRA] = 0
            return out

        return wrapper

    def _lm(self, fn):
        def wrapper(residuals, *args, **kwargs):
            if not self.active:
                return fn(residuals, *args, **kwargs)
            rec = self._open("fitkit.lm_minimize")
            index = len(self.spans) - 1
            try:
                result = fn(self._residual(residuals, index), *args, **kwargs)
            finally:
                self._close(rec)
            rec[EXTRA] = result.iterations
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function in every cryomux module that binds it."""
        modules = {m: importlib.import_module(m) for m in CRYOMUX_MODULES}
        targets = []
        for mod, fn, name in TRACED:
            original = getattr(modules[mod], fn)
            targets.append((original, self._plain(name, original)))
        chain = modules["cryomux.chain"]
        fitkit = modules["cryomux.fitkit"]
        muxsim = modules["cryomux.muxsim"]
        targets.append((chain._stage_response, self._stage(chain._stage_response)))
        targets.append((muxsim.mux_s_params, self._mux(muxsim.mux_s_params)))
        targets.append((fitkit.lm_minimize, self._lm(fitkit.lm_minimize)))
        by_id = {id(orig): wrapped for orig, wrapped in targets}
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                wrapped = by_id.get(id(value))
                if wrapped is not None:
                    setattr(module, attr, wrapped)

    # -- output ------------------------------------------------------------

    def export(self) -> list[list]:
        """Spans as JSON-ready rows; ``extra`` reduced to a plain value."""
        rows = []
        for rec in self.spans:
            extra = rec[EXTRA]
            if isinstance(extra, _ReadTracking):
                extra = [len(extra), len(extra.read)]
            rows.append([rec[NAME], rec[START], rec[END], rec[PARENT], rec[OP], extra])
        return rows


def write_spans(path: str, rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")


def self_times(rows: list[list]) -> list[float]:
    """Per-span duration minus the time covered by its child spans, in s.

    ``parent`` indices refer to rows of the same list.
    """
    child = [0.0] * len(rows)
    for row in rows:
        if row[PARENT] >= 0:
            child[row[PARENT]] += row[END] - row[START]
    return [row[END] - row[START] - c for row, c in zip(rows, child)]


def layer_metrics(rows: list[list], count_ops: set[int], n_timed_ops: int) -> dict[str, float]:
    """Reduce spans to the per-layer metrics.

    ``calls`` and the ratios come from the spans of ``count_ops`` (a fixed
    set of ops, so they repeat exactly for a seed); ``self_ms`` is the mean
    self time per traced op over all ``n_timed_ops`` traced ops.
    """
    selfs = self_times(rows)
    self_total: dict[str, float] = {}
    calls: dict[str, int] = {}
    lm_iterations = 0
    trials = accepted = 0
    built = read = 0
    for row, own in zip(rows, selfs):
        name = row[NAME]
        self_total[name] = self_total.get(name, 0.0) + own
        if row[OP] not in count_ops:
            continue
        calls[name] = calls.get(name, 0) + 1
        extra = row[EXTRA]
        if extra is None:  # a call that raised, or a residual outside the trials
            continue
        if name == "fitkit.lm_minimize":
            lm_iterations += extra
        elif name == "fitkit.residual":
            trials += 1
            accepted += extra
        elif name == "muxsim.mux_s_params":
            built += extra[0]
            read += extra[1]

    n_count = max(len(count_ops), 1)
    n_fits = calls.get("fitkit.lm_minimize", 0)
    out: dict[str, float] = {}

    def per_op_ms(name: str) -> float:
        return 1e3 * self_total.get(name, 0.0) / max(n_timed_ops, 1)

    for name in TIMED_LAYERS + COUNTED_LAYERS:
        n = calls.get(name, 0)
        if name in PER_FIT:
            out[f"{name}.calls"] = n / n_fits if n_fits else 0.0
        else:
            out[f"{name}.calls"] = n / n_count
        if name in TIMED_LAYERS:
            out[f"{name}.self_ms"] = per_op_ms(name)
    for kind in STAGE_KINDS.values():
        out[f"chain.stage.{kind}.self_ms"] = per_op_ms(f"chain.stage.{kind}")
    out["fitkit.lm_minimize.iterations"] = lm_iterations / n_fits if n_fits else 0.0
    out["fitkit.lm.accept_ratio"] = accepted / trials if trials else 0.0
    out["muxsim.mux_s_params.branch_use_ratio"] = read / built if built else 0.0
    return out
