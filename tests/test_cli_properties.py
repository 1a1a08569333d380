"""Tests of the command line contract over its numeric flags and file fields.

Every input gives a correct report (exit 0), a diagnosed one (exit 2) or,
from a fit, an unconverged one (exit 3): no traceback, and a report is
strict JSON whose numbers are all finite. Hypothesis draws are derandomized
and bounded, so a run is deterministic; extreme file fields are a table.
"""

from __future__ import annotations

import io
import json
import math
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cryomux import chain as ch
from cryomux.cli import main
from cryomux.lossbudget import component_table_path

#: subnormal, tiny, unit-scale and near-overflow magnitudes
EDGES = (5e-324, 1e-310, sys.float_info.min, 1e-300, 1e-30, 1.0, 5e9, 1e30, 1e300, 1e308,
         sys.float_info.max)

FLAG_VALUE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(EDGES + tuple(-v for v in EDGES) + (0.0,)),
)


def _reject_constant(token: str):
    raise ValueError(f"non-standard JSON constant {token}")


def _finite_numbers(value) -> bool:
    if isinstance(value, dict):
        return all(_finite_numbers(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite_numbers(v) for v in value)
    if isinstance(value, float):
        return math.isfinite(value)
    return True


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of cryomux.cli.main in this process."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejecting the command line
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(
    chi=FLAG_VALUE,
    nu_r=FLAG_VALUE,
    nu_q=st.none() | FLAG_VALUE,
    value=FLAG_VALUE,
    inverse=st.booleans(),
)
@example(chi=1e6, nu_r=5e9, nu_q=None, value=1e308, inverse=False)
@example(chi=1e300, nu_r=5e9, nu_q=None, value=1e10, inverse=False)
@example(chi=1e6, nu_r=1e-300, nu_q=None, value=1e300, inverse=False)
@example(chi=1e6, nu_r=5e9, nu_q=None, value=1e308, inverse=True)
@example(chi=1e-300, nu_r=5e9, nu_q=None, value=1e10, inverse=True)
def test_stark_flags_give_a_report_or_exit_2(chi, nu_r, nu_q, value, inverse):
    argv = ["stark", "--chi", repr(chi), "--nu-r", repr(nu_r)]
    if nu_q is not None:
        argv += ["--nu-q", repr(nu_q)]
    argv += ["--delta-ac" if inverse else "--temp", repr(value)]
    code, out, err = run_cli(argv)
    assert code in (0, 2), (code, err)
    assert "Traceback" not in err
    if code == 0:
        report = json.loads(out, parse_constant=_reject_constant)
        assert _finite_numbers(report), report


def _stage(kind):
    return lambda raw: next(s for s in raw["stages"] if s["type"] == kind)


def _mux_config(raw):
    return _stage("mux")(raw).setdefault("config", {})


def _first_row(raw):
    return raw["samples"]["standard_si"]["components"][0]


def _edited(kind, holder, key, literal):
    """argv factory: the command reading the bundled chain, sweep or component
    table with holder(raw)[key] written as the JSON text literal."""
    bundled = {"chain": ch.example_chain_path(), "sweep": ch.example_sweep_path()}
    bundled["table"] = component_table_path()

    def build(tmp_path):
        raw = json.loads(Path(bundled[kind]).read_text(encoding="utf-8"))
        holder(raw)[key] = "@literal"
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(raw).replace('"@literal"', literal), encoding="utf-8")
        if kind == "table":
            return ["loss-budget", str(path)]
        files = [str(path) if kind == k else bundled[k] for k in ("chain", "sweep")]
        return ["simulate", *files, "-o", str(tmp_path / "trace.csv")]

    return build


HUGE_INT = "1" + "0" * 400

#: case: (argv factory, exit code, a fragment stderr must hold)
EXTREME_INPUTS = {
    "mux_c_off_1e300": (_edited("chain", _mux_config, "c_off", "1e300"), 2, "c_off 1e+300"),
    "sample_g_hz_1e160": (_edited("chain", _stage("sample"), "g_hz", "1e160"), 2, "g 6.28"),
    "mux_program_grid_to_1e308": (
        lambda tmp_path: ["mux-program", "--port", "0", "--f-start-hz", "1e-300"]
        + ["--f-stop-hz", "1e308", "-o", str(tmp_path / "s.csv")],
        2,
        "up to 1e+308 Hz",
    ),
    "bandpass_rejection_db_1e308": (
        _edited("chain", _stage("bandpass"), "rejection_db", "1e308"), 0, ""
    ),
    "sweep_rbw_hz_1e308": (_edited("sweep", lambda raw: raw, "rbw_hz", "1e308"), 0, ""),
    "amplifier_noise_temperature_k_1e308": (
        _edited("chain", _stage("amplifier"), "noise_temperature_k", "1e308"), 0, ""
    ),
    "sample_kappa_i_hz_1e300": (
        _edited("chain", _stage("sample"), "kappa_i_hz", "1e300"), 0, ""
    ),
    "mux_r_on_1e-300": (_edited("chain", _mux_config, "r_on", "1e-300"), 0, ""),
    "mux_v_dd_1e308": (_edited("chain", _stage("mux"), "v_dd", "1e308"), 0, ""),
    "attenuator_loss_db_int_1e400": (
        _edited("chain", _stage("attenuator"), "loss_db", HUGE_INT),
        2,
        "chain.json: stage 0: loss_db is an integer beyond double range",
    ),
    "sweep_rbw_hz_int_1e400": (
        _edited("sweep", lambda raw: raw, "rbw_hz", HUGE_INT),
        2,
        "sweep.json: rbw_hz is an integer beyond double range",
    ),
    "table_tan_delta_int_1e400": (
        _edited("table", _first_row, "tan_delta", HUGE_INT),
        2,
        "table.json: sample 'standard_si': bad component row 0: tan_delta is an integer",
    ),
    "table_tan_delta_5000_digits": (
        _edited("table", _first_row, "tan_delta", "1" + "0" * 5000), 2, "table.json: "
    ),
    "table_tan_delta_nested_100000_deep": (
        _edited("table", _first_row, "tan_delta", "[" * 100000 + "]" * 100000),
        2,
        "table.json: maximum recursion depth",
    ),
}


@pytest.mark.filterwarnings("ignore::cryomux.errors.ClampWarning")
@pytest.mark.filterwarnings("ignore::cryomux.errors.DispersiveValidityWarning")
@pytest.mark.parametrize("case", sorted(EXTREME_INPUTS))
def test_extreme_inputs_give_a_report_or_a_diagnosis(tmp_path, case):
    build, expected, fragment = EXTREME_INPUTS[case]
    argv = build(tmp_path)
    code, out, err = run_cli(argv)
    assert code == expected, err
    assert "Traceback" not in err
    assert fragment in err
    reports = [out] if out else []
    if argv[0] == "simulate" and code == 0:
        # the trace goes on through a fit, whose report must be strict JSON too
        fit_code, fit_out, fit_err = run_cli(["fit-spectrum", argv[-1]])
        assert fit_code in (0, 2, 3), fit_err
        assert "Traceback" not in fit_err
        reports += [fit_out] if fit_out else []
    for text in reports:
        assert _finite_numbers(json.loads(text, parse_constant=_reject_constant))
