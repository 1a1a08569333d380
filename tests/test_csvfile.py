"""The vectorised CSV writer's bytes equal Python's per-row ``%.16e``.

Each check compares ``csvfile.csv_text`` with a reference that formats
every row by ``FLOAT_FORMAT % row``, the writer it replaced: single
fields drawn by Hypothesis (derandomized, bounded) and from raw 64-bit
patterns, a fixed list of the kernel's edges, and whole trace, power
point and ``mux-program`` S-parameter files.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cryomux import chain as ch
from cryomux import csvfile, muxsim
from cryomux.cli import main
from cryomux.csvfile import FLOAT_FORMAT, csv_text
from cryomux.fitkit import ComplexTrace
from cryomux.rfnet import FrequencyGrid


def reference_csv_text(header: str, columns) -> str:
    """The per-row writer: header, then FLOAT_FORMAT % row for each row."""
    fmt = ",".join([FLOAT_FORMAT] * len(columns))
    rows = zip(*(np.asarray(c, dtype=np.float64).tolist() for c in columns))
    return "\n".join([header] + [fmt % row for row in rows]) + "\n"


def assert_fields_match(values) -> None:
    values = np.asarray(values, dtype=np.float64)
    expected = [FLOAT_FORMAT % v for v in values.tolist()]
    assert csv_text("x", [values]).splitlines()[1:] == expected


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=64))
def test_any_finite_double_formats_as_percent(values):
    assert_fields_match(values)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_any_bit_pattern_formats_as_percent(patterns):
    # nan and inf included: they take the per-element fallback
    assert_fields_match(np.array(patterns, dtype=np.uint64).view(np.float64))


def _edges() -> list[float]:
    edges = [0.0, 5e-324, sys.float_info.min, sys.float_info.max, 1e100, 1e-100, 1e300]
    for k in range(-12, 18):
        for v in (10.0**k, float(f"1e{k}")):
            edges += [np.nextafter(v, 0.0), v, np.nextafter(v, np.inf)]
    # 1e-14 lies 1.2e-18 (relative) below 10**-14: its 17 digits carry to 1.0000000000000000e-14
    edges += [1e-14, 1e14 * (1.0 - 2.0**-53)]
    # exact products: no shift (2927764172536316.5 * 10 is an integer) and
    # ties at the 17th digit (12345678901234562.5), which round half to even
    edges += [2927764172536316.5, 1234567890123456.25, 1234567890123456.75, 2.0**53, 2.0**-36]
    return edges + [-v for v in edges]


def test_fixed_edges_format_as_percent():
    assert_fields_match(_edges())


def test_rows_and_columns_are_laid_out_as_percent():
    rng = np.random.default_rng(5)
    columns = [rng.normal(size=5000) * 10.0 ** rng.uniform(-15, 20, 5000) for _ in range(3)]
    assert csv_text("a,b,c", columns) == reference_csv_text("a,b,c", columns)
    assert csv_text("a,b,c", [c[:0] for c in columns]) == "a,b,c\n"


def test_trace_file_bytes_equal_per_row_percent(tmp_path):
    spec = ch.load_chain_spec(ch.example_chain_path())
    sweep = ch.load_sweep_spec(ch.example_sweep_path())
    trace = ch.synthesize_sweep(spec, sweep, plane="raw")
    path = tmp_path / "trace.csv"
    csvfile.write_trace(str(path), trace)
    columns = [trace.grid.points, trace.s21.real, trace.s21.imag]
    assert path.read_bytes() == reference_csv_text(csvfile.TRACE_HEADER, columns).encode("ascii")
    # a negative zero keeps its sign
    s21 = np.array([complex(-0.0, -0.0), 1j])
    signed_zero = ComplexTrace(FrequencyGrid(np.array([1.0, 2.0])), s21)
    assert csvfile.trace_csv_text(signed_zero) == (
        "freq_hz,s21_re,s21_im\n"
        "1.0000000000000000e+00,-0.0000000000000000e+00,-0.0000000000000000e+00\n"
        "2.0000000000000000e+00,0.0000000000000000e+00,1.0000000000000000e+00\n"
    )


def test_points_file_bytes_equal_per_row_percent(tmp_path):
    n = np.logspace(-1.0, 6.0, 25)
    points = [ch.PowerSweepPoint(nk, 1e5 / (1.0 + nk) ** 0.3, 1e3 / (1.0 + nk)) for nk in n]
    path = tmp_path / "points.csv"
    csvfile.write_power_points(str(path), points)
    columns = np.array([(p.n_photons, p.q_loaded, p.q_uncertainty) for p in points]).T
    assert path.read_bytes() == reference_csv_text(csvfile.POINTS_HEADER, columns).encode("ascii")


def test_mux_program_file_bytes_equal_per_row_percent(tmp_path, capsys):
    path = tmp_path / "sparams.csv"
    assert main(["mux-program", "--port", "1", "--mode", "serial", "-o", str(path)]) == 0
    capsys.readouterr()
    config = muxsim.MuxConfig()
    state = muxsim.ControlState.initial(config.n_ports, "serial")
    for i in range(config.n_ports):
        state = muxsim.serial_clock(state, 1 if i == 1 else 0)
    grid = FrequencyGrid.linspace(4e9, 8e9, 401)
    branches = muxsim.mux_s_params(config, muxsim.latch(state), muxsim.V_DD_NOMINAL, grid)
    names, columns = ["freq_hz"], [grid.points]
    for p, branch in enumerate(branches):
        names += [f"port{p}_s21_re", f"port{p}_s21_im"]
        columns += [branch.s21.real, branch.s21.imag]
    assert len(columns) == 9
    assert path.read_bytes() == reference_csv_text(",".join(names), columns).encode("ascii")


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_fields_format_as_percent(value):
    expected = f"x\n1.0000000000000000e+00\n{FLOAT_FORMAT % value}\n"
    assert csv_text("x", [np.array([1.0, value])]) == expected
