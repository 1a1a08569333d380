"""Property tests of the command line contract over its numeric flags.

Every input gives a correct report (exit 0) or a diagnosed one (exit 2):
no traceback, and an exit-0 report is strict JSON whose numbers are all
finite. Draws are derandomized and bounded, so a run is deterministic.
"""

from __future__ import annotations

import io
import json
import math
import sys
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cryomux.cli import main

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
