"""The CSV format: float format, headers, the one writer, and the one reader with every diagnostic.

The writer renders ``FLOAT_FORMAT % x`` per field, many at once by exact integer arithmetic, after
Steele & White (PLDI 1990) and Ryu (Adams, PLDI 2018): with |x| = m 2**q and E = floor(log10 |x|),
the 17 digits are m 5**k 2**(q + k), k = 16 - E, rounded half to even; m 5**k is an exact two-limb
product for k <= 27. Zero, subnormals, non-finite values, E outside [-11, 16] and digits outside
[10**16, 10**17) (log10 off by one) go through ``%`` itself: the bytes are always ``%``'s.
"""

from __future__ import annotations

import io
import math
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import InputError
from .jsonfile import read_text, write_text
from .rfnet import FrequencyGrid

if TYPE_CHECKING:
    from .fitkit import ComplexTrace, PowerSweepPoint

#: every float in a written CSV: 17 significant digits round-trip a double exactly
FLOAT_FORMAT = "%.16e"
TRACE_HEADER = "freq_hz,s21_re,s21_im"
POINTS_HEADER = "n_photons,q_loaded,q_uncertainty"

_U = np.uint64  # every integer operand is uint64: numpy 1.x makes uint64 op int64 a float
_LOW32, _POW5 = _U(0xFFFFFFFF), _U(5) ** np.arange(28, dtype=_U)  # 5**27 < 2**64
#: the 4 ASCII digits of 0..9999, one row each
_DIGITS = np.ascontiguousarray(np.indices((10,) * 4, np.uint8).reshape(4, -1).T + np.uint8(48))
_FIELD = 24  # the longest field, "-1.0000000000000000e+308"
_CHUNK = 2048  # values per kernel call, in row order: its temporaries stay under 1 MB


def _format_fields(x: np.ndarray, out: np.ndarray) -> None:
    """Write FLOAT_FORMAT % v for each v of x, NUL-padded, into the (len(x), _FIELD) uint8 out."""
    ax = np.abs(x)
    e10 = np.floor(np.log10(np.where(ax > 0.0, ax, np.nan)))  # nan for 0 or nan, inf for inf
    ok = (e10 >= -11.0) & (e10 <= 16.0)
    e10 = np.where(ok, e10, 0.0).astype(np.int64)
    frac, e2 = np.frexp(np.where(ok, ax, 1.0))
    m, p = (frac * 2.0**53).astype(_U), _POW5.take(16 - e10)  # |x| = m 2**(e2 - 53), p = 5**k
    m_lo, m_hi, p_lo, p_hi = m & _LOW32, m >> _U(32), p & _LOW32, p >> _U(32)
    ll, lh, hl = m_lo * p_lo, m_lo * p_hi, m_hi * p_lo
    mid = (ll >> _U(32)) + (lh & _LOW32) + (hl & _LOW32)
    lo = (mid << _U(32)) | (ll & _LOW32)
    hi = m_hi * p_hi + (lh >> _U(32)) + (hl >> _U(32)) + (mid >> _U(32))
    shift = 37 - e2 + e10  # digits = (hi, lo) / 2**shift, and -4 <= shift <= 62 for E in [-11, 16]
    right, r, left = shift > 0, np.maximum(shift, 1).astype(_U), np.maximum(-shift, 0).astype(_U)
    trunc = np.where(right, (hi << (_U(64) - r)) | (lo >> r), lo << left)
    rem, half = lo & ((_U(1) << r) - _U(1)), _U(1) << (r - _U(1))
    digits = trunc + (right & ((rem > half) | ((rem == half) & ((trunc & _U(1)) == _U(1)))))
    ok &= (trunc >= _U(10**16)) & (digits < _U(10**17))

    quads = np.stack([digits // _U(10**e) for e in (16, 12, 8, 4, 0)], axis=1)
    quads[:, 1:] -= quads[:, :-1] * _U(10**4)  # the lead digit, then four 4-digit groups
    out[:, 0], out[:, 1], out[:, 2] = np.signbit(x) * ord("-"), quads[:, 0] + _U(48), ord(".")
    out[:, 3:19] = _DIGITS.take(quads[:, 1:], axis=0).reshape(-1, 16)
    out[:, 19], out[:, 20] = ord("e"), np.where(e10 < 0, ord("-"), ord("+"))
    out[:, 21:23] = _DIGITS.take(np.abs(e10), axis=0)[:, 2:]
    for i in np.flatnonzero(~ok).tolist():
        field = (FLOAT_FORMAT % float(x[i])).encode("ascii").ljust(_FIELD, b"\0")
        out[i] = np.frombuffer(field, np.uint8)


def csv_text(header: str, columns: Sequence[np.ndarray]) -> str:
    """The header, then one line per row, a FLOAT_FORMAT field per column."""
    values = np.column_stack(columns).astype(np.float64, copy=False).ravel()
    buf = np.zeros((values.size, _FIELD + 1), np.uint8)
    for start in range(0, values.size, _CHUNK):
        _format_fields(values[start : start + _CHUNK], buf[start : start + _CHUNK, :_FIELD])
    buf[:, _FIELD] = ord(",")
    buf[len(columns) - 1 :: len(columns), _FIELD] = ord("\n")
    return header + "\n" + buf.tobytes().replace(b"\0", b"").decode("ascii")


def trace_csv_text(trace: ComplexTrace) -> str:
    """Render a trace as CSV with 17 significant digits per field."""
    return csv_text(TRACE_HEADER, [trace.grid.points, trace.s21.real, trace.s21.imag])


def write_trace(path: str, trace: ComplexTrace) -> None:
    write_text(path, trace_csv_text(trace))


def _parse_csv_lines(
    path: str, text: str, header: str, n_fields: int
) -> list[tuple[int, list[float]]]:
    """(line number, row) per data line, by float(); the source of every CSV diagnostic."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != header:
        found = lines[0].strip() if lines else "<empty file>"
        raise InputError(f"{path}: line 1: expected header {header!r}, found {found!r}")
    names = header.split(",")
    parsed = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != n_fields:
            raise InputError(
                f"{path}: line {lineno}: expected {n_fields} fields, "
                f"got {len(fields)}"
            )
        row = []
        for name, text in zip(names, fields):
            try:
                value = float(text)
            except ValueError as exc:
                raise InputError(
                    f"{path}: line {lineno}: field {name!r} is not a number: "
                    f"{text.strip()!r}"
                ) from exc
            if not math.isfinite(value):
                raise InputError(
                    f"{path}: line {lineno}: field {name!r} is not finite: "
                    f"{text.strip()!r}"
                )
            row.append(value)
        parsed.append((lineno, row))
    if not parsed:
        raise InputError(f"{path}: no data rows")
    return parsed


def _parse_csv(path: str, text: str, header: str, n_fields: int) -> np.ndarray:
    """The (rows, n_fields) floats of a CSV text, as _parse_csv_lines reads them.

    A non-empty body (loadtxt warns on an empty one) in ASCII with no line
    break but LF and no 0x1f (which loadtxt strips as field whitespace, and
    str.splitlines or float() do not) is parsed by one np.loadtxt call, kept
    if each row is n_fields finite values. All else goes to _parse_csv_lines.
    """
    head, _, body = text.partition("\n")
    if head.strip() == header and body.strip() and text.isascii() and not any(
        c in text for c in "\r\x0b\x0c\x1c\x1d\x1e\x1f"
    ):
        try:
            rows = np.loadtxt(io.StringIO(body), delimiter=",", comments=None, ndmin=2)
        except ValueError:
            rows = None
        if rows is not None and rows.shape[1] == n_fields and np.isfinite(rows).all():
            return rows
    return np.array([row for _, row in _parse_csv_lines(path, text, header, n_fields)])


def read_trace(path: str) -> ComplexTrace:
    from .fitkit import ComplexTrace  # not at import: mux-program writes CSV without the fits

    rows = _parse_csv(path, read_text(path), TRACE_HEADER, 3)
    try:
        grid = FrequencyGrid(rows[:, 0])
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc
    return ComplexTrace(grid, rows[:, 1] + 1j * rows[:, 2])


def write_power_points(path: str, points: Sequence[PowerSweepPoint]) -> None:
    rows = [(p.n_photons, p.q_loaded, p.q_uncertainty) for p in points]
    write_text(path, csv_text(POINTS_HEADER, np.array(rows, dtype=np.float64).reshape(-1, 3).T))


def read_power_points(path: str) -> tuple[PowerSweepPoint, ...]:
    from .fitkit import PowerSweepPoint

    text = read_text(path)
    points = []
    for index, row in enumerate(_parse_csv(path, text, POINTS_HEADER, 3).tolist()):
        try:
            points.append(PowerSweepPoint(*row))
        except InputError as exc:
            lineno = _parse_csv_lines(path, text, POINTS_HEADER, 3)[index][0]
            raise InputError(f"{path}: line {lineno}: {exc}") from exc
    return tuple(points)
