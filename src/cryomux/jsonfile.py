"""The one reader for cryomux's versioned JSON input files.

Chain, sweep and loss-component files are JSON objects that carry
``format_version`` at the top level. This module imports nothing from
the package but its errors, so every module that loads such a file can
use it without an import cycle. The CSV files share its text reader,
float format and text writer. It imports no numpy, for the scalar subcommands.
"""

from __future__ import annotations

import json
import os
from typing import Any, Collection, Mapping

from .errors import InputError

FORMAT_VERSION = 1

#: every float in a written CSV: 17 significant digits round-trip a double exactly
FLOAT_FORMAT = "%.16e"


CONFIG_DIR_ENV = "CRYOMUX_CONFIG_DIR"


def resolve_config_path(path: str) -> str:
    """Resolve a config file name against the config-directory env var."""
    if os.path.isabs(path) or os.path.exists(path):
        return path
    base = os.environ.get(CONFIG_DIR_ENV)
    if base:
        candidate = os.path.join(base, path)
        if os.path.exists(candidate):
            return candidate
    return path


def read_text(path: str) -> str:
    """The UTF-8 text of path; an unreadable or non-UTF-8 file is an InputError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path!r}: {exc}") from exc


def write_text(path: str, text: str) -> None:
    """Write text to path as UTF-8, with its newlines as given."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def read_versioned(path: str) -> dict[str, Any]:
    """Parse a JSON file whose top level is an object of FORMAT_VERSION.

    Every failure (unreadable file, malformed JSON, another top-level
    type, a missing or unsupported version) is an InputError naming path.
    """
    text = read_text(path)
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:  # int's digit limit, or nesting too deep
        raise InputError(f"{path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise InputError(f"{path}: top level must be a JSON object")
    version = raw.get("format_version")
    # True == 1 in Python, so a boolean needs its own test
    if isinstance(version, bool) or version != FORMAT_VERSION:
        raise InputError(
            f"{path}: unsupported format_version {version!r}, "
            f"expected {FORMAT_VERSION}"
        )
    return raw


def check_keys(raw: Mapping[str, Any], known: Collection[str], label: str) -> None:
    """InputError ``{label} [unknown...]; known keys: [...]`` for keys of raw not in known."""
    unknown = sorted(set(raw) - set(known))
    if unknown:
        raise InputError(f"{label} {unknown}; known keys: {sorted(known)}")


def json_int(value: Any, label: str) -> int:
    """A JSON integer field: an int, or a float without a fraction, as an int;
    a bool, a fraction, a non-finite float or a string is an InputError naming label."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{label} must be an integer, got {value!r}")
    return value


def json_float(value: Any, label: str) -> float:
    """A JSON number field as a float, NaN and infinities included; a bool, a
    string, another type or an integer beyond double range is an InputError naming label."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"{label} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise InputError(f"{label} is an integer beyond double range") from None
