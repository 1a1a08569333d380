"""The one reader for cryomux's versioned JSON input files.

Chain, sweep and loss-component files are JSON objects that carry
``format_version`` at the top level. This module imports nothing from
the package but its errors, so every module that loads such a file can
use it without an import cycle; the CSV readers share its text reader.
"""

from __future__ import annotations

import json
from typing import Any, Collection, Mapping

from .errors import InputError

FORMAT_VERSION = 1


def read_text(path: str) -> str:
    """The UTF-8 text of path; an unreadable or non-UTF-8 file is an InputError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path!r}: {exc}") from exc


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
