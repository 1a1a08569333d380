"""Run the cryomux command line with layer tracing on.

Usage: python bench/tracedcli.py SPANS_JSON ARGS...

Behaves as ``python -m cryomux.cli ARGS...`` and, on exit, writes the spans
recorded at the layer boundaries to SPANS_JSON.
"""

from __future__ import annotations

import json
import sys

import cryomux.cli
from tracer import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.op = 0
    tracer.active = True
    try:
        return cryomux.cli.main(argv)
    finally:
        tracer.active = False
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.export(), handle)


if __name__ == "__main__":
    sys.exit(main())
