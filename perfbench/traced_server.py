"""Run ``repro.cli`` with the layer tracer installed (the traced ``explore`` server).

Usage::

    PYTHONPATH=src python3 perfbench/traced_server.py TRACE.json serve --port 0

Arguments after the trace path go to ``repro.cli`` unchanged.  When the
command returns (``serve`` returns on SIGINT), the per-request trace
contexts are written to ``TRACE.json``.
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path

from tracing import LayerTracer


def main() -> int:
    # ``serve`` stops on KeyboardInterrupt; make sure SIGINT raises it.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    out = Path(sys.argv[1])
    tracer = LayerTracer()
    tracer.install()
    from repro import cli

    try:
        return cli.main(sys.argv[2:])
    finally:
        partial = out.with_suffix(".partial")
        partial.write_text(json.dumps([ctx.as_dict() for ctx in tracer.finished]))
        partial.replace(out)


if __name__ == "__main__":
    sys.exit(main())
