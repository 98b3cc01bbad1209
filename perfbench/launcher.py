"""Traced ``repro serve``: install the serving wrappers, then serve.

Usage: ``python3 perfbench/launcher.py SPANS_JSON serve [repro serve args]``

The spans stay in memory while the server runs and are written to
``SPANS_JSON`` once, after the server has shut down on SIGTERM.
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv) -> int:
    out, cli_args = Path(argv[0]), argv[1:]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.layers import install_serving
    from perfbench.tracing import Tracer, to_payload
    from repro import cli

    def stop(signum, frame):
        raise KeyboardInterrupt  # the server's own clean-shutdown path

    signal.signal(signal.SIGTERM, stop)
    tracer = Tracer()
    install_serving(tracer)
    try:
        return cli.main(cli_args)
    finally:
        out.write_text(json.dumps(to_payload(tracer)))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
