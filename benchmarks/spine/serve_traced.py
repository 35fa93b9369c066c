#!/usr/bin/env python3
"""Launcher for the traced ``http_pool`` child.

Runs ``repro.cli.main(["serve-http", ...])`` in this process with the span
wrappers of :mod:`spans` installed, so the traced and the untraced server
share one process topology.  Each SIGUSR1 from the benchmark switches
recording on or off (it starts off), and the spans are written once the
server has drained after SIGTERM.

    python serve_traced.py --spans-out FILE -- serve-http --graph ...
"""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Tracer, dump_spans, install  # noqa: E402

#: Span ids of the child start here, clear of the benchmark process's.
CHILD_ID_OFFSET = 1_000_000_000


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans-out", required=True)
    parser.add_argument("serve", nargs=argparse.REMAINDER,
                        help="-- followed by the repro CLI arguments")
    args = parser.parse_args(argv)
    serve = args.serve[1:] if args.serve[:1] == ["--"] else args.serve

    from repro.cli import main as cli_main

    tracer = Tracer(id_prefix=CHILD_ID_OFFSET)
    uninstall = install(tracer)
    signal.signal(
        signal.SIGUSR1,
        lambda _signum, _frame: setattr(tracer, "enabled", not tracer.enabled))
    try:
        return cli_main(serve)
    finally:
        uninstall()
        dump_spans(tracer.spans, args.spans_out)


if __name__ == "__main__":
    sys.exit(main())
