"""``pghive serve`` in its own process, optionally traced.

Usage: ``python3 perfbench/daemon.py [--trace-out FILE] -- <serve args>``.
The arguments after ``--`` go to the ``pghive`` command line unchanged.
With ``--trace-out`` the daemon's layer hooks are installed before it
starts serving, and its spans are written to FILE once it stops.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from layers import daemon_hooks
from spans import Tracer, spans_to_records

from repro import cli


def main(argv: list[str]) -> int:
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace-out", type=Path)
    args = parser.parse_args(argv[:split])
    serve_args = argv[split + 1:]
    if args.trace_out is None:
        return cli.main(serve_args)
    tracer = Tracer(run="daemon")
    with tracer.patched(daemon_hooks(tracer)):
        code = cli.main(serve_args)
    args.trace_out.write_text(json.dumps({
        "spans": spans_to_records(tracer.spans),
        "counts": tracer.counts,
        "missing_hooks": tracer.missing_hooks,
    }))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
