"""Start ``repro-serve`` with span wrappers installed (the traced server).

Usage: ``python3 perfbench/serve_launcher.py --spans PATH -- <repro-serve
arguments>``.  The wrappers are installed before ``repro.serve.main``
runs, so set-up (dataset build, forest fit) is traced too.  On SIGINT the
server shuts down and the spans are written to PATH.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from layers import trace_selection_and_engine, trace_serve
from spans import Tracer


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spans", required=True, type=Path)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args
    if serve_args[:1] == ["--"]:
        serve_args = serve_args[1:]
    tracer = Tracer()
    trace_selection_and_engine(tracer)
    trace_serve(tracer)
    from repro.serve import main as serve_main

    code = serve_main(serve_args)
    tracer.dump(args.spans)
    return 0 if code == 130 else code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
