"""Start the analysis server or a worker for the benchmark.

Usage::

    python perfbench/entry.py [--spans PATH] serve --state-dir DIR ...
    python perfbench/entry.py [--spans PATH] worker --state-dir DIR ...

Everything after the optional ``--spans PATH`` goes to ``repro``'s own
command line, so the process is built exactly as ``repro serve`` /
``repro worker`` build it.  With ``--spans`` the layer functions are
wrapped first (see ``layers.py``) and the recorded spans are written to
PATH when the command returns; stop the server with SIGINT and the
worker with SIGTERM so that it does.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]


def main(argv: list) -> int:
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    recorder = None
    if spans_path is not None:
        from layers import instrument_program
        from spans import SpanRecorder

        recorder = SpanRecorder(origin=f"{argv[0]}-{os.getpid()}")
        instrument_program(recorder)
    from repro.cli import main as repro_main

    try:
        return repro_main(argv)
    finally:
        if recorder is not None:
            recorder.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
