"""Run one ``fibclifford`` CLI call with tracing installed.

    PYTHONPATH=src python perfbench/clishim.py SPANS_FILE ARG...

Behaves like ``python -m fibclifford ARG...`` (same stdout, stderr and exit
code) and appends the call's spans, as one JSON line, to SPANS_FILE.
"""

from __future__ import annotations

import json
import sys
import time

import tracing


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    from fibclifford import cli

    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.current_op = 0
    start = time.perf_counter_ns()
    code = cli.main(argv)
    wall_ns = time.perf_counter_ns() - start
    trace = tracer.dump()
    trace["spans"] = [list(column) for column in trace["spans"]]
    trace["wall_ns"] = wall_ns
    with open(spans_file, "a", encoding="utf-8") as f:
        f.write(json.dumps(trace) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
