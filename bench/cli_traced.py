"""Run ``python -m boolfun ARGS`` with the tracer installed.

Usage: python3 bench/cli_traced.py SUMMARY_JSON ARGS...

Writes the per-layer summary of this process to SUMMARY_JSON when the
command ends.  Pool workers started by ``--jobs`` are not traced.
"""

import json
import runpy
import sys

import boolfun.cli  # noqa: F401  (loads every module before wrapping)
from tracing import Tracer

out_path = sys.argv.pop(1)
tracer = Tracer()
tracer.install()
tracer.resume()
try:
    runpy.run_module("boolfun", run_name="__main__", alter_sys=True)
finally:
    tracer.pause()
    with open(out_path, "w") as fh:
        json.dump(tracer.summary(), fh)
