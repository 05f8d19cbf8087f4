"""A traced CLI process: artin's console entry point with every layer wrapped.

Run as `python cli_child.py <artin arguments>` with ARTINBENCH_TRACE naming
the file that receives the span aggregates (and the spans themselves when
ARTINBENCH_SPANS is 1).  Exit code, stdout and stderr are the CLI's own.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Tracer  # noqa: E402

tracer = Tracer()
tracer.keep_spans = os.environ.get("ARTINBENCH_SPANS") == "1"
t0 = time.perf_counter()
modules = tracer.install()
# Importing artin is the CLI's start-up cost: charge it to the cli layer.
tracer.calls["cli.import"] = 1
tracer.self_s["cli.import"] = time.perf_counter() - t0
try:
    modules["cli"].entry()
finally:
    snap = tracer.snapshot()
    if tracer.keep_spans:
        snap["spans"] = tracer.spans
    with open(os.environ["ARTINBENCH_TRACE"], "w", encoding="utf-8") as fh:
        json.dump(snap, fh)
