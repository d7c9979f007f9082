"""Set-up probe: one fresh interpreter, timed from the first `import noether`
until the workload's inputs are loaded and its first unit could start.

Usage (from the checkout root, with PYTHONPATH=src and NOETHER_FIXTURES set
to the workload's generated fixtures):

    python3 perfbench/probe.py <workload> <seed>

Prints the elapsed seconds as one JSON object.
"""

import json
import sys
import time
from pathlib import Path

import workloads

workload = workloads.make(sys.argv[1], Path(__file__).resolve().parent.parent, int(sys.argv[2]))
start = time.perf_counter()
import noether  # noqa: E402,F401

workload.load()
print(json.dumps({"setup_s": time.perf_counter() - start}))
