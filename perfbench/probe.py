"""Set-up probe: time from a fresh interpreter until stagger is ready.

Run by ``run.py`` in a child process, several times per run.  Set-up is
importing ``stagger`` and ``stagger.cli``, building the CLI parser, and
running the workload's first item; generating that item's input is the
benchmark's own work and is left out.  Prints one JSON line.

Usage: python3 perfbench/probe.py WORKLOAD
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import stagger  # noqa: E402,F401
import stagger.cli  # noqa: E402

stagger.cli.build_parser()
T1 = time.perf_counter()

import workloads  # noqa: E402

item = workloads.first_item(sys.argv[1])
T2 = time.perf_counter()
tally = workloads.Tally()
tally.run(item)
T3 = time.perf_counter()
print(json.dumps({"setup_s": (T1 - T0) + (T3 - T2), "ok": tally.failed == 0}))
