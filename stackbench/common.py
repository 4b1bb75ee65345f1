"""Puts the checkout's ``src/`` and ``benchmarks/`` on ``sys.path``.

The benchmark drives the stack from source, so it refuses to run -- exit
code 2, no result line -- in a directory that does not hold the repository.
"""

from __future__ import annotations

import os
import sys

# Leave the checkout's tracked bytecode caches untouched.
sys.dont_write_bytecode = True

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_DIR = os.path.join(ROOT, ".stackbench_work")

for _required in ("src/repro/__init__.py", "benchmarks/bench_engine_micro.py",
                  "benchmarks/harness.py"):
    if not os.path.isfile(os.path.join(ROOT, _required)):
        sys.stderr.write(f"stackbench: {_required} not found under {ROOT}; "
                         "run from a checkout of the repository\n")
        raise SystemExit(2)

# Run on one CPU.  The calibration slice measures the CPU it runs on, and
# the server launcher inherits this affinity, so client, server and slice
# all see the same phase of the same core.
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

for _sub in ("benchmarks", "src"):
    _path = os.path.join(ROOT, _sub)
    if _path not in sys.path:
        sys.path.insert(0, _path)
