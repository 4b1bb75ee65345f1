"""Server launcher for the ``serve_mixed`` workload (run as a subprocess).

Builds the served store -- UserID=COMPOSITE, CreationTime=EMBEDDED,
a block cache larger than the store -- ``--setups``
times with calibration-paired timing, serves the last copy with the public
:class:`repro.server.Server` API, and prints one JSON line once it listens.
SIGTERM drains the server gracefully, closes the store, writes the spans
(``--trace FILE``) and prints a final JSON line.

    python3 stackbench/serve.py --dir DIR --seed N --setups 3 \
        --reference-slice-ms 5.2 [--trace FILE]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import threading

import common  # noqa: F401 - puts src/ and benchmarks/ on sys.path

from ops import STREAMS  # noqa: E402
from paired import PairedClock  # noqa: E402
from repro.server.server import Server  # noqa: E402
from stores import (  # noqa: E402
    COMPOSITE_EMBEDDED,
    LARGE_CACHE_BYTES,
    engine_counts,
    open_indexed,
    run_setup,
)
from spans import FACADE_SPANS, SERVER_CODEC_SPANS, Tracer  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setups", type=int, default=3)
    parser.add_argument("--reference-slice-ms", type=float, required=True)
    parser.add_argument("--trace")
    args = parser.parse_args()

    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    tracer = Tracer()
    if args.trace:
        tracer.install(FACADE_SPANS + SERVER_CODEC_SPANS)
    clock = PairedClock(args.reference_slice_ms / 1e3)
    setups = []
    db = None
    setup = STREAMS["serve_mixed"](args.seed, 0).setup
    for attempt in range(args.setups):
        if db is not None:
            db.close()
        path = os.path.join(args.dir, f"store{attempt}")
        shutil.rmtree(path, ignore_errors=True)
        db, phase, recorder = run_setup(
            clock, lambda: open_indexed(path, COMPOSITE_EMBEDDED,
                                        LARGE_CACHE_BYTES),
            setup)
        setups.append({"calibrated_s": phase.calibrated_s,
                       "raw_s": phase.raw_s,
                       "counts": engine_counts(db)})
    seqs = sorted(seq for history in recorder.model.versions.values()
                  for seq, _doc in history)
    server = Server(db)
    host, port = server.start()
    tracer.enabled = bool(args.trace)
    print(json.dumps({"host": host, "port": port, "path": path,
                      "setups": setups, "failed": recorder.failed,
                      "first_seq": seqs[0], "last_seq": seqs[-1],
                      "calibration": clock.diagnostics()}), flush=True)
    stop.wait()
    server.close(drain=True)
    tracer.enabled = False
    db.close()
    if args.trace:
        tracer.dump(args.trace)
    print(json.dumps({"leaked_threads": server.stats.leaked_threads}),
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
