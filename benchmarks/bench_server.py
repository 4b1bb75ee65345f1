"""Server benchmark: multi-client load against ``repro serve``.

Measures what the serving layer's group-commit fan-in buys: N client
connections issue synchronous PUTs against one server; every in-flight
write rides the engine's leader/follower group commit, so one fsync (and
one WAL append) covers a whole batch of network writers.  Throughput
should *rise* with client count until the stall ladder pushes back —
the opposite of a lock-per-request server.  A plain script, not a
pytest module::

    PYTHONPATH=src python benchmarks/bench_server.py \
        [--scale full|ci] [--output FILE] [--check]

Per client count it reports ops/sec, put latency percentiles (p50/p99,
via the shared :class:`~repro.workloads.runner.LatencyRecorder`), and
the engine's group-commit gauges.  ``--check`` is the CI smoke gate:
under ``GATE_CLIENTS`` concurrent clients the batching ratio
(``group_commit_ops / write_groups``) must exceed
``BATCHING_RATIO_MIN``, and when the run includes a 32-client row it
must sustain ``SPEEDUP_MIN`` times the single-client write throughput.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import threading
import time

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.lsm.db import DB  # noqa: E402
from repro.lsm.options import Options  # noqa: E402
from repro.lsm.vfs import LocalVFS  # noqa: E402
from repro.server import Client, Server  # noqa: E402
from repro.workloads.runner import LatencyRecorder  # noqa: E402

SCHEMA = 1

#: CI fails when the batching ratio at ``GATE_CLIENTS`` does not beat this
#: (ratio 1.0 = every write group carried exactly one op = no batching).
BATCHING_RATIO_MIN = 1.0
GATE_CLIENTS = 8

#: A 32-client run must sustain this multiple of the single-client write
#: throughput (the acceptance bar for the serving layer).
SPEEDUP_MIN = 1.5

#: Best-of repeats: the run least disturbed by other tenants wins (same
#: spirit as ``bench_concurrent``; here highest throughput wins since the
#: gate is a throughput ratio).
REPEATS = 3

#: Real files + fsync on every commit: group commit has something to
#: amortize.  Geometry is roomier than ``bench_concurrent``'s — flushes
#: and compactions still happen at 32 clients, but the measured object is
#: the serving layer's fan-in, not the stall ladder (with a 16 KiB
#: memtable the 32-client run degenerates into back-to-back stalls and
#: the benchmark measures compaction instead).
ENGINE_OPTIONS = dict(
    sync_writes=True,
    background_compaction=True,
    block_size=2048,
    sstable_target_size=64 * 1024,
    memtable_budget=64 * 1024,
    l1_target_size=512 * 1024,
    compression="none",
)

SCALES = {
    "full": dict(client_counts=(1, 8, 32), ops_per_client=400),
    "ci": dict(client_counts=(1, 8), ops_per_client=150),
}

VALUE = b'{"UserID": "u%04d", "body": "' + b"x" * 72 + b'"}'


def _run_clients(host: str, port: int, clients: int,
                 ops_per_client: int) -> tuple[float, LatencyRecorder]:
    """Each client thread: its own connection, synchronous puts."""
    recorder = LatencyRecorder()
    barrier = threading.Barrier(clients + 1)
    failures: list[str] = []

    def client_main(cid: int) -> None:
        try:
            with Client(host, port, pool_size=1) as client:
                barrier.wait()
                for i in range(ops_per_client):
                    key = b"c%03d-%06d" % (cid, i)
                    started = time.perf_counter()
                    client.put(key, VALUE % (i % 97))
                    recorder.record(time.perf_counter() - started)
        except Exception as exc:  # noqa: BLE001 - reported, not lost
            failures.append(f"client {cid}: {exc!r}")

    threads = [threading.Thread(target=client_main, args=(cid,),
                                name=f"bench-client-{cid}")
               for cid in range(clients)]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    if failures:
        raise RuntimeError(f"benchmark clients failed: {failures}")
    return wall, recorder


def _run_once(clients: int, ops_per_client: int) -> dict:
    """Fresh database + server per run so the gauges are this run's own."""
    workdir = tempfile.mkdtemp(prefix="bench-server-")
    db = DB.open(LocalVFS(workdir), "data", Options(**ENGINE_OPTIONS))
    server = Server(db)
    try:
        host, port = server.start()
        wall, recorder = _run_clients(host, port, clients, ops_per_client)
        pipeline = db.stats()["pipeline"]
        summary = recorder.summary_micros((0.5, 0.99))
        total_ops = clients * ops_per_client
        write_groups = max(1, pipeline["write_groups"])
        return {
            "clients": clients,
            "total_ops": total_ops,
            "wall_seconds": round(wall, 4),
            "ops_per_sec": round(total_ops / wall, 1),
            "put_mean_micros": round(summary["mean_micros"], 2),
            "put_p50_micros": round(summary["p50_micros"], 2),
            "put_p99_micros": round(summary["p99_micros"], 2),
            "batching_ratio": round(
                pipeline["group_commit_ops"] / write_groups, 3),
            "pipeline": {
                "write_groups": pipeline["write_groups"],
                "group_commit_batches": pipeline["group_commit_batches"],
                "group_commit_ops": pipeline["group_commit_ops"],
                "mean_group_batches": round(
                    pipeline["mean_group_batches"], 3),
                "max_group_batches": pipeline["max_group_batches"],
                "stall_events": pipeline["stall_events"],
                "slowdown_events": pipeline["slowdown_events"],
                "bg_flushes": pipeline["bg_flushes"],
                "bg_compactions": pipeline["bg_compactions"],
            },
            "server": {
                key: value for key, value in server.stats.as_dict().items()
                if key in ("connections_accepted", "requests")
            },
        }
    finally:
        server.close()
        db.close()
        shutil.rmtree(workdir, ignore_errors=True)


def run_point(clients: int, ops_per_client: int) -> dict:
    best = None
    for _ in range(REPEATS):
        result = _run_once(clients, ops_per_client)
        if best is None or result["ops_per_sec"] > best["ops_per_sec"]:
            best = result
    return best


def run_benchmark(scale: str) -> dict:
    cfg = SCALES[scale]
    points = [run_point(clients, cfg["ops_per_client"])
              for clients in cfg["client_counts"]]
    by_clients = {point["clients"]: point for point in points}
    single = by_clients.get(1)
    comparison = {}
    if single is not None:
        for point in points:
            if point["clients"] == 1:
                continue
            comparison[f"speedup_{point['clients']}_clients"] = round(
                point["ops_per_sec"] / single["ops_per_sec"], 3)
    return {
        "schema": SCHEMA,
        "harness": "benchmarks/bench_server.py",
        "scale": scale,
        "python": sys.version.split()[0],
        "points": points,
        "comparison": comparison,
    }


def check(report: dict) -> int:
    """CI gate: group commit must actually batch the network writers."""
    by_clients = {point["clients"]: point for point in report["points"]}
    failures = []
    gate_point = by_clients.get(GATE_CLIENTS)
    if gate_point is None:
        print(f"FAIL: no {GATE_CLIENTS}-client point in this run")
        return 1
    ratio = gate_point["batching_ratio"]
    status = "ok" if ratio > BATCHING_RATIO_MIN else "REGRESSED"
    print(f"  batching ratio @{GATE_CLIENTS:>3} clients {ratio:6.2f}   "
          f"(must be > {BATCHING_RATIO_MIN})  [{status}]")
    if ratio <= BATCHING_RATIO_MIN:
        failures.append("batching_ratio")
    speedup = report["comparison"].get("speedup_32_clients")
    if speedup is not None:
        status = "ok" if speedup >= SPEEDUP_MIN else "REGRESSED"
        print(f"  throughput 32/1 clients     {speedup:6.2f}x  "
              f"(must be >= {SPEEDUP_MIN})  [{status}]")
        if speedup < SPEEDUP_MIN:
            failures.append("speedup_32_clients")
    if failures:
        print(f"FAIL: serving layer lost its edge on {', '.join(failures)}")
        return 1
    print("server benchmark smoke: group-commit fan-in holds")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    parser.add_argument("--output", help="write the JSON report here")
    parser.add_argument("--check", action="store_true",
                        help="gate on batching ratio / speedup (CI mode)")
    args = parser.parse_args(argv)

    report = run_benchmark(args.scale)
    print(json.dumps(report, indent=2))

    if args.output:
        with open(args.output, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.output}")

    if args.check:
        return check(report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
