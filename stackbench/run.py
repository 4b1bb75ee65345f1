"""Layer-attributed benchmark of the whole stack on the paper's workloads.

    python3 stackbench/run.py --reference-slice-ms 5.2 \
        --workload query_static --seed 1 --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``query_static``   in-process facade, read-only GET/LOOKUP/RANGELOOKUP
  over a Static-loaded store; block cache much smaller than the data.
* ``ingest_mixed``   same store, Table 7 update-heavy mix, one client.
* ``serve_mixed``    the facade behind ``repro.server.Server`` in another
  process, Table 7 read-heavy mix from two connections.
* ``cluster_ingest`` in-process replicated ``ShardedDB`` (2 shards x RF=2),
  Table 7 write-heavy mix plus scatter-gather RANGELOOKUPs.

Every phase, setup included, is timed with calibration pairing (see
``paired.py``).  The timed phase runs a fixed number of operations, sized so
that it lasts about ``--seconds`` on the reference machine; a fixed count
keeps every engine count of the single-client workloads exact.  Every read
is checked against an in-memory model (``oracle.py``); a wrong answer is a
failed op.  The store is checked with ``verify_integrity()`` afterwards, and
the served store is drained with SIGTERM, reopened and checked for every
acknowledged write.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
workload untraced, then again with every layer's public functions wrapped
(``spans.py``), and prints the per-layer metrics and the tracing overhead.
The last line of standard output is the JSON result; the lines before it
are diagnostics (raw beside calibrated values, calibration slices, counts).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable

import common

from ops import STREAMS, Streams, kind_of  # noqa: E402
from oracle import Model  # noqa: E402
from paired import PairedClock, PhaseResult, percentile, \
    tail_supported  # noqa: E402
from repro.core.base import IndexKind  # noqa: E402
from repro.server.client import Client  # noqa: E402
from spans import CLIENT_SPANS, CLUSTER_SPANS, FACADE_SPANS, \
    Tracer  # noqa: E402
from stores import (  # noqa: E402
    COMPOSITE_EMBEDDED,
    LAZY_EMBEDDED,
    LARGE_CACHE_BYTES,
    SMALL_CACHE_BYTES,
    Recorder,
    databases,
    delta,
    disk_bytes,
    engine_counts,
    execute,
    live_user_bytes,
    open_cluster,
    open_indexed,
    run_setup,
)

KINDS = ("put", "get", "lookup", "rangelookup")

#: Reconciliation tolerance: per op type, the named layers' self times may
#: miss the client-measured time by at most this share.  The rest is the
#: harness code between the client's clock and the outermost span plus the
#: outermost facade's own self time, where work no layer span wraps lands.
RECONCILE_TOLERANCE = 0.15

SETUPS = 3

#: After the timed phases, this many distinct RANGELOOKUPs of a run are
#: re-issued with ``early_termination=False`` and must be the exact top-K.
RECHECK_RANGES = 25


@dataclass
class Spec:
    name: str
    #: Timed-phase ops per wall second (slices included) on the reference
    #: machine; ``--seconds`` times this is the fixed op count.
    ops_per_wall_s: int
    open: Callable[[str], Any] | None = None

    def streams(self, seed: int, seconds: int) -> Streams:
        return STREAMS[self.name](seed, seconds * self.ops_per_wall_s)


SPECS = {
    "query_static": Spec(
        "query_static", ops_per_wall_s=1600,
        open=lambda path: open_indexed(path, LAZY_EMBEDDED,
                                       SMALL_CACHE_BYTES)),
    "ingest_mixed": Spec(
        "ingest_mixed", ops_per_wall_s=1100,
        open=lambda path: open_indexed(path, LAZY_EMBEDDED,
                                       SMALL_CACHE_BYTES)),
    "serve_mixed": Spec("serve_mixed", ops_per_wall_s=3000),
    "cluster_ingest": Spec("cluster_ingest", ops_per_wall_s=1600,
                           open=open_cluster),
}


@dataclass
class RunResult:
    setups: list[PhaseResult]
    phases: list[PhaseResult]
    recorder: Recorder
    space_amp: float
    counts: dict[str, Any]
    setup_counts: list[dict[str, Any]]
    problems: list[str] = field(default_factory=list)
    spans: list | None = None
    server_spans: list | None = None
    extra: dict[str, Any] = field(default_factory=dict)


# -- in-process workloads ----------------------------------------------------

def run_in_process(spec: Spec, seed: int, seconds: int, clock: PairedClock,
                   setups: int, tracer: Tracer | None) -> RunResult:
    base = os.path.join(common.WORK_DIR, f"{spec.name}-{os.getpid()}")
    setup_phases, setup_counts = [], []
    store = None
    try:
        streams = spec.streams(seed, seconds)
        for attempt in range(setups):
            if store is not None:
                store.close()
                shutil.rmtree(path)
            path = os.path.join(base, f"store{attempt}")
            store, phase, recorder = run_setup(
                clock, lambda: spec.open(path), streams.setup)
            setup_phases.append(phase)
            setup_counts.append(dict(engine_counts(store),
                                     disk_bytes=disk_bytes(path)))
        before = engine_counts(store)
        probes_before = embedded_probes(store)
        io_by_kind: dict[str, dict[str, int]] = defaultdict(
            lambda: defaultdict(int))
        vfses = list({id(db.vfs): db.vfs
                      for db in databases(store)}.values())
        last_io = [_io_totals(vfses)]
        offset = [0]

        def run_op(op: Any) -> tuple:
            return (recorder.watermark, execute(store, op))

        def traced_op(op: Any) -> tuple:
            tracer.set_op(offset[0])
            return (recorder.watermark, execute(store, op))

        def traced_after(op: Any, outcome: tuple) -> None:
            recorder.after(op, outcome)
            offset[0] += 1
            now = _io_totals(vfses)
            bucket = io_by_kind[kind_of(op)]
            for key, value in now.items():
                bucket[key] += value - last_io[0].get(key, 0)
            bucket["ops"] += 1
            last_io[0] = now

        phases = []
        gc.collect()
        if tracer is not None:
            tracer.enabled = True
        for name, ops in (("timed", streams.timed),
                          ("probe", streams.probe)):
            if ops:
                phases.append(clock.run(
                    name, ops, traced_op if tracer else run_op, kind_of,
                    traced_after if tracer else recorder.after))
        if tracer is not None:
            tracer.enabled = False
        counts = delta(engine_counts(store), before)
        recorder.check()
        recorder.recheck_exhaustive(store, streams.timed + streams.probe,
                                    RECHECK_RANGES)
        problems = [f"verify_integrity: {label}: {report.problems}"
                    for label, report in store.verify_integrity().items()
                    if not report.ok]
        live = live_user_bytes(recorder.model.live_documents())
        space_amp = disk_bytes(path) / live
        counts["disk_bytes"] = disk_bytes(path)
        counts["live_user_bytes"] = live
        probes = delta(embedded_probes(store), probes_before)
        store.close()
        store = None
    finally:
        if store is not None:
            store.close()
        shutil.rmtree(base, ignore_errors=True)
    result = RunResult(setup_phases, phases, recorder, space_amp, counts,
                       setup_counts, problems)
    result.extra = {"io_by_kind": {k: dict(v) for k, v in io_by_kind.items()},
                    "embedded_probes": probes,
                    "op_kinds": [kind_of(op)
                                 for op in streams.timed + streams.probe]}
    if tracer is not None:
        result.spans = tracer.spans()
    return result


def _io_totals(vfses: list) -> dict[str, int]:
    totals: dict[str, int] = defaultdict(int)
    for vfs in vfses:
        stats = vfs.stats
        totals["read_blocks"] += stats.read_blocks
        for category, blocks in stats.reads_by_category.items():
            totals[f"read_blocks.{category}"] += blocks
    return totals


def embedded_probes(store: Any) -> dict[str, int]:
    """``EmbeddedIndex.probe_stats()`` summed over every embedded index."""
    if hasattr(store, "data_shards"):
        facades = [replica.db for group in store.data_shards
                   for replica in group.replicas]
    else:
        facades = [store]
    totals: dict[str, int] = defaultdict(int)
    for facade in facades:
        for index in facade.indexes.values():
            if index.kind == IndexKind.EMBEDDED:
                for key, value in index.probe_stats().items():
                    totals[key] += value
    return dict(totals)


# -- served workload -----------------------------------------------------------

def run_served(spec: Spec, seed: int, seconds: int, clock: PairedClock,
               setups: int, tracer: Tracer | None,
               reference_ms: float) -> RunResult:
    base = os.path.join(common.WORK_DIR, f"{spec.name}-{os.getpid()}")
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(base)
    span_file = os.path.join(base, "server-spans.bin")
    command = [sys.executable, os.path.join(common.ROOT, "stackbench",
                                            "serve.py"),
               "--dir", base, "--seed", str(seed), "--setups", str(setups),
               "--reference-slice-ms", repr(reference_ms)]
    if tracer is not None:
        command += ["--trace", span_file]
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            cwd=common.ROOT)
    clients: list[Client] = []
    try:
        ready = json.loads(proc.stdout.readline() or "null")
        if ready is None:
            raise RuntimeError("server launcher exited before listening")
        streams = spec.streams(seed, seconds)
        model = Model()
        for offset, op in enumerate(streams.setup):
            model.record_put(op.key, op.document, ready["first_seq"] + offset)
        recorder = Recorder(model)
        recorder.watermark = ready["last_seq"]
        recorder.failed += ready["failed"]
        timed_ops = streams.timed
        probe_ops = streams.probe
        clients_ops = [timed_ops[0::2], timed_ops[1::2]]
        clients = [Client(ready["host"], ready["port"], pool_size=1)
                   for _ in clients_ops]

        issued = [0] * (len(clients) + 1)

        def run_op(client_index: int, op: Any) -> tuple:
            if tracer is not None:
                # Index of the op in timed_ops + probe_ops: the two streams
                # interleave timed_ops; the probe runs on client 0 after it.
                position = issued[client_index]
                issued[client_index] += 1
                tracer.set_op(position * len(clients) + client_index)
            return (recorder.watermark, execute(clients[client_index], op))

        def run_probe(op: Any) -> tuple:
            if tracer is not None:
                tracer.set_op(len(timed_ops) + issued[-1])
                issued[-1] += 1
            return (recorder.watermark, execute(clients[0], op))

        stats_before = clients[0].stats()
        gc.collect()
        if tracer is not None:
            tracer.enabled = True
        phases = [clock.run_threads("timed", clients_ops, run_op, kind_of,
                                    recorder.after)]
        phases.append(clock.run("probe", probe_ops, run_probe, kind_of,
                                recorder.after))
        if tracer is not None:
            tracer.enabled = False
        stats_after = clients[0].stats()
        for client in clients:
            client.close()
        clients = []
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=120)
        final = json.loads(out.strip().splitlines()[-1])
    finally:
        for client in clients:
            client.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=60)
    problems = []
    if proc.returncode != 0:
        problems.append(f"server launcher exited with {proc.returncode}")
    if final["leaked_threads"]:
        problems.append(f"server leaked {final['leaked_threads']} threads")
    recorder.check()
    path = ready["path"]
    live_docs = recorder.model.live_documents()
    on_disk = disk_bytes(path)
    # Durability: reopen the drained store from disk in this process.
    db = open_indexed(path, COMPOSITE_EMBEDDED, LARGE_CACHE_BYTES)
    try:
        lost = sum(1 for key, document in live_docs.items()
                   if db.get(key) != document)
        if lost:
            problems.append(f"{lost} acknowledged writes not readable "
                            "after reopen")
        recorder.recheck_exhaustive(db, timed_ops + probe_ops,
                                    RECHECK_RANGES)
        problems += [f"verify_integrity: {label}: {report.problems}"
                     for label, report in db.verify_integrity().items()
                     if not report.ok]
    finally:
        db.close()
    server_spans = Tracer.load(span_file).spans() if tracer else None
    shutil.rmtree(base, ignore_errors=True)
    engine_before, engine_after = stats_before["db"], stats_after["db"]
    counts = {
        "block_cache_hits": engine_after["block_cache"]["hits"]
        - engine_before["block_cache"]["hits"],
        "block_cache_misses": engine_after["block_cache"]["misses"]
        - engine_before["block_cache"]["misses"],
        "table_cache_hits": engine_after["table_cache"]["hits"]
        - engine_before["table_cache"]["hits"],
        "table_cache_misses": engine_after["table_cache"]["misses"]
        - engine_before["table_cache"]["misses"],
        "primary_write_bytes": engine_after["io"]["write_bytes"]
        - engine_before["io"]["write_bytes"],
        "disk_bytes": on_disk,
        "live_user_bytes": live_user_bytes(live_docs),
    }
    server = stats_after["server"]
    result = RunResult([], phases, recorder,
                       on_disk / counts["live_user_bytes"], counts,
                       [setup["counts"] for setup in ready["setups"]],
                       problems)
    result.extra = {
        "server_calibration": ready["calibration"],
        "setup_s": [s["calibrated_s"] for s in ready["setups"]],
        "setup_raw_s": [s["raw_s"] for s in ready["setups"]],
        "coalesced_ops_per_group": (
            server["coalesced_ops"] / server["coalesced_groups"]
            if server["coalesced_groups"] else 0.0),
    }
    result.extra["op_kinds"] = [kind_of(op) for op in timed_ops + probe_ops]
    result.spans = tracer.spans() if tracer else None
    result.server_spans = server_spans
    return result


# -- metrics -------------------------------------------------------------------

def setup_seconds(result: RunResult) -> tuple[list[float], list[float]]:
    if "setup_s" in result.extra:
        return result.extra["setup_s"], result.extra["setup_raw_s"]
    return ([phase.calibrated_s for phase in result.setups],
            [phase.raw_s for phase in result.setups])


def end_to_end(result: RunResult) -> tuple[dict[str, float], dict]:
    """Calibrated metrics, plus diagnostics with raw values and counts."""
    timed = result.phases[0]
    metrics: dict[str, float] = {}
    diagnostics: dict[str, Any] = {}

    def put(name: str, calibrated: float, raw: float, samples: int) -> None:
        metrics[name] = calibrated
        diagnostics[name] = {"calibrated": calibrated, "raw": raw,
                             "samples": samples}

    setup, setup_raw = setup_seconds(result)
    put("setup_s", statistics.median(setup), statistics.median(setup_raw),
        len(setup))
    put("ops_per_s", timed.ops / timed.calibrated_s, timed.ops / timed.raw_s,
        timed.ops)
    for kind in KINDS:
        cal = [s for p in result.phases for s in p.samples(kind)]
        raw = [s for p in result.phases for s in p.samples(kind, False)]
        if not cal:
            continue
        put(f"{kind}_p50_us", statistics.median(cal) * 1e6,
            statistics.median(raw) * 1e6, len(cal))
        # Only the PUT tail (inline flush/compaction spikes) is a metric;
        # the other p99s are diagnostics.  ``tail_supported`` says whether
        # at least 10 samples lie beyond the p99.
        entry = {"calibrated": percentile(cal, 0.99) * 1e6,
                 "raw": percentile(raw, 0.99) * 1e6, "samples": len(cal),
                 "tail_supported": tail_supported(len(cal), 0.99)}
        if kind == "put":
            metrics["put_p99_us"] = entry["calibrated"]
        diagnostics[f"{kind}_p99_us"] = entry
    metrics["space_amp"] = result.space_amp
    diagnostics["space_amp"] = result.space_amp
    return metrics, diagnostics


def per_layer(result: RunResult, untraced_ops_per_s: float,
              traced_ops_per_s: float
              ) -> tuple[dict[str, float], dict[str, Any], bool]:
    """Per-layer metrics, diagnostics and whether the layer times
    reconcile with the client-measured time (see BENCHMARK.json)."""
    windows = sorted((w.start_ns, w.factor)
                     for phase in result.phases for w in phase.windows)
    starts = [start for start, _factor in windows]

    def factor_at(start_ns: int) -> float:
        index = bisect_right(starts, start_ns) - 1
        return windows[max(index, 0)][1]

    count: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)     # calibrated incl. s
    self_s: dict[str, float] = defaultdict(float)    # calibrated self s
    root_self: dict[str, float] = defaultdict(float)  # raw self s
    server_root_self: dict[str, float] = defaultdict(float)
    breakdown: dict[str, dict[str, float]] = defaultdict(
        lambda: defaultdict(float))
    wal_sync_count = 0
    wal_sync_s = 0.0
    all_spans = list(result.spans or []) + [
        ("server:" + span[0],) + tuple(span[1:])
        for span in (result.server_spans or [])]
    names_by_index = [span[0] for span in result.spans or []]
    server_names = [span[0] for span in result.server_spans or []]
    # Server spans carry no op index: each belongs to the op type of its
    # outermost facade span.  Server codec spans lie outside any facade
    # span; they are split across op types in proportion to the client's
    # codec time per type (the same frames, encoded on one side and
    # decoded on the other).
    server_root = []
    for index, span in enumerate(result.server_spans or []):
        server_root.append(index if span[5] < 0 else server_root[span[5]])
    server_by_kind: dict[str, dict[str, float]] = defaultdict(
        lambda: defaultdict(float))
    server_shared = 0.0
    for position, (name, start, duration, own, op, parent) in enumerate(
            all_spans):
        server = name.startswith("server:")
        bare = name[7:] if server else name
        factor = factor_at(start)
        count[bare] += 1
        total[bare] += duration * factor / 1e9
        self_s[bare] += own * factor / 1e9
        if server:
            total["server-side:" + bare] += duration * factor / 1e9
            count["server-side:" + bare] += 1
            parent_name = server_names[parent] if parent >= 0 else None
        else:
            parent_name = names_by_index[parent] if parent >= 0 else None
        if bare == "lsm.vfs.sync" and parent_name == "lsm.wal.append":
            wal_sync_count += 1
            wal_sync_s += duration * factor / 1e9
        if op >= 0 and not server:
            # A root span's self time is work inside the facade (or the
            # client stub) that no layer span covers: unattributed.
            kind = result.extra["op_kinds"][op]
            if parent >= 0:
                breakdown[kind][bare] += own / 1e9
            else:
                root_self[kind] += own / 1e9
        elif server:
            root_index = server_root[position - len(names_by_index)]
            root = server_names[root_index]
            if root.startswith("core.database."):
                kind = root.split(".")[-1].replace("_", "")
                if root_index == position - len(names_by_index):
                    server_root_self[kind] += own / 1e9
                else:
                    server_by_kind[kind][bare] += own / 1e9
            else:
                server_shared += own / 1e9

    recorder = result.recorder
    ops = defaultdict(int)
    client_raw = defaultdict(float)
    for phase in result.phases:
        for kind, pairs in phase.latencies.items():
            ops[kind] += len(pairs)
            client_raw[kind] += sum(raw for raw, _cal in pairs)
    all_ops = sum(ops.values())
    queries = ops["lookup"] + ops["rangelookup"]

    def mean_us(name: str) -> float:
        return total[name] / count[name] * 1e6 if count[name] else 0.0

    def self_us(name: str) -> float:
        return self_s[name] / count[name] * 1e6 if count[name] else 0.0

    def per(value: float, base: int) -> float:
        return value / base if base else 0.0

    database_self = sum(v for k, v in self_s.items()
                        if k.startswith("core.database."))
    counts = result.counts
    m: dict[str, float] = {}
    m["core.database.self_us_per_op"] = per(database_self * 1e6, all_ops)
    m["core.lazy.on_put_us"] = mean_us("core.lazy.on_put")
    m["core.lazy.lookup_us"] = mean_us("core.lazy.lookup")
    m["core.composite.on_put_us"] = mean_us("core.composite.on_put")
    m["core.composite.lookup_us"] = mean_us("core.composite.lookup")
    m["core.embedded.on_put_us"] = mean_us("core.embedded.on_put")
    m["core.embedded.range_lookup_us"] = mean_us("core.embedded.range_lookup")
    probes = result.extra.get("embedded_probes", {})
    m["core.embedded.filter_probes_per_rangelookup"] = per(
        probes.get("filter_probes", 0), ops["rangelookup"])
    m["core.embedded.blocks_read_per_rangelookup"] = per(
        probes.get("blocks_read", 0), ops["rangelookup"])
    validated = count["core.validity.fetch_valid"] \
        + count["core.validity.getlite"]
    m["core.validity.fetch_valid_per_lookup"] = per(
        count["core.validity.fetch_valid"], queries)
    m["core.validity.fetch_valid_us"] = mean_us("core.validity.fetch_valid")
    m["core.validity.useful_ratio"] = per(recorder.results_returned,
                                          validated)
    m["core.embedded.early_topk_exact_ratio"] = per(
        recorder.early_ranges - recorder.early_ranges_inexact,
        recorder.early_ranges)
    m["lsm.db.write_self_us"] = self_us("lsm.db.write")
    m["lsm.db.get_self_us"] = self_us("lsm.db.get")
    m["lsm.wal.append_us"] = per(
        (total["lsm.wal.append"] - wal_sync_s) * 1e6,
        count["lsm.wal.append"])
    m["lsm.wal.sync_us"] = per(wal_sync_s * 1e6, wal_sync_count)
    m["lsm.wal.syncs_per_put"] = per(wal_sync_count, ops["put"])
    m["lsm.compaction.flush_s"] = total["lsm.compaction.flush"]
    m["lsm.compaction.flushes"] = count["lsm.compaction.flush"]
    m["lsm.compaction.compact_s"] = total["lsm.compaction.compact"]
    m["lsm.compaction.compactions"] = count["lsm.compaction.compact"]
    written = counts.get("write_bytes", counts.get("primary_write_bytes", 0))
    m["lsm.write_amp"] = per(written, recorder.user_bytes_written)
    m["lsm.sstable.read_block_us"] = mean_us("lsm.sstable.read_block")
    io_by_kind = result.extra.get("io_by_kind", {})
    for kind, label in (("get", "get"), ("lookup", "lookup"),
                        ("rangelookup", "rangelookup")):
        bucket = io_by_kind.get(kind, {})
        m[f"lsm.vfs.read_blocks_per_{label}"] = per(
            bucket.get("read_blocks", 0), bucket.get("ops", 0))
        for category in ("data", "index", "filter"):
            m[f"lsm.vfs.read_blocks_per_{label}.{category}"] = per(
                bucket.get(f"read_blocks.{category}", 0), bucket.get("ops", 0))
    m["lsm.cache.block_hit_rate"] = per(
        counts["block_cache_hits"],
        counts["block_cache_hits"] + counts["block_cache_misses"])
    m["lsm.cache.table_hit_rate"] = per(
        counts["table_cache_hits"],
        counts["table_cache_hits"] + counts["table_cache_misses"])
    m["lsm.vfs.read_us"] = mean_us("lsm.vfs.read")
    m["lsm.vfs.write_us"] = mean_us("lsm.vfs.write")
    m["lsm.vfs.sync_us"] = mean_us("lsm.vfs.sync")
    m["dist.cluster.route_self_us"] = self_us("dist.cluster.put")
    m["dist.replication.fanout_us"] = mean_us("dist.replication.put")
    m["dist.replication.replica_writes_per_put"] = per(
        count["core.database.put"], ops["put"]) \
        if count["dist.cluster.put"] else 0.0
    m["dist.gsi.on_put_us"] = mean_us("dist.gsi.on_put")
    m["dist.gsi.lookup_us"] = mean_us("dist.gsi.lookup")
    m["dist.cluster.shards_per_rangelookup"] = per(
        count["dist.replication.range_lookup"], ops["rangelookup"]) \
        if count["dist.cluster.range_lookup"] else 0.0

    # Network path: client round trips vs. server-side and codec time.
    requests = sum(count[f"server.client.{op}"]
                   for op in ("put", "get", "lookup", "range_lookup"))
    client_self = sum(self_s[f"server.client.{op}"]
                      for op in ("put", "get", "lookup", "range_lookup"))
    server_side = sum(total[f"server-side:core.database.{op}"]
                      for op in ("put", "get", "lookup", "range_lookup"))
    server_codec = total["server-side:protocol.codec"]
    m["protocol.codec_us_per_req"] = per(total["protocol.codec"] * 1e6,
                                         requests)
    wire = client_self - server_side - server_codec
    m["server.wire_us_per_req"] = per(wire * 1e6, requests)
    m["server.coalesced_ops_per_group"] = result.extra.get(
        "coalesced_ops_per_group", 0.0)

    # Reconciliation: per op type, the client-measured time is the named
    # layers' self times plus the unattributed rest -- the harness gap
    # outside the root span and the root facade's own self time, where any
    # work no layer span covers lands.  The rest must stay within tolerance.
    worst = 0.0
    reconcile: dict[str, Any] = {}
    wire_ok = True
    client_codec = sum(breakdown[kind]["protocol.codec"] for kind in KINDS)
    for kind in KINDS:
        if not ops[kind]:
            m[f"unattributed_us_per_op.{kind}"] = 0.0
            continue
        if result.server_spans is not None:
            # The client stub's self time is the round trip: split it into
            # the server's layers, a share of the server's codec time, the
            # server facade's own time and the wire residual.
            round_trip = root_self[kind]
            inside = server_shared * per(breakdown[kind]["protocol.codec"],
                                         client_codec) \
                + server_root_self[kind]
            breakdown[kind]["server:protocol.codec"] = inside \
                - server_root_self[kind]
            for layer, seconds in server_by_kind[kind].items():
                breakdown[kind]["server:" + layer] = seconds
                inside += seconds
            breakdown[kind]["server.wire"] = round_trip - inside
            wire_ok = wire_ok and round_trip >= inside
        attributed = sum(breakdown[kind].values())
        unattributed = (client_raw[kind] - attributed) / ops[kind]
        m[f"unattributed_us_per_op.{kind}"] = unattributed * 1e6
        share = abs(unattributed) / (client_raw[kind] / ops[kind])
        worst = max(worst, share)
        layers = {name: value / ops[kind] * 1e6
                  for name, value in sorted(breakdown[kind].items())}
        facade_self = server_root_self[kind] \
            if result.server_spans is not None else root_self[kind]
        reconcile[kind] = {"client_us_per_op": client_raw[kind]
                           / ops[kind] * 1e6,
                           "layer_self_us_per_op": layers,
                           "unattributed_us_per_op": unattributed * 1e6,
                           "facade_self_us_per_op": facade_self / ops[kind]
                           * 1e6}
    ok = worst <= RECONCILE_TOLERANCE and wire_ok
    m["reconcile.max_unattributed_pct"] = worst * 100
    m["reconcile.within_tolerance"] = 1.0 if ok else 0.0
    m["tracing.overhead_pct"] = (untraced_ops_per_s / traced_ops_per_s
                                 - 1) * 100
    diagnostics = {"reconcile": reconcile,
                   "tolerance_pct": RECONCILE_TOLERANCE * 100,
                   "span_counts": dict(count)}
    return m, diagnostics, ok


# -- driver --------------------------------------------------------------------

def run_once(spec: Spec, seed: int, seconds: int, reference_ms: float,
             setups: int, traced: bool) -> tuple[RunResult, PairedClock]:
    clock = PairedClock(reference_ms / 1e3)
    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install(FACADE_SPANS + CLUSTER_SPANS
                       if spec.name != "serve_mixed" else CLIENT_SPANS)
    try:
        if spec.name == "serve_mixed":
            result = run_served(spec, seed, seconds, clock, setups, tracer,
                                reference_ms)
        else:
            result = run_in_process(spec, seed, seconds, clock, setups,
                                    tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return result, clock


def determinism_problems(spec: Spec, runs: list[RunResult]) -> list[str]:
    """Counts that must repeat exactly but drifted (nondeterministic work)."""
    problems = []
    for run in runs:
        first = run.setup_counts[0]
        for index, counts in enumerate(run.setup_counts[1:], start=1):
            drift = {k: (first.get(k), counts.get(k))
                     for k in set(first) | set(counts)
                     if first.get(k) != counts.get(k)}
            if drift:
                problems.append(f"setup {index} counts drifted: {drift}")
    if spec.name != "serve_mixed" and len(runs) == 2:
        a, b = runs[0].counts, runs[1].counts
        drift = {k: (a.get(k), b.get(k)) for k in set(a) | set(b)
                 if a.get(k) != b.get(k)}
        if drift:
            problems.append(f"timed-phase counts drifted: {drift}")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference-slice-ms", type=float, required=True,
                        help="calibration slice of the reference machine")
    args = parser.parse_args(argv)
    spec = SPECS[args.workload]
    started = time.perf_counter()

    untraced, clock = run_once(spec, args.seed, args.seconds,
                               args.reference_slice_ms, SETUPS, traced=False)
    runs = [untraced]
    metrics, diagnostics = end_to_end(untraced)
    report: dict[str, Any] = {"workload": spec.name, "seed": args.seed,
                              "end_to_end": diagnostics,
                              "calibration": clock.diagnostics(),
                              "counts": untraced.counts,
                              "setup_counts": untraced.setup_counts[0]}
    if "server_calibration" in untraced.extra:
        report["server_calibration"] = untraced.extra["server_calibration"]
    reconcile_ok = True
    if args.trace:
        traced, _ = run_once(spec, args.seed, args.seconds,
                             args.reference_slice_ms, 1, traced=True)
        runs.append(traced)
        traced_metrics, _ = end_to_end(traced)
        metrics, layer_diagnostics, reconcile_ok = per_layer(
            traced, untraced_ops_per_s=diagnostics["ops_per_s"]["calibrated"],
            traced_ops_per_s=traced_metrics["ops_per_s"])
        report["per_layer"] = layer_diagnostics
    problems = [p for run in runs for p in run.problems]
    problems += determinism_problems(spec, runs)
    if not reconcile_ok:
        problems.append("traced layer times do not reconcile with the "
                        "client-measured time")
    attempted = sum(run.recorder.attempted for run in runs)
    failed = sum(run.recorder.failed for run in runs)
    report["errors"] = [e for run in runs for e in run.recorder.errors]
    report["early_terminated_rangelookups"] = [
        {"answers": run.recorder.early_ranges,
         "inexact": run.recorder.early_ranges_inexact} for run in runs]
    report["problems"] = problems
    report["phase_wall_s"] = {phase.name: phase.wall_s
                              for phase in untraced.phases}
    report["wall_s"] = time.perf_counter() - started
    print(json.dumps(report, sort_keys=True, default=str))
    units = {"setup_s": "s", "ops_per_s": "1/s", "space_amp": "ratio"}
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value,
                           "unit": units.get(name, _layer_unit(name))}
                    for name, value in metrics.items()},
    }
    try:
        os.rmdir(common.WORK_DIR)
    except OSError:
        pass  # another run still uses it
    print(json.dumps(result))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_us") or "_us_" in name or name.endswith("_us_per_op"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("ratio") or name.endswith("_rate") \
            or name == "lsm.write_amp" or name.endswith("within_tolerance"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
