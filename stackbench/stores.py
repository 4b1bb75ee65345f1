"""Store construction, execution and counting shared by the benchmark
process and its server launcher.  Only public entry points are used."""

from __future__ import annotations

import os
import threading
from dataclasses import replace
from typing import Any, Callable

from harness import BENCH_OPTIONS
from repro.core.base import IndexKind
from repro.core.database import SecondaryIndexedDB
from repro.core.records import encode_document, key_to_bytes
from repro.dist.cluster import ShardedDB
from repro.lsm.vfs import LocalVFS
from repro.workloads.ops import Operation, Put

from oracle import EXACT, INEXACT, WRONG, Model
from paired import PairedClock, PhaseResult

#: Block cache far smaller than the in-process stores (~0.7 MB of tables).
SMALL_CACHE_BYTES = 64 * 1024
#: Block cache larger than the whole served store (~0.4 MB of tables).
LARGE_CACHE_BYTES = 8 * 1024 * 1024

LAZY_EMBEDDED = {"UserID": IndexKind.LAZY, "CreationTime": IndexKind.EMBEDDED}
COMPOSITE_EMBEDDED = {"UserID": IndexKind.COMPOSITE,
                      "CreationTime": IndexKind.EMBEDDED}


def open_indexed(path: str, indexes: dict,
                 cache_bytes: int) -> SecondaryIndexedDB:
    # background_compaction stays False: flush and compaction run inline,
    # so one client's work -- and every count -- repeats exactly.
    # sync_writes stays False: an fsync's latency is the disk's, which the
    # CPU calibration slice cannot cancel; with it the served workload's
    # PUT p50 and p99 spread 23% and 47% across seeds, against 7% and 10%
    # without.
    options = replace(BENCH_OPTIONS, block_cache_size=cache_bytes,
                      sync_writes=False, background_compaction=False)
    return SecondaryIndexedDB.open(LocalVFS(path), "data", indexes, options)


def open_cluster(path: str) -> ShardedDB:
    """2 data shards x RF=2, local CreationTime=EMBEDDED, global UserID."""
    options = replace(BENCH_OPTIONS, block_cache_size=SMALL_CACHE_BYTES,
                      background_compaction=False)
    return ShardedDB.open(
        lambda shard, replica: LocalVFS(
            os.path.join(path, f"shard{shard}-replica{replica}")),
        num_shards=2, replication_factor=2,
        local_indexes={"CreationTime": IndexKind.EMBEDDED},
        global_indexes=("UserID",), options=options)


def run_setup(clock: PairedClock, open_store: Callable[[], Any],
              writes: list[Put]) -> tuple[Any, PhaseResult, "Recorder"]:
    """Open a store and apply the setup ``writes`` as one calibrated phase;
    opening the store is part of setup time."""
    recorder = Recorder(Model())
    holder: dict[str, Any] = {}

    def run(op: Put | None) -> tuple:
        if op is None:
            holder["store"] = open_store()
            return (0, None)
        return (0, execute(holder["store"], op))

    def after(op: Put | None, outcome: tuple) -> None:
        if op is not None:
            recorder.after(op, outcome)

    phase = clock.run("setup", [None] + writes, run, lambda _op: "setup",
                      after)
    return holder["store"], phase, recorder


class Failure:
    """An operation that raised; counted as failed, never as a result."""

    def __init__(self, exc: BaseException) -> None:
        self.error = f"{type(exc).__name__}: {exc}"


def execute(store: Any, op: Operation) -> Any:
    """Run one op against a facade (or a server client) with one API."""
    name = op.op_name
    try:
        if name == "put":
            return store.put(op.key, op.document)
        if name == "get":
            return store.get(op.key)
        if name == "lookup":
            return store.lookup(op.attribute, op.value, op.k)
        return store.range_lookup(op.attribute, op.low, op.high, op.k)
    except Exception as exc:  # noqa: BLE001 - a failed op is a metric
        return Failure(exc)


class Recorder:
    """Feeds acknowledged writes to the model and keeps every read answer
    for the oracle.  Safe to call from several client threads."""

    def __init__(self, model) -> None:
        self.model = model
        self.watermark = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.reads: list[tuple] = []
        self.results_returned = 0
        self.user_bytes_written = 0
        #: Early-terminated RANGELOOKUP answers checked, and how many of
        #: them were sound but not the exact top-K (see ``oracle.py``).
        self.early_ranges = 0
        self.early_ranges_inexact = 0
        self._lock = threading.Lock()

    def after(self, op: Operation, outcome: tuple) -> None:
        watermark, result = outcome
        with self._lock:
            self.attempted += 1
            if isinstance(result, Failure):
                self.failed += 1
                if len(self.errors) < 5:
                    self.errors.append(f"{op.op_name}: {result.error}")
                return
            name = op.op_name
            if name == "put":
                self.model.record_put(op.key, op.document, result)
                self.watermark = max(self.watermark, result)
                self.user_bytes_written += (len(key_to_bytes(op.key))
                                            + len(encode_document(op.document)))
            elif name == "get":
                self.reads.append((op, watermark, result))
            else:
                answer = [_triple(item) for item in result]
                self.results_returned += len(answer)
                self.reads.append((op, watermark, answer))

    def check(self) -> None:
        """Check every read answer against the model (after the run)."""
        model = self.model
        for op, watermark, answer in self.reads:
            if op.op_name == "get":
                verdict = EXACT if model.check_get(op.key, watermark,
                                                   answer) else WRONG
            else:
                # Every RANGELOOKUP here runs on an embedded CreationTime
                # index with the API's default early termination.
                early = op.op_name == "range_lookup" and op.k is not None
                verdict = model.check_query(op, watermark, answer, early)
                if early:
                    self.early_ranges += 1
                    self.early_ranges_inexact += verdict == INEXACT
            if verdict == WRONG:
                self.fail(op, watermark, answer)
        self.reads.clear()

    def recheck_exhaustive(self, store: Any, ops: list[Operation],
                           limit: int) -> None:
        """Re-issue up to ``limit`` distinct RANGELOOKUPs of ``ops`` with
        ``early_termination=False`` against the store's final state and
        require the exact top-K.  Runs after the timed phases."""
        seen = set()
        for op in ops:
            if op.op_name != "range_lookup" or op in seen:
                continue
            if len(seen) >= limit:
                break
            seen.add(op)
            self.attempted += 1
            try:
                answer = [_triple(item) for item in store.range_lookup(
                    op.attribute, op.low, op.high, op.k,
                    early_termination=False)]
            except Exception as exc:  # noqa: BLE001 - a failed op
                self.fail(op, self.watermark, Failure(exc).error)
                continue
            if self.model.check_query(op, self.watermark, answer) != EXACT:
                self.fail(op, self.watermark, answer)

    def fail(self, op: Operation, watermark: int, answer: Any) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            got = answer if not isinstance(answer, list) else [
                (key, seq) for key, _doc, seq in answer]
            self.errors.append(f"wrong answer: {op} at "
                               f"watermark {watermark}: {got}")


def _triple(item: Any) -> tuple:
    if isinstance(item, (list, tuple)):
        return (item[0], item[1], item[2])
    return (item.key, item.document, item.seq)


# -- counting -----------------------------------------------------------------

def databases(store: Any) -> list:
    """Every engine ``DB`` behind a facade: primary and index tables,
    across replicas and global index shards for a cluster."""
    if isinstance(store, ShardedDB):
        dbs = []
        for group in store.data_shards:
            for replica in group.replicas:
                dbs.extend(databases(replica.db))
        for gsi in store.global_indexes.values():
            dbs.extend(shard.index_db for shard in gsi.shards)
        return dbs
    dbs = [store.primary]
    for index in store.indexes.values():
        index_db = getattr(index, "index_db", None)
        if index_db is not None:
            dbs.append(index_db)
    return dbs


def engine_counts(store: Any) -> dict[str, Any]:
    """Deterministic engine counters summed over every table."""
    totals: dict[str, Any] = {}
    seen_vfs: set[int] = set()

    def add(name: str, value: int) -> None:
        totals[name] = totals.get(name, 0) + value

    for db in databases(store):
        stats = db.stats()
        compaction = stats["compaction"]
        add("flush_count", compaction["flush_count"])
        add("compaction_count", compaction["compaction_count"])
        add("bytes_flushed", compaction["bytes_flushed"])
        add("bytes_compacted_out", compaction["bytes_compacted_out"])
        add("table_cache_hits", stats["table_cache"]["hits"])
        add("table_cache_misses", stats["table_cache"]["misses"])
        cache = stats["block_cache"] or {"hits": 0, "misses": 0}
        add("block_cache_hits", cache["hits"])
        add("block_cache_misses", cache["misses"])
        if id(db.vfs) in seen_vfs:
            continue
        seen_vfs.add(id(db.vfs))
        io = db.io_stats
        add("read_blocks", io.read_blocks)
        add("write_blocks", io.write_blocks)
        add("write_bytes", io.write_bytes)
        for category, blocks in io.reads_by_category.items():
            add(f"read_blocks.{category}", blocks)
    return totals


def delta(after: dict[str, Any], before: dict[str, Any]) -> dict[str, Any]:
    return {key: value - before.get(key, 0) for key, value in after.items()}


def disk_bytes(path: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total


def live_user_bytes(documents: dict[str, dict]) -> int:
    return sum(len(key_to_bytes(key)) + len(encode_document(document))
               for key, document in documents.items())
