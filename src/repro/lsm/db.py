"""The database: LevelDB's public surface, plus the probes LevelDB++ needs.

:class:`DB` wires together the MemTable, WAL, SSTables, versioned manifest
and compactor into a single-node key-value store with the three base
operations of the paper's Table 1 — ``PUT(k, v)``, ``GET(k)``, ``DEL(k)`` —
plus:

* ``merge(k, operand)``: RocksDB-style merge writes, the mechanism behind
  the Lazy index's append-only posting-list updates;
* ``scan(lo, hi)``: user-visible range iteration (the "range query API on
  primary key" the Eager index uses for RANGELOOKUP);
* ``scan_level`` / ``fragments_by_level``: raw per-level access, which the
  Lazy and Composite indexes need for level-at-a-time traversal;
* ``key_maybe_in_levels``: the in-memory presence probe behind the
  Embedded index's GetLite validity check.

By default, writes are synchronous and single-threaded (the paper chose
LevelDB for exactly this property, to isolate index costs); a MemTable
flush and any due compactions run inline in the writing call.

With ``options.background_compaction`` the engine instead runs LevelDB's
background maintenance pipeline (DESIGN.md §8): the full MemTable seals
into an *immutable* MemTable that a dedicated compactor thread flushes
while a fresh MemTable absorbs writes; compactions run on the same
thread; concurrent writers queue behind a leader that appends and syncs
all their WAL batches at once (group commit); level-0 pileups slow and
then stop writers (backpressure waits instead of
:class:`~repro.lsm.errors.WriteStallError`); and readers pin a
``(MemTable, immutable MemTable, Version)`` triple plus the published
sequence number, so every read observes a consistent snapshot without
holding the mutex.
"""

from __future__ import annotations

import errno
import heapq
import logging
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable, Iterator

from repro.lsm.compaction import Compaction, Compactor, pick_compaction
from repro.lsm.errors import (
    CorruptionError,
    DBClosedError,
    InvalidArgumentError,
    ReadOnlyError,
)
from repro.lsm.iterator import merge_streams
from repro.lsm.keys import (
    KIND_DELETE,
    KIND_FOR_SEEK,
    KIND_MERGE,
    KIND_VALUE,
    InternalKey,
    MAX_SEQUENCE,
    decode_length_prefixed,
    decode_varint,
    encode_length_prefixed,
    encode_varint,
    pack_internal_key,
)
from repro.lsm.manifest import (
    ManifestWriter,
    current_tmp_file_name,
    log_file_name,
    recover_version_set,
    table_file_name,
)
from repro.lsm.memtable import MemTable
from repro.lsm.options import Options
from repro.lsm.tablecache import TableCache
from repro.lsm.vfs import Category, MemoryVFS, VFS
from repro.lsm.version import VersionEdit, VersionSet
from repro.lsm.wal import LogReader, LogWriter

FlushListener = Callable[[int], None]

logger = logging.getLogger(__name__)


def _parse_file_number(base: str) -> int | None:
    """File number encoded in a ``NNNNNN.ldb``/``NNNNNN.log`` basename.

    Returns ``None`` for names the engine did not produce (editor
    droppings, half-renamed scratch files): recovery must tolerate them,
    not crash on them.
    """
    stem = base.split(".")[0]
    return int(stem) if stem.isdigit() else None


class WriteBatch:
    """An atomic group of writes, applied under consecutive sequence numbers."""

    def __init__(self) -> None:
        self.ops: list[tuple[int, bytes, bytes]] = []

    def put(self, key: bytes, value: bytes) -> "WriteBatch":
        self.ops.append((KIND_VALUE, key, value))
        return self

    def delete(self, key: bytes) -> "WriteBatch":
        self.ops.append((KIND_DELETE, key, b""))
        return self

    def merge(self, key: bytes, operand: bytes) -> "WriteBatch":
        self.ops.append((KIND_MERGE, key, operand))
        return self

    def __len__(self) -> int:
        return len(self.ops)

    def encode(self, start_seq: int) -> bytes:
        out = bytearray(encode_varint(start_seq))
        out += encode_varint(len(self.ops))
        # Length prefixes are appended directly (not via
        # encode_length_prefixed) to skip one intermediate bytes object
        # per field — this runs once per write batch on the WAL path.
        for kind, key, value in self.ops:
            out.append(kind)
            out += encode_varint(len(key))
            out += key
            out += encode_varint(len(value))
            out += value
        return bytes(out)

    @classmethod
    def decode(cls, payload: bytes) -> tuple["WriteBatch", int]:
        start_seq, pos = decode_varint(payload, 0)
        count, pos = decode_varint(payload, pos)
        batch = cls()
        for _ in range(count):
            kind = payload[pos]
            pos += 1
            key, pos = decode_length_prefixed(payload, pos)
            value, pos = decode_length_prefixed(payload, pos)
            batch.ops.append((kind, key, value))
        return batch, start_seq


class Snapshot:
    """A consistent read point (all writes with ``seq <= self.seq``)."""

    def __init__(self, db: "DB", seq: int) -> None:
        self._db = db
        self.seq = seq
        self._released = False

    def release(self) -> None:
        if not self._released:
            self._db._release_snapshot(self)
            self._released = True

    def __enter__(self) -> "Snapshot":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.release()


def _approximate_batch_bytes(batch: "WriteBatch") -> int:
    """Upper-bound WAL size of ``batch``, for sizing write groups.

    Counting exact varint widths would mean encoding twice; keys and
    values dominate, so a fixed per-op overhead is plenty.
    """
    return 16 + sum(len(key) + len(value) + 12
                    for _kind, key, value in batch.ops)


class _Writer:
    """One queued write (LevelDB's ``Writer`` struct).

    Writers park in ``DB._writers``; the one at the head becomes the group
    leader, commits a prefix of the queue in a single WAL append, and marks
    every member ``done`` with its last assigned sequence (or the shared
    error).  ``batch is None`` marks a flush sentinel: it claims the head
    slot so no leader can insert into the MemTable while ``flush()``
    rotates it, but it never commits anything itself.
    """

    __slots__ = ("batch", "done", "seq", "error")

    def __init__(self, batch: "WriteBatch | None") -> None:
        self.batch = batch
        self.done = False
        self.seq = 0
        self.error: BaseException | None = None


class _ReadState:
    """What one read pins: both MemTables, a Version, the published seq.

    Captured under the mutex in one short critical section; afterwards the
    read runs lock-free.  The Version is refcounted so background
    compaction defers deleting table files the read may still touch.
    """

    __slots__ = ("memtable", "imm", "version", "seq")


@dataclass
class CorruptionStats:
    """Containment counters (``DB.stats()["corruption"]``).

    Every contained :class:`~repro.lsm.errors.CorruptionError` is counted:
    quarantine must leave an auditable trail, never silently narrow
    results.
    """

    events: int = 0              # contained corruption errors
    tables_quarantined: int = 0  # cumulative quarantine decisions


@dataclass
class PipelineStats:
    """Gauges for the background write pipeline (``DB.stats()["pipeline"]``)."""

    stall_events: int = 0          # writer waits at the stop/rotation gates
    stall_seconds: float = 0.0     # wall time spent in those waits
    slowdown_events: int = 0       # one-step L0 slowdown pauses
    write_groups: int = 0          # leader rounds (one WAL append+sync each)
    group_commit_batches: int = 0  # batches committed through those rounds
    group_commit_ops: int = 0      # ops committed through those rounds
    max_group_batches: int = 0     # largest single group
    bg_flushes: int = 0            # immutable-MemTable flushes by the thread
    bg_compactions: int = 0        # compactions run by the thread


def _requested_compaction_processes(options: Options) -> tuple[int, bool]:
    """``(worker_count, came_from_env)`` for multiprocess compaction.

    ``Options.compaction_processes`` wins; when it is 0 the
    ``REPRO_COMPACTION_PROCESSES`` environment variable can opt a whole
    test run in without touching call sites (the CI multiprocess job).
    """
    if options.compaction_processes > 0:
        return options.compaction_processes, False
    raw = os.environ.get("REPRO_COMPACTION_PROCESSES", "")
    if raw.isdigit() and int(raw) > 0:
        return int(raw), True
    return 0, False


class DB:
    """A LevelDB-style LSM key-value store over a metered VFS."""

    def __init__(self, vfs: VFS, name: str, options: Options) -> None:
        """Use :meth:`open` / :meth:`open_memory` instead of direct construction."""
        self.vfs = vfs
        self.name = name
        self.options = options
        self.versions = VersionSet(options)
        self.table_cache = TableCache(vfs, name, options)
        self.memtable = MemTable()
        self._manifest: ManifestWriter | None = None
        self._log: LogWriter | None = None
        self._log_number = 0
        self._closed = False
        self._snapshots: list[Snapshot] = []
        self._flush_listeners: list[FlushListener] = []
        # -- corruption containment (see DESIGN.md §9) ----------------------
        self._quarantined: set[int] = set()  # table files served around
        self.corruption_stats = CorruptionStats()
        self._read_only = False          # ENOSPC flipped the DB read-only
        self._read_only_reason: str | None = None
        self._scrubber = None            # lazily created by DB.scrub()
        # -- background pipeline state (all guarded by _mutex) --------------
        self._bg = bool(options.background_compaction)
        self._mutex = threading.RLock()
        self._work_cv = threading.Condition(self._mutex)   # bg thread waits
        self._stall_cv = threading.Condition(self._mutex)  # writers wait
        self.imm: MemTable | None = None     # sealed MemTable being flushed
        self._imm_retire_log = 0  # log_number the imm's flush edit records
        self._imm_old_log = 0     # WAL file deleted once the imm is durable
        self._writers: deque[_Writer] = deque()
        self._pending_seq = 0  # last *allocated* seq; published lags behind
        self._version_pins: dict[int, list] = {}  # id(version) -> [v, refs]
        self._zombie_tables: set[int] = set()  # retired but pinned files
        self._bg_thread: threading.Thread | None = None
        self._bg_stop = False
        self._bg_error: BaseException | None = None
        self._bg_compacting = False
        self._manual_compaction = False
        self.pipeline_stats = PipelineStats()
        self.compactor = Compactor(
            vfs, name, options, self.versions, self.table_cache,
            self._log_and_apply, self._oldest_snapshot_seq,
            retire_files=self._retire_table_files)
        # -- multiprocess compaction (DESIGN.md §11) ------------------------
        self._shm_cache = None
        self._executor = None
        processes, from_env = _requested_compaction_processes(options)
        if processes > 0 and options.step_hook is None \
                and getattr(vfs, "root", None) is not None:
            from repro.lsm.procpool import create_executor

            if options.shm_cache_bytes > 0:
                from repro.lsm.shmcache import (
                    SharedBlockCache,
                    slot_payload_bytes,
                )

                self._shm_cache = SharedBlockCache.create(
                    options.shm_cache_bytes, slot_payload_bytes(options))
                # Before _recover(): tables opened later must see the
                # layered cache.
                self.table_cache.attach_shared_cache(self._shm_cache)
            self._executor = create_executor(
                vfs, name, options, processes,
                shm_name=(self._shm_cache.name
                          if self._shm_cache is not None else None),
                discard=self._discard_worker_outputs, quiet=from_env)
            self.compactor.executor = self._executor
        self._recover()
        self._pending_seq = self.versions.last_sequence
        if self._bg:
            self._bg_thread = threading.Thread(
                target=self._background_main, name=f"bg:{name}", daemon=True)
            self._bg_thread.start()
            # Under the deterministic scheduler this lets the spawner wait
            # for the new task to reach its first yield point.
            self._step(f"spawn:bg:{name}")

    # -- lifecycle ------------------------------------------------------------

    @classmethod
    def open(cls, vfs: VFS, name: str = "db",
             options: Options | None = None) -> "DB":
        """Open (creating if necessary) the database ``name`` on ``vfs``."""
        return cls(vfs, name, options or Options())

    @classmethod
    def open_memory(cls, options: Options | None = None,
                    name: str = "db") -> "DB":
        """Open a fresh database on a private in-memory VFS."""
        return cls(MemoryVFS(), name, options or Options())

    def _recover(self) -> None:
        existed = recover_version_set(self.vfs, self.name, self.versions)
        if existed:
            self._replay_logs()
            if not self.memtable.is_empty():
                # Persist replayed writes as a level-0 table *before* the
                # fresh manifest below advances the log number and the old
                # WALs are deleted.  Without this, recovered writes lived
                # only in the MemTable while their WAL was already gone —
                # a second crash (or even a clean close without a flush)
                # lost them permanently.  LevelDB likewise writes level-0
                # tables from recovered logs during open.
                self.compactor.flush_memtable(self.memtable)
                self.memtable = MemTable()
        new_manifest_number = self.versions.new_file_number()
        self._manifest = ManifestWriter(self.vfs, self.name,
                                        new_manifest_number)
        self._log_number = self.versions.new_file_number()
        edit = VersionEdit(
            log_number=self._log_number,
            next_file_number=self.versions.next_file_number,
            last_sequence=self.versions.last_sequence)
        # Re-log the full current state into the fresh manifest so it is
        # self-contained (LevelDB writes a similar "snapshot" record).
        for level, meta in self.versions.current.all_files():
            edit.add_file(level, meta)
        for level, pointer in enumerate(self.versions.compact_pointers):
            if pointer is not None:
                edit.compact_pointers.append((level, pointer))
        self.versions.log_number = self._log_number
        self._manifest.log_edit(edit)
        self._manifest.install_as_current()
        self._log = LogWriter(
            self.vfs.create(log_file_name(self.name, self._log_number)),
            sync=self.options.sync_writes)
        self._delete_obsolete_files()

    def _replay_logs(self) -> None:
        log_names = [name for name in self.vfs.list_dir(self.name + "/")
                     if name.endswith(".log")]
        for name in sorted(log_names):
            number = _parse_file_number(name.rsplit("/", 1)[-1])
            if number is None:
                logger.warning("ignoring unrecognized log file %r", name)
                continue
            if number < self.versions.log_number:
                continue
            reader = LogReader(self.vfs.open_random(name))
            for payload in reader:
                batch, start_seq = WriteBatch.decode(payload)
                for offset, (kind, key, value) in enumerate(batch.ops):
                    self.memtable.add(start_seq + offset, kind, key, value)
                self.versions.last_sequence = max(
                    self.versions.last_sequence,
                    start_seq + len(batch.ops) - 1)

    def _delete_obsolete_files(self) -> None:
        live = self.versions.live_file_numbers()
        tmp = current_tmp_file_name(self.name)
        for name in self.vfs.list_dir(self.name + "/"):
            base = name.rsplit("/", 1)[-1]
            if name == tmp:
                # A crash between writing CURRENT.tmp and renaming it over
                # CURRENT strands the scratch file; it is never meaningful
                # after open.
                self.vfs.delete_if_exists(name)
            elif base.endswith(".ldb"):
                number = _parse_file_number(base)
                if number is None:
                    logger.warning("ignoring unrecognized table file %r",
                                   name)
                elif number not in live:
                    self.table_cache.evict(number)
                    self.vfs.delete_if_exists(name)
            elif base.endswith(".log"):
                number = _parse_file_number(base)
                if number is None:
                    logger.warning("ignoring unrecognized log file %r", name)
                elif number < self._log_number:
                    self.vfs.delete_if_exists(name)
            elif base.startswith("MANIFEST-"):
                assert self._manifest is not None
                suffix = base.split("-", 1)[1]
                if not suffix.isdigit():
                    logger.warning("ignoring unrecognized manifest file %r",
                                   name)
                elif int(suffix) != self._manifest.number:
                    self.vfs.delete_if_exists(name)

    def close(self) -> None:
        if self._closed:
            return
        if self._bg_thread is not None:
            with self._mutex:
                self._bg_stop = True
                self._work_cv.notify_all()
            hook = self.options.step_hook
            if hook is not None:
                # Cooperative join: keep yielding to the scheduler so it can
                # run the background task to completion instead of
                # deadlocking on a real join while the task is parked.  The
                # guard keeps this loop out of the schedule until the thread
                # has actually exited (a plain park would add an unbounded
                # "poll again" branch to every explored schedule).
                thread = self._bg_thread
                park_until = getattr(hook, "park_until", None)
                while thread.is_alive():
                    if park_until is not None:
                        park_until("close:join",
                                   lambda: not thread.is_alive())
                    else:
                        hook("close:join")
            self._bg_thread.join()
            self._bg_thread = None
        if self._executor is not None:
            # Bounded shutdown: quit messages, then join-with-timeout, then
            # terminate/kill — a dead or wedged worker cannot hang close().
            self._executor.close()
            self._executor = None
            self.compactor.executor = None
        if self._log is not None:
            # A clean shutdown must not lose acknowledged writes even with
            # sync_writes off: push the WAL tail to stable storage first.
            # In read-only mode the WAL writer may be mid-rotation (or the
            # disk still full); acknowledged records were already appended,
            # so a failing final sync must not abort the close.
            try:
                self._log.sync()
                self._log.close()
            except (OSError, ValueError) as exc:
                if not self._read_only:
                    raise
                logger.warning("read-only close: WAL sync skipped (%s)", exc)
        if self._manifest is not None:
            self._manifest.close()
        self.table_cache.close()
        if self._shm_cache is not None:
            self._shm_cache.close()  # owner: unlinks the segment
            self._shm_cache = None
        self._closed = True

    def __enter__(self) -> "DB":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise DBClosedError("database is closed")

    # -- pipeline plumbing ----------------------------------------------------

    def _step(self, label: str) -> None:
        """Deterministic-scheduler yield point (no-op without a hook).

        Never call this while holding ``_mutex``: a parked task must not
        block every other task on the lock.
        """
        hook = self.options.step_hook
        if hook is not None:
            hook(label)

    def _await_locked(self, cv: threading.Condition,
                      predicate: Callable[[], bool], label: str) -> None:
        """Wait until ``predicate()`` holds; ``_mutex`` must be held (once).

        With no step hook this is a plain condition wait.  Under the
        deterministic scheduler, condition variables would park a task
        outside the scheduler's control, so the wait is rewritten as a
        yield loop that releases the mutex, parks at ``label``, then
        reacquires and rechecks — the scheduler decides who runs next.
        The predicate doubles as the park's *guard* (when the hook
        supports guards): the scheduler will not pick this task again
        until the predicate reads true, keeping futile wake-recheck-park
        cycles out of the explored schedules.  Guard evaluation happens
        without the mutex, so predicates must be cheap pure reads; the
        recheck under the mutex here stays authoritative.
        """
        if self.options.step_hook is None:
            cv.wait_for(predicate)
            return
        hook = self.options.step_hook
        park_until = getattr(hook, "park_until", None)
        while not predicate():
            self._mutex.release()
            try:
                if park_until is not None:
                    park_until(label, predicate)
                else:
                    hook(label)
            finally:
                self._mutex.acquire()

    def _raise_if_bg_failed(self) -> None:
        if self._bg_error is not None:
            raise self._bg_error

    # -- corruption containment -------------------------------------------------

    @property
    def read_only(self) -> bool:
        """True once a write-path ENOSPC parked the DB in read-only mode."""
        return self._read_only

    def is_quarantined(self, file_number: int) -> bool:
        return file_number in self._quarantined

    def quarantined_tables(self) -> list[int]:
        """File numbers of quarantined tables, sorted."""
        with self._mutex:
            return sorted(self._quarantined)

    def _quarantine_table(self, file_number: int, exc: BaseException) -> None:
        """Serve around ``file_number`` from now on; purge it from caches.

        The table stays on disk (repair may salvage most of it); reads
        simply stop consulting it.  Every cache that may hold its bytes —
        the open-reader table cache, the decompressed-block cache, and the
        OS-page-cache model — is purged so nothing decoded from rotten
        bytes outlives the quarantine decision.
        """
        with self._mutex:
            if file_number in self._quarantined:
                return
            self._quarantined.add(file_number)
            self.corruption_stats.tables_quarantined += 1
        self.table_cache.evict(file_number)
        block_cache = self.table_cache.block_cache
        if block_cache is not None:
            block_cache.evict_file(file_number)
        invalidate = getattr(self.vfs, "invalidate_file", None)
        if invalidate is not None:
            invalidate(table_file_name(self.name, file_number))
        logger.warning("quarantined corrupt table %06d: %s", file_number, exc)

    def _contain_or_raise(self, file_number: int, exc: CorruptionError) -> None:
        """Apply ``options.on_corruption`` to a failed table read."""
        if self.options.on_corruption != "quarantine":
            raise exc
        self.corruption_stats.events += 1
        self._quarantine_table(file_number, exc)

    def _safe_table(self, file_number: int):
        """Table reader for ``file_number``, or ``None`` when contained.

        Only used on the quarantine-policy read paths: a quarantined table
        reads as absent, and a table whose *open* fails (bad footer/index)
        is quarantined whole on the spot.
        """
        if file_number in self._quarantined:
            return None
        try:
            return self.table_cache.get(file_number)
        except CorruptionError as exc:
            self._contain_or_raise(file_number, exc)
            return None

    def _guarded_sorted_entries(self, file_number: int,
                                start_key: bytes | None, category: Category
                                ) -> Iterator[tuple[tuple[bytes, int], bytes]]:
        """A table's scan stream under the quarantine policy.

        Block decode errors end the stream (later blocks of the table are
        unreachable once it is quarantined) instead of killing the whole
        scan; entries from blocks that decoded cleanly have already been
        served and stay valid.
        """
        table = self._safe_table(file_number)
        if table is None:
            return
        stream = table.sorted_entries(start_key, category)
        while True:
            try:
                item = next(stream)
            except StopIteration:
                return
            except CorruptionError as exc:
                self._contain_or_raise(file_number, exc)
                return
            yield item

    def _is_enospc(self, exc: BaseException) -> bool:
        return getattr(exc, "errno", None) == errno.ENOSPC

    def _enter_read_only_locked(self, exc: BaseException) -> None:
        """Flip into clean read-only mode after a write-path ENOSPC.

        Mutex held.  Reads keep working against everything already
        acknowledged (MemTables included); every later mutation raises
        :class:`~repro.lsm.errors.ReadOnlyError`; the background pipeline
        parks (no crash-loop of doomed flush retries) but its thread stays
        alive so ``close()`` remains orderly.
        """
        if not self._read_only:
            self._read_only = True
            self._read_only_reason = f"{type(exc).__name__}: {exc}"
            logger.warning("entering read-only mode: %s", exc)
        self._stall_cv.notify_all()
        self._work_cv.notify_all()

    def _check_writable(self) -> None:
        if self._read_only:
            raise ReadOnlyError(
                f"database is read-only ({self._read_only_reason})")

    def scrub(self, block_budget: int | None = None):
        """Run (or resume) the CRC scrubber; see :mod:`repro.lsm.scrub`.

        The scrubber object persists across calls, so repeated budgeted
        invocations walk the whole database incrementally — usable inline
        or from a background maintenance loop.
        """
        self._check_open()
        if self._scrubber is None:
            from repro.lsm.scrub import Scrubber

            self._scrubber = Scrubber(self)
        return self._scrubber.run(block_budget)

    # -- writes -----------------------------------------------------------------

    def put(self, key: bytes, value: bytes) -> int:
        """Insert or overwrite ``key`` (Table 1's PUT); returns its seq.

        The returned sequence number is the one assigned to *this* write
        by the commit itself — callers that need to attribute the write
        (secondary indexes, replication) must use it rather than read
        ``versions.last_sequence`` afterwards, which a concurrent writer
        may have advanced in between.
        """
        return self.write(WriteBatch().put(key, value))

    def delete(self, key: bytes) -> int:
        """Remove ``key`` if present (Table 1's DEL): writes a tombstone.

        Returns the tombstone's sequence number (see :meth:`put`).
        """
        return self.write(WriteBatch().delete(key))

    def merge(self, key: bytes, operand: bytes) -> int:
        """Append a merge operand; requires ``options.merge_operator``.

        Returns the operand's sequence number (see :meth:`put`).
        """
        if self.options.merge_operator is None:
            raise InvalidArgumentError(
                "DB.merge requires options.merge_operator")
        return self.write(WriteBatch().merge(key, operand))

    def write(self, batch: WriteBatch) -> int:
        """Apply ``batch`` atomically; returns the last assigned sequence.

        Raises :class:`~repro.lsm.errors.WriteStallError` when level 0 has
        reached ``l0_stop_writes_trigger`` files — only reachable with
        ``disable_auto_compaction``, since inline compaction otherwise
        drains level 0 as it fills.  With ``background_compaction`` the
        same condition blocks the writer until the background thread
        drains level 0 instead of raising.
        """
        if self._bg:
            return self._write_concurrent(batch)
        self._check_open()
        self._check_writable()
        if not batch.ops:
            return self.versions.last_sequence
        if self.versions.current.num_files(0) >= \
                self.options.l0_stop_writes_trigger:
            from repro.lsm.errors import WriteStallError

            raise WriteStallError(
                f"level 0 holds {self.versions.current.num_files(0)} files "
                f"(stop trigger {self.options.l0_stop_writes_trigger}); "
                f"run compact_range() or enable auto compaction")
        if self.options.sequence_oracle is not None:
            start_seq = self.options.sequence_oracle(len(batch.ops))
            if start_seq <= self.versions.last_sequence:
                raise InvalidArgumentError(
                    f"sequence oracle went backwards: {start_seq} <= "
                    f"{self.versions.last_sequence}")
        else:
            start_seq = self.versions.last_sequence + 1
        assert self._log is not None
        try:
            self._log.add_record(batch.encode(start_seq))
        except OSError as exc:
            # ENOSPC before any MemTable insert: the batch is not acked and
            # nothing is half-applied.  Park the DB read-only; the caller
            # sees the original error, later writes see ReadOnlyError.
            if self._is_enospc(exc):
                with self._mutex:
                    self._enter_read_only_locked(exc)
            raise
        for offset, (kind, key, value) in enumerate(batch.ops):
            self.memtable.add(start_seq + offset, kind, key, value)
        self.versions.last_sequence = start_seq + len(batch.ops) - 1
        self._maybe_flush()
        return self.versions.last_sequence

    def _maybe_flush(self) -> None:
        if self.memtable.approximate_memory_usage \
                < self.options.memtable_budget:
            return
        self.flush()

    # -- concurrent write path (background_compaction) -------------------------

    def _write_concurrent(self, batch: WriteBatch) -> int:
        """LevelDB's leader/follower group commit.

        Every writer enqueues and waits until either (a) a leader already
        committed it, or (b) it reaches the queue head and becomes the
        leader itself.  The leader makes room (stall ladder), claims a
        contiguous sequence range for a prefix of the queue, then — with
        the mutex *released*, since it alone owns the WAL and the active
        MemTable head — appends all batches in one WAL write, inserts them
        into the MemTable, and finally publishes ``last_sequence``.
        Readers snapshot the published value, so a half-applied group is
        never visible: sequences become readable only after every MemTable
        insert of the group completed.
        """
        self._check_open()
        if not batch.ops:
            return self.versions.last_sequence
        writer = _Writer(batch)
        with self._mutex:
            self._raise_if_bg_failed()
            self._check_writable()
            self._writers.append(writer)
            self._await_locked(
                self._stall_cv,
                lambda: writer.done or self._writers[0] is writer,
                "write:queue")
            if writer.done:
                if writer.error is not None:
                    raise writer.error
                return writer.seq
            # This writer is now the leader.
            try:
                self._make_room_for_write()
                group = [writer]
                group_bytes = _approximate_batch_bytes(writer.batch)
                for candidate in list(self._writers)[1:]:
                    if candidate.batch is None:
                        break  # flush sentinel: do not commit past it
                    size = _approximate_batch_bytes(candidate.batch)
                    if group_bytes + size > self.options.max_write_group_bytes:
                        break
                    group.append(candidate)
                    group_bytes += size
                total_ops = sum(len(w.batch.ops) for w in group)
                if self.options.sequence_oracle is not None:
                    start_seq = self.options.sequence_oracle(total_ops)
                    if start_seq <= self._pending_seq:
                        raise InvalidArgumentError(
                            f"sequence oracle went backwards: {start_seq} "
                            f"<= {self._pending_seq}")
                else:
                    start_seq = self._pending_seq + 1
                self._pending_seq = start_seq + total_ops - 1
            except BaseException:
                self._writers.remove(writer)
                self._stall_cv.notify_all()
                raise
            memtable = self.memtable
            log = self._log
        # -- mutex released: only the leader runs here ---------------------
        error: BaseException | None = None
        seqs: list[int] = []
        payloads: list[bytes] = []
        seq = start_seq
        for member in group:
            payloads.append(member.batch.encode(seq))
            seqs.append(seq)
            seq += len(member.batch.ops)
        self._step("write:wal")
        try:
            assert log is not None
            log.add_records(payloads)
            self._step("write:memtable")
            for member, member_seq in zip(group, seqs):
                for offset, (kind, key, value) in enumerate(member.batch.ops):
                    memtable.add(member_seq + offset, kind, key, value)
        except BaseException as exc:  # noqa: BLE001 - propagated to the group
            error = exc
        self._step("write:publish")
        with self._mutex:
            if error is None:
                self.versions.last_sequence = max(
                    self.versions.last_sequence, start_seq + total_ops - 1)
            elif self._is_enospc(error):
                # Disk full during the group's WAL append: nothing in the
                # group was acknowledged.  Park read-only so queued writers
                # fail fast instead of each rediscovering the full disk.
                self._enter_read_only_locked(error)
            stats = self.pipeline_stats
            stats.write_groups += 1
            stats.group_commit_batches += len(group)
            stats.group_commit_ops += total_ops
            if len(group) > stats.max_group_batches:
                stats.max_group_batches = len(group)
            for member, member_seq in zip(group, seqs):
                popped = self._writers.popleft()
                assert popped is member
                member.seq = member_seq + len(member.batch.ops) - 1
                member.error = error
                member.done = True
            self._stall_cv.notify_all()
            # Eager rotation keeps the pipeline primed: hand the full
            # MemTable to the background thread now instead of making the
            # next writer pay for the rotation.
            if (error is None and self.imm is None
                    and self.memtable.approximate_memory_usage
                    >= self.options.memtable_budget):
                self._rotate_memtable_locked()
        if error is not None:
            raise error
        return writer.seq

    def _make_room_for_write(self) -> None:
        """LevelDB's write-stall ladder; called by the leader, mutex held.

        In order: a one-step *slowdown* pause when level 0 approaches the
        stop trigger (spreads delay across writers instead of one long
        stall), a wait for the previous immutable MemTable to drain when
        the active one is full, and a hard *stop* wait when level 0 is at
        the stop trigger.  With ``disable_auto_compaction`` nothing would
        ever drain level 0, so the stop condition raises instead of
        deadlocking — same contract as the inline path.
        """
        options = self.options
        allow_delay = True
        stats = self.pipeline_stats
        while True:
            self._raise_if_bg_failed()
            self._check_writable()
            l0_files = self.versions.current.num_files(0)
            if l0_files >= options.l0_stop_writes_trigger \
                    and options.disable_auto_compaction:
                from repro.lsm.errors import WriteStallError

                raise WriteStallError(
                    f"level 0 holds {l0_files} files "
                    f"(stop trigger {options.l0_stop_writes_trigger}); "
                    f"run compact_range() or enable auto compaction")
            if allow_delay and not options.disable_auto_compaction \
                    and options.l0_slowdown_writes_trigger <= l0_files \
                    < options.l0_stop_writes_trigger:
                allow_delay = False  # at most one pause per write
                stats.slowdown_events += 1
                self._mutex.release()
                try:
                    if self.options.step_hook is not None:
                        self.options.step_hook("stall:slowdown")
                    else:
                        time.sleep(options.slowdown_sleep_seconds)
                finally:
                    self._mutex.acquire()
                continue
            if self.memtable.approximate_memory_usage \
                    < options.memtable_budget:
                return
            if self.imm is not None:
                started = time.perf_counter()
                stats.stall_events += 1
                self._await_locked(
                    self._stall_cv,
                    lambda: self.imm is None or self._bg_error is not None
                    or self._read_only,
                    "stall:memtable")
                stats.stall_seconds += time.perf_counter() - started
                continue
            if l0_files >= options.l0_stop_writes_trigger:
                started = time.perf_counter()
                stats.stall_events += 1
                self._await_locked(
                    self._stall_cv,
                    lambda: (self.versions.current.num_files(0)
                             < options.l0_stop_writes_trigger
                             or self._bg_error is not None
                             or self._read_only),
                    "stall:stop")
                stats.stall_seconds += time.perf_counter() - started
                continue
            self._rotate_memtable_locked()
            return

    def _rotate_memtable_locked(self) -> None:
        """Seal the active MemTable into ``imm`` and switch to a new WAL.

        Mutex held; ``self.imm`` must be ``None``.  The old WAL stays on
        disk until the background flush durably installs the level-0 table
        whose edit records the *new* log number — the same
        crash-consistency invariant as the inline flush.
        """
        assert self.imm is None
        old_log_number = self._log_number
        new_log_number = self.versions.new_file_number()
        assert self._log is not None
        self._log.close()
        self._log = LogWriter(
            self.vfs.create(log_file_name(self.name, new_log_number)),
            sync=self.options.sync_writes)
        self._log_number = new_log_number
        self.memtable.seal()
        self.imm = self.memtable
        self._imm_retire_log = new_log_number
        self._imm_old_log = old_log_number
        self.memtable = MemTable()
        self._work_cv.notify_all()

    # -- background thread -----------------------------------------------------

    def _background_work_ready(self) -> bool:
        # Mutex held (predicate of _await_locked).
        if self._bg_stop:
            return True
        if self._read_only:
            # Read-only (disk full): every flush/compaction is doomed, so
            # park instead of crash-looping.  The thread stays alive for an
            # orderly close(); _bg_stop above still wakes it.
            return False
        if self.imm is not None:
            return True
        if self._manual_compaction or self.options.disable_auto_compaction:
            return False
        return pick_compaction(self.versions) is not None

    def _background_main(self) -> None:
        """Main loop of the maintenance thread: flush ``imm``, then compact.

        Any exception (including a simulated crash from the fault-injecting
        VFS) is captured into ``_bg_error`` and re-raised to the next
        foreground writer/flush, mirroring LevelDB's sticky background
        error.
        """
        try:
            while True:
                imm = None
                compaction = None
                with self._mutex:
                    self._await_locked(
                        self._work_cv, self._background_work_ready, "bg:idle")
                    if self._bg_stop:
                        return
                    imm = self.imm
                    if imm is None and not self._manual_compaction \
                            and not self.options.disable_auto_compaction:
                        compaction = pick_compaction(self.versions)
                        if compaction is not None:
                            self._bg_compacting = True
                if imm is not None:
                    self._step("bg:flush")
                    try:
                        self._background_flush(imm)
                    except OSError as exc:
                        if not self._is_enospc(exc):
                            raise
                        # Disk full mid-flush: the version edit was not
                        # installed and the imm's WAL is still on disk, so
                        # nothing acknowledged is lost.  Park read-only
                        # (imm stays readable in memory) instead of dying
                        # into a sticky background error.
                        with self._mutex:
                            self._enter_read_only_locked(exc)
                elif compaction is not None:
                    self._step("bg:compact")
                    try:
                        try:
                            self.compactor.run(compaction)
                        except OSError as exc:
                            if not self._is_enospc(exc):
                                raise
                            # A failed compaction installed nothing; inputs
                            # remain live.  Reads are unaffected — just stop
                            # generating doomed write traffic.
                            with self._mutex:
                                self._enter_read_only_locked(exc)
                    finally:
                        with self._mutex:
                            self._bg_compacting = False
                            self.pipeline_stats.bg_compactions += 1
                            self._stall_cv.notify_all()
        except BaseException as exc:  # noqa: BLE001 - surfaced as _bg_error
            with self._mutex:
                self._bg_error = exc
                self._bg_compacting = False
                self._stall_cv.notify_all()

    def _background_flush(self, imm: MemTable) -> None:
        """Flush the immutable MemTable and retire its WAL."""
        self.compactor.flush_memtable(imm, log_number=self._imm_retire_log)
        flushed_max_seq = imm.max_seq or 0
        old_log = self._imm_old_log
        with self._mutex:
            self.imm = None
            self.pipeline_stats.bg_flushes += 1
            self._stall_cv.notify_all()
        self.vfs.delete_if_exists(log_file_name(self.name, old_log))
        # Listeners run on the background thread in pipeline mode.
        for listener in self._flush_listeners:
            listener(flushed_max_seq)

    def _retire_table_files(self, file_numbers: list[int]) -> None:
        """Dispose of compaction-input tables, honoring pinned versions.

        A snapshot-isolated read pins the Version it started from; deleting
        a table that version references would yank blocks out from under
        the read.  Such files become *zombies*, deleted when the last pin
        drops (see :meth:`_release_read_state`).  With no pins — always the
        case inline — this deletes immediately, matching the old behavior.
        """
        from repro.lsm.manifest import table_file_name

        with self._mutex:
            pinned = [entry[0] for entry in self._version_pins.values()]
            current_live = self.versions.current.live_file_numbers()
            for file_number in file_numbers:
                if file_number in current_live:
                    continue  # resurrected by a racing edit; keep it
                if any(file_number in version.live_file_numbers()
                       for version in pinned):
                    self._zombie_tables.add(file_number)
                else:
                    self.table_cache.evict(file_number)
                    self.vfs.delete(table_file_name(self.name, file_number))

    def _discard_worker_outputs(self, file_numbers: list[int]) -> None:
        """Delete the partial outputs of a failed worker compaction job.

        These files were allocated numbers but never entered any version,
        so there are no pins to honor — they must simply not survive as
        orphans for ``verify_integrity`` to flag.  Poisoned shared-cache
        blocks keyed by a reused file number would serve wrong bytes, so
        the shm slots go too.
        """
        for file_number in file_numbers:
            self.table_cache.evict(file_number)
            if self._shm_cache is not None:
                self._shm_cache.evict_file(file_number)
            self.vfs.delete_if_exists(table_file_name(self.name, file_number))

    # -- snapshot-isolated read state -------------------------------------------

    def _acquire_read_state(self) -> _ReadState:
        """Pin everything one read needs, in one short critical section."""
        # The one scheduling point of the read path: once pinned, snapshot
        # isolation makes the rest of the read independent of concurrent
        # writers, so yielding *here* lets the deterministic harness explore
        # every distinct read outcome.
        self._step("read:pin")
        state = _ReadState()
        with self._mutex:
            state.memtable = self.memtable
            state.imm = self.imm
            state.version = self.versions.current
            state.seq = self.versions.last_sequence
            key = id(state.version)
            entry = self._version_pins.get(key)
            if entry is None:
                self._version_pins[key] = [state.version, 1]
            else:
                entry[1] += 1
        return state

    def _release_read_state(self, state: _ReadState) -> None:
        from repro.lsm.manifest import table_file_name

        with self._mutex:
            key = id(state.version)
            entry = self._version_pins.get(key)
            if entry is None:
                return
            entry[1] -= 1
            if entry[1] > 0:
                return
            del self._version_pins[key]
            if not self._zombie_tables:
                return
            current_live = self.versions.current.live_file_numbers()
            still_pinned = [e[0] for e in self._version_pins.values()]
            for file_number in sorted(self._zombie_tables):
                if file_number in current_live:
                    self._zombie_tables.discard(file_number)
                    continue
                if any(file_number in version.live_file_numbers()
                       for version in still_pinned):
                    continue
                self._zombie_tables.discard(file_number)
                self.table_cache.evict(file_number)
                self.vfs.delete_if_exists(
                    table_file_name(self.name, file_number))

    def flush(self) -> None:
        """Flush the MemTable to a level-0 SSTable and run due compactions.

        In pipeline mode this seals the active MemTable (if non-empty) and
        blocks until the background thread has drained every immutable
        MemTable — i.e. all data acknowledged so far is in level 0.
        """
        if self._bg:
            self._flush_concurrent()
            return
        self._check_open()
        self._check_writable()
        if self.memtable.is_empty():
            return
        try:
            self._flush_inline()
        except OSError as exc:
            # A full disk mid-flush is survivable: the version edit was not
            # installed, the MemTable was not reset and the old WAL is still
            # on disk, so every acknowledged write remains readable (and
            # replayable on reopen).  Park read-only rather than letting
            # callers retry a doomed flush forever.
            if self._is_enospc(exc):
                with self._mutex:
                    self._enter_read_only_locked(exc)
            raise

    def _flush_inline(self) -> None:
        flushed_max_seq = self.memtable.max_seq or 0
        old_log_number = self._log_number
        assert self._log is not None
        self._log.close()
        self._log_number = self.versions.new_file_number()
        self._log = LogWriter(
            self.vfs.create(log_file_name(self.name, self._log_number)),
            sync=self.options.sync_writes)
        # One edit makes the table live AND retires the old WAL.  Two
        # separate edits would open a crash window where the table is live
        # but the manifest still points at the old log: recovery would
        # replay writes already in the table, folding merge operands twice.
        self.compactor.flush_memtable(self.memtable,
                                      log_number=self._log_number)
        self.memtable = MemTable()
        # A crash-interrupted earlier flush (or recovery's own cleanup) may
        # have removed the previous WAL already.
        self.vfs.delete_if_exists(log_file_name(self.name, old_log_number))
        for listener in self._flush_listeners:
            listener(flushed_max_seq)
        if not self.options.disable_auto_compaction:
            self.compactor.maybe_compact()

    def _flush_concurrent(self) -> None:
        """Pipeline-mode flush: rotate under a queue sentinel, then drain.

        The sentinel claims the writer-queue head so no leader can be
        inserting into the active MemTable while it is sealed; pending
        writers simply commit after the rotation, into the fresh MemTable.
        """
        self._check_open()
        sentinel = _Writer(None)
        with self._mutex:
            self._raise_if_bg_failed()
            self._check_writable()
            self._writers.append(sentinel)
            self._await_locked(
                self._stall_cv,
                lambda: self._writers[0] is sentinel,
                "flush:queue")
            try:
                if not self.memtable.is_empty():
                    self._await_locked(
                        self._stall_cv,
                        lambda: self.imm is None or self._bg_error is not None
                        or self._read_only,
                        "flush:room")
                    self._raise_if_bg_failed()
                    self._check_writable()
                    self._rotate_memtable_locked()
            finally:
                popped = self._writers.popleft()
                assert popped is sentinel
                self._stall_cv.notify_all()
            self._await_locked(
                self._stall_cv,
                lambda: self.imm is None or self._bg_error is not None
                or self._read_only,
                "flush:drain")
            self._raise_if_bg_failed()
            if self.imm is not None:
                # Read-only parked the background thread with the immutable
                # MemTable undrained; its data is still fully readable (and
                # still in its WAL), but this flush cannot complete.
                self._check_writable()

    def _log_and_apply(self, edit: VersionEdit) -> None:
        # The mutex serializes a foreground manual compaction against the
        # background thread's flush installs, and makes each manifest
        # log+apply atomic with respect to readers pinning the current
        # version.  Inline (single-threaded) it is uncontended.
        with self._mutex:
            edit.next_file_number = self.versions.next_file_number
            edit.last_sequence = self.versions.last_sequence
            if self._manifest is None:
                # Recovery-time flush: the manifest does not exist yet.  The
                # self-contained snapshot edit written right after captures
                # the applied state, so nothing is lost by skipping the log.
                self.versions.apply(edit)
                return
            self._manifest.log_edit(edit)
            self.versions.apply(edit)
            if self._manifest.size > self.options.max_manifest_size:
                self._roll_manifest()
            # New level-0 files may unblock stalled writers or create work.
            self._stall_cv.notify_all()
            self._work_cv.notify_all()

    def _roll_manifest(self) -> None:
        """Replace the grown manifest with one snapshot-edit manifest.

        The manifest gains an edit per flush/compaction forever; rolling
        rewrites it as a single self-contained snapshot of the current
        version (LevelDB does the same on reopen and past a size limit).
        """
        from repro.lsm.manifest import manifest_file_name

        old_manifest = self._manifest
        assert old_manifest is not None
        number = self.versions.new_file_number()
        snapshot = VersionEdit(
            log_number=self._log_number,
            next_file_number=self.versions.next_file_number,
            last_sequence=self.versions.last_sequence)
        for level, meta in self.versions.current.all_files():
            snapshot.add_file(level, meta)
        for level, pointer in enumerate(self.versions.compact_pointers):
            if pointer is not None:
                snapshot.compact_pointers.append((level, pointer))
        new_manifest = ManifestWriter(self.vfs, self.name, number)
        new_manifest.log_edit(snapshot)
        new_manifest.install_as_current()
        old_manifest.close()
        self.vfs.delete_if_exists(
            manifest_file_name(self.name, old_manifest.number))
        self._manifest = new_manifest

    def add_flush_listener(self, listener: FlushListener) -> None:
        """Register a callback invoked with the max flushed seq after a flush."""
        self._flush_listeners.append(listener)

    # -- point reads ---------------------------------------------------------

    def get(self, key: bytes, snapshot: Snapshot | None = None) -> bytes | None:
        """Newest visible value of ``key``, or ``None`` (Table 1's GET)."""
        result = self.get_with_seq(key, snapshot)
        if result is None:
            return None
        return result[0]

    def get_with_seq(self, key: bytes, snapshot: Snapshot | None = None
                     ) -> tuple[bytes, int] | None:
        """Like :meth:`get` but also reports the resolving sequence number.

        For a merge chain the sequence of the newest operand is reported:
        it is the "time" the value last changed.
        """
        self._check_open()
        if not self._bg:
            max_seq = snapshot.seq if snapshot is not None else MAX_SEQUENCE
            return self._get_with_seq_pinned(key, max_seq, None)
        state = self._acquire_read_state()
        try:
            # Without an explicit snapshot, the published sequence at read
            # start is the implicit one: a concurrently committing group
            # publishes only after all its MemTable inserts, so no torn
            # (half-a-batch) read is possible.
            max_seq = snapshot.seq if snapshot is not None else state.seq
            return self._get_with_seq_pinned(key, max_seq, state)
        finally:
            self._release_read_state(state)

    def _get_with_seq_pinned(self, key: bytes, max_seq: int,
                             state: _ReadState | None
                             ) -> tuple[bytes, int] | None:
        operands: list[bytes] = []
        newest_seq: int | None = None
        for kind, seq, value in self._versions_of(key, max_seq, state):
            if newest_seq is None:
                newest_seq = seq
            if kind == KIND_MERGE:
                operands.append(value)
                continue
            if kind == KIND_VALUE:
                if operands:
                    return self._fold(key, operands, value), newest_seq
                return value, seq
            # Tombstone: stop — older versions are dead.
            if operands:
                return self._fold(key, operands, None), newest_seq
            return None
        if operands:
            assert newest_seq is not None
            return self._fold(key, operands, None), newest_seq
        return None

    def _fold(self, key: bytes, operands_newest_first: list[bytes],
              base: bytes | None) -> bytes:
        operator = self.options.merge_operator
        if operator is None:
            raise InvalidArgumentError(
                "merge entries present but no merge_operator configured")
        oldest_first = list(reversed(operands_newest_first))
        if base is not None:
            oldest_first.insert(0, base)
        return operator(key, oldest_first)

    def _versions_of(self, key: bytes, max_seq: int,
                     state: _ReadState | None = None
                     ) -> Iterator[tuple[int, int, bytes]]:
        """All stored versions of ``key``, newest first, across components."""
        if state is None:
            memtables = (self.memtable,)
            version = self.versions.current
        else:
            # Active MemTable first: its sequences are strictly newer than
            # the immutable one's, preserving newest-first order.
            memtables = (state.memtable,) if state.imm is None \
                else (state.memtable, state.imm)
            version = state.version
        for memtable in memtables:
            for entry in memtable.versions(key, max_seq):
                yield entry.kind, entry.seq, entry.value
        if self.options.on_corruption == "quarantine":
            yield from self._table_versions_contained(key, max_seq, version)
            return
        table_cache_get = self.table_cache.get
        # Level 0 files may each hold versions; interleave them by seq.
        l0_entries: list[tuple[int, int, bytes]] = []
        for meta in version.files_containing_key(0, key):
            table = table_cache_get(meta.file_number)
            l0_entries.extend(table.versions_raw(key, max_seq))
        if l0_entries:
            l0_entries.sort(key=lambda item: -item[1])
            yield from l0_entries
        for level in range(1, self.options.max_levels):
            for meta in version.files_containing_key(level, key):
                table = table_cache_get(meta.file_number)
                yield from table.versions_raw(key, max_seq)

    def _table_versions_contained(self, key: bytes, max_seq: int, version
                                  ) -> Iterator[tuple[int, int, bytes]]:
        """Quarantine-policy twin of the SSTable half of :meth:`_versions_of`.

        A quarantined table contributes nothing; a table that fails *while*
        being read is quarantined on the spot and its partial result
        discarded (cleanly decoded versions from other tables still serve).
        """
        l0_entries: list[tuple[int, int, bytes]] = []
        for meta in version.files_containing_key(0, key):
            table = self._safe_table(meta.file_number)
            if table is None:
                continue
            try:
                l0_entries.extend(table.versions_raw(key, max_seq))
            except CorruptionError as exc:
                self._contain_or_raise(meta.file_number, exc)
        if l0_entries:
            l0_entries.sort(key=lambda item: -item[1])
            yield from l0_entries
        for level in range(1, self.options.max_levels):
            for meta in version.files_containing_key(level, key):
                table = self._safe_table(meta.file_number)
                if table is None:
                    continue
                try:
                    # Materialized so a decode error cannot fire mid-yield.
                    found = list(table.versions_raw(key, max_seq))
                except CorruptionError as exc:
                    self._contain_or_raise(meta.file_number, exc)
                    continue
                yield from found

    # -- LevelDB++ probes -------------------------------------------------------

    def fragments_by_level(self, key: bytes, max_seq: int = MAX_SEQUENCE
                           ) -> list[tuple[int, list[tuple[int, int, bytes]]]]:
        """Per-level version lists for ``key``: ``[(level, [(kind, seq, value)])]``.

        Level ``-1`` is the MemTable.  Within a level, entries come newest
        first.  This is the access path of the Lazy index's LOOKUP
        (Algorithm 3): "it checks the MemTable and then the SSTables, and
        moves down in the storage hierarchy one level at a time".
        """
        self._check_open()
        if self._bg:
            state = self._acquire_read_state()
            try:
                if max_seq == MAX_SEQUENCE:
                    max_seq = state.seq  # implicit snapshot, as in get()
                return self._fragments_pinned(key, max_seq, state)
            finally:
                self._release_read_state(state)
        return self._fragments_pinned(key, max_seq, None)

    def _fragments_pinned(self, key: bytes, max_seq: int,
                          state: _ReadState | None
                          ) -> list[tuple[int, list[tuple[int, int, bytes]]]]:
        out: list[tuple[int, list[tuple[int, int, bytes]]]] = []
        if state is None:
            memtables = (self.memtable,)
            version = self.versions.current
        else:
            memtables = (state.memtable,) if state.imm is None \
                else (state.memtable, state.imm)
            version = state.version
        mem = [(e.kind, e.seq, e.value)
               for memtable in memtables
               for e in memtable.versions(key, max_seq)]
        if mem:
            mem.sort(key=lambda item: -item[1])
            out.append((-1, mem))
        contain = self.options.on_corruption == "quarantine"
        for level in range(self.options.max_levels):
            found: list[tuple[int, int, bytes]] = []
            for meta in version.files_containing_key(level, key):
                if contain:
                    table = self._safe_table(meta.file_number)
                    if table is None:
                        continue
                    try:
                        found.extend(table.versions_raw(key, max_seq,
                                                        Category.INDEX))
                    except CorruptionError as exc:
                        self._contain_or_raise(meta.file_number, exc)
                    continue
                table = self.table_cache.get(meta.file_number)
                found.extend(table.versions_raw(key, max_seq,
                                                Category.INDEX))
            if found:
                found.sort(key=lambda item: -item[1])
                out.append((level, found))
        return out

    def key_maybe_in_levels(self, key: bytes, below_level: int,
                            include_memtable: bool = True) -> bool:
        """In-memory-only probe: could ``key`` exist in levels < ``below_level``?

        Uses the MemTable (exact) and, per candidate SSTable, the in-memory
        index block and primary bloom filters — zero I/O.  This implements
        the paper's ``GetLite`` check: "If the key appears in the upper
        levels (0 to currentlevel-1) ... there is an updated version".
        May return false positives at the bloom rate; never false negatives.
        """
        self._check_open()
        state = self._acquire_read_state() if self._bg else None
        try:
            if state is None:
                memtables = (self.memtable,)
                version = self.versions.current
            else:
                memtables = (state.memtable,) if state.imm is None \
                    else (state.memtable, state.imm)
                version = state.version
            if include_memtable:
                for memtable in memtables:
                    if memtable.get(key) is not None:
                        return True
            contain = self.options.on_corruption == "quarantine"
            for level in range(min(below_level, self.options.max_levels)):
                for meta in version.files_containing_key(level, key):
                    if contain:
                        # Conservative: a quarantined (or unopenable) table
                        # *may* hold a newer version we can no longer prove
                        # absent, so GetLite must treat the row as stale —
                        # missing-but-detected, never a silently wrong value.
                        table = self._safe_table(meta.file_number)
                        if table is None:
                            return True
                        if table.may_contain_user_key(key):
                            return True
                        continue
                    table = self.table_cache.get(meta.file_number)
                    if table.may_contain_user_key(key):
                        return True
            return False
        finally:
            if state is not None:
                self._release_read_state(state)

    # -- range reads ------------------------------------------------------------

    def scan(self, lo: bytes | None = None, hi: bytes | None = None,
             snapshot: Snapshot | None = None,
             category: Category = Category.DATA
             ) -> Iterator[tuple[bytes, bytes]]:
        """User-visible ordered iteration over ``lo <= key <= hi``."""
        return map(itemgetter(0, 1),
                   self.scan_with_seq(lo, hi, snapshot, category))

    def scan_with_seq(self, lo: bytes | None = None, hi: bytes | None = None,
                      snapshot: Snapshot | None = None,
                      category: Category = Category.DATA
                      ) -> Iterator[tuple[bytes, bytes, int]]:
        """Like :meth:`scan` but yields ``(key, value, seq)``.

        This is a fused fast path over the reference pipeline
        ``clip_to_range(resolve_versions(merge_streams(...)))`` (which the
        equivalence tests pin it against): one loop does the k-way heap
        merge and the version resolution directly on ``(sort_key, value)``
        pairs, so no :class:`InternalKey` is allocated per entry and no
        per-entry generator hand-off happens between pipeline stages.
        """
        self._check_open()
        if not self._bg:
            max_seq = snapshot.seq if snapshot is not None else MAX_SEQUENCE
            yield from self._scan_pinned(lo, hi, max_seq, None, category)
            return
        state = self._acquire_read_state()
        try:
            max_seq = snapshot.seq if snapshot is not None else state.seq
            yield from self._scan_pinned(lo, hi, max_seq, state, category)
        finally:
            # Released when the scan is exhausted, closed, or abandoned
            # (generator finalization runs this finally block).
            self._release_read_state(state)

    def _scan_pinned(self, lo: bytes | None, hi: bytes | None, max_seq: int,
                     state: _ReadState | None, category: Category
                     ) -> Iterator[tuple[bytes, bytes, int]]:
        start_key = None if lo is None else \
            pack_internal_key(lo, MAX_SEQUENCE, KIND_FOR_SEEK)
        if state is None:
            streams = [self._memtable_sorted(lo)]
            version = self.versions.current
        else:
            streams = [self._memtable_sorted(lo, state.memtable)]
            if state.imm is not None:
                streams.append(self._memtable_sorted(lo, state.imm))
            version = state.version
        table_cache_get = self.table_cache.get
        contain = self.options.on_corruption == "quarantine"
        # Level-0 files overlap: one heap stream each.  Deeper levels are
        # disjoint and sorted, so a whole level concatenates into a single
        # stream (LevelDB's concatenating iterator) — the heap holds one
        # entry per *level*, not per file, keeping each sift logarithmic in
        # the number of components rather than the number of files.
        for meta in version.overlapping_files(0, lo, hi):
            if contain:
                streams.append(self._guarded_sorted_entries(
                    meta.file_number, start_key, category))
            else:
                streams.append(table_cache_get(meta.file_number)
                               .sorted_entries(start_key, category))
        for level in range(1, self.options.max_levels):
            files = version.overlapping_files(level, lo, hi)
            if contain:
                if files:
                    streams.append(self._sorted_level_stream(
                        files, start_key, category))
            elif len(files) == 1:
                streams.append(table_cache_get(files[0].file_number)
                               .sorted_entries(start_key, category))
            elif files:
                streams.append(
                    self._sorted_level_stream(files, start_key, category))

        # Seed the heap: (sort_key, stream_index, value, advance).  The
        # stream index breaks sort-key ties, so the newest component wins
        # (streams are listed memtable first, then levels top-down).
        heap: list[tuple[tuple[bytes, int], int, bytes, Any]] = []
        for index, stream in enumerate(streams):
            advance = stream.__next__
            try:
                sort_key, value = advance()
            except StopIteration:
                continue
            heap.append((sort_key, index, value, advance))
        heapq.heapify(heap)
        heappop, heapreplace = heapq.heappop, heapq.heapreplace

        current_key: bytes | None = None
        operands: list[bytes] = []  # newest-first merge operands
        operand_seq = 0
        done_with_key = False
        while heap:
            sort_key, index, value, advance = heap[0]
            try:
                nxt = advance()
            except StopIteration:
                heappop(heap)
            else:
                heapreplace(heap, (nxt[0], index, nxt[1], advance))
            user_key = sort_key[0]
            if user_key != current_key:
                if operands:
                    yield (current_key,
                           self._fold(current_key, operands, None),
                           operand_seq)
                    operands = []
                if hi is not None and user_key > hi:
                    return
                current_key = user_key
                done_with_key = False
            if done_with_key or (lo is not None and user_key < lo):
                continue
            tag = -sort_key[1]
            seq = tag >> 8
            if seq > max_seq:
                continue
            kind = tag & 0xFF
            if kind == KIND_MERGE:
                if not operands:
                    operand_seq = seq
                operands.append(value)
                continue
            done_with_key = True
            if operands:
                base = value if kind == KIND_VALUE else None
                yield (current_key, self._fold(current_key, operands, base),
                       operand_seq)
                operands = []
            elif kind == KIND_VALUE:
                yield current_key, value, seq
            # KIND_DELETE with no pending operands: key is simply hidden.
        if operands:
            yield (current_key, self._fold(current_key, operands, None),
                   operand_seq)

    def _sorted_level_stream(self, files, start_key: bytes | None,
                             category: Category
                             ) -> Iterator[tuple[tuple[bytes, int], bytes]]:
        """Concatenated ``(sort_key, value)`` stream over one disjoint level."""
        if self.options.on_corruption == "quarantine":
            for meta in files:
                yield from self._guarded_sorted_entries(
                    meta.file_number, start_key, category)
            return
        table_cache_get = self.table_cache.get
        for meta in files:
            yield from table_cache_get(meta.file_number) \
                .sorted_entries(start_key, category)

    def _memtable_sorted(self, lo: bytes | None,
                         memtable: MemTable | None = None
                         ) -> Iterator[tuple[tuple[bytes, int], bytes]]:
        """MemTable entries as ``(sort_key, value)`` pairs for the scan path."""
        if memtable is None:
            memtable = self.memtable
        if lo is None:
            for entry in memtable:
                yield ((entry.user_key, -((entry.seq << 8) | entry.kind)),
                       entry.value)
            return
        for _key, entry in memtable._list.items_from((lo, 0)):
            yield ((entry.user_key, -((entry.seq << 8) | entry.kind)),
                   entry.value)

    def _memtable_stream(self, lo: bytes | None,
                         memtable: MemTable | None = None
                         ) -> Iterator[tuple[InternalKey, bytes]]:
        if memtable is None:
            memtable = self.memtable
        if lo is None:
            for entry in memtable:
                yield InternalKey(entry.user_key, entry.seq, entry.kind), \
                    entry.value
            return
        start = (lo, 0)
        for (_user_key, _inv_seq), entry in memtable._list.items_from(start):
            yield InternalKey(entry.user_key, entry.seq, entry.kind), \
                entry.value

    @staticmethod
    def _table_stream_from(table, lo: bytes | None, category: Category
                           ) -> Iterator[tuple[InternalKey, bytes]]:
        if lo is None:
            yield from table
        else:
            start = pack_internal_key(lo, MAX_SEQUENCE, KIND_FOR_SEEK)
            yield from table.iterate_from(start, category)

    def scan_level(self, level: int, lo: bytes | None = None,
                   hi: bytes | None = None,
                   category: Category = Category.INDEX
                   ) -> Iterator[tuple[InternalKey, bytes]]:
        """Raw versions stored in one level, in internal-key order.

        ``level == -1`` scans the MemTable.  No version resolution and no
        tombstone hiding happens here: the Lazy and Composite indexes
        interpret per-level entries themselves (Algorithms 3-4, 6-7).
        Entries outside ``[lo, hi]`` (user keys) are excluded.
        """
        self._check_open()
        state = self._acquire_read_state() if self._bg else None
        try:
            if level == -1:
                if state is None:
                    stream: Iterator[tuple[InternalKey, bytes]] = \
                        self._memtable_stream(lo)
                elif state.imm is None:
                    stream = self._memtable_stream(lo, state.memtable)
                else:
                    # Level -1 is "the in-memory component": both MemTables,
                    # merged into one internal-key-ordered stream.
                    stream = merge_streams([
                        self._memtable_stream(lo, state.memtable),
                        self._memtable_stream(lo, state.imm)])
            else:
                version = self.versions.current if state is None \
                    else state.version
                files = version.overlapping_files(level, lo, hi)
                contain = self.options.on_corruption == "quarantine"
                if level == 0:
                    if contain:
                        stream = merge_streams([
                            self._guarded_table_stream(meta.file_number, lo,
                                                       category)
                            for meta in files])
                    else:
                        stream = merge_streams([
                            self._table_stream_from(
                                self.table_cache.get(meta.file_number), lo,
                                category)
                            for meta in files])
                else:
                    stream = self._concat_tables(files, lo, category)
            for ikey, value in stream:
                if lo is not None and ikey.user_key < lo:
                    continue
                if hi is not None and ikey.user_key > hi:
                    return
                yield ikey, value
        finally:
            if state is not None:
                self._release_read_state(state)

    def _concat_tables(self, files, lo: bytes | None, category: Category
                       ) -> Iterator[tuple[InternalKey, bytes]]:
        if self.options.on_corruption == "quarantine":
            for meta in files:
                yield from self._guarded_table_stream(meta.file_number, lo,
                                                      category)
            return
        for meta in files:
            table = self.table_cache.get(meta.file_number)
            yield from self._table_stream_from(table, lo, category)

    def _guarded_table_stream(self, file_number: int, lo: bytes | None,
                              category: Category
                              ) -> Iterator[tuple[InternalKey, bytes]]:
        """Quarantine-policy ``(InternalKey, value)`` stream of one table."""
        table = self._safe_table(file_number)
        if table is None:
            return
        stream = self._table_stream_from(table, lo, category)
        while True:
            try:
                item = next(stream)
            except StopIteration:
                return
            except CorruptionError as exc:
                self._contain_or_raise(file_number, exc)
                return
            yield item

    # -- snapshots ----------------------------------------------------------------

    def snapshot(self) -> Snapshot:
        """Pin the current sequence number for consistent reads."""
        self._check_open()
        with self._mutex:
            # The *published* sequence: an in-flight write group's data is
            # never included, even mid-commit.
            snap = Snapshot(self, self.versions.last_sequence)
            self._snapshots.append(snap)
            return snap

    def _release_snapshot(self, snap: Snapshot) -> None:
        with self._mutex:
            self._snapshots = [s for s in self._snapshots if s is not snap]

    def _oldest_snapshot_seq(self) -> int:
        # Called from the background thread (compaction's drop criterion)
        # and from foreground compactions alike.
        with self._mutex:
            if not self._snapshots:
                return MAX_SEQUENCE
            return min(snap.seq for snap in self._snapshots)

    # -- maintenance & introspection ---------------------------------------------

    def compact_range(self) -> None:
        """Flush, then push every level's data downward once (manual, full).

        In pipeline mode the manual compaction runs on the calling thread
        inside the *maintenance slot* (:meth:`_maintenance_slot`), so it
        and the background thread never install conflicting edits over
        the same input files.
        """
        self._check_open()
        self._check_writable()
        self.flush()
        with self._maintenance_slot():
            self._raise_if_bg_failed()
            self._compact_range_levels()

    @contextmanager
    def _maintenance_slot(self) -> Iterator[None]:
        """Hold off automatic compaction for the duration of the block.

        In pipeline mode this takes the manual-compaction slot: the
        background thread finishes the compaction it is running (if any)
        and picks no new one until the block exits; flushes still run.
        Inline mode has no background compaction to hold off.
        """
        if not self._bg:
            yield
            return
        with self._mutex:
            self._manual_compaction = True
            self._work_cv.notify_all()
            try:
                self._await_locked(
                    self._stall_cv,
                    lambda: not self._bg_compacting
                    or self._bg_error is not None,
                    "manual:exclusive")
            except BaseException:
                self._manual_compaction = False
                self._work_cv.notify_all()
                raise
        try:
            yield
        finally:
            with self._mutex:
                self._manual_compaction = False
                self._work_cv.notify_all()

    def _compact_range_levels(self) -> None:
        for level in range(self.options.max_levels - 1):
            files = list(self.versions.current.levels[level])
            if not files:
                continue
            lo = min(meta.smallest_user_key for meta in files)
            hi = max(meta.largest_user_key for meta in files)
            inputs1 = self.versions.current.overlapping_files(level + 1, lo, hi)
            self.compactor.run(Compaction(level, files, inputs1))

    def checkpoint(self, dest_vfs: VFS, dest_name: str) -> int:
        """Write a consistent, independently openable copy of the database.

        SSTables are immutable, so a checkpoint is: flush the MemTable,
        then copy every live table byte-for-byte and write a fresh
        self-contained manifest describing them (RocksDB's Checkpoint
        mechanism).  Later writes to this database never touch the copy.
        Returns the number of files copied.
        """
        self._check_open()
        self.flush()
        from repro.lsm.manifest import ManifestWriter, table_file_name

        # Pinning the version keeps background compaction from deleting a
        # table file mid-copy (it becomes a zombie until we release).
        state = self._acquire_read_state() if self._bg else None
        try:
            version = self.versions.current if state is None \
                else state.version
            copied = 0
            edit = VersionEdit(
                log_number=0,
                next_file_number=self.versions.next_file_number,
                last_sequence=self.versions.last_sequence)
            for level, meta in version.all_files():
                payload = self.vfs.read_whole(
                    table_file_name(self.name, meta.file_number),
                    Category.OTHER)
                dest_vfs.write_whole(
                    table_file_name(dest_name, meta.file_number), payload,
                    Category.OTHER)
                edit.add_file(level, meta)
                copied += 1
            manifest = ManifestWriter(dest_vfs, dest_name, 1)
            manifest.log_edit(edit)
            manifest.install_as_current()
            manifest.close()
            return copied
        finally:
            if state is not None:
                self._release_read_state(state)

    def verify_integrity(self):
        """Audit the database's persistent state; see :mod:`repro.lsm.checker`.

        Checks manifest-vs-filesystem agreement (including orphaned engine
        files left by an interrupted crash recovery), per-table physical and
        logical invariants, and cross-table level invariants.  Returns an
        :class:`~repro.lsm.checker.IntegrityReport`; ``report.ok`` means the
        database is sound.
        """
        self._check_open()
        from repro.lsm.checker import verify_integrity

        # A background compaction mid-run has output tables the manifest
        # does not name yet (and inputs not yet deleted): audit between
        # compactions, never across one.
        with self._maintenance_slot():
            return verify_integrity(self)

    def approximate_size(self) -> int:
        """Total bytes of all files belonging to this database."""
        return self.vfs.total_size(self.name + "/")

    def num_nonempty_levels(self) -> int:
        """The paper's L: populated on-disk levels, plus the MemTable if any."""
        levels = self.versions.current.num_nonempty_levels()
        if not self.memtable.is_empty():
            levels += 1
        return levels

    @property
    def io_stats(self):
        return self.vfs.stats

    def stats(self) -> dict[str, Any]:
        """Operational counters, one JSON-friendly dict (RocksDB's
        ``GetProperty``, condensed): compaction work, table-cache and
        block-cache hit rates, I/O meters and the level shape."""
        self._check_open()
        compaction = self.compactor.stats
        io = self.vfs.stats
        block_cache = self.table_cache.block_cache
        return {
            "levels": self.level_file_counts(),
            "last_sequence": self.versions.last_sequence,
            "memtable_entries": len(self.memtable),
            "memtable_bytes": self.memtable.approximate_memory_usage,
            "compaction": {
                "flush_count": compaction.flush_count,
                "compaction_count": compaction.compaction_count,
                "bytes_flushed": compaction.bytes_flushed,
                "bytes_compacted_in": compaction.bytes_compacted_in,
                "bytes_compacted_out": compaction.bytes_compacted_out,
                "entries_dropped": compaction.entries_dropped,
                "merges_folded": compaction.merges_folded,
                "compactions_by_level": dict(compaction.compactions_by_level),
            },
            "table_cache": self.table_cache.stats(),
            "block_cache": None if block_cache is None else {
                "capacity_bytes": block_cache.capacity,
                "used_bytes": block_cache.used_bytes,
                "hits": block_cache.hits,
                "misses": block_cache.misses,
            },
            "io": {
                "read_ops": io.read_ops,
                "write_ops": io.write_ops,
                "read_blocks": io.read_blocks,
                "write_blocks": io.write_blocks,
                "read_bytes": io.read_bytes,
                "write_bytes": io.write_bytes,
            },
            "pipeline": self._pipeline_stats_dict(),
            "corruption": {
                "events": self.corruption_stats.events,
                "tables_quarantined": self.corruption_stats.tables_quarantined,
                "quarantined": self.quarantined_tables(),
                "filter_degradations": self.table_cache.filter_degradations,
                "read_only": self._read_only,
                "read_only_reason": self._read_only_reason,
            },
        }

    def _pipeline_stats_dict(self) -> dict[str, Any]:
        pipeline = self.pipeline_stats
        with self._mutex:
            version = self.versions.current
            # Queue depth: pending immutable MemTable plus levels whose
            # score says "compact now" — the work the background thread
            # still owes.
            depth = 1 if self.imm is not None else 0
            if version.num_files(0) >= self.options.l0_compaction_trigger:
                depth += 1
            for level in range(1, self.options.max_levels - 1):
                if version.level_size(level) \
                        >= self.options.max_bytes_for_level(level):
                    depth += 1
            groups = pipeline.write_groups
            return {
                "background": self._bg,
                "imm_pending": 1 if self.imm is not None else 0,
                "compaction_queue_depth": depth,
                "stall_events": pipeline.stall_events,
                "stall_seconds": pipeline.stall_seconds,
                "slowdown_events": pipeline.slowdown_events,
                "write_groups": groups,
                "group_commit_batches": pipeline.group_commit_batches,
                "group_commit_ops": pipeline.group_commit_ops,
                "mean_group_batches": (
                    pipeline.group_commit_batches / groups if groups else 0.0),
                "max_group_batches": pipeline.max_group_batches,
                "bg_flushes": pipeline.bg_flushes,
                "bg_compactions": pipeline.bg_compactions,
                "bg_error": (None if self._bg_error is None
                             else repr(self._bg_error)),
                "workers": (None if self._executor is None
                            else self._executor.stats()),
                "shm_cache": (None if self._shm_cache is None
                              else self._shm_cache.stats_dict()),
            }

    def level_file_counts(self) -> list[int]:
        return [len(files) for files in self.versions.current.levels]

    def debug_string(self) -> str:
        """Human-readable internal state (RocksDB's ``GetProperty`` spirit).

        Level shapes, MemTable pressure, compaction counters and the I/O
        meters — everything needed to understand what the tree is doing.
        """
        version = self.versions.current
        stats = self.compactor.stats
        io = self.vfs.stats
        lines = [
            f"-- DB {self.name} --",
            f"last_sequence: {self.versions.last_sequence}",
            f"memtable: {len(self.memtable)} entries / "
            f"{self.memtable.approximate_memory_usage:,} of "
            f"{self.options.memtable_budget:,} bytes",
        ]
        for level, files in enumerate(version.levels):
            if not files:
                continue
            budget = self.options.max_bytes_for_level(level)
            budget_text = "n/a" if budget == float("inf") \
                else f"{budget:,.0f}"
            lines.append(
                f"L{level}: {len(files):3d} files "
                f"{version.level_size(level):>10,} bytes "
                f"(budget {budget_text})")
        lines.append(
            f"flushes: {stats.flush_count}  "
            f"compactions: {stats.compaction_count} "
            f"{dict(sorted(stats.compactions_by_level.items()))}")
        lines.append(
            f"compacted: {stats.bytes_compacted_in:,} in / "
            f"{stats.bytes_compacted_out:,} out  "
            f"dropped entries: {stats.entries_dropped}  "
            f"merges folded: {stats.merges_folded}")
        lines.append(
            f"io: {io.read_blocks:,} read blocks / "
            f"{io.write_blocks:,} write blocks "
            f"(reads by category: {dict(sorted(io.reads_by_category.items()))})")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        files = sum(self.level_file_counts())
        return (f"DB(name={self.name!r}, files={files}, "
                f"last_seq={self.versions.last_sequence})")
