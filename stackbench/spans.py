"""Span tracing by wrapping the stack's public functions at runtime.

Nothing in ``src/`` is edited: :func:`install` replaces a method on its
class (or a function in the module that calls it) with a wrapper that
records one span -- name, start, end, parent span and op index -- and
restores the original on :meth:`Tracer.uninstall`.  Spans live in
fixed-width arrays in memory and are written out when the run ends.

A span's *self time* is its duration minus the durations of its child
spans.  Every span of one operation carries that operation's index, so the
self times of one op's spans add up to the time of its root span.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from array import array
from typing import Any, Callable

#: (module, owner attribute or "" for a module function, function, span).
#: The owner is a class whose method is wrapped; the span name's first two
#: dotted parts name the layer.
FACADE_SPANS = [
    ("repro.core.database", "SecondaryIndexedDB", "put", "core.database.put"),
    ("repro.core.database", "SecondaryIndexedDB", "get", "core.database.get"),
    ("repro.core.database", "SecondaryIndexedDB", "lookup",
     "core.database.lookup"),
    ("repro.core.database", "SecondaryIndexedDB", "range_lookup",
     "core.database.range_lookup"),
    ("repro.core.database", "", "encode_document", "core.records.codec"),
    ("repro.core.database", "", "decode_document", "core.records.codec"),
    ("repro.core.lazy", "LazyIndex", "on_put", "core.lazy.on_put"),
    ("repro.core.lazy", "LazyIndex", "lookup", "core.lazy.lookup"),
    ("repro.core.composite", "CompositeIndex", "on_put",
     "core.composite.on_put"),
    ("repro.core.composite", "CompositeIndex", "lookup",
     "core.composite.lookup"),
    ("repro.core.embedded", "EmbeddedIndex", "on_put",
     "core.embedded.on_put"),
    ("repro.core.embedded", "EmbeddedIndex", "range_lookup",
     "core.embedded.range_lookup"),
    ("repro.core.validity", "ValidityChecker", "fetch_valid",
     "core.validity.fetch_valid"),
    ("repro.core.validity", "ValidityChecker", "is_newest_version",
     "core.validity.getlite"),
    ("repro.dist.cluster", "_RoutedValidity", "fetch_valid",
     "core.validity.fetch_valid"),
    ("repro.lsm.db", "DB", "write", "lsm.db.write"),
    ("repro.lsm.db", "DB", "get_with_seq", "lsm.db.get"),
    ("repro.lsm.wal", "LogWriter", "add_record", "lsm.wal.append"),
    ("repro.lsm.compaction", "Compactor", "flush_memtable",
     "lsm.compaction.flush"),
    ("repro.lsm.compaction", "Compactor", "run", "lsm.compaction.compact"),
    ("repro.lsm.sstable", "SSTable", "read_data_block",
     "lsm.sstable.read_block"),
    ("repro.lsm.vfs", "_LocalRandomAccess", "read_at", "lsm.vfs.read"),
    ("repro.lsm.vfs", "_LocalWritable", "append", "lsm.vfs.write"),
    ("repro.lsm.vfs", "_LocalWritable", "sync", "lsm.vfs.sync"),
]

CLUSTER_SPANS = [
    ("repro.dist.cluster", "ShardedDB", "put", "dist.cluster.put"),
    ("repro.dist.cluster", "ShardedDB", "get", "dist.cluster.get"),
    ("repro.dist.cluster", "ShardedDB", "lookup", "dist.cluster.lookup"),
    ("repro.dist.cluster", "ShardedDB", "range_lookup",
     "dist.cluster.range_lookup"),
    ("repro.dist.replication", "ReplicaSet", "put", "dist.replication.put"),
    ("repro.dist.replication", "ReplicaSet", "range_lookup",
     "dist.replication.range_lookup"),
    ("repro.dist.cluster", "GlobalSecondaryIndex", "on_put",
     "dist.gsi.on_put"),
    ("repro.dist.cluster", "GlobalSecondaryIndex", "lookup",
     "dist.gsi.lookup"),
]

#: Codec functions, wrapped where the client and the server call them.
SERVER_CODEC_SPANS = [
    ("repro.server.server", "", name, "protocol.codec")
    for name in ("encode_value", "decode_value", "encode_frame")]
CLIENT_SPANS = [
    ("repro.server.client", "", name, "protocol.codec")
    for name in ("encode_value", "decode_value", "encode_frame")] + [
    ("repro.server.client", "Client", "put", "server.client.put"),
    ("repro.server.client", "Client", "get", "server.client.get"),
    ("repro.server.client", "Client", "lookup", "server.client.lookup"),
    ("repro.server.client", "Client", "range_lookup",
     "server.client.range_lookup"),
]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.enabled = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def set_op(self, index: int) -> None:
        """Tag the spans this thread records next with op ``index``."""
        self._local.op = index

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, original: Callable, name: str) -> Callable:
        name_id = self._name_id(name)
        clock = time.perf_counter_ns
        local = self._local
        lock = self._lock
        columns = (self.name, self.start, self.end, self.parent, self.op)
        name_col, start_col, end_col, parent_col, op_col = columns

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not self.enabled:
                return original(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            with lock:
                index = len(start_col)
                name_col.append(name_id)
                start_col.append(0)
                end_col.append(0)
                parent_col.append(stack[-1] if stack else -1)
                op_col.append(getattr(local, "op", -1))
            stack.append(index)
            started = clock()
            try:
                return original(*args, **kwargs)
            finally:
                end_col[index] = clock()
                start_col[index] = started
                stack.pop()

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        return wrapper

    def install(self, specs: list[tuple[str, str, str, str]]) -> None:
        for module_name, owner_name, attr, name in specs:
            owner: Any = importlib.import_module(module_name)
            if owner_name:
                owner = getattr(owner, owner_name)
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, name))
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- persistence -------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write every span to ``path`` (a JSON header line, then arrays)."""
        with open(path, "wb") as handle:
            header = {"names": self.names, "count": len(self.start)}
            handle.write(json.dumps(header).encode() + b"\n")
            for column in (self.name, self.start, self.end, self.parent,
                           self.op):
                column.tofile(handle)

    @classmethod
    def load(cls, path: str) -> "Tracer":
        tracer = cls()
        with open(path, "rb") as handle:
            header = json.loads(handle.readline())
            tracer.names = header["names"]
            count = header["count"]
            for column in (tracer.name, tracer.start, tracer.end,
                           tracer.parent, tracer.op):
                column.fromfile(handle, count)
        return tracer

    # -- analysis ----------------------------------------------------------

    def spans(self) -> list[tuple[str, int, int, int, int, int]]:
        """``(name, start_ns, duration_ns, self_ns, op, parent)`` per span."""
        count = len(self.start)
        child = [0] * count
        for index in range(count):
            parent = self.parent[index]
            if parent >= 0:
                child[parent] += self.end[index] - self.start[index]
        out = []
        for index in range(count):
            duration = self.end[index] - self.start[index]
            out.append((self.names[self.name[index]], self.start[index],
                        duration, duration - child[index], self.op[index],
                        self.parent[index]))
        return out
