"""A threaded socket server over one database.

Each accepted connection gets **one thread** running one loop:

* it parses every complete length-prefixed frame out of a small
  per-connection receive buffer;
* it decodes and executes each request against the database and writes
  the responses back in request order (pipelined requests are answered
  strictly FIFO);
* it reads the socket again only when no complete frame is left.

Backpressure is TCP's own.  While the thread executes a request — or is
parked in the engine's write-stall ladder, or blocks writing a response
the client does not read — nothing reads the socket, so the kernel's
receive window fills and pushes back on the client.  A flood of writers
degrades into flow control instead of unbounded buffering: the receive
buffer never holds more than one maximum-size frame.

Concurrency model (DESIGN.md §10): the connection threads call the
engine *concurrently*.  With the background pipeline enabled
(``Options.background_compaction``) the engine's leader/follower group
commit coalesces their WAL appends, so one fsync covers a whole batch of
network writers — the server adds no locking of its own on that path.
On top of it a run of consecutive PUT/DELETE frames already complete in
the buffer folds into a single :class:`~repro.lsm.db.WriteBatch`, so a
client that pipelines N puts enqueues one group-commit entry, not N.

Serving an inline (non-pipeline) engine still works: the handlers
serialize on one lock, trading parallelism for the single-threaded
engine's invariants.  :class:`~repro.core.database.SecondaryIndexedDB`
is always served behind that lock, because secondary-index maintenance
is not concurrency-safe.
"""

from __future__ import annotations

import logging
import select
import socket
import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import Any, Callable

from repro.core.records import key_to_bytes
from repro.lsm.db import DB, WriteBatch
from repro.lsm.errors import InvalidArgumentError
from repro.server.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    FRAME_HEADER_BYTES,
    FrameTooLargeError,
    STATUS_ERROR,
    STATUS_OK,
    decode_value,
    encode_frame,
    encode_value,
    take_frame,
)

logger = logging.getLogger(__name__)

__all__ = ["Server", "ServerStats", "DEFAULT_SCAN_LIMIT",
           "MAX_COALESCED_OPS", "DEDUP_WINDOW"]

#: SCAN responses are paged: a request with no explicit limit gets at
#: most this many entries, keeping one response inside a frame.
DEFAULT_SCAN_LIMIT = 1000

#: Longest run of pipelined writes folded into one WriteBatch.
MAX_COALESCED_OPS = 128

#: Acked write results remembered per client for idempotent-retry dedup.
#: A retry more than this many writes behind the client's newest is no
#: longer recognizable — far beyond any real retry horizon (a client
#: retries its most recent unacked writes, not a thousand-op backlog).
DEDUP_WINDOW = 1024

#: Largest single ``recv`` into a connection's receive buffer.
RECV_BYTES = 1 << 16


@dataclass
class ServerStats:
    """Counters for ``stats`` responses and tests."""

    connections_accepted: int = 0
    requests: int = 0
    responses: int = 0
    errors: int = 0               # error responses sent
    frames_rejected: int = 0      # oversized frames (connection dropped)
    torn_frames: int = 0          # streams that ended (FIN/RST) mid-frame
    coalesced_groups: int = 0     # write runs folded into one WriteBatch
    coalesced_ops: int = 0        # ops committed through those runs
    max_coalesced_ops: int = 0
    dedup_hits: int = 0           # retried writes answered from the window
    dedup_applied: int = 0        # idempotent writes applied first-hand
    leaked_threads: int = 0       # threads still alive after close() joins

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


class _DedupWindow:
    """One client's remembered write results (idempotent-retry dedup).

    ``results`` maps the client's write sequence to the result it was
    (or would have been) acked with; the lock makes check-and-apply
    atomic per client, so a retry racing its original attempt — the old
    connection's thread may still be draining when the client has
    already reconnected — can never double-apply.
    """

    __slots__ = ("lock", "results")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.results: OrderedDict[int, Any] = OrderedDict()


class _Connection:
    """One accepted socket, its receive buffer and its thread.

    ``buffer[start:]`` holds the received bytes not yet parsed into
    frames.  ``peer_gone`` is set once a send fails: the frames the peer
    already sent still execute, their responses are dropped.
    """

    __slots__ = ("sock", "thread", "closing", "peer", "buffer", "start",
                 "peer_gone")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.thread: threading.Thread | None = None
        self.closing = threading.Event()
        self.buffer = b""
        self.start = 0
        self.peer_gone = False
        try:
            self.peer = "%s:%d" % sock.getpeername()[:2]
        except OSError:
            self.peer = "?"


class Server:
    """Serve one database over a framed socket protocol.

    ``db`` is either a raw :class:`~repro.lsm.db.DB` (keys and values are
    bytes; LOOKUP is rejected) or a
    :class:`~repro.core.database.SecondaryIndexedDB` (values are JSON
    documents; LOOKUP/RANGELOOKUP are served).  The server does not close
    ``db`` — the caller owns its lifecycle.

    Usage::

        server = Server(db)
        server.start()                 # returns once the port is bound
        host, port = server.address
        ...
        server.close()
    """

    def __init__(self, db: Any, host: str = "127.0.0.1", port: int = 0, *,
                 max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
                 backlog: int = 128) -> None:
        self._host = host
        self._port = port
        self._backlog = backlog
        self.max_frame_bytes = max_frame_bytes
        self.stats = ServerStats()
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._connections: set[_Connection] = set()
        self._conn_lock = threading.Lock()
        self._closing = threading.Event()
        # Idempotent-retry dedup: client_id -> its bounded result window.
        # Per-client locks make check-and-apply atomic even when a retry
        # races the original attempt still draining on a dead connection.
        self._dedup: dict[str, _DedupWindow] = {}
        self._dedup_lock = threading.Lock()
        # -- engine binding -------------------------------------------------
        if isinstance(db, DB):
            self.db = db
            self._primary = db
            self._indexed = None
            # The pipeline engine takes concurrent writers natively (group
            # commit); the inline engine is single-threaded by contract, so
            # concurrent handlers must serialize.
            self._lock: threading.Lock | None = \
                None if db.options.background_compaction \
                else threading.Lock()
        elif hasattr(db, "data_shards"):
            # ShardedDB (duck-typed): the cluster facade expects one
            # mutating call at a time (replica fan-out + GSI maintenance),
            # so every op serializes behind the dispatch lock.
            self.db = db
            self._primary = None
            self._indexed = db
            self._lock = threading.Lock()
        else:
            # SecondaryIndexedDB (duck-typed): index maintenance and
            # validation are not concurrency-safe, so every op serializes,
            # whatever the primary table's pipeline setting.
            self.db = db
            self._primary = db.primary
            self._indexed = db
            self._lock = threading.Lock()
        step_hook = self._primary.options.step_hook \
            if self._primary is not None else getattr(db, "_step_hook", None)
        self._park_until = getattr(step_hook, "park_until", None)

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> tuple[str, int]:
        """Bind, listen, and start accepting; returns the bound address."""
        if self._listener is not None:
            raise InvalidArgumentError("server already started")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self._host, self._port))
        listener.listen(self._backlog)
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="server:accept", daemon=True)
        self._accept_thread.start()
        return self.address

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)``; valid after :meth:`start`."""
        assert self._listener is not None, "server not started"
        return self._listener.getsockname()[:2]

    def close(self, drain: bool = False, timeout: float = 5.0) -> None:
        """Stop the server and join all threads.

        ``drain=False`` (the default) drops every connection immediately:
        in-flight requests may die unanswered.  ``drain=True`` is the
        graceful path — the drain state machine (DESIGN.md §13):

        1. stop accepting (close the listener);
        2. half-close every connection for reading (``SHUT_RD``): the
           bytes already received stay readable, then the stream ends
           with a clean EOF;
        3. each connection thread executes every complete frame it
           received — commits it through the engine's group commit and
           writes the response — before it sees that EOF and exits.

        A torn frame at the cut is discarded whole (never half-applied),
        and every request whose last byte arrived gets executed *and*
        answered, so a pipelining client loses nothing it was acked.

        Either way, threads still alive after their ``timeout`` join are
        counted in ``stats.leaked_threads`` (and logged) instead of being
        silently abandoned; tests assert the counter stays zero.
        """
        if self._closing.is_set():
            return
        self._closing.set()
        if self._listener is not None:
            # shutdown() before close(): close() alone does not wake a
            # thread already blocked in accept() on Linux — the silent
            # leak the leaked_threads counter exists to catch.
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
        with self._conn_lock:
            connections = list(self._connections)
        threads = [thread for thread in [self._accept_thread]
                   + [conn.thread for conn in connections]
                   if thread is not None]
        if drain:
            for conn in connections:
                try:
                    conn.sock.shutdown(socket.SHUT_RD)
                except OSError:
                    pass
            for thread in threads:
                thread.join(timeout=timeout)
        # Hard phase: whatever is still up (everything, when drain=False;
        # only stragglers past the drain timeout otherwise) gets dropped.
        for conn in connections:
            conn.closing.set()
            try:
                conn.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.sock.close()
            except OSError:
                pass
        for thread in threads:
            thread.join(timeout=timeout)
        leaked = sum(1 for thread in threads if thread.is_alive())
        if leaked:
            self.stats.leaked_threads += leaked
            logger.warning("server close leaked %d threads "
                           "(still alive after %.1fs joins)", leaked, timeout)

    def __enter__(self) -> "Server":
        if self._listener is None:
            self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def active_connections(self) -> int:
        with self._conn_lock:
            return len(self._connections)

    # -- accept / connection loop ---------------------------------------------

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._closing.is_set():
            try:
                sock, _addr = self._listener.accept()
            except OSError:
                return  # listener closed
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass
            conn = _Connection(sock)
            conn.thread = threading.Thread(
                target=self._serve, args=(conn,),
                name=f"server:conn:{conn.peer}", daemon=True)
            with self._conn_lock:
                # Registered and started under the lock close() snapshots
                # under: a connection is either refused or joined.
                if self._closing.is_set():
                    sock.close()
                    return
                self._connections.add(conn)
                self.stats.connections_accepted += 1
                conn.thread.start()

    def _serve(self, conn: _Connection) -> None:
        """The connection's one loop: complete frames in, answers out."""
        try:
            while not conn.closing.is_set():
                payload = self._next_frame(conn)
                if payload is None:
                    return  # end of stream
                request = self._decode_request(conn, payload)
                if request is None:
                    continue  # error already answered; stream still synced
                if request[1] in ("put", "delete") and self._can_coalesce():
                    members = [request]
                    while len(members) < MAX_COALESCED_OPS:
                        follow = self._buffered_write(conn)
                        if follow is None:
                            break
                        members.append(follow)
                    self._execute_write_run(conn, members)
                else:
                    self._execute(conn, *request)
        except FrameTooLargeError as exc:
            self.stats.frames_rejected += 1
            # The oversized payload is never read, so the stream cannot
            # be re-synchronized: report and drop the connection.
            self._respond(conn, 0, STATUS_ERROR,
                          ["FrameTooLargeError", str(exc)])
        finally:
            try:
                conn.sock.close()
            except OSError:
                pass
            with self._conn_lock:
                self._connections.discard(conn)

    def _next_frame(self, conn: _Connection) -> bytes | None:
        """The next complete frame's payload; ``None`` once the stream ended.

        Reads the socket only when no complete frame is buffered, and
        never more than fits one maximum-size frame (the incomplete frame
        in the buffer is always smaller than that).  A stream that ends —
        by FIN, by RST or by a server close — with part of a frame
        buffered counts as one torn frame, discarded whole.
        """
        while True:
            frame = take_frame(conn.buffer, conn.start, self.max_frame_bytes)
            if frame is not None:
                payload, conn.start = frame
                return payload
            pending = conn.buffer[conn.start:]
            if self._park_until is not None:
                # Under the deterministic scheduler a blocking recv would
                # hold the run token and freeze every scheduled thread:
                # park until the socket is readable or the connection is
                # closing (same pattern as DB._await_locked).
                self._park_until(
                    "server:recv",
                    lambda: conn.closing.is_set()
                    or bool(select.select([conn.sock], [], [], 0)[0]))
            try:
                chunk = conn.sock.recv(min(
                    RECV_BYTES,
                    FRAME_HEADER_BYTES + self.max_frame_bytes - len(pending)))
            except OSError:
                chunk = b""  # reset by the peer, or closed by close()
            if not chunk:
                if pending:
                    self.stats.torn_frames += 1
                return None
            conn.buffer, conn.start = pending + chunk, 0

    def _buffered_write(self, conn: _Connection
                        ) -> tuple[int, str, list] | None:
        """Take the next frame iff it is already buffered and a PUT/DELETE.

        Anything else — an incomplete, oversized or malformed frame, or a
        different op — stays in the buffer for the main loop, which
        handles it in order once the write run is answered.
        """
        try:
            frame = take_frame(conn.buffer, conn.start, self.max_frame_bytes)
            if frame is None:
                return None
            request = self._parse_request(frame[0])
        except Exception:  # noqa: BLE001 - left for the main loop
            return None
        if request[1] not in ("put", "delete"):
            return None
        conn.start = frame[1]
        self.stats.requests += 1
        return request

    # -- request handling -------------------------------------------------------

    @staticmethod
    def _parse_request(payload: bytes) -> tuple[int, str, list]:
        request = decode_value(payload)
        if not isinstance(request, list) or len(request) < 2:
            raise InvalidArgumentError("request must be [id, op, *args]")
        request_id, op = request[0], request[1]
        if not isinstance(request_id, int) or not isinstance(op, str):
            raise InvalidArgumentError(
                "request id must be int, op must be str")
        return request_id, op, request[2:]

    def _decode_request(self, conn: _Connection, payload: bytes
                        ) -> tuple[int, str, list] | None:
        """Parse one request; answers (and absorbs) malformed ones.

        Framing stayed in sync, so a bad payload costs one error response,
        not the connection.
        """
        self.stats.requests += 1
        try:
            return self._parse_request(payload)
        except Exception as exc:  # noqa: BLE001 - reported to the peer
            self._respond(conn, 0, STATUS_ERROR,
                          [type(exc).__name__, str(exc)])
            return None

    def _respond(self, conn: _Connection, request_id: int, status: int,
                 payload: Any) -> None:
        self.stats.responses += 1
        if status == STATUS_ERROR:
            self.stats.errors += 1
        if conn.peer_gone:
            return
        try:
            conn.sock.sendall(encode_frame(encode_value(
                [request_id, status, payload])))
        except OSError:
            # The peer vanished: keep executing what it already sent (the
            # drain contract), but stop answering.
            conn.peer_gone = True

    def _execute(self, conn: _Connection, request_id: int, op: str,
                 args: list) -> None:
        try:
            result = self._dispatch(op, args)
        except Exception as exc:  # noqa: BLE001 - reported to the peer
            self._respond(conn, request_id, STATUS_ERROR,
                          [type(exc).__name__, str(exc)])
            return
        self._respond(conn, request_id, STATUS_OK, result)

    def _can_coalesce(self) -> bool:
        # Raw-DB pipeline mode only: the run becomes one WriteBatch (one
        # group-commit entry).  Indexed/inline engines execute op by op.
        return self._indexed is None and self._lock is None

    def _execute_write_run(self, conn: _Connection,
                           members: list[tuple[int, str, list]]) -> None:
        """Commit a run of pipelined writes as one atomic WriteBatch.

        All members succeed (each acked with its own sequence number) or
        all fail with the same error — exactly the engine's group-commit
        contract, surfaced per request.
        """
        if len(members) == 1:
            request_id, op, args = members[0]
            self._execute(conn, request_id, op, args)
            return
        batch = WriteBatch()
        try:
            for _request_id, op, args in members:
                key, value = self._write_args(op, args)
                if op == "put":
                    batch.put(key, value)
                else:
                    batch.delete(key)
        except Exception as exc:  # noqa: BLE001 - malformed member
            # Fall back to op-by-op so the well-formed members still apply
            # and only the malformed one is refused.
            for request_id, op, args in members:
                self._execute(conn, request_id, op, args)
            del exc
            return
        try:
            last_seq = self.db.write(batch)
        except Exception as exc:  # noqa: BLE001 - shared by the whole run
            for request_id, _op, _args in members:
                self._respond(conn, request_id, STATUS_ERROR,
                              [type(exc).__name__, str(exc)])
            return
        self.stats.coalesced_groups += 1
        self.stats.coalesced_ops += len(members)
        if len(members) > self.stats.max_coalesced_ops:
            self.stats.max_coalesced_ops = len(members)
        first_seq = last_seq - len(members) + 1
        for offset, (request_id, _op, _args) in enumerate(members):
            self._respond(conn, request_id, STATUS_OK, first_seq + offset)

    @staticmethod
    def _write_args(op: str, args: list) -> tuple[bytes, bytes]:
        if op == "put":
            if len(args) != 2:
                raise InvalidArgumentError("put needs [key, value]")
            key, value = args
            if not isinstance(value, bytes):
                raise InvalidArgumentError("put value must be bytes")
            return key_to_bytes(key), value
        if len(args) != 1:
            raise InvalidArgumentError("delete needs [key]")
        return key_to_bytes(args[0]), b""

    # -- op dispatch -------------------------------------------------------------

    def _dispatch(self, op: str, args: list) -> Any:
        if op == "apply":
            # Handled outside the engine lock: _op_apply re-enters
            # _dispatch for the inner op (the lock is not reentrant).
            return self._op_apply(args)
        if self._lock is not None:
            with self._lock:
                return self._dispatch_unlocked(op, args)
        return self._dispatch_unlocked(op, args)

    def _op_apply(self, args: list) -> Any:
        """Idempotent write envelope: ``[client_id, client_seq, op, args]``.

        The first application stores its result in the client's dedup
        window; a retry of the same ``(client_id, client_seq)`` replays
        that result — same sequence number, nothing re-applied.  Errors
        are not cached: nothing was applied, so retrying is safe, and a
        deterministic error simply errors again.
        """
        if len(args) != 4 or not isinstance(args[0], str) \
                or not isinstance(args[1], int) \
                or not isinstance(args[2], str) \
                or not isinstance(args[3], list):
            raise InvalidArgumentError(
                "apply needs [client_id, client_seq, op, args]")
        client_id, client_seq, op, inner_args = args
        if op not in ("put", "delete"):
            raise InvalidArgumentError(
                f"apply wraps writes only, not {op!r} "
                "(reads are idempotent without it)")
        with self._dedup_lock:
            window = self._dedup.get(client_id)
            if window is None:
                window = self._dedup[client_id] = _DedupWindow()
        with window.lock:
            if client_seq in window.results:
                self.stats.dedup_hits += 1
                return window.results[client_seq]
            result = self._dispatch(op, inner_args)
            self.stats.dedup_applied += 1
            window.results[client_seq] = result
            while len(window.results) > DEDUP_WINDOW:
                window.results.popitem(last=False)
            return result

    def _dispatch_unlocked(self, op: str, args: list) -> Any:
        if op == "put":
            return self._op_put(args)
        if op == "get":
            return self._op_get(args)
        if op == "delete":
            return self._op_delete(args)
        if op == "scan":
            return self._op_scan(args)
        if op == "lookup":
            return self._op_lookup(args)
        if op == "rangelookup":
            return self._op_range_lookup(args)
        if op == "stats":
            return self._op_stats()
        raise InvalidArgumentError(f"unknown op {op!r}")

    def _op_put(self, args: list) -> int:
        if self._indexed is not None:
            if len(args) != 2 or not isinstance(args[1], dict):
                raise InvalidArgumentError(
                    "put needs [key, document] (document mode)")
            return self._indexed.put(args[0], args[1])
        key, value = self._write_args("put", args)
        return self.db.put(key, value)

    def _op_get(self, args: list) -> Any:
        if len(args) != 1:
            raise InvalidArgumentError("get needs [key]")
        if self._indexed is not None:
            return self._indexed.get(args[0])
        return self.db.get(key_to_bytes(args[0]))

    def _op_delete(self, args: list) -> int:
        if len(args) != 1:
            raise InvalidArgumentError("delete needs [key]")
        if self._indexed is not None:
            return self._indexed.delete(args[0])
        key, _ = self._write_args("delete", args)
        return self.db.delete(key)

    def _op_scan(self, args: list) -> list:
        lo = args[0] if len(args) > 0 else None
        hi = args[1] if len(args) > 1 else None
        limit = args[2] if len(args) > 2 else None
        if limit is None:
            limit = DEFAULT_SCAN_LIMIT
        lo_b = key_to_bytes(lo) if lo is not None else None
        hi_b = key_to_bytes(hi) if hi is not None else None
        out = []
        if self._indexed is not None:
            for key, document in self._indexed.scan(lo, hi):
                out.append([key, document])
                if len(out) >= limit:
                    break
            return out
        for key, value in self.db.scan(lo_b, hi_b):
            out.append([key, value])
            if len(out) >= limit:
                break
        return out

    def _op_lookup(self, args: list) -> list:
        if self._indexed is None:
            raise InvalidArgumentError(
                "LOOKUP needs a server started with secondary indexes "
                "(repro serve --indexes ...)")
        if len(args) < 2:
            raise InvalidArgumentError("lookup needs [attribute, value, k?]")
        attribute, value = args[0], args[1]
        k = args[2] if len(args) > 2 else None
        results = self._indexed.lookup(attribute, value, k)
        return [[r.key, r.document, r.seq] for r in results]

    def _op_range_lookup(self, args: list) -> list:
        if self._indexed is None:
            raise InvalidArgumentError(
                "RANGELOOKUP needs a server started with secondary indexes "
                "(repro serve --indexes ...)")
        if len(args) < 3:
            raise InvalidArgumentError(
                "rangelookup needs [attribute, low, high, k?]")
        attribute, low, high = args[0], args[1], args[2]
        k = args[3] if len(args) > 3 else None
        results = self._indexed.range_lookup(attribute, low, high, k)
        return [[r.key, r.document, r.seq] for r in results]

    def _op_stats(self) -> dict:
        stats = self.db.stats() if self._primary is None \
            else self._primary.stats()
        return {
            "db": _jsonish(stats),
            "server": self.stats.as_dict(),
            "active_connections": self.active_connections(),
        }


def _jsonish(value: Any) -> Any:
    """Clamp a stats tree to codec-safe types (defensive copy)."""
    if isinstance(value, dict):
        return {key: _jsonish(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonish(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return value
    return repr(value)


# Typing helper for CLI wiring; avoids an import cycle with tools.py.
ServeFactory = Callable[[], Server]
