"""End-to-end serving tests: ops, pipelining, errors, robustness."""

from __future__ import annotations

import socket
import struct
import threading
import time

import pytest

from repro.core.base import IndexKind
from repro.core.database import SecondaryIndexedDB
from repro.lsm.db import DB
from repro.lsm.options import Options
from repro.lsm.vfs import MemoryVFS
from repro.server import Client, RemoteError, Server
from repro.server.protocol import (
    decode_value,
    encode_frame,
    encode_value,
    read_frame,
)


@pytest.fixture()
def kv_server():
    db = DB.open(MemoryVFS(), "data", Options(background_compaction=True))
    server = Server(db)
    server.start()
    yield server, db
    server.close()
    db.close()


@pytest.fixture()
def doc_server():
    db = SecondaryIndexedDB.open_memory(
        indexes={"UserID": IndexKind.LAZY})
    server = Server(db)
    server.start()
    yield server, db
    server.close()
    db.close()


def connect(server: Server, **kwargs) -> Client:
    host, port = server.address
    return Client(host, port, **kwargs)


# -- basic operations --------------------------------------------------------

def test_kv_round_trip(kv_server):
    server, db = kv_server
    with connect(server) as client:
        seq1 = client.put(b"alpha", b"1")
        seq2 = client.put(b"beta", b"2")
        assert seq2 == seq1 + 1
        assert client.get(b"alpha") == b"1"
        assert client.get(b"missing") is None
        assert client.delete(b"alpha") == seq2 + 1
        assert client.get(b"alpha") is None
        # Acked writes are in the engine, not a server-side cache.
        assert db.get(b"beta") == b"2"


def test_kv_scan_pages_and_limits(kv_server):
    server, _db = kv_server
    with connect(server) as client:
        for i in range(20):
            client.put(b"k%02d" % i, b"v%d" % i)
        page = client.scan(b"k05", b"k15", limit=5)
        assert page == [[b"k%02d" % i, b"v%d" % i] for i in range(5, 10)]
        everything = client.scan()
        assert len(everything) == 20


def test_doc_mode_lookup_and_range(doc_server):
    server, _db = doc_server
    with connect(server) as client:
        client.put("t1", {"UserID": "u1", "n": 1})
        client.put("t2", {"UserID": "u2", "n": 2})
        client.put("t3", {"UserID": "u1", "n": 3})
        hits = client.lookup("UserID", "u1")
        assert [key for key, _doc, _seq in hits] == ["t3", "t1"]
        assert hits[0][1] == {"UserID": "u1", "n": 3}
        ranged = client.range_lookup("UserID", "u1", "u2")
        assert {key for key, _doc, _seq in ranged} == {"t1", "t2", "t3"}
        client.delete("t1")
        assert client.get("t1") is None
        assert [key for key, _d, _s in client.lookup("UserID", "u1")] \
            == ["t3"]


def test_stats_exposes_engine_and_server(kv_server):
    server, _db = kv_server
    with connect(server) as client:
        client.put(b"a", b"1")
        stats = client.stats()
    assert stats["db"]["pipeline"]["group_commit_ops"] >= 1
    assert stats["server"]["connections_accepted"] == 1
    assert stats["server"]["requests"] >= 2
    assert stats["active_connections"] == 1


# -- pipelining --------------------------------------------------------------

def test_pipeline_results_in_request_order(kv_server):
    server, db = kv_server
    with connect(server) as client:
        with client.pipeline() as p:
            for i in range(100):
                p.put(b"p%03d" % i, b"%d" % i)
        seqs = p.results
        assert len(seqs) == 100
        # In-order responses: sequence numbers ascend with request order.
        assert seqs == sorted(seqs)
        assert db.get(b"p099") == b"99"
    # The run was coalesced: fewer write groups than operations.
    pipeline = db.stats()["pipeline"]
    assert pipeline["write_groups"] < 100
    assert server.stats.coalesced_ops > 0


def test_pipeline_mixes_reads_and_writes(kv_server):
    server, _db = kv_server
    with connect(server) as client:
        client.put(b"seed", b"s")
        with client.pipeline() as p:
            p.put(b"w1", b"1")
            p.get(b"seed")
            p.put(b"w2", b"2")
            p.get(b"w1")
        w1_seq, seed_val, w2_seq, w1_val = p.results
        assert seed_val == b"s"
        assert w1_val == b"1"
        assert w2_seq > w1_seq


def test_pipeline_error_does_not_desync(kv_server):
    server, _db = kv_server
    with connect(server) as client:
        with client.pipeline() as p:
            p.put(b"good1", b"1")
            p.put(b"bad", "not-bytes")  # type: ignore[arg-type]
            p.put(b"good2", b"2")
            with pytest.raises(RemoteError):
                p.flush()
        results = p.results
        assert isinstance(results[1], RemoteError)
        assert isinstance(results[0], int)
        assert isinstance(results[2], int)
        # Connection still usable after the error.
        assert client.get(b"good2") == b"2"


def _settled(read, quiet: float = 0.3, timeout: float = 10.0) -> int:
    """Poll ``read()`` until it stops changing for ``quiet`` seconds."""
    value = read()
    stable_since = time.time()
    deadline = stable_since + timeout
    while time.time() < deadline:
        time.sleep(0.05)
        current = read()
        if current != value:
            value, stable_since = current, time.time()
        elif time.time() - stable_since >= quiet:
            break
    return value


def test_backpressure_bounds_inflight(kv_server):
    """A client that pipelines without reading stalls the server's reads:
    the server executes only what the socket buffers can answer, then
    waits on TCP; reading the responses releases every request in order."""
    server, db = kv_server
    value = b"v" * (256 * 1024)
    db.put(b"big", value)
    sent = 300  # 75 MiB of responses: far more than the socket buffers
    host, port = server.address
    sock = socket.create_connection((host, port), timeout=10)
    try:
        sock.sendall(b"".join(encode_frame(encode_value([i, "get", b"big"]))
                              for i in range(sent)))
        executed = _settled(lambda: server.stats.requests)
        assert 0 < executed < sent // 2
        for i in range(sent):
            response = read_frame(sock)
            assert response is not None
            assert decode_value(response) == [i, 0, value]
    finally:
        sock.close()
    assert server.stats.requests == sent


def test_one_thread_per_connection(kv_server):
    server, _db = kv_server
    before = _settled(threading.active_count)  # earlier tests' threads gone
    idle = 4
    socks = [socket.create_connection(server.address, timeout=5)
             for _ in range(idle)]
    try:
        deadline = time.time() + 5
        while threading.active_count() < before + idle \
                and time.time() < deadline:
            time.sleep(0.01)
        time.sleep(0.1)  # any second thread per connection would show now
        assert server.stats.connections_accepted == idle
        assert threading.active_count() == before + idle
        server.close(drain=True)
        assert server.stats.leaked_threads == 0
    finally:
        for sock in socks:
            sock.close()


# -- error handling ----------------------------------------------------------

def test_unknown_op_is_reported_not_fatal(kv_server):
    server, _db = kv_server
    with connect(server) as client:
        with pytest.raises(RemoteError, match="unknown op"):
            client._call("frobnicate", [])
        assert client.put(b"after", b"ok") > 0


def test_lookup_rejected_in_kv_mode(kv_server):
    server, _db = kv_server
    with connect(server) as client:
        with pytest.raises(RemoteError, match="LOOKUP"):
            client.lookup("UserID", "u1")


def test_malformed_request_payload_keeps_connection(kv_server):
    server, _db = kv_server
    host, port = server.address
    sock = socket.create_connection((host, port), timeout=5)
    try:
        sock.sendall(encode_frame(b"\x7f\x00garbage"))
        response = read_frame(sock)
        assert response is not None  # an error response, not a hangup
        # Framing stayed in sync: a well-formed request still works.
        sock.sendall(encode_frame(encode_value([1, "put", b"k", b"v"])))
        assert read_frame(sock) is not None
    finally:
        sock.close()
    assert server.stats.errors >= 1


def test_malformed_frame_inside_write_run_answered_in_order(kv_server):
    """A malformed frame between pipelined PUTs ends the coalesced run:
    its error response comes after the first PUT's ack, not before."""
    server, db = kv_server
    sock = socket.create_connection(server.address, timeout=5)
    try:
        sock.sendall(encode_frame(encode_value([1, "put", b"a", b"1"]))
                     + encode_frame(b"\x7f\x00garbage")
                     + encode_frame(encode_value([3, "put", b"b", b"2"])))
        responses = [decode_value(read_frame(sock)) for _ in range(3)]
    finally:
        sock.close()
    assert [(rid, status) for rid, status, _ in responses] \
        == [(1, 0), (0, 1), (3, 0)]
    assert db.get(b"a") == b"1" and db.get(b"b") == b"2"


def test_oversized_frame_rejected_and_connection_dropped():
    db = DB.open(MemoryVFS(), "data", Options(background_compaction=True))
    server = Server(db, max_frame_bytes=1024)
    host, port = server.start()
    try:
        sock = socket.create_connection((host, port), timeout=5)
        try:
            sock.sendall(struct.pack(">I", 1 << 20))
            response = read_frame(sock)
            assert response is not None  # error response before the close
            assert read_frame(sock) is None  # then EOF
        finally:
            sock.close()
        deadline = time.time() + 5
        while server.stats.frames_rejected == 0 and time.time() < deadline:
            time.sleep(0.01)
        assert server.stats.frames_rejected == 1
        # The server survives and serves new connections.
        with Client(host, port) as client:
            assert client.put(b"k", b"v") > 0
    finally:
        server.close()
        db.close()


# -- disconnects -------------------------------------------------------------

def test_torn_frame_discards_only_the_torn_request(kv_server):
    """Disconnect mid-pipelined-batch: complete frames apply, the torn
    one never half-applies."""
    server, db = kv_server
    host, port = server.address
    sock = socket.create_connection((host, port), timeout=5)
    complete = (encode_frame(encode_value([1, "put", b"whole-1", b"a"]))
                + encode_frame(encode_value([2, "put", b"whole-2", b"b"])))
    torn = encode_frame(encode_value([3, "put", b"torn", b"c"]))
    sock.sendall(complete + torn[:len(torn) // 2])
    sock.close()  # vanish mid-frame, responses unread
    deadline = time.time() + 5
    while server.stats.torn_frames == 0 and time.time() < deadline:
        time.sleep(0.01)
    assert server.stats.torn_frames == 1
    deadline = time.time() + 5
    while db.get(b"whole-2") is None and time.time() < deadline:
        time.sleep(0.01)
    assert db.get(b"whole-1") == b"a"
    assert db.get(b"whole-2") == b"b"
    assert db.get(b"torn") is None  # never half-applied


def test_reset_mid_frame_counts_as_torn(kv_server):
    """A peer that resets (RST, not FIN) mid-frame: the complete frames
    still apply and the partial one counts as torn, never half-applied."""
    server, db = kv_server
    host, port = server.address
    sock = socket.create_connection((host, port), timeout=5)
    complete = (encode_frame(encode_value([1, "put", b"whole-1", b"a"]))
                + encode_frame(encode_value([2, "put", b"whole-2", b"b"])))
    torn = encode_frame(encode_value([3, "put", b"torn", b"c"]))
    sock.sendall(complete + torn[:len(torn) // 2])
    time.sleep(0.05)  # the server has read it all and answered both writes
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                    struct.pack("ii", 1, 0))
    sock.close()  # abortive close: the server's next recv sees the reset
    deadline = time.time() + 5
    while server.stats.torn_frames == 0 and time.time() < deadline:
        time.sleep(0.01)
    assert server.stats.torn_frames == 1
    assert db.get(b"whole-1") == b"a"
    assert db.get(b"whole-2") == b"b"
    assert db.get(b"torn") is None


def test_client_disconnect_with_responses_in_flight(kv_server):
    """A peer that vanishes without reading responses must not wedge or
    kill the server."""
    server, db = kv_server
    host, port = server.address
    sock = socket.create_connection((host, port), timeout=5)
    frames = b"".join(
        encode_frame(encode_value([i, "put", b"d%03d" % i, b"x"]))
        for i in range(50))
    sock.sendall(frames)
    sock.close()
    deadline = time.time() + 5
    while server.active_connections() > 0 and time.time() < deadline:
        time.sleep(0.01)
    # Server is alive and consistent afterwards.
    with connect(server) as client:
        assert client.put(b"after-disconnect", b"ok") > 0
    assert db.get(b"after-disconnect") == b"ok"


def test_many_clients_interleave(kv_server):
    server, db = kv_server
    clients = [connect(server) for _ in range(5)]
    try:
        for round_no in range(10):
            for cid, client in enumerate(clients):
                client.put(b"c%d-%02d" % (cid, round_no), b"v")
        for cid in range(5):
            for round_no in range(10):
                assert db.get(b"c%d-%02d" % (cid, round_no)) == b"v"
    finally:
        for client in clients:
            client.close()
