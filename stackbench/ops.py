"""Seeded operation streams for the four workloads.

The streams come from the repository's own workload generators
(``repro.workloads.generator``, paper Section 5.1 and Table 7) with the
``benchmarks/harness.py`` tweet profile, so UserID is Zipf-distributed,
CreationTime is time-correlated, GETs and updates target inserted keys and
LOOKUP values follow the data.  The benchmark adds only RANGELOOKUP windows
on CreationTime, stratified over the time span inserted so far.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from harness import BENCH_PROFILE
from repro.workloads.generator import (
    MIXED_RATIOS,
    MixedWorkload,
    StaticWorkload,
)
from repro.workloads.ops import Operation, Put, RangeLookup

#: Width of a CreationTime RANGELOOKUP window, in seconds of tweet time.
RANGE_SECONDS = 3

_KINDS = {"put": "put", "get": "get", "lookup": "lookup",
          "range_lookup": "rangelookup"}


def kind_of(op: Operation) -> str:
    """Latency bucket of an operation; updates count as PUTs."""
    return _KINDS[op.op_name]


@dataclass
class Streams:
    """Setup writes, the timed phase, and the probe phase after it."""

    setup: list[Put]
    timed: list[Operation]
    probe: list[Operation]


def range_lookups(rng: random.Random, first: int, last: int, count: int,
                  k: int | None) -> list[RangeLookup]:
    """``count`` windows, one per equal slice of ``[first, last]``, in
    shuffled order, so a small sample covers old and new data alike
    instead of clustering by chance."""
    span = max(0, last - RANGE_SECONDS - first)
    ops = []
    for index in range(count):
        start = first + int((index + rng.random()) * span / count)
        ops.append(RangeLookup("CreationTime", start, start + RANGE_SECONDS,
                               k))
    rng.shuffle(ops)
    return ops


def static_streams(seed: int, preload: int, count: int, probe_puts: int,
                   k: int) -> Streams:
    """Static workload: load ``preload`` tweets, then ``count`` reads
    (60% GET / 30% LOOKUP / 10% RANGELOOKUP, top-``k``); the probe PUTs
    the next ``probe_puts`` tweets."""
    workload = StaticWorkload(num_tweets=preload + probe_puts,
                              profile=BENCH_PROFILE, seed=seed)
    later = workload.tweets[preload:]
    del workload.tweets[preload:]  # queries sample the loaded tweets only
    rng = random.Random(seed)
    kinds = rng.choices(("get", "lookup", "range"), weights=(6, 3, 1),
                        k=count)
    times = [document["CreationTime"] for _key, document in workload.tweets]
    draws = {"get": workload.gets(count),
             "lookup": workload.lookups(count, "UserID", k),
             "range": iter(range_lookups(rng, times[0], times[-1],
                                         kinds.count("range"), k))}
    return Streams(list(workload.load_phase()),
                   [next(draws[kind]) for kind in kinds],
                   [Put(key, document) for key, document in later])


def mixed_streams(seed: int, mix: str, setup_ops: int, count: int,
                  lookup_k: int, range_every: int = 0, probe_ranges: int = 0,
                  range_k: int = 10) -> Streams:
    """One Table 7(b) ``mix`` stream: the writes of its first
    ``setup_ops`` operations preload the store, the next ``count`` are
    timed.  ``range_every`` adds one RANGELOOKUP per that many timed
    operations; ``probe_ranges`` RANGELOOKUPs follow the timed phase."""
    workload = MixedWorkload(num_operations=setup_ops + count,
                             ratios=dict(MIXED_RATIOS[mix]),
                             lookup_k=lookup_k, profile=BENCH_PROFILE,
                             seed=seed)
    stream = list(workload.operations())
    rng = random.Random(seed)
    first = stream[0].document["CreationTime"]
    last = first
    timed: list[Operation] = []
    for index, op in enumerate(stream):
        if isinstance(op, Put):
            last = op.document["CreationTime"]
        if index < setup_ops:
            continue
        timed.append(op)
        if range_every and len(timed) % (range_every + 1) == range_every:
            start = rng.randint(first, max(first, last - RANGE_SECONDS))
            timed.append(RangeLookup("CreationTime", start,
                                     start + RANGE_SECONDS, range_k))
    return Streams([op for op in stream[:setup_ops] if isinstance(op, Put)],
                   timed, range_lookups(rng, first, last, probe_ranges,
                                        range_k))


#: Each workload's streams for ``(seed, timed operation count)``.
STREAMS = {
    "query_static": lambda seed, count: static_streams(
        seed, preload=6000, count=count, probe_puts=3000, k=10),
    # 7500 update-heavy operations write 6000 tweets (3000 of them updates).
    "ingest_mixed": lambda seed, count: mixed_streams(
        seed, "update_heavy", setup_ops=7500, count=count, lookup_k=5,
        probe_ranges=120),
    # 15000 read-heavy operations write 3000 tweets.
    "serve_mixed": lambda seed, count: mixed_streams(
        seed, "read_heavy", setup_ops=15000, count=count, lookup_k=5,
        probe_ranges=600),
    # 3750 write-heavy operations write 3000 tweets.
    "cluster_ingest": lambda seed, count: mixed_streams(
        seed, "write_heavy", setup_ops=3750, count=count, lookup_k=5,
        range_every=40),
}
