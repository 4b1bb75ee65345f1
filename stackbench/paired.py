"""Calibration-paired timing.

The CPU of a shared virtual machine drifts between fast and slow phases
(1.3-1.6x) that last from half a second to minutes, so raw wall time is
not comparable across runs.  Every timed phase therefore runs in short *windows* of operations,
and a fixed calibration slice -- the sort loop of
``benchmarks/bench_engine_micro.calibrate`` -- is timed right before and
right after each window.  Adjacent windows share the slice between them.
Every latency and window duration in a window is multiplied by::

    reference_slice / mean(slice_before, slice_after)

which cancels the machine's phase at the time the window ran.  Slices are
excluded from the timed phase; raw and calibrated values are both kept.
"""

from __future__ import annotations

import math
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

import bench_engine_micro

#: Operations of one pass of ``bench_engine_micro.calibrate``'s sort loop.
CALIBRATION_OPS = 60_000

#: Target length of one window of operations.
WINDOW_SECONDS = 0.020


def calibration_slice() -> float:
    """Seconds one pass of the engine micro-benchmark's sort loop takes."""
    previous = bench_engine_micro.REPEATS
    bench_engine_micro.REPEATS = 1
    try:
        return CALIBRATION_OPS / bench_engine_micro.calibrate()
    finally:
        bench_engine_micro.REPEATS = previous


@dataclass
class Window:
    start_ns: int
    end_ns: int
    raw_s: float
    factor: float


@dataclass
class PhaseResult:
    """One timed phase: per-op latencies (raw and calibrated) and windows."""

    name: str
    windows: list[Window] = field(default_factory=list)
    # kind -> list of (raw_s, calibrated_s)
    latencies: dict[str, list[tuple[float, float]]] = field(
        default_factory=dict)
    ops: int = 0
    #: Wall time of the whole phase, calibration slices included.
    wall_s: float = 0.0

    @property
    def raw_s(self) -> float:
        return sum(w.raw_s for w in self.windows)

    @property
    def calibrated_s(self) -> float:
        return sum(w.raw_s * w.factor for w in self.windows)

    def samples(self, kind: str, calibrated: bool = True) -> list[float]:
        index = 1 if calibrated else 0
        return [pair[index] for pair in self.latencies.get(kind, [])]


class PairedClock:
    """Runs phases in calibration-paired windows and keeps every slice."""

    def __init__(self, reference_s: float) -> None:
        self.reference_s = reference_s
        self.slices: list[float] = []

    def slice(self) -> float:
        seconds = calibration_slice()
        self.slices.append(seconds)
        return seconds

    def factor(self, before: float, after: float) -> float:
        return self.reference_s / ((before + after) / 2)

    def run(self, name: str, ops: Iterable[Any],
            execute: Callable[[Any], Any],
            kind_of: Callable[[Any], str],
            after: Callable[[Any, Any], None]) -> PhaseResult:
        """Execute ``ops`` one at a time: one closed-loop client."""
        return self.run_threads(name, [list(ops)],
                                lambda _client, op: execute(op), kind_of,
                                after)

    def run_threads(self, name: str, streams: list[list[Any]],
                    execute: Callable[[int, Any], Any],
                    kind_of: Callable[[Any], str],
                    after: Callable[[Any, Any], None]) -> PhaseResult:
        """One closed-loop client thread per stream, windows in lockstep.

        Only ``execute(client, op)`` is timed; ``after(op, result)`` does
        the harness bookkeeping outside the op's latency.  Every client
        stops at each window's deadline and waits on a barrier; the slice
        runs while every client (and so the server) is idle, so it
        measures the machine, not contention with another client.
        """
        result = PhaseResult(name)
        clock = time.perf_counter_ns
        clients = len(streams)
        start_gate = threading.Barrier(clients + 1, timeout=120)
        end_gate = threading.Barrier(clients + 1, timeout=120)
        positions = [0] * clients
        pending: list[list[tuple[str, float]]] = [[] for _ in streams]
        errors: list[BaseException] = []
        state = {"deadline": 0, "done": False}

        def client(index: int) -> None:
            stream = streams[index]
            while True:
                start_gate.wait()
                if state["done"]:
                    return
                deadline = state["deadline"]
                try:
                    while positions[index] < len(stream):
                        op = stream[positions[index]]
                        started = clock()
                        outcome = execute(index, op)
                        ended = clock()
                        pending[index].append(
                            (kind_of(op), (ended - started) / 1e9))
                        after(op, outcome)
                        positions[index] += 1
                        if ended >= deadline:
                            break
                except BaseException as exc:  # noqa: BLE001 - re-raised
                    errors.append(exc)
                    positions[index] = len(stream)
                end_gate.wait()

        threads = [threading.Thread(target=client, args=(i,),
                                    name=f"stackbench-client-{i}")
                   for i in range(clients)]
        phase_start = clock()
        for thread in threads:
            thread.start()
        try:
            slice_before = self.slice()
            while any(positions[i] < len(streams[i])
                      for i in range(clients)):
                window_start = clock()
                state["deadline"] = window_start + int(WINDOW_SECONDS * 1e9)
                start_gate.wait()
                end_gate.wait()
                ended = clock()
                slice_after = self.slice()
                merged = [item for bucket in pending for item in bucket]
                for bucket in pending:
                    bucket.clear()
                self._close(result, merged, window_start, ended,
                            self.factor(slice_before, slice_after))
                slice_before = slice_after
        finally:
            state["done"] = True
            start_gate.wait()
            for thread in threads:
                thread.join(timeout=60)
        if errors:
            raise errors[0]
        result.wall_s = (clock() - phase_start) / 1e9
        return result

    @staticmethod
    def _close(result: PhaseResult, pending: list[tuple[str, float]],
               start_ns: int, end_ns: int, factor: float) -> None:
        raw = (end_ns - start_ns) / 1e9
        result.windows.append(Window(start_ns, end_ns, raw, factor))
        for kind, seconds in pending:
            result.latencies.setdefault(kind, []).append(
                (seconds, seconds * factor))
        result.ops += len(pending)

    def diagnostics(self) -> dict[str, Any]:
        ordered = sorted(self.slices)
        q1, median, q3 = statistics.quantiles(ordered, n=4) \
            if len(ordered) >= 2 else (ordered[0],) * 3
        return {"slices": len(ordered),
                "reference_ms": self.reference_s * 1e3,
                "slice_ms_q1": q1 * 1e3, "slice_ms_median": median * 1e3,
                "slice_ms_q3": q3 * 1e3}


def percentile(samples: list[float], fraction: float) -> float:
    """Nearest-rank percentile of ``samples`` (``fraction`` in (0, 1])."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def tail_supported(count: int, fraction: float, beyond: int = 10) -> bool:
    """At least ``beyond`` samples lie above the ``fraction`` percentile."""
    return count - max(1, math.ceil(fraction * count)) >= beyond
