"""In-memory model of every generated operation stream.

Each acknowledged PUT is recorded with the sequence number the store
returned, which is the recency top-K ranks by.  A read is checked against
the model state it must have seen: reads are issued after a *watermark*
(the highest sequence acknowledged to any client before the read was sent),
and with one client that is simply every write so far.  Concurrent writes
that may or may not be visible are handled exactly:

* GET must return a version of the key at least as new as the one live at
  the watermark.
* For LOOKUP/RANGELOOKUP let ``s`` be the larger of the watermark and the
  newest sequence in the answer.  The store executed the query at some
  ``s_L >= s``; any matching record committed in ``(s, s_L]`` would be
  newer than every answer and so would have displaced one, hence the
  correct answer is exactly the top-K of the model at ``s``.

Early-terminated RANGELOOKUP is the one exception to exactness.  The
embedded index stops at the end of the first level whose scan fills the
top-K heap (the paper's stop-at-end-of-level rule).  Under leveled
compaction a deeper level can hold versions newer than a shallower level's
-- an update of an old key that compaction pushed down early -- so the rule
may return older matches in place of newer ones; the API promises exact
top-K only with ``early_termination=False`` (``docs/API.md``).  Such an
answer is *inexact*, not wrong, when it is still sound: every result is a
live matching record with its newest document, newest first, and there are
exactly ``min(K, matches)`` of them.  LOOKUP on UserID gets no such
latitude: a lazy posting list is one key of the index table, whose newer
postings always sit in shallower levels, and a composite or global index
scans every level.

Checks run after the timed phase, when every write's sequence is known.
"""

from __future__ import annotations

import bisect
from typing import Any

from repro.workloads.ops import Lookup, RangeLookup

EXACT, INEXACT, WRONG = "exact", "inexact", "wrong"


class Model:
    def __init__(self) -> None:
        # key -> ascending list of (seq, document)
        self.versions: dict[str, list[tuple[int, dict]]] = {}
        # UserID value -> ascending list of (seq, key)
        self.by_user: dict[Any, list[tuple[int, str]]] = {}
        # CreationTime second -> list of (seq, key)
        self.by_time: dict[int, list[tuple[int, str]]] = {}
        self.max_seq = 0
        self._unsorted = False

    def record_put(self, key: str, document: dict, seq: int) -> None:
        history = self.versions.setdefault(key, [])
        if history and history[-1][0] >= seq:
            self._unsorted = True
        history.append((seq, document))
        self.by_user.setdefault(document["UserID"], []).append((seq, key))
        self.by_time.setdefault(document["CreationTime"], []).append(
            (seq, key))
        if seq > self.max_seq:
            self.max_seq = seq
        else:
            self._unsorted = True

    def _settle(self) -> None:
        # Concurrent clients ack out of sequence order; sort once before
        # checking.
        if self._unsorted:
            for table in (self.versions, self.by_user, self.by_time):
                for entries in table.values():
                    entries.sort(key=lambda item: item[0])
            self._unsorted = False

    def _live_at(self, key: str, seq: int, at: int) -> bool:
        """Is the version of ``key`` written at ``seq`` the newest at ``at``?"""
        history = self.versions[key]
        index = bisect.bisect_right(history, (at, _MAX))
        return index > 0 and history[index - 1][0] == seq

    def _top_k(self, candidates: list[tuple[int, str]], at: int,
               k: int | None) -> list[tuple[str, int]]:
        """The ``k`` newest live candidates at ``at`` (all when ``None``)."""
        out: list[tuple[str, int]] = []
        end = bisect.bisect_right(candidates, (at, _MAX))
        for seq, key in reversed(candidates[:end]):
            if self._live_at(key, seq, at):
                out.append((key, seq))
                if k is not None and len(out) >= k:
                    break
        return out

    def live_documents(self) -> dict[str, dict]:
        self._settle()
        return {key: history[-1][1] for key, history in self.versions.items()}

    # -- checks ------------------------------------------------------------

    def check_get(self, key: str, watermark: int, answer: Any) -> bool:
        self._settle()
        history = self.versions.get(key, [])
        index = bisect.bisect_right(history, (watermark, _MAX))
        if index == 0 and answer is None:
            return True  # not yet written at the watermark
        allowed = history[max(0, index - 1):]
        return any(document == answer for _seq, document in allowed)

    def check_query(self, op: Lookup | RangeLookup, watermark: int,
                    answer: list[tuple[str, dict, int]],
                    early_terminated: bool = False) -> str:
        """LOOKUP on UserID or RANGELOOKUP on CreationTime, top-``op.k``:
        ``EXACT``, ``WRONG``, or -- only when ``early_terminated`` --
        ``INEXACT`` (sound, but not the exact top-K)."""
        self._settle()
        at = max([watermark] + [seq for _key, _doc, seq in answer])
        if isinstance(op, Lookup):
            candidates = self.by_user.get(op.value, [])
        else:
            candidates = sorted(entry
                                for second in range(op.low, op.high + 1)
                                for entry in self.by_time.get(second, ()))
        for key, document, seq in answer:
            history = self.versions.get(key, [])
            index = bisect.bisect_left(history, (seq, _MIN))
            if index == len(history) or history[index][0] != seq \
                    or history[index][1] != document:
                return WRONG
        pairs = [(key, seq) for key, _doc, seq in answer]
        if pairs == self._top_k(candidates, at, op.k):
            return EXACT
        if not early_terminated or op.k is None:
            return WRONG
        live = self._top_k(candidates, at, None)
        sound = (set(pairs) <= set(live)
                 and len(pairs) == min(op.k, len(live))
                 and all(a[1] > b[1] for a, b in zip(pairs, pairs[1:])))
        return INEXACT if sound else WRONG


class _Extreme:
    def __init__(self, above: bool) -> None:
        self.above = above

    def __lt__(self, other: object) -> bool:
        return not self.above

    def __gt__(self, other: object) -> bool:
        return self.above

    def __eq__(self, other: object) -> bool:
        return self is other

    __hash__ = object.__hash__


# Sentinels that sort above / below any document or key in a tuple compare.
_MAX = _Extreme(True)
_MIN = _Extreme(False)
