"""Common types for all secondary-index implementations."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum
from typing import Any

from repro.core.records import Document


class IndexKind(Enum):
    """The paper's taxonomy of secondary-index techniques (Table 2)."""

    EMBEDDED = "embedded"
    EAGER = "eager"
    LAZY = "lazy"
    COMPOSITE = "composite"
    NOINDEX = "noindex"


@dataclass(frozen=True)
class LookupResult:
    """One hit of a LOOKUP/RANGELOOKUP: the live record and its recency.

    ``seq`` is the data-table sequence number of the record's current
    version — the "insertion time in the database" that top-K ranks by
    (Table 1: "Retrieve the K most recent entries").
    """

    key: str
    document: Document
    seq: int

    @property
    def value(self) -> Document:
        """Alias kept for symmetry with the paper's (k, v) notation."""
        return self.document


class SecondaryIndex(ABC):
    """One secondary index over one attribute of the primary table.

    The :class:`~repro.core.database.SecondaryIndexedDB` facade drives the
    write hooks (keeping index and data table consistent, Section 1's
    "consistency management") and delegates queries.  ``k=None`` means the
    paper's "no limit on top-k": return every match, newest first.
    """

    def __init__(self, attribute: str) -> None:
        self.attribute = attribute

    kind: IndexKind

    # -- write path -------------------------------------------------------------

    @abstractmethod
    def on_put(self, key: bytes, document: Document, seq: int) -> None:
        """Maintain the index for ``PUT(key, document)`` at sequence ``seq``."""

    @abstractmethod
    def on_delete(self, key: bytes, old_document: Document | None,
                  seq: int) -> None:
        """Maintain the index for ``DEL(key)``.

        ``old_document`` is the record being deleted (``None`` if the key
        was absent); stand-alone indexes need it to target the posting list
        of the old attribute value.
        """

    # -- query path -------------------------------------------------------------

    @abstractmethod
    def lookup(self, value: Any, k: int | None = None,
               early_termination: bool = True) -> list[LookupResult]:
        """LOOKUP(A, a, K): the K most recent live records with val(A) = a.

        ``early_termination`` enables the paper's stop-after-a-level rule
        for the techniques that support it (Embedded, Lazy); the Eager and
        Composite techniques are unaffected (Eager reads a single list;
        Composite must traverse every level regardless, Section 4.2).
        """

    @abstractmethod
    def range_lookup(self, low: Any, high: Any, k: int | None = None,
                     early_termination: bool = True) -> list[LookupResult]:
        """RANGELOOKUP(A, a, b, K): K most recent with a <= val(A) <= b.

        ``early_termination`` enables the paper's stop-at-end-of-level rule
        where the technique supports it.  Only ``False`` (an exhaustive
        scan) guarantees the exact top-K: an early stop misses newer
        matches that compaction already pushed to deeper levels, which
        happens routinely under updates (40-50% of early-terminated
        top-10 answers on an update-heavy mix), not only under unusual
        timing.
        """

    # -- maintenance ------------------------------------------------------------

    def flush(self) -> None:
        """Flush any index-table MemTable (no-op for embedded indexes)."""

    def compact(self) -> None:
        """Force full compaction of the index table (no-op for embedded)."""

    def size_bytes(self) -> int:
        """Extra storage attributable to this index (0 for embedded; the
        embedded structures live inside the primary table's files)."""
        return 0

    def close(self) -> None:
        """Release resources (index-table handles)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(attribute={self.attribute!r})"
