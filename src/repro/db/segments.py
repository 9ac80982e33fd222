"""Sealed-segment storage support: grouped-reduce views and the delta log.

The storage layer splits each table's column banks into an immutable
*sealed* prefix and a small mutable *delta* tail (see
:mod:`repro.db.table`).  This module holds the pieces of that design
that are not bank plumbing:

* :class:`GroupedReduce` — the executor-facing view of a two-part
  grouped aggregation: group keys and sizes merged from the memoised
  sealed state plus the live delta, with per-group sums/counts resolved
  lazily (and memoised) per value column.
* :class:`TableStorageStats` — the per-table storage figures the
  serving tier's ``:stats`` surface reports (sealed/delta/retired rows,
  epoch, compaction count and duration).
* :class:`DeltaLog` — an append-only log of committed logical
  mutations.  While attached to a database it buffers each statement's
  ops, mirrors the transaction manager's savepoints, and flushes one
  record per commit point; attached to a file it doubles as the
  incremental half of snapshot format v4 (one JSON line per commit,
  CRC-protected), which :func:`repro.db.persistence.load_incremental`
  replays on restart.
* :func:`read_delta_records` — the tolerant log reader: it stops at the
  first truncated or corrupt line, so a crash mid-append recovers to
  the last fully committed generation instead of failing the restore.

Only :mod:`repro.db.table` and this module may touch sealed/delta
internals — ``tools/check_execution_api.py`` lints every other module
onto the public ``Table``/``Database`` surfaces.
"""

from __future__ import annotations

import json
import threading
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.errors import DatabaseError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.db.table import Table

__all__ = [
    "DeltaLog",
    "GroupedReduce",
    "TableStorageStats",
    "read_delta_records",
]

# One logical mutation: (kind, table, row_id, payload).  ``kind`` is
# "insert" (payload: the full coerced row), "update" (payload: the new
# values of the changed columns) or "delete" (payload: None).
DeltaOp = tuple[str, str, int, Any]


@dataclass(frozen=True)
class TableStorageStats:
    """Storage-layer figures for one table (the ``:stats`` surface).

    ``sealed_rows`` counts the slots inside the sealed segment (live or
    retired); ``delta_rows`` the slots past it — the part every write
    since the last compaction rescans; ``retired_rows`` the sealed
    slots tombstoned since the seal (reclaimed only by compaction).
    """

    table: str
    sealed_rows: int
    delta_rows: int
    retired_rows: int
    sealed_epoch: int
    compactions: int
    last_compaction_seconds: float


class GroupedReduce:
    """A two-part grouped aggregation over one table's group column.

    Built by :meth:`repro.db.table.Table.grouped_reduce`: ``keys`` are
    the group keys in first-appearance scan order (ascending minimum
    row id, exactly the order a scan-built accumulator would emit) and
    ``sizes`` the matching group cardinalities.  Per-group integer sums
    and non-NULL counts over any value column come from :meth:`sums`,
    which differences the memoised sealed per-group totals by the
    retired and delta slots recorded here — O(groups + delta) per
    write instead of a whole-table pass.
    """

    __slots__ = (
        "column",
        "generation",
        "keys",
        "sizes",
        "removed_slots",
        "added_slots",
        "_table",
    )

    def __init__(
        self,
        table: "Table",
        column: str,
        generation: int,
        keys: list,
        sizes: list[int],
        removed_slots: dict[Any, Sequence[int]],
        added_slots: dict[Any, Sequence[int]],
    ) -> None:
        self._table = table
        self.column = column
        self.generation = generation
        self.keys = keys
        self.sizes = sizes
        # key -> sealed slots retired since the seal / delta slots added
        # since it; the sums pass adjusts the sealed totals by exactly
        # these cells.
        self.removed_slots = removed_slots
        self.added_slots = added_slots

    def __len__(self) -> int:
        return len(self.keys)

    def sums(self, value_column: str) -> tuple[list, list[int]]:
        """``(per-group sums, per-group non-NULL counts)`` aligned with
        :attr:`keys`.  NULL values contribute 0 to the sum; exact for
        integer/boolean columns (the only ones the executor routes
        here)."""
        return self._table.reduce_sums(self, value_column)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"GroupedReduce({self.column!r}, groups={len(self.keys)}, "
            f"delta_keys={len(self.added_slots)})"
        )


def _record_crc(generation: int, ops: list) -> int:
    """CRC32 over the canonical encoding of one record's content."""
    canonical = json.dumps(
        [generation, ops], separators=(",", ":"), sort_keys=True
    )
    return zlib.crc32(canonical.encode("utf-8"))


def _identity(value: Any) -> Any:
    return value


class DeltaLog:
    """Append-only log of committed logical mutations.

    The database records each statement's op into a pending buffer;
    :meth:`commit` flushes the buffer as one atomic record tagged with
    the committed generation.  Savepoints mirror the transaction
    manager's: :meth:`rollback_to` truncates the pending tail exactly
    like the undo log replays its inverse tail, and :meth:`discard`
    drops a rolled-back transaction's ops entirely — only committed
    state ever reaches the log.

    When attached to a file each record is one JSON line carrying a
    CRC32 of its content, flushed at the commit point, so a reader can
    always cut a torn tail back to the last fully committed record.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._pending: list[list] = []
        self._marks: dict[str, int] = {}
        self._records: list[dict[str, Any]] = []
        self._handle = None
        self._encoder: Callable[[Any], Any] = _identity
        self.path: str | None = None

    # ------------------------------------------------------------------
    # Recording (called under the database's commit latch)
    # ------------------------------------------------------------------
    def record(
        self, kind: str, table: str, row_id: int, payload: Any = None
    ) -> None:
        """Buffer one logical op until the owning commit point."""
        self._pending.append([kind, table, row_id, payload])

    def savepoint(self, name: str) -> None:
        self._marks[name] = len(self._pending)

    def rollback_to(self, name: str) -> None:
        mark = self._marks.get(name)
        if mark is not None:
            del self._pending[mark:]

    def discard(self) -> None:
        """Drop the pending buffer (transaction rollback)."""
        self._pending.clear()
        self._marks.clear()

    def commit(self, generation: int) -> bool:
        """Flush pending ops as one record; True when one was written."""
        ops = self._pending
        if not ops:
            self._marks.clear()
            return False
        self._pending = []
        self._marks.clear()
        record = {"generation": generation, "ops": ops}
        with self._lock:
            self._records.append(record)
            if self._handle is not None:
                self._write_locked(record)
        return True

    def _write_locked(self, record: dict[str, Any]) -> None:
        encoder = self._encoder
        ops = [
            [kind, table, row_id,
             None if payload is None else {
                 column: encoder(value)
                 for column, value in payload.items()
             }]
            for kind, table, row_id, payload in record["ops"]
        ]
        generation = record["generation"]
        line = json.dumps(
            {
                "generation": generation,
                "ops": ops,
                "crc": _record_crc(generation, ops),
            },
            separators=(",", ":"),
        )
        self._handle.write(line + "\n")
        self._handle.flush()

    # ------------------------------------------------------------------
    # Introspection / persistence wiring
    # ------------------------------------------------------------------
    def records(self) -> list[dict[str, Any]]:
        """Committed records (oldest first); copies, safe to inspect."""
        with self._lock:
            return [
                {"generation": r["generation"], "ops": list(r["ops"])}
                for r in self._records
            ]

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    @property
    def pending_ops(self) -> int:
        return len(self._pending)

    def attach(
        self,
        path: str,
        encoder: Callable[[Any], Any] | None = None,
        truncate: bool = False,
    ) -> None:
        """Mirror committed records to ``path`` (one JSON line each).

        ``truncate=True`` starts the file (and the in-memory record
        list) fresh — the caller just wrote a base image that already
        contains everything committed so far.
        """
        with self._lock:
            if self._handle is not None:
                self._handle.close()
            self._encoder = encoder if encoder is not None else _identity
            if truncate:
                self._records.clear()
            self._handle = open(path, "w" if truncate else "a")
            self.path = path
            if not truncate:
                for record in self._records:
                    self._write_locked(record)

    def detach(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None
            self.path = None


def read_delta_records(
    path: str, decoder: Callable[[Any], Any] | None = None
) -> tuple[list[dict[str, Any]], bool]:
    """Read a delta-log file tolerantly: ``(records, clean)``.

    Stops at the first torn or corrupt line — a truncated JSON tail, a
    CRC mismatch, a malformed record or a non-monotonic generation —
    and returns everything before it.  ``clean`` is False when such a
    tail was cut, which is exactly the crash-mid-append case: the
    records returned are the last fully committed state.
    """
    decode = decoder if decoder is not None else _identity
    records: list[dict[str, Any]] = []
    clean = True
    last_generation = None
    # Frame in binary: a crash (or a copy taken mid-append) can cut the
    # file at *any* byte offset, including inside a multi-byte UTF-8
    # sequence — text-mode iteration would raise UnicodeDecodeError on
    # such a tail instead of cutting it.  Split on the newline framing
    # first, decode each complete line on its own, and treat any decode
    # failure like every other torn-tail symptom.
    with open(path, "rb") as handle:
        raw = handle.read()
    chunks = raw.split(b"\n")
    if chunks[-1] != b"":
        # No trailing newline: the final chunk is a torn append (the
        # writer emits record+terminator in one write), however far it
        # got — zero bytes of payload or all of them.
        clean = False
    chunks = chunks[:-1]
    for chunk in chunks:
        try:
            line = chunk.decode("utf-8")
            body = json.loads(line)
            generation = body["generation"]
            ops = body["ops"]
            crc = body["crc"]
        except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError):
            clean = False
            break
        if not isinstance(generation, int) or not isinstance(ops, list):
            clean = False
            break
        if crc != _record_crc(generation, ops):
            clean = False
            break
        if last_generation is not None and generation <= last_generation:
            clean = False
            break
        try:
            decoded_ops = [
                (
                    kind,
                    table,
                    row_id,
                    None if payload is None else {
                        column: decode(value)
                        for column, value in payload.items()
                    },
                )
                for kind, table, row_id, payload in ops
            ]
        except (TypeError, ValueError, AttributeError, DatabaseError):
            clean = False
            break
        last_generation = generation
        records.append({"generation": generation, "ops": decoded_ops})
    return records, clean
