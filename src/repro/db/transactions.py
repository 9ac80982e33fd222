"""Transaction support: undo logging, commit/rollback.

Transactions execute under the database's commit latch (see
:class:`~repro.db.locks.CommitLatch`), so at most one is open at a
time and writer-writer isolation reduces to that serialisation; readers
run concurrently against pinned snapshots and never observe an
uncommitted stamp.  What the paper's agent needs on top is *atomicity*
— a ticket-reservation procedure that fails halfway through must leave
the database unchanged.  We implement this with an undo log of inverse
physical operations, replayed in reverse on rollback; under MVCC the
undone versions carry never-committed stamps and are reclaimed by the
post-rollback vacuum.  Scopes open transactions through
:meth:`Database.transaction <repro.db.database.Database.transaction>`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.errors import TransactionError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.db.database import Database

__all__ = ["UndoRecord", "TransactionManager"]


@dataclass(frozen=True)
class UndoRecord:
    """One inverse physical operation.

    ``kind`` is one of ``"insert"`` (undo by delete), ``"delete"`` (undo by
    restore) or ``"update"`` (undo by writing back the old image).
    """

    kind: str
    table: str
    row_id: int
    old_row: dict[str, Any] | None = None


class TransactionManager:
    """Owns the undo log of a database's one open transaction.

    Nested ``begin`` calls are not allowed: an inner
    :meth:`Database.transaction <repro.db.database.Database.transaction>`
    scope joins the open transaction instead, and marks it
    ``rollback_only`` when it exits by an exception.
    """

    def __init__(self, database: "Database") -> None:
        self._database = database
        # The open transaction's undo log, or None outside a transaction.
        self._undo_log: list[UndoRecord] | None = None
        # Set by a failed inner scope: commit() then rolls back instead.
        self.rollback_only = False
        self.committed_count = 0
        self.aborted_count = 0

    # ------------------------------------------------------------------
    def in_transaction(self) -> bool:
        return self._undo_log is not None

    # ------------------------------------------------------------------
    def begin(self) -> None:
        if self._undo_log is not None:
            raise TransactionError("a transaction is already active")
        self._undo_log = []
        self.rollback_only = False

    def commit(self) -> None:
        self._require_active()
        if self.rollback_only:
            self.rollback()
            raise TransactionError(
                "transaction rolled back: an inner scope failed"
            )
        self._undo_log = None
        self.committed_count += 1
        self._database.notify_data_changed()

    def rollback(self) -> None:
        # Replayed while the transaction is still open, so the undone
        # versions get the transaction's never-committed stamps.
        self._undo(self._require_active())
        self._undo_log = None
        self.aborted_count += 1
        log = self._database.delta_log
        if log is not None:
            # The undo replay above went through the tables directly,
            # so the log's pending buffer holds exactly this
            # transaction's forward ops — drop them; only committed
            # state is ever persisted.
            log.discard()
        # The clock never advanced: every slot stamped by this
        # transaction is dead-on-arrival (created == deleted or a
        # never-committed pending stamp) — reclaim it now.
        self._database._vacuum_all()

    # ------------------------------------------------------------------
    def log_insert(self, table: str, row_id: int) -> None:
        if self._undo_log is not None:
            self._undo_log.append(UndoRecord("insert", table, row_id))

    def log_delete(self, table: str, row_id: int, old_row: dict[str, Any]) -> None:
        if self._undo_log is not None:
            self._undo_log.append(UndoRecord("delete", table, row_id, old_row))

    def log_update(self, table: str, row_id: int, old_row: dict[str, Any]) -> None:
        if self._undo_log is not None:
            self._undo_log.append(UndoRecord("update", table, row_id, old_row))

    # ------------------------------------------------------------------
    def _require_active(self) -> list[UndoRecord]:
        if self._undo_log is None:
            raise TransactionError("no active transaction")
        return self._undo_log

    def _undo(self, records: list[UndoRecord]) -> None:
        for record in reversed(records):
            table = self._database.table(record.table)
            if record.kind == "insert":
                table.delete(record.row_id)
            elif record.kind == "delete":
                assert record.old_row is not None
                table.restore(record.row_id, record.old_row)
            elif record.kind == "update":
                assert record.old_row is not None
                table.update(record.row_id, record.old_row)
            else:  # pragma: no cover - defensive
                raise TransactionError(f"unknown undo kind {record.kind!r}")
