"""The :class:`Database` facade: tables + transactions + procedures.

This is the OLTP substrate the paper assumes (it uses PostgreSQL; see
DESIGN.md for the substitution argument).  The facade layers three things
over raw :class:`~repro.db.table.Table` storage:

* foreign-key enforcement across tables on insert/update/delete,
* undo-logged atomic mutations via the transaction manager, and
* commit points that advance the generation clock, which the shared
  caches' stamps are checked against — the mechanism behind the
  paper's "no retraining is required in case data changes".

Concurrency model (MVCC): readers enter :meth:`Database.read_locked`,
which pins a snapshot generation for the scope instead of taking a
shared lock — writers never block them.  Writers enter
:meth:`Database.write_locked`, a narrow reentrant commit latch that
serialises transactions against each other only.  Commit points advance
the generation clock, making a whole transaction visible to new
snapshots atomically, and trigger a vacuum pass bounded by the oldest
still-pinned generation.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Callable, ContextManager, Iterator

from repro.db.locks import CommitLatch, LockUpgradeError
from repro.db.procedures import ProcedureRegistry
from repro.db.schema import DatabaseSchema, TableSchema
from repro.db.snapshots import GenerationClock, SnapshotManager
from repro.db.table import Row, Table
from repro.db.transactions import TransactionManager
from repro.errors import ConstraintViolation, UnknownTableError

__all__ = ["Database"]


class Database:
    """An in-memory relational database with transactions and procedures."""

    def __init__(self, schema: DatabaseSchema) -> None:
        schema.validate()
        self.schema = schema
        self._tables: dict[str, Table] = {
            table.name: Table(table) for table in schema
        }
        self.transactions = TransactionManager(self)
        self.procedures = ProcedureRegistry(self)
        self.clock = GenerationClock()
        self.commit_latch = CommitLatch()
        self.snapshots = SnapshotManager(
            self.clock, latch=self.commit_latch, on_idle=self._vacuum_all
        )
        # Incremental persistence: when a DeltaLog is assigned (see
        # ``repro.db.persistence.dump_incremental``) every committed
        # logical mutation is recorded and flushed at the commit point.
        self.delta_log = None
        for table in self._tables.values():
            table.bind_versioning(
                self.clock, self.snapshots, self.transactions.in_transaction
            )
        self._listener_lock = threading.Lock()
        self._change_listeners: list[Callable[[], None]] = []
        self._lazy_lock = threading.Lock()
        self._default_connection = None

    # ------------------------------------------------------------------
    # Table access
    # ------------------------------------------------------------------
    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise UnknownTableError(f"no table named {name!r}") from None

    @property
    def table_names(self) -> tuple[str, ...]:
        return tuple(self._tables)

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def create_index(self, table_name: str, column: str) -> None:
        """Build a hash index on ``table.column`` (DDL).

        A commit point, though no row changes: no cache stamped by
        table writes is retired.  A prepared statement checks its plan
        template against its table's index columns, so only statements
        on this table plan again to use the new access path.
        """
        with self.write_locked():
            self.table(table_name).create_index(column)
            self.notify_data_changed()

    # ------------------------------------------------------------------
    # Connections (the unified execution API)
    # ------------------------------------------------------------------
    def connect(self, name: str | None = None):
        """A fresh :class:`~repro.db.api.Connection` handle.

        Connections are lightweight: per-connection counters and a
        prepared-statement pool over the shared database.  The serving
        runtime opens one per session.
        """
        from repro.db.api import Connection

        return Connection(self, name=name)

    @property
    def default_connection(self):
        """The shared connection behind ``Query.plan``/``explain`` and
        long-lived internal components.

        The turn path runs its statements here: its prepared-statement
        pool compiles and plans each once across every session, and its
        counters are the turn path's plan traffic.
        """
        connection = self._default_connection
        if connection is None:
            from repro.db.api import Connection

            with self._lazy_lock:
                if self._default_connection is None:
                    self._default_connection = Connection(self, name="default")
                connection = self._default_connection
        return connection

    # ------------------------------------------------------------------
    # Concurrency
    # ------------------------------------------------------------------
    def read_locked(self, read_only: bool = False) -> ContextManager[Any]:
        """Pin a snapshot for the scope: every read inside observes one
        consistent generation while writers commit freely alongside.

        ``read_only=True`` additionally forbids writes inside the scope
        (:meth:`write_locked` raises :class:`LockUpgradeError`) — the
        MVCC replacement for the old read→write upgrade refusal.
        """
        return self.snapshots.pinned(read_only=read_only)

    @contextmanager
    def write_locked(self) -> Iterator[None]:
        """The narrow writer commit latch (reentrant; serialises
        transactions against each other, never against readers)."""
        if self.snapshots.writes_forbidden():
            raise LockUpgradeError(
                "cannot write inside a read-only snapshot scope"
            )
        self.commit_latch.acquire()
        try:
            yield
        finally:
            self.commit_latch.release()

    def snapshot_version(self) -> int:
        """The generation the calling thread's reads observe right now."""
        pinned = self.snapshots.active_generation()
        return self.clock.current if pinned is None else pinned

    def _vacuum_all(self) -> None:
        """Reclaim versions no pinned snapshot can still see (run at
        commit and rollback points, and by the snapshot manager when
        the last pin drains)."""
        bound = self.snapshots.reclaim_bound()
        for table in self._tables.values():
            table.vacuum(bound)

    # ------------------------------------------------------------------
    # Change tracking
    # ------------------------------------------------------------------
    @property
    def data_version(self) -> int:
        """Monotonic counter bumped on every committed (or auto)
        mutation — the MVCC generation clock's committed generation."""
        return self.clock.current

    def on_change(self, listener: Callable[[], None]) -> None:
        """Register a callback fired whenever data changes."""
        with self._listener_lock:
            self._change_listeners.append(listener)

    def notify_data_changed(self) -> None:
        """Commit point: publish pending stamps and fan out to listeners."""
        with self._listener_lock:
            self.clock.advance()
            log = self.delta_log
            if log is not None:
                log.commit(self.clock.current)
            listeners = tuple(self._change_listeners)
        # The committing thread's own enclosing pins (a turn that just
        # booked something) must observe what it published.
        self.snapshots.refresh_current_thread()
        self._vacuum_all()
        for listener in listeners:
            listener()

    # ------------------------------------------------------------------
    # Mutation (FK-checked, undo-logged)
    # ------------------------------------------------------------------
    def insert(self, table_name: str, values: dict[str, Any]) -> int:
        """Insert a row; returns the internal row id."""
        with self.write_locked():
            table = self.table(table_name)
            row = dict(values)
            self._check_outgoing_fks(table.schema, row)
            row_id = table.insert(row)
            self.transactions.log_insert(table_name, row_id)
            if self.delta_log is not None:
                self.delta_log.record(
                    "insert", table_name, row_id, table.get(row_id)
                )
            if not self.transactions.in_transaction():
                self.notify_data_changed()
            return row_id

    def update(self, table_name: str, row_id: int, changes: dict[str, Any]) -> None:
        with self.write_locked():
            table = self.table(table_name)
            merged = table.get(row_id)
            merged.update(changes)
            self._check_outgoing_fks(table.schema, merged)
            self._check_incoming_fks_on_key_change(table, row_id, changes)
            old = table.update(row_id, changes)
            self.transactions.log_update(table_name, row_id, old)
            if self.delta_log is not None:
                # Log the coerced post-update values, not the caller's
                # raw ones — replay must not re-run coercion decisions.
                row = table.get(row_id)
                self.delta_log.record(
                    "update", table_name, row_id,
                    {column: row[column] for column in changes},
                )
            if not self.transactions.in_transaction():
                self.notify_data_changed()

    def delete(self, table_name: str, row_id: int) -> None:
        with self.write_locked():
            table = self.table(table_name)
            row = table.get(row_id)
            self._check_no_referencing_rows(table, row)
            old = table.delete(row_id)
            self.transactions.log_delete(table_name, row_id, old)
            if self.delta_log is not None:
                self.delta_log.record("delete", table_name, row_id)
            if not self.transactions.in_transaction():
                self.notify_data_changed()

    def insert_many(self, table_name: str, rows: list[dict[str, Any]]) -> list[int]:
        """Bulk insert (used by the dataset generators)."""
        return [self.insert(table_name, row) for row in rows]

    # ------------------------------------------------------------------
    # Convenience reads
    # ------------------------------------------------------------------
    def rows(self, table_name: str) -> list[Row]:
        return list(self.table(table_name))

    def find(self, table_name: str, column: str, value: Any) -> list[Row]:
        """All rows of ``table_name`` where ``column == value``."""
        table = self.table(table_name)
        return [table.get(rid) for rid in table.lookup(column, value)]

    def find_one(self, table_name: str, column: str, value: Any) -> Row | None:
        matches = self.find(table_name, column, value)
        return matches[0] if matches else None

    def count(self, table_name: str) -> int:
        return len(self.table(table_name))

    # ------------------------------------------------------------------
    # Foreign-key enforcement
    # ------------------------------------------------------------------
    def _check_outgoing_fks(self, schema: TableSchema, row: dict[str, Any]) -> None:
        for fk in schema.foreign_keys:
            value = row.get(fk.column)
            if value is None:
                continue
            target = self.table(fk.target_table)
            if not target.lookup(fk.target_column, value):
                raise ConstraintViolation(
                    f"table {schema.name!r}: value {value!r} for {fk.column!r} "
                    f"has no match in {fk.target_table}.{fk.target_column}"
                )

    def _check_incoming_fks_on_key_change(
        self, table: Table, row_id: int, changes: dict[str, Any]
    ) -> None:
        for column in changes:
            old_value = table.get(row_id).get(column)
            if old_value == changes[column]:
                continue
            for source_name, fk in self.schema.referencing_tables(table.name):
                if fk.target_column != column:
                    continue
                source = self.table(source_name)
                if source.lookup(fk.column, old_value):
                    raise ConstraintViolation(
                        f"cannot change {table.name}.{column} from "
                        f"{old_value!r}: referenced by {source_name}.{fk.column}"
                    )

    def _check_no_referencing_rows(self, table: Table, row: Row) -> None:
        for source_name, fk in self.schema.referencing_tables(table.name):
            value = row.get(fk.target_column)
            if value is None:
                continue
            source = self.table(source_name)
            if source.lookup(fk.column, value):
                raise ConstraintViolation(
                    f"cannot delete from {table.name!r}: row is referenced "
                    f"by {source_name}.{fk.column}"
                )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        counts = {name: len(t) for name, t in self._tables.items()}
        return f"Database({counts})"
