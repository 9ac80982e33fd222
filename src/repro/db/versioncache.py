"""The shared version-stamped cache protocol.

Every cache that derives data from the rows of the database
(attribute-value maps, entity-linker text pools) follows one subtle
concurrency protocol, kept in exactly one place here:

1. fast path — check the stamped entry under the cache mutex.  Each
   entry carries the generation ``v`` it was built at and the tables
   its compute read; it serves a caller whose reads observe generation
   ``s`` (:meth:`SnapshotManager.read_generation`: its pinned
   generation, or the current one when unpinned) when ``v == s``, or
   when no table it read has been written after ``min(v, s)``
   (:attr:`Table.write_generation`).  A reader pinned at ``s`` is thus
   never served an entry another session built at ``s + 1`` from a
   table written in between, while a commit to one table leaves the
   entries of every other table valid.  A thread holding the commit
   latch reads its own uncommitted writes, i.e. at the pending
   generation, which no entry is stamped with: only the table rule can
   serve it, so a writing transaction is never served an entry that
   misses its own writes;
2. miss — *release* the mutex (so a slow rebuild of one key never
   blocks hits on others), recompute under a pinned snapshot, stamping
   with the generation the pin observes (the snapshot is immutable, so
   the stamp is consistent with the data read); the compute gets the
   stale entry's ``(stamp, value)`` as read under the mutex (``None``
   when there is none), which it may patch instead of starting over,
   and names the tables it read alongside its value;
3. store — re-take the mutex and replace the entry only when the
   stored stamp is not newer, so two racing rebuilds converge on the
   freshest value.  A value computed over the caller's own uncommitted
   writes is returned but never stored.

Plan templates read no rows, only index DDL: each prepared statement
keeps its own against its table's index columns, without this
protocol.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Callable, Hashable, Iterable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.db.database import Database
    from repro.db.table import Table

__all__ = ["VersionStampedCache"]


class VersionStampedCache:
    """Concurrency-safe ``key -> value`` cache stamped by data version
    and scoped to the tables each value was computed from."""

    def __init__(self, database: "Database") -> None:
        self._database = database
        self._read_generation = database.snapshots.read_generation
        self._lock = threading.Lock()
        # key -> (stamp, value, tables the value was computed from)
        self._entries: dict[
            Hashable, tuple[int, Any, tuple["Table", ...]]
        ] = {}
        self.hits = 0
        self.misses = 0

    def lookup(
        self,
        key: Hashable,
        compute: Callable[
            [tuple[int, Any] | None], tuple[Any, Iterable[str]]
        ],
    ) -> Any:
        """The cached value for ``key``, recomputing if stale or absent.

        ``compute`` is invoked under a pinned snapshot with the stale
        entry's ``(stamp, value)`` or ``None``, and returns ``(value,
        tables)``: the value, derived purely from the database contents
        it observes, and the names of every table it read.
        """
        generation = self._read_generation()
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and (
                entry[0] == generation
                or _unwritten(entry[2], min(entry[0], generation))
            ):
                self.hits += 1
                return entry[1]
            self.misses += 1
        with self._database.read_locked():
            version = self._database.snapshot_version()
            value, tables = compute(None if entry is None else entry[:2])
            dirty = (
                self._database.commit_latch.held_by_current_thread
                and self._database.transactions.in_transaction()
            )
        if dirty:
            # Computed over uncommitted writes: correct for the caller,
            # poison for the cache (a rollback would leave it stamped
            # with a version that never carries these values).
            return value
        read = tuple(map(self._database.table, tables))
        with self._lock:
            current = self._entries.get(key)
            if current is None or current[0] <= version:
                self._entries[key] = (version, value, read)
        return value

    def invalidate(self) -> None:
        """Drop every entry (they also refresh lazily via the stamps)."""
        with self._lock:
            self._entries.clear()


def _unwritten(tables: tuple["Table", ...], bound: int) -> bool:
    """True when no table in ``tables`` was written after ``bound``."""
    # A plain loop: a generator under all() costs several times more,
    # and this runs on every hit after a commit to an unrelated table.
    for table in tables:
        if table.write_generation > bound:
            return False
    return True
