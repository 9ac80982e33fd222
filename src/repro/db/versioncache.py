"""The shared version-stamped cache protocol.

Every cache that derives data from the database (statistics catalog,
attribute-value maps, entity-linker text pools, plan templates) follows
one subtle concurrency protocol, kept in exactly one place here:

1. fast path — check the stamped entry under the cache mutex; a hit
   requires the stamp to equal the current data version;
2. miss — *release* the mutex (so a slow rebuild of one key never
   blocks hits on others), recompute under a pinned snapshot, stamping
   with the generation the pin observes (the snapshot is immutable, so
   the stamp is consistent with the data read);
3. store — re-take the mutex and replace the entry only when the
   stored stamp is not newer, so two racing rebuilds converge on the
   freshest value.

Caches whose key space is client-controlled (the plan cache: one key
per query *shape*) can pass ``max_entries`` to bound memory: entries
are then kept in least-recently-used order (hits refresh recency) and
storing beyond the cap evicts the coldest entry, counted in
``evictions`` — the same policy the serving session store applies.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Callable, Hashable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.db.database import Database

__all__ = ["VersionStampedCache"]


class VersionStampedCache:
    """Concurrency-safe ``key -> value`` cache stamped by data version."""

    def __init__(
        self,
        database: "Database",
        max_entries: int | None = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1 (or None to disable)")
        self._database = database
        self._max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: OrderedDict[Hashable, tuple[int, Any]] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def lookup(self, key: Hashable, compute: Callable[[], Any]) -> Any:
        """The cached value for ``key``, recomputing if stale or absent.

        ``compute`` is invoked under a pinned snapshot and must derive
        the value purely from the database contents it observes.
        """
        bounded = self._max_entries is not None
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry[0] == self._database.data_version:
                self.hits += 1
                if bounded:
                    self._entries.move_to_end(key)
                return entry[1]
            self.misses += 1
        with self._database.read_locked():
            version = self._database.snapshot_version()
            value = compute()
            dirty = (
                self._database.commit_latch.held_by_current_thread
                and self._database.transactions.in_transaction()
            )
        if dirty:
            # Computed over uncommitted writes: correct for the caller,
            # poison for the cache (a rollback would leave it stamped
            # with a version that never carries these values).
            return value
        with self._lock:
            current = self._entries.get(key)
            if current is None or current[0] <= version:
                self._entries[key] = (version, value)
                if bounded:
                    self._entries.move_to_end(key)
                    while len(self._entries) > self._max_entries:
                        self._entries.popitem(last=False)
                        self.evictions += 1
        return value

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def invalidate(self) -> None:
        """Drop every entry (they also refresh lazily via the stamps)."""
        with self._lock:
            self._entries.clear()
