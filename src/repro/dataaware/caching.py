"""Attribute-value cache: the paper's "integrated caching strategy".

Computing the per-row values of a joined attribute (e.g. actor names
per screening) is the expensive part of a policy step.  The key
observation is that the *full-table* entry only depends on the contents
of the tables along its join path, not on the current candidate subset —
so we build it once, read it per candidate set, and bring it up to date
after a commit that writes one of those tables.  A booking or a
cancellation only adds or removes rows of the entry's root, so the stale
entry is patched: surviving rows keep their values and only the new rows
are joined, where a rebuild walks every reservation.  Any other write on
the path, and any multi-valued entry, rebuilds it.  This is what keeps
the average response latency at "only a few milliseconds" (Section 4)
while still reflecting every committed update.

There is one entry per ``(root table, attribute)``: an
:class:`~repro.dataaware.join_graph.AttributeValues` built by
:func:`~repro.dataaware.join_graph.attribute_values` straight from the
column banks.  When no root row reaches more than one row of the
attribute's table the entry is a ``row id -> value`` column, which
scoring counts and refinement tests per distinct value; otherwise it
maps each row id to the frozenset of its values.

The cache also memoises the informativeness of whole root tables.
Every identification starts from all rows of its root, and that score
is identical across goals until a commit, so
:meth:`AttributeValueCache.table_score` keeps one record per ``(root,
attribute, measure)``: the entry it was computed from, the row ids and
the value.  A record serves a candidate set that reads the *same entry
object* over an *equal row-id sequence*.  Informativeness is a pure
function of the entry and the ordered row ids, so a served value is the
one the set would compute; and a commit that writes a table on the
attribute's path replaces the entry, which retires the record.  Only
whole-table sets store records, so scoring a narrowed set never
displaces one.

The cache is shared by every session of a serving runtime, so it is safe
for concurrent readers: entries via the shared
:class:`~repro.db.versioncache.VersionStampedCache` protocol, score
records because each is an immutable tuple replaced whole and checked
before it serves.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from typing import Callable, Hashable

from repro.dataaware.join_graph import (
    AttributeValues,
    JoinPath,
    JoinPlanner,
    attribute_values,
)
from repro.db.catalog import Catalog, ColumnRef
from repro.db.database import Database
from repro.db.versioncache import VersionStampedCache

__all__ = ["AttributeValueCache"]


class AttributeValueCache:
    """Version-stamped, concurrency-safe cache of attribute value entries."""

    def __init__(self, database: Database, catalog: Catalog) -> None:
        self._database = database
        self._catalog = catalog
        self._planner_lock = threading.Lock()
        self._planners: dict[str, JoinPlanner] = {}
        # (root_table, attribute) -> AttributeValues over every root row
        self._maps = VersionStampedCache(database)
        # (root_table, attribute, measure) -> (entry, row ids, score)
        self._scores: dict[
            Hashable, tuple[AttributeValues, tuple[int, ...], float]
        ] = {}

    @property
    def hits(self) -> int:
        return self._maps.hits

    @property
    def misses(self) -> int:
        return self._maps.misses

    def planner(self, root_table: str) -> JoinPlanner:
        with self._planner_lock:
            planner = self._planners.get(root_table)
            if planner is None:
                planner = JoinPlanner(self._catalog, root_table)
                self._planners[root_table] = planner
            return planner

    def full_map(
        self, root_table: str, attribute: ColumnRef
    ) -> AttributeValues:
        """The values of ``attribute`` for *all* rows of the root.

        Recomputed lazily once a commit writes the root or a table on
        the join path to the attribute.  An attribute no FK path reaches
        has no values.
        """
        return self._maps.lookup(
            (root_table, attribute),
            lambda stale: self._compute(root_table, attribute, stale),
        )

    def _compute(
        self, root_table: str, attribute: ColumnRef,
        stale: tuple[int, AttributeValues] | None,
    ) -> tuple[AttributeValues, tuple[str, ...]]:
        """The entry (``stale`` patched, or rebuilt) and the tables it
        was read from."""
        path = self.planner(root_table).path_to(attribute.table)
        if path is None:
            return AttributeValues({}, True), ()
        ids = self._database.table(root_table).row_ids()
        values = None if stale is None else self._patched(
            path, attribute, ids, *stale
        )
        if values is None:
            values = attribute_values(self._database, path, attribute, ids)
        return values, (root_table, *(step.to_table for step in path.steps))

    def _patched(
        self, path: JoinPath, attribute: ColumnRef, ids: list[int],
        stamp: int, old: AttributeValues,
    ) -> AttributeValues | None:
        """``old``, built at ``stamp``, brought to the caller's snapshot
        of root ids ``ids``; ``None`` unless that provably equals a
        rebuild, which it does when ``old`` is single-valued, the caller
        reads at or after ``stamp`` and since then the root only lost
        rows and gained rows above all older ids, its other rows and
        the rest of the path unchanged.
        """
        database = self._database
        root = database.table(path.root)
        if (
            not old.single
            or stamp > database.snapshot_version()
            or root.rewrite_generation > stamp
            or any(
                database.table(step.to_table).write_generation > stamp
                for step in path.steps
            )
        ):
            return None
        last = next(reversed(old.values), 0)
        added = attribute_values(
            database, path, attribute, ids[bisect_right(ids, last):]
        )
        if not added.single:
            return None
        kept = root.present(old.values)
        values = dict(old.values) if len(kept) == len(old.values) else {
            rid: old.values[rid] for rid in kept
        }
        values.update(added.values)
        return AttributeValues(values, True)

    def table_score(
        self,
        key: Hashable,
        entry: AttributeValues,
        row_ids: tuple[int, ...],
        compute: Callable[[], float],
        whole_table: bool,
    ) -> float:
        """``compute()`` for a candidate set reading ``entry`` over
        ``row_ids``, served from the record under ``key`` when that was
        computed from the same entry object over equal row ids.

        A miss computes outside any lock; a ``whole_table`` set then
        replaces the record, so the last store wins.  A record keeps its
        entry alive, so no later entry can take over its identity.
        """
        record = self._scores.get(key)
        if (
            record is not None
            and record[0] is entry
            and (record[1] is row_ids or record[1] == row_ids)
        ):
            return record[2]
        value = compute()
        if whole_table:
            self._scores[key] = (entry, row_ids, value)
        return value
