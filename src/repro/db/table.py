"""Columnar MVCC row storage for one relation, with hash indexes.

Rows are stored column-oriented: one append-only Python list per column
(a *bank*), parallel by storage *slot*.  A row id — internal and
monotonically increasing, exactly as before the columnar refactor —
maps to its current slot through ``_slot_of``; reclaimed slots are
recycled through a free list, so long-lived tables do not leak bank
entries.  The columnar layout is what the engine's batched execution
mode runs on: predicates and reductions evaluate directly over the
column lists with C-level builtins instead of materialising one dict
per row (see :mod:`repro.db.engine.executor`).

On top of the banks sits a multi-version store.  Every table belongs to
a :class:`~repro.db.database.Database`, and every slot carries two
stamps from the database's :class:`~repro.db.snapshots.GenerationClock`:
the generation that created it and (eventually) the generation that
deleted it.  Writers never mutate a published cell — every update
appends a fresh version slot for the same row id and tombstones the
old one; a delete just tombstones — so readers pinned at generation
``g`` (see :class:`~repro.db.snapshots.SnapshotManager`) resolve a
consistent snapshot by filtering slots with ``created <= g < deleted``
and can dereference bank cells lock-free.  Physical reclamation is
deferred to :meth:`Table.vacuum`, gated on the oldest pinned
generation.  One fast path keeps the common case at pre-MVCC speed: a
pinned read with no write to the table after its generation
(``write_generation <= g``) uses the exact current-state structures.

Structure reads and mutations synchronise on a short per-table latch
(``_latch``) held per operation — never for a whole turn; whole writer
transactions serialise on the database's commit latch above this layer.

Row-oriented access survives as views: :meth:`Table.row_view` returns a
lazy :class:`RowView` mapping backed by the banks (read-only by
convention), and :meth:`Table.get` materialises a fresh dict.  Every
column can carry a hash index (value -> set of row ids); primary-key
and unique columns always do, since the constraint check needs the
index anyway.  Indexes describe the *current* state (writers maintain
them eagerly); a pinned reader whose snapshot is older falls back to
visibility-filtered scans.  The :class:`Table` exposes a low-level
mutation API (``insert``/``update``/``delete``) used by
:class:`repro.db.database.Database`, which layers transactions and
foreign-key enforcement on top.
"""

from __future__ import annotations

import threading
from collections.abc import Mapping
from itertools import accumulate, repeat
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.db.schema import TableSchema
from repro.db.snapshots import GenerationClock, SnapshotManager
from repro.db.types import coerce, is_null
from repro.errors import ConstraintViolation, UnknownColumnError

__all__ = ["Row", "RowView", "Table"]

Row = dict[str, Any]
"""A materialised row: column name -> value."""

# Bounded memo size for per-generation snapshot structures.  Stale pins
# are transient (one serving turn overlapping one commit), so a handful
# of generations in flight is already a pathological case.
_VISIBLE_CACHE_CAP = 8


class RowView(Mapping):
    """A lazy, read-only row over the table's column banks.

    Indexing reads straight from the banks (``banks[column][slot]``), so
    constructing a view copies nothing.  Views compare equal to dicts
    with the same items (via the :class:`Mapping` protocol) and support
    everything the executor and predicates need: ``row[col]``,
    ``col in row``, ``row.get``, ``row.items()`` and ``dict(row)``.
    Views are valid for as long as their slot's version is visible to
    the reading snapshot — published cells are never overwritten, and
    the vacuum only reclaims slots no live snapshot can see.
    """

    __slots__ = ("_banks", "_slot")

    def __init__(self, banks: dict[str, list], slot: int) -> None:
        self._banks = banks
        self._slot = slot

    def __getitem__(self, key: str) -> Any:
        return self._banks[key][self._slot]

    def __contains__(self, key: object) -> bool:
        return key in self._banks

    def get(self, key: str, default: Any = None) -> Any:
        bank = self._banks.get(key)
        return default if bank is None else bank[self._slot]

    def __iter__(self) -> Iterator[str]:
        return iter(self._banks)

    def __len__(self) -> int:
        return len(self._banks)

    def keys(self):
        return self._banks.keys()

    def items(self) -> list[tuple[str, Any]]:
        slot = self._slot
        return [(column, bank[slot]) for column, bank in self._banks.items()]

    def values(self) -> list[Any]:
        slot = self._slot
        return [bank[slot] for bank in self._banks.values()]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RowView({dict(self)!r})"


class _HashIndex:
    """A simple hash index mapping column values to sets of row ids."""

    def __init__(self) -> None:
        self._buckets: dict[Any, set[int]] = {}

    def add(self, value: Any, row_id: int) -> None:
        if is_null(value):
            return
        self._buckets.setdefault(value, set()).add(row_id)

    def remove(self, value: Any, row_id: int) -> None:
        if is_null(value):
            return
        bucket = self._buckets.get(value)
        if bucket is not None:
            bucket.discard(row_id)
            if not bucket:
                del self._buckets[value]

    def lookup(self, value: Any) -> set[int]:
        return set(self._buckets.get(value, ()))

    def __len__(self) -> int:
        return len(self._buckets)


class Table:
    """Mutable columnar MVCC storage for the rows of one table schema,
    built by :class:`~repro.db.database.Database` only."""

    def __init__(
        self,
        schema: TableSchema,
        clock: GenerationClock,
        snapshots: SnapshotManager,
        in_transaction: Callable[[], bool],
    ) -> None:
        self.schema = schema
        self._columns: tuple[str, ...] = tuple(schema.column_names)
        self._banks: dict[str, list] = {c: [] for c in self._columns}
        self._bank_list: list[list] = [self._banks[c] for c in self._columns]
        self._slot_of: dict[int, int] = {}
        self._id_at: list[int | None] = []
        self._free: set[int] = set()
        # MVCC stamps, parallel to the banks by slot: the generation
        # that created the version and the generation that ended it
        # (None while live).  ``_dead`` holds ended-but-unreclaimed
        # slots (tombstones and superseded versions) until vacuum.
        self._created: list[int] = []
        self._deleted: list[int | None] = []
        self._dead: set[int] = set()
        # See write_generation and rewrite_generation.
        self._write_generation = 0
        self._rewrite_generation = 0
        self._clock = clock
        self._snapshots = snapshots
        self._in_transaction = in_transaction
        self._latch = threading.RLock()
        # _dense: slots, walked front to back, are exactly the rows in
        # ascending row-id order with no holes — the common append-only
        # case, where a scan is the banks themselves.  _id_ordered:
        # active slots are in ascending id order (holes allowed); while
        # it holds, draining the free set makes the table dense again.
        self._dense = True
        self._id_ordered = True
        self._next_row_id = 1
        self._indexes: dict[str, _HashIndex] = {}
        # Grouped scan layouts derived from the hash indexes, memoised
        # per mutation generation (see grouped_layout()).
        self._mutations = 0
        self._group_layouts: dict[str, tuple[int, Any]] = {}
        self._group_tallies: dict[tuple[str, str], tuple[int, Any]] = {}
        # Per-generation snapshot structure for stale pinned readers:
        # generation -> (epoch, visible slots ascending by rid, rid map).
        self._visible_cache: dict[
            int, tuple[int, list[int], dict[int, int]]
        ] = {}
        if schema.primary_key:
            self.create_index(schema.primary_key)
        for column in schema.columns:
            if column.unique:
                self.create_index(column.name)

    # ------------------------------------------------------------------
    # MVCC reads
    # ------------------------------------------------------------------
    def _pin_generation(self) -> int | None:
        """The calling thread's pinned generation, or None for current."""
        return self._snapshots.active_generation()

    def _stale(self, generation: int | None) -> bool:
        """Must this read take the visibility-filtered path?  Yes once
        the table has been written after the reader's pin."""
        return generation is not None and self._write_generation > generation

    # ------------------------------------------------------------------
    # Snapshot structures (built and memoised under the latch)
    # ------------------------------------------------------------------
    def _visible(
        self, generation: int
    ) -> tuple[list[int], dict[int, int]]:
        """Latch-held: (slots ascending by rid, rid -> slot) at ``generation``."""
        entry = self._visible_cache.get(generation)
        if entry is not None and entry[0] == self._mutations:
            return entry[1], entry[2]
        created = self._created
        deleted = self._deleted
        pairs: list[tuple[int, int]] = []
        for slot, rid in enumerate(self._id_at):
            if rid is None or created[slot] > generation:
                continue
            ended = deleted[slot]
            if ended is not None and ended <= generation:
                continue
            pairs.append((rid, slot))
        # At most one version of a row id is visible at any generation
        # (an update ends the old version at the exact generation that
        # creates the new one), so the pairs sort to unique rids.
        pairs.sort()
        slots = [slot for __, slot in pairs]
        rid_map = dict(pairs)
        if len(self._visible_cache) >= _VISIBLE_CACHE_CAP:
            self._visible_cache.pop(next(iter(self._visible_cache)))
        self._visible_cache[generation] = (self._mutations, slots, rid_map)
        return slots, rid_map

    def _visible_map(self) -> dict[int, int]:
        """Latch-held: rid -> slot for the calling thread's read
        (pin-aware).

        Often the live ``_slot_of``, which writers change under the
        latch (a delete pops a row, a version append repoints it): keep
        holding the latch for as long as the map is read.
        """
        generation = self._pin_generation()
        if generation is None or not self._stale(generation):
            return self._slot_of
        return self._visible(generation)[1]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.schema.name

    def __len__(self) -> int:
        generation = self._pin_generation()
        if generation is None:
            return len(self._slot_of)
        with self._latch:
            if not self._stale(generation):
                return len(self._slot_of)
            return len(self._visible(generation)[0])

    def __iter__(self) -> Iterator[Row]:
        """Iterate over copies of all rows (stable order by row id).

        The rows are snapshotted (columnwise) up front, so mutating the
        table mid-iteration affects neither the count nor the contents
        of the rows already promised.
        """
        return iter(self.materialise_slots(self.scan_slots()))

    def row_ids(self) -> list[int]:
        generation = self._pin_generation()
        with self._latch:
            if self._stale(generation):
                # The visible map iterates in ascending-rid order.
                return list(self._visible(generation)[1])
            return sorted(self._slot_of)

    def has_row(self, row_id: int) -> bool:
        with self._latch:
            return row_id in self._visible_map()

    def present(self, row_ids: Iterable[int]) -> tuple[int, ...]:
        """The ids among ``row_ids`` that the calling reader sees, in the
        given order — one snapshot resolution for the whole batch."""
        with self._latch:
            return tuple(filter(self._visible_map().__contains__, row_ids))

    def _row_at(self, slot: int) -> Row:
        """Fresh dict of the row at ``slot`` (bank layout's single exit)."""
        return dict(
            zip(self._columns, (bank[slot] for bank in self._bank_list))
        )

    def get(self, row_id: int) -> Row:
        """Return a fresh dict copy of the row with internal id ``row_id``."""
        with self._latch:
            return self._row_at(self._visible_map()[row_id])

    def row_view(self, row_id: int) -> RowView:
        """A lazy bank-backed view of one row — read-only by convention.

        Readers that touch a few columns of a row use views to avoid
        one dict copy per visited row.
        """
        with self._latch:
            return RowView(self._banks, self._visible_map()[row_id])

    @property
    def write_generation(self) -> int:
        """The newest generation any row write stamped on this table,
        pending (uncommitted) writes included; index DDL is not a write.

        Monotone: vacuum and rollback never lower it.  A derived value
        built at generation ``v`` from this table is still exact at
        generation ``s`` when ``write_generation <= min(v, s)`` — no
        write to the table lies between the two — which is the rule
        :class:`~repro.db.versioncache.VersionStampedCache` serves by.
        """
        return self._write_generation

    @property
    def rewrite_generation(self) -> int:
        """The newest generation, pending writes included, at which an
        existing row id got new cells: an update, or a restore re-taking
        an id.  Monotone like :attr:`write_generation`.  Inserts (which
        take ids above every id ever allocated) and deletes leave it be.
        """
        return self._rewrite_generation

    def has_index(self, column: str) -> bool:
        return column in self._indexes

    def hash_index_columns(self) -> list[str]:
        """Columns carrying a hash index (sorted; includes pk/unique)."""
        return sorted(self._indexes)

    # ------------------------------------------------------------------
    # Columnar access (the batched executor's surface)
    # ------------------------------------------------------------------
    def bank_map(self) -> dict[str, list]:
        """The internal ``column -> bank`` mapping (read-only by
        convention).  Banks are parallel by slot; entries at free slots
        are ``None`` and must only be reached through active slots."""
        return self._banks

    def scan_slots(self) -> "range | list[int]":
        """Slots visible to the calling reader, in ascending row-id order.

        Returns a :class:`range` covering the banks whole when the table
        is dense (no holes, slots already in id order) so batched
        operators can run directly over the full column lists.  A
        pinned reader whose generation predates a write to the table
        gets the visibility-filtered slot list instead.
        """
        generation = self._pin_generation()
        with self._latch:
            if self._stale(generation):
                return self._visible(generation)[0]
            if self._dense:
                return range(len(self._id_at))
            slot_of = self._slot_of
            return [slot_of[rid] for rid in sorted(slot_of)]

    def ids_for_slots(self, slots: Sequence[int]) -> list[int]:
        """Row ids of ``slots``, preserving the given slot order."""
        id_at = self._id_at
        return [id_at[s] for s in slots]

    def slots_for_ids(self, row_ids: Sequence[int]) -> list[int]:
        """Slots of ``row_ids``, preserving the given id order.

        The bridge from index lookups (which speak row ids) back into
        the batched executor's slot world.
        """
        with self._latch:
            slot_of = self._visible_map()
            return [slot_of[r] for r in row_ids]

    def grouped_layout(
        self, column: str
    ) -> tuple[list, list[int], list[int]] | None:
        """``(keys, flat_slots, bounds)``: the table regrouped by the
        hash index on ``column``.

        ``flat_slots`` lists every active slot, clustered by group;
        group ``i`` holds key ``keys[i]`` and spans
        ``flat_slots[bounds[i]:bounds[i + 1]]``.  Groups appear in
        first-appearance scan order and each group's slots stay in scan
        order, so walking the layout visits exactly the rows a
        sequential scan would — just pre-clustered, which lets grouped
        aggregates reduce each segment with C-level primitives instead
        of scattering row-at-a-time into an accumulator dict.

        The layout is pure index structure (no cell values), so it is
        memoised until the next mutation.  Returns ``None`` when the
        column is unindexed or holds NULLs (NULL keys never enter the
        index, so the buckets would not cover the table), and for a
        pinned reader whose snapshot predates a write to the table —
        the index describes current state, so the executor falls back
        to its scan-based grouping for that turn.
        """
        index = self._indexes.get(column)
        if index is None:
            return None
        with self._latch:
            if self._stale(self._pin_generation()):
                return None
            generation = self._mutations
            cached = self._group_layouts.get(column)
            if cached is not None and cached[0] == generation:
                return cached[1]
            buckets = index._buckets
            layout: tuple[list, list[int], list[int]] | None
            if sum(map(len, buckets.values())) != len(self._slot_of):
                layout = None
            else:
                # First-appearance order == ascending minimum row id;
                # the minima are distinct across groups, so the tuple
                # sort never falls through to comparing (possibly
                # mixed-type) keys.
                groups = []
                for value, ids in buckets.items():
                    ordered = sorted(ids)
                    groups.append((ordered[0], value, ordered))
                groups.sort()
                keys: list = []
                flat_ids: list[int] = []
                bounds: list[int] = [0]
                for __, value, ordered in groups:
                    keys.append(value)
                    flat_ids.extend(ordered)
                    bounds.append(len(flat_ids))
                slot_of = self._slot_of
                layout = (keys, [slot_of[r] for r in flat_ids], bounds)
            self._group_layouts[column] = (generation, layout)
            return layout

    def grouped_tallies(
        self, column: str, value_column: str
    ) -> tuple[list, list[int] | None] | None:
        """``(tallies, counts)``: prefix sums of ``value_column`` over
        the grouped layout for ``column``.

        ``tallies[i]`` is the sum of the first ``i`` clustered values
        (NULLs contribute 0), so any group's sum is one subtraction of
        its layout bounds.  ``counts`` is the matching prefix count of
        non-NULL values — ``None`` when the segment holds no NULL, in
        which case group sizes already are the non-NULL counts.

        Like the layout itself this is pure per-generation structure
        (a materialised segment tally, the hash-index analogue of a
        count-augmented B-tree): any mutation invalidates it.  Returns
        ``None`` when there is no layout for ``column``.
        """
        with self._latch:
            layout = self.grouped_layout(column)
            if layout is None:
                return None
            generation = self._mutations
            memo_key = (column, value_column)
            cached = self._group_tallies.get(memo_key)
            if cached is not None and cached[0] == generation:
                return cached[1]
            values = list(
                map(self._banks[value_column].__getitem__, layout[1])
            )
            counts: list[int] | None
            if None in values:
                tallies = list(accumulate(
                    (0 if v is None else v for v in values), initial=0
                ))
                counts = list(accumulate(
                    (v is not None for v in values), initial=0
                ))
            else:
                tallies = list(accumulate(values, initial=0))
                counts = None
            result = (tallies, counts)
            self._group_tallies[memo_key] = (generation, result)
            return result

    def views_for_slots(self, slots: Sequence[int]) -> Iterator[RowView]:
        """Lazy row views over ``slots``, preserving the given order."""
        banks = self._banks
        return (RowView(banks, s) for s in slots)

    def materialise_slots(self, slots: Sequence[int]) -> list[Row]:
        """Fresh row dicts for ``slots``, built columnwise."""
        if not len(slots):
            return []
        names = self._columns
        banks = self._bank_list
        if type(slots) is range:
            # A pinned reader's range is a *prefix*: writers may have
            # appended past it since the snapshot was taken, so only
            # treat the banks as whole when the lengths still agree.
            if banks and len(banks[0]) != slots.stop:
                selected: Sequence[Sequence[Any]] = [
                    bank[: slots.stop] for bank in banks
                ]
            else:
                selected = banks
        elif len(slots) > 1:
            # One C-level gather per bank instead of a Python loop per
            # bank — this is what keeps wide rows columnar.
            fetch = itemgetter(*slots)
            selected = [fetch(bank) for bank in banks]
        else:
            selected = [[bank[s] for s in slots] for bank in banks]
        if not banks:  # pragma: no cover - schemas always carry columns
            return [{} for __ in slots]
        # One C pipeline: transpose the selected banks and build every
        # row dict without a per-row Python frame.
        return list(map(dict, map(zip, repeat(names), zip(*selected))))

    # ------------------------------------------------------------------
    # Index management
    # ------------------------------------------------------------------
    def create_index(self, column: str) -> None:
        """Build (or rebuild) a hash index on ``column``."""
        self.schema.column(column)  # raises UnknownColumnError
        with self._latch:
            self._mutations += 1
            index = _HashIndex()
            bank = self._banks[column]
            for row_id, slot in self._slot_of.items():
                index.add(bank[slot], row_id)
            self._indexes[column] = index

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def _allocate_slot(self, row_id: int, stamp: int) -> int:
        """Claim a slot for ``row_id``: reuse a freed one or append."""
        if self._free:
            # A recycled slot sits in front of newer ids: the id order
            # of the slot walk is broken until the table fully empties.
            slot = self._free.pop()
            self._id_at[slot] = row_id
            self._created[slot] = stamp
            self._deleted[slot] = None
            self._id_ordered = False
        else:
            slot = len(self._id_at)
            self._id_at.append(row_id)
            self._created.append(stamp)
            self._deleted.append(None)
            for bank in self._bank_list:
                bank.append(None)
            if slot > 0:
                previous = self._id_at[slot - 1]
                if previous is not None and previous > row_id:
                    # An out-of-order restore (or version append) at
                    # the tail.
                    self._dense = False
                    self._id_ordered = False
        self._slot_of[row_id] = slot
        return slot

    def _write_slot(self, slot: int, row: Row) -> None:
        for column, bank in zip(self._columns, self._bank_list):
            bank[slot] = row[column]

    def _stamp(self, rewrite: bool = False) -> int:
        """Latch-held: the pending generation, recorded as a write (with
        ``rewrite``, one that gave an existing row id new cells)."""
        stamp = self._clock.pending
        if stamp > self._write_generation:
            self._write_generation = stamp
        if rewrite and stamp > self._rewrite_generation:
            self._rewrite_generation = stamp
        return stamp

    def insert(self, values: dict[str, Any]) -> int:
        """Insert one row; returns the internal row id.

        Values are coerced to the declared column types; missing columns
        default to NULL.  Raises :class:`ConstraintViolation` on NOT NULL,
        primary-key or unique violations, and
        :class:`UnknownColumnError` for unexpected keys.  The new
        version is stamped with the pending generation: invisible to
        pinned snapshots until the owning commit advances the clock.
        """
        row = self._normalise(values)
        self._check_not_null(row)
        self._check_unique(row, exclude_row_id=None)
        with self._latch:
            self._mutations += 1
            stamp = self._stamp()
            row_id = self._next_row_id
            self._next_row_id += 1
            slot = self._allocate_slot(row_id, stamp)
            self._write_slot(slot, row)
            for column, index in self._indexes.items():
                index.add(row[column], row_id)
        return row_id

    def update(self, row_id: int, changes: dict[str, Any]) -> Row:
        """Apply ``changes`` to an existing row; returns a copy of the old row.

        The new cells go to a fresh version slot stamped with the
        pending generation, at the tail or in a freed slot, and the old
        slot is tombstoned at the same stamp, so every snapshot pinned
        before the commit keeps reading the old cells.  A slot the open
        transaction created is superseded like any other: its tombstone
        has ``created == deleted`` and the next vacuum frees it.  The
        table then scans through a sorted slot list, not the banks
        whole.
        """
        slot = self._slot_of[row_id]
        old = self._row_at(slot)
        new = dict(old)
        for column, value in changes.items():
            col = self.schema.column(column)
            new[column] = coerce(value, col.dtype)
        self._check_not_null(new)
        self._check_unique(new, exclude_row_id=row_id)
        with self._latch:
            self._mutations += 1
            stamp = self._stamp(rewrite=True)
            self._deleted[slot] = stamp
            self._dead.add(slot)
            new_slot = self._allocate_slot(row_id, stamp)
            self._write_slot(new_slot, new)
            # The superseded slot stays occupied until vacuum: the
            # layout has a non-live resident, so the dense fast path is
            # off.
            self._dense = False
            for column, index in self._indexes.items():
                if old[column] != new[column]:
                    index.remove(old[column], row_id)
                    index.add(new[column], row_id)
        return old

    def delete(self, row_id: int) -> Row:
        """Delete a row; returns a copy of it (for undo logs).

        The slot is tombstoned (stamped dead at the pending generation),
        not cleared: pinned snapshots older than the delete keep reading
        it until :meth:`vacuum`, which the database runs at every commit
        point, reclaims it.
        """
        with self._latch:
            slot = self._slot_of.pop(row_id)
            row = self._row_at(slot)
            self._mutations += 1
            stamp = self._stamp()
            self._deleted[slot] = stamp
            self._dead.add(slot)
            self._dense = False
            for column, index in self._indexes.items():
                index.remove(row[column], row_id)
        return row

    def restore(self, row_id: int, row: Row) -> None:
        """Re-insert a previously deleted row under its original id (undo)."""
        if row_id in self._slot_of:
            raise ConstraintViolation(
                f"table {self.name!r}: cannot restore row {row_id}, id in use"
            )
        with self._latch:
            self._mutations += 1
            stamp = self._stamp(rewrite=True)
            slot = self._allocate_slot(row_id, stamp)
            for column, bank in zip(self._columns, self._bank_list):
                bank[slot] = row.get(column)
            self._next_row_id = max(self._next_row_id, row_id + 1)
            for column, index in self._indexes.items():
                index.add(row.get(column), row_id)

    # ------------------------------------------------------------------
    # Vacuum (physical reclamation)
    # ------------------------------------------------------------------
    def vacuum(self, min_pinned: int | None = None) -> int:
        """Reclaim dead versions no snapshot can see; returns the count.

        A slot is reclaimable when its delete stamp is at or below the
        oldest pinned generation (every live and future pin reads past
        it) or when it was created and deleted at the same generation
        (a version superseded or rolled back before its commit: visible
        at no generation at all).  The pass also restores the dense-scan invariants the
        pre-MVCC delete maintained inline: trailing holes are shed, a
        fully emptied table resets its banks wholesale, and density
        returns once no hole or dead slot remains.  It costs what it
        reclaims: a pass walks the dead slots and the trailing holes,
        never the whole table.
        """
        with self._latch:
            if not self._dead:
                return 0
            pending = self._clock.pending
            if not self._in_transaction():
                # Aborted version-appends: the rollback restored the old
                # image into a pending-created duplicate while the
                # original sits tombstoned at the same (never-committed)
                # pending stamp.  Revert physically — un-tombstone the
                # original, retire the duplicate — so aborts leave no
                # residue behind.  Safe under live pins: the original
                # was visible to them either way, the duplicate never
                # was.
                for slot in list(self._dead):
                    if self._deleted[slot] != pending:
                        continue
                    rid = self._id_at[slot]
                    dup = self._slot_of.get(rid) if rid is not None else None
                    if dup is None or self._created[dup] != pending:
                        continue
                    if any(
                        bank[slot] != bank[dup] for bank in self._bank_list
                    ):
                        # Not a rollback residue: the duplicate carries a
                        # different image (e.g. a manual delete+restore
                        # awaiting its commit).  Leave both versions be.
                        continue
                    self._mutations += 1
                    self._deleted[slot] = None
                    self._slot_of[rid] = slot
                    self._deleted[dup] = self._created[dup]
                    self._dead.discard(slot)
                    self._dead.add(dup)
                if not self._dead:
                    return 0
            bound = self._clock.current
            if min_pinned is not None and min_pinned < bound:
                bound = min_pinned
            created = self._created
            deleted = self._deleted
            freed = [
                slot
                for slot in self._dead
                if deleted[slot] <= bound or created[slot] == deleted[slot]
            ]
            if not freed:
                return 0
            self._mutations += 1
            for slot in freed:
                self._dead.discard(slot)
                self._id_at[slot] = None
                self._created[slot] = 0
                self._deleted[slot] = None
                for bank in self._bank_list:
                    bank[slot] = None
                self._free.add(slot)
            if not self._slot_of and not self._dead:
                # Table emptied: reset the banks wholesale so a refill
                # is append-only (dense) again.
                self._id_at.clear()
                self._free.clear()
                self._created.clear()
                self._deleted.clear()
                for bank in self._bank_list:
                    bank.clear()
                self._dense = True
                self._id_ordered = True
            else:
                # Shed trailing holes so tail-heavy delete patterns keep
                # the layout hole-free, exactly as the in-delete
                # compaction used to.
                while self._id_at and self._id_at[-1] is None:
                    tail = len(self._id_at) - 1
                    self._id_at.pop()
                    self._created.pop()
                    self._deleted.pop()
                    for bank in self._bank_list:
                        bank.pop()
                    self._free.discard(tail)
                self._dense = (
                    self._id_ordered and not self._free and not self._dead
                )
            # Drop every memo keyed to the old slot layout instead of
            # trusting the mutation counter alone: a freed slot's id
            # must never leak through a stale layout into a join build.
            self._group_layouts.clear()
            self._group_tallies.clear()
            self._visible_cache.clear()
            return len(freed)

    # ------------------------------------------------------------------
    # Restore bookkeeping
    # ------------------------------------------------------------------
    @property
    def next_row_id(self) -> int:
        """The id the next insert will take (snapshot bookkeeping)."""
        return self._next_row_id

    def advance_row_counter(self, next_row_id: int) -> None:
        """Raise the id counter to at least ``next_row_id`` (restore path:
        a dumped table may have deleted its highest-id rows, and replaying
        its delta log needs inserts to re-take the exact ids they had)."""
        with self._latch:
            if next_row_id > self._next_row_id:
                self._next_row_id = next_row_id

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def lookup(self, column: str, value: Any) -> list[int]:
        """Row ids where ``column == value`` (uses index when available)."""
        col = self.schema.column(column)
        needle = coerce(value, col.dtype)
        if needle is None:
            return []
        generation = self._pin_generation()
        with self._latch:
            if self._stale(generation):
                # The index describes current state; filter the
                # snapshot's visible slots instead (rid-sorted already).
                slots, __ = self._visible(generation)
                bank = self._banks[column]
                id_at = self._id_at
                return [id_at[s] for s in slots if bank[s] == needle]
            index = self._indexes.get(column)
            if index is not None:
                return sorted(index.lookup(needle))
            bank = self._banks[column]
            id_at = self._id_at
            return [
                id_at[slot]
                for slot in self.scan_slots()
                if bank[slot] == needle
            ]

    def scan(self, predicate: Callable[[Row], bool] | None = None) -> list[int]:
        """Row ids of rows matching ``predicate`` (all rows when ``None``)."""
        if predicate is None:
            return self.row_ids()
        banks = self._banks
        id_at = self._id_at
        return [
            id_at[slot]
            for slot in self.scan_slots()
            if predicate(RowView(banks, slot))
        ]

    def column_values(self, column: str, row_ids: list[int] | None = None) -> list[Any]:
        """Values of one column, over all rows or a row-id subset.

        Reads straight from the column's bank — no row materialisation.
        """
        self.schema.column(column)
        bank = self._banks[column]
        if row_ids is None:
            slots = self.scan_slots()
            if type(slots) is range:
                # Slice to the snapshot prefix: the bank may have grown.
                return bank[: slots.stop]
            return [bank[s] for s in slots]
        with self._latch:
            slot_of = self._visible_map()
            return [bank[slot_of[rid]] for rid in row_ids]

    def column_arrays(self) -> dict[str, list]:
        """Every column's values in row-id order, from one slot pass.

        What a whole-table consumer (a snapshot dump) should use instead
        of per-column :meth:`column_values` calls, which would each
        re-derive the slot order on non-dense tables.
        """
        slots = self.scan_slots()
        if type(slots) is range:
            return {
                column: bank[: slots.stop]
                for column, bank in zip(self._columns, self._bank_list)
            }
        return {
            column: [bank[s] for s in slots]
            for column, bank in zip(self._columns, self._bank_list)
        }

    def distinct_count(self, column: str) -> int:
        """Number of distinct non-NULL values in ``column`` the calling
        reader sees.

        O(1) on an indexed column (its bucket count) unless the reader's
        snapshot predates a write to the table; otherwise the reader's
        visible slots are counted.
        """
        generation = self._pin_generation()
        with self._latch:
            bank = self._banks[column]
            if not self._stale(generation):
                index = self._indexes.get(column)
                if index is not None:
                    return len(index)
            values = set(map(bank.__getitem__, self.scan_slots()))
            values.discard(None)
            return len(values)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _normalise(self, values: dict[str, Any]) -> Row:
        for key in values:
            if not self.schema.has_column(key):
                raise UnknownColumnError(
                    f"table {self.name!r} has no column {key!r}"
                )
        row: Row = {}
        for column in self.schema.columns:
            raw = values.get(column.name)
            row[column.name] = coerce(raw, column.dtype)
        return row

    def _check_not_null(self, row: Row) -> None:
        for column in self.schema.columns:
            required = not column.nullable or column.name == self.schema.primary_key
            if required and is_null(row[column.name]):
                raise ConstraintViolation(
                    f"table {self.name!r}: column {column.name!r} may not be NULL"
                )

    def _check_unique(self, row: Row, exclude_row_id: int | None) -> None:
        unique_columns = [
            c.name
            for c in self.schema.columns
            if c.unique or c.name == self.schema.primary_key
        ]
        for column in unique_columns:
            value = row[column]
            if is_null(value):
                continue
            existing = self._indexes[column].lookup(value)
            existing.discard(exclude_row_id)  # type: ignore[arg-type]
            if existing:
                raise ConstraintViolation(
                    f"table {self.name!r}: duplicate value {value!r} "
                    f"for unique column {column!r}"
                )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Table({self.name!r}, rows={len(self)})"
