"""Physical plan execution: batched (columnar) and row-at-a-time modes.

The executor runs every plan in one of two modes:

* **batch mode** (the default) — plans whose pipeline is access paths,
  unary operators and joins over the root table (SeqScan, the index
  leaves, Filter, Sort, TopN, HashJoin, IndexNestedLoopJoin, Project,
  CountOnly, HashAggregate) execute directly over the tables' column
  banks: a *batch* is ``(table, slots)``, predicates narrow the slot
  list columnwise with C-level list comprehensions, joins narrow
  parallel slot lists per joined table (:class:`_JoinColumns`) without
  widening a single row, aggregates reduce column lists per group, and
  only the surviving rows are materialised (columnwise) at the output
  boundary;
* **row mode** — everything else (operators whose laziness is
  observable, skewed joins, post-aggregate filters) streams lazy
  :class:`~repro.db.table.RowView` mappings exactly like the
  pre-columnar executor streamed dict views; the output boundary copies
  any view that survives to the result.

Both modes produce byte-identical results (the columnar differential
benchmark and the parity tests pin this down); batch mode just avoids
per-row mapping overhead.  :func:`execution_mode` forces row mode for
benchmarking the difference.

Ordering contracts (these keep results byte-for-byte identical to the
seed scan-everything implementation):

* access paths emit rows in ascending row-id order — an
  :class:`IndexRange` used purely as a filter re-sorts its matches by
  row id; one used to satisfy ORDER BY walks the index in value order,
  which equals the stable sort of a row-id scan because index entries
  tie-break on row id; :class:`IndexInList` / :class:`IndexOrUnion`
  probe unions deduplicate and re-sort into row-id order;
* joins preserve outer order and emit inner matches in row-id order;
* Sort is a stable sort; TopN tie-breaks on arrival order in both
  directions, matching ``sorted(...)[:n]`` / ``sorted(..., reverse=True)[:n]``.
"""

from __future__ import annotations

import heapq
import operator
from contextlib import contextmanager
from itertools import accumulate, islice, repeat
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Sequence

from collections import Counter

from repro.db.engine.plan import (
    AggExpr,
    CountOnly,
    Filter,
    GroupSemiJoin,
    HashAggregate,
    HashJoin,
    IndexAggScan,
    IndexEq,
    IndexGroupedAggScan,
    IndexInList,
    IndexNestedLoopJoin,
    IndexOrUnion,
    IndexRange,
    PlanNode,
    Project,
    SeqScan,
    Sort,
    TopN,
)
from repro.db.ordering import ordering_key
from repro.db.query import (
    And,
    Comparison,
    Not,
    Or,
    Predicate,
    TruePredicate,
)
from repro.db.table import Row, Table
from repro.db.types import DataType, coerce
from repro.errors import QueryError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.db.database import Database

__all__ = [
    "execute_plan",
    "execute_rows",
    "execute_count",
    "execute_iter",
    "execute_row_ids",
    "execution_mode",
    "build_probe_map",
    "plan_mode",
]


# Process-wide execution-mode switch.  Batch mode is the default; the
# columnar benchmark (and the parity tests) flip to row mode to measure
# and differential-check the two paths against each other.  Toggling is
# not thread-safe — it exists for single-threaded measurement, not for
# per-query routing (the batch pipeline falls back per plan on its own).
_BATCH_MODE = True


@contextmanager
def execution_mode(mode: str):
    """Force ``"row"`` or restore ``"batch"`` execution within a block."""
    global _BATCH_MODE
    if mode not in ("batch", "row"):
        raise ValueError(f"unknown execution mode {mode!r}")
    previous = _BATCH_MODE
    _BATCH_MODE = mode == "batch"
    try:
        yield
    finally:
        _BATCH_MODE = previous


def execute_plan(database: "Database", plan: PlanNode) -> list[Row] | int:
    """Run ``plan``; a CountOnly root returns an int, otherwise rows."""
    if isinstance(plan, CountOnly):
        return execute_count(database, plan)
    return execute_rows(database, plan)


def execute_rows(database: "Database", plan: PlanNode) -> list[Row]:
    """Materialise ``plan``'s output as fresh row dicts."""
    if isinstance(plan, Project):
        batch = _batch_node(database, plan.child)
        if batch is not None:
            return batch.table.materialise_slots(batch.slots, plan.columns)
    else:
        batch = _batch_node(database, plan)
        if batch is not None:
            return batch.table.materialise_slots(batch.slots)
    rows, fresh = _iterate(database, plan)
    if fresh:
        return list(rows)
    return [dict(row) for row in rows]


# Streaming results materialise batch-mode slots in chunks of this many
# rows, so a consumer that stops early never pays for the full result.
_STREAM_CHUNK = 256


def execute_iter(
    database: "Database", plan: PlanNode, chunk_size: int = _STREAM_CHUNK
) -> Iterator[Row]:
    """Stream ``plan``'s output as fresh row dicts, lazily.

    The cursor path behind :class:`~repro.db.api.Result`: rows
    materialise as the consumer pulls them — batch-mode plans still
    narrow their slot list eagerly (the filter is columnwise), but the
    per-row dict construction is deferred and chunked, and row-mode
    plans stream straight off the operator pipeline.  Draining the
    iterator yields exactly ``execute_rows(database, plan)``.
    """
    if isinstance(plan, Project):
        batch = _batch_node(database, plan.child)
        if batch is not None:
            yield from _materialise_chunks(batch, plan.columns, chunk_size)
            return
    else:
        batch = _batch_node(database, plan)
        if batch is not None:
            yield from _materialise_chunks(batch, None, chunk_size)
            return
    rows, fresh = _iterate(database, plan)
    if fresh:
        yield from rows
    else:
        for row in rows:
            yield dict(row)


def _materialise_chunks(
    batch: "_Batch", columns: tuple[str, ...] | None, chunk_size: int
) -> Iterator[Row]:
    slots = batch.slots
    total = len(slots)
    if total <= chunk_size:
        yield from batch.table.materialise_slots(slots, columns)
        return
    for start in range(0, total, chunk_size):
        chunk = slots[start : start + chunk_size]
        if type(chunk) is range:
            # materialise_slots treats a range as "the banks whole";
            # a partial chunk must go through explicit slot lists.
            chunk = list(chunk)
        yield from batch.table.materialise_slots(chunk, columns)


def execute_count(database: "Database", plan: CountOnly) -> int:
    """Count matching rows without materialising or projecting them."""
    child = plan.child
    count = None
    if isinstance(child, SeqScan):
        # No predicate, no joins: the table knows its cardinality.
        count = len(database.table(child.table))
    elif (
        _BATCH_MODE
        and plan.limit is not None
        and isinstance(child, Filter)
        and not _contains_join(child.child)
    ):
        # A capped count stops filtering at the cap, like the row loop
        # (which always pulls through the first match, even for a cap
        # of 0 — hence the max with 1).
        inner = _batch_node(database, child.child)
        if inner is not None:
            count = len(_filter_slots_limited(
                inner.table, child.predicate, inner.slots,
                max(plan.limit, 1),
            ))
    if count is None:
        # A capped count over a join keeps the row loop's early exit:
        # eager join evaluation could pay for (and surface errors from)
        # rows the cap never reaches.
        batch = (
            None
            if plan.limit is not None and _contains_join(child)
            else _batch_node(database, child)
        )
        if batch is not None:
            count = len(batch.slots)
        else:
            rows, __ = _iterate(database, child)
            count = 0
            for __row in rows:
                count += 1
                if plan.limit is not None and count >= plan.limit:
                    break
    if plan.limit is not None:
        count = min(count, plan.limit)
    return count


def execute_row_ids(database: "Database", plan: PlanNode) -> list[int]:
    """Root-table row ids for an access-path/filter-only plan.

    Used by the candidate tracker, which keys its snapshots on internal
    row ids rather than materialised rows.  Joins, sorts and projections
    do not preserve root ids, so such plans are rejected.
    """
    if isinstance(plan, Filter):
        batch = _batch_node(database, plan)
        if batch is not None and isinstance(batch.table, Table):
            return batch.table.ids_for_slots(batch.slots)
        ids = execute_row_ids(database, plan.child)
        table = database.table(_leaf_table(plan))
        predicate = plan.predicate
        return [
            rid for rid in ids if predicate.matches(table.row_view(rid))
        ]
    if isinstance(plan, SeqScan):
        return database.table(plan.table).row_ids()
    if isinstance(plan, IndexEq):
        return database.table(plan.table).lookup(plan.column, plan.value)
    if isinstance(plan, IndexInList):
        return sorted(_in_list_ids(database, plan))
    if isinstance(plan, IndexOrUnion):
        return sorted(_or_union_ids(database, plan))
    if isinstance(plan, IndexRange):
        index = database.table(plan.table).ordered_index(plan.column)
        return sorted(
            index.range_ids(
                plan.low, plan.high, plan.low_inclusive, plan.high_inclusive
            )
        )
    raise QueryError(
        f"plan node {type(plan).__name__} does not preserve root row ids"
    )


def _leaf_table(plan: PlanNode) -> str:
    node = plan
    while True:
        children = node.children()
        if not children:
            break
        node = children[0]
    table = getattr(node, "table", None)
    if table is None:  # pragma: no cover - all leaves carry a table
        raise QueryError(f"leaf node {type(node).__name__} has no table")
    return table


def build_probe_map(table, column: str) -> dict[Any, list[int]]:
    """``value -> row ids`` (ascending) for one column — the build side
    of a hash join.  Values are the stored, canonical column values;
    NULLs are excluded.  Reads the column's bank directly.  Shared with
    the dataaware join-path walker.
    """
    bank = table.bank_map()[column]
    slots = table.scan_slots()
    ids = table.ids_for_slots(slots)
    probe: dict[Any, list[int]] = {}
    for rid, value in zip(ids, map(bank.__getitem__, slots)):
        if value is None:
            continue
        probe.setdefault(value, []).append(rid)
    return probe


# ---------------------------------------------------------------------------
# Batched pipeline
# ---------------------------------------------------------------------------

class _Batch:
    """A columnar intermediate: active ``slots`` of one ``table``.

    ``slots`` is a list (or, for a dense full scan, a ``range``) in the
    pipeline's current row order — row-id order out of a scan, value
    order after a Sort/TopN.  ``table`` is the root :class:`Table` or,
    above a batched join, a :class:`_JoinColumns` adapter whose
    positions play the role of slots.
    """

    __slots__ = ("table", "slots")

    def __init__(
        self, table: "Table | _JoinColumns", slots: Sequence[int]
    ) -> None:
        self.table = table
        self.slots = slots


class _JoinColumns:
    """Virtual columnar table over a join's output rows.

    ``parts`` holds one ``(prefix, table, slots)`` triple per joined
    table — the root part first (``prefix None``, bare column names),
    then one part per join in application order (columns keyed
    ``"table.column"``).  The slot lists are parallel: position ``i`` of
    every part addresses the same output row, so the batched operators'
    slot lists double as output-row position lists and keep narrowing
    columnwise above joins.  Columns materialise lazily (and cache) as
    full-length value lists — a filter above a join touches only the
    columns it reads; widening to dicts happens once, at the output
    boundary.

    Name resolution mirrors the row path's widened dicts exactly: bare
    names resolve to the root part only, prefixed names to the *last*
    matching join part, and output keys enumerate root columns first
    then each part's prefixed columns in join order — repeated names
    keep the first position and the last value, like repeated ``dict``
    assignment.
    """

    __slots__ = ("_parts", "_length", "_cache", "_names")

    def __init__(
        self,
        parts: list[tuple[str | None, Table, Sequence[int]]],
        length: int,
    ) -> None:
        self._parts = parts
        self._length = length
        self._cache: dict[str, Sequence[Any] | None] = {}
        self._names: tuple[str, ...] | None = None

    # -- the Table surface the batched operators consume ----------------
    def bank_map(self) -> "_JoinColumns":
        return self

    def get(self, name: str, default: Any = None) -> Any:
        bank = self._column(name)
        return default if bank is None else bank

    def __getitem__(self, name: str) -> Sequence[Any]:
        bank = self._column(name)
        if bank is None:
            raise KeyError(name)
        return bank

    def views_for_slots(self, positions: Sequence[int]) -> Iterator[Row]:
        names = self.output_names()
        banks = [self._column(n) for n in names]
        return (
            dict(zip(names, (bank[p] for bank in banks)))
            for p in positions
        )

    def materialise_slots(
        self, positions: Sequence[int], columns: Sequence[str] | None = None
    ) -> list[Row]:
        if not len(positions):
            # Like Table.materialise_slots: the row path never touches a
            # column for zero rows, so unknown names stay silent here.
            return []
        if columns is None:
            names = self.output_names()
            if (
                positions == range(self._length)
                and len(set(names)) == len(names)
            ):
                # Full unprojected output with no shadowed columns (the
                # common join drain): gather every part's banks straight
                # through its hit list — no per-name resolution, and the
                # row dicts build in one C pipeline.
                selected: list[Sequence[Any]] = []
                for __, table, slots in self._parts:
                    banks_by_name = table.bank_map()
                    part_banks = [
                        banks_by_name[c] for c in table.schema.column_names
                    ]
                    if len(slots) > 1:
                        fetch = operator.itemgetter(*slots)
                        selected.extend(fetch(b) for b in part_banks)
                    else:
                        s = slots[0]
                        selected.extend((b[s],) for b in part_banks)
                return list(
                    map(dict, map(zip, repeat(names), zip(*selected)))
                )
            banks = [self._column(n) for n in names]
        else:
            names = tuple(columns)
            banks = []
            for name in names:
                bank = self._column(name)
                if bank is None:
                    # The row path's ``row[name]`` projection KeyError.
                    raise KeyError(name)
                banks.append(bank)
        if type(positions) is range:
            chosen: Sequence[Sequence[Any]] = banks
        elif len(positions) > 1:
            fetch = operator.itemgetter(*positions)
            chosen = [fetch(bank) for bank in banks]
        else:
            chosen = [[bank[p] for p in positions] for bank in banks]
        return list(map(dict, map(zip, repeat(names), zip(*chosen))))

    # -- resolution ------------------------------------------------------
    def output_names(self) -> tuple[str, ...]:
        if self._names is None:
            names: list[str] = []
            for prefix, table, __ in self._parts:
                if prefix is None:
                    names.extend(table.schema.column_names)
                else:
                    names.extend(
                        f"{prefix}.{c}" for c in table.schema.column_names
                    )
            self._names = tuple(names)
        return self._names

    def column_dtype(self, name: str) -> DataType | None:
        located = self._locate(name)
        if located is None:
            return None
        table, column, __ = located
        return table.schema.column(column).dtype

    def _locate(
        self, name: str
    ) -> tuple[Table, str, Sequence[int]] | None:
        if "." in name:
            prefix, column = name.split(".", 1)
            for part_prefix, table, slots in reversed(self._parts):
                if part_prefix == prefix and table.schema.has_column(column):
                    return table, column, slots
            return None
        root_prefix, root, slots = self._parts[0]
        if root_prefix is None and root.schema.has_column(name):
            return root, name, slots
        return None

    def _column(self, name: str) -> Sequence[Any] | None:
        cache = self._cache
        if name in cache:
            return cache[name]
        located = self._locate(name)
        if located is None:
            cache[name] = None
            return None
        table, column, slots = located
        source = table.bank_map()[column]
        if len(slots) > 1:
            bank: Sequence[Any] = operator.itemgetter(*slots)(source)
        else:
            bank = [source[s] for s in slots]
        cache[name] = bank
        return bank


def _batch_node(database: "Database", node: PlanNode) -> _Batch | None:
    """Columnar evaluation of ``node``, or ``None`` when the subtree
    needs the row path (aggregation roots, laziness-observable limits,
    skewed joins)."""
    if not _BATCH_MODE:
        return None
    if isinstance(node, SeqScan):
        table = database.table(node.table)
        return _Batch(table, table.scan_slots())
    if isinstance(node, (IndexEq, IndexInList, IndexOrUnion, IndexRange)):
        table = database.table(node.table)
        return _Batch(table, table.slots_for_ids(_access_ids(database, node)))
    if isinstance(node, Filter):
        batch = _batch_node(database, node.child)
        if batch is None:
            return None
        slots = _filter_slots(batch.table, node.predicate, batch.slots)
        return _Batch(batch.table, slots)
    if isinstance(node, (HashJoin, IndexNestedLoopJoin)):
        batch = _batch_node(database, node.child)
        if batch is None:
            return None
        return _batch_join(database, node, batch)
    if isinstance(node, Sort):
        batch = _batch_node(database, node.child)
        if batch is None:
            return None
        slots = _sorted_slots(
            batch.table, batch.slots, node.column, node.descending
        )
        return _Batch(batch.table, slots)
    if isinstance(node, TopN):
        if node.n == 0:
            # Row mode's islice(rows, 0) never pulls a row, so the child
            # (and any error it would surface) must not evaluate here
            # either.
            table = _batch_leaf_table(database, node.child)
            if table is None:
                return None
            return _Batch(table, [])
        if node.column is None:
            # A plain LIMIT: stop filtering once n rows survived, like
            # the row path's islice early exit.
            if _contains_join(node.child):
                # Eager join evaluation would pay for (and surface
                # errors from) rows behind the nth match that the row
                # path's early exit never reaches.
                return None
            child = node.child
            if isinstance(child, Filter):
                inner = _batch_node(database, child.child)
                if inner is None:
                    return None
                slots = _filter_slots_limited(
                    inner.table, child.predicate, inner.slots, node.n
                )
                return _Batch(inner.table, slots)
            batch = _batch_node(database, child)
            if batch is None:
                return None
            return _Batch(batch.table, list(batch.slots[: node.n]))
        batch = _batch_node(database, node.child)
        if batch is None:
            return None
        slots = _sorted_slots(
            batch.table, batch.slots, node.column, node.descending
        )
        return _Batch(batch.table, slots[: node.n])
    return None


_BATCH_LEAVES = (SeqScan, IndexEq, IndexInList, IndexOrUnion, IndexRange)


def _batch_leaf_table(database: "Database", node: PlanNode) -> Table | None:
    """The root table of a batchable subtree — without evaluating it."""
    while isinstance(
        node, (Filter, Sort, TopN, HashJoin, IndexNestedLoopJoin)
    ):
        node = node.child
    if isinstance(node, _BATCH_LEAVES):
        return database.table(node.table)
    return None


def _contains_join(node: PlanNode) -> bool:
    """Does the (unary) subtree under ``node`` contain a join?"""
    while True:
        if isinstance(node, (HashJoin, IndexNestedLoopJoin)):
            return True
        children = node.children()
        if not children:
            return False
        node = children[0]


def _access_ids(database: "Database", node: PlanNode) -> list[int]:
    """Row ids of an index access path, in the node's output order."""
    table = database.table(node.table)
    if isinstance(node, IndexEq):
        return table.lookup(node.column, node.value)
    if isinstance(node, IndexInList):
        return sorted(_in_list_ids(database, node))
    if isinstance(node, IndexOrUnion):
        return sorted(_or_union_ids(database, node))
    return _index_range_ids(database, node)


# Vectorized-join guardrails.  A build key covering most of a large
# inner table (skew), or an output pair count exploding past the cap,
# would make eager slot widening pay for the whole cross product up
# front; the row path streams those per-key chains lazily, so the
# batched join bails out and lets it.
_JOIN_SKEW_MIN = 4096
_JOIN_PAIR_FLOOR = 65536
_JOIN_PAIR_FACTOR = 16


def _batch_join(
    database: "Database",
    node: "HashJoin | IndexNestedLoopJoin",
    batch: _Batch,
) -> _Batch | None:
    """Columnar join: narrow parallel (outer position, inner slot) pair
    lists without widening a single row; ``None`` falls back to the row
    path (skew or pair-cap guard)."""
    inner = database.table(node.table)
    target = node.target_column
    dtype = inner.schema.column(target).dtype
    positions = batch.slots
    key_bank = batch.table.bank_map().get(node.column)
    if key_bank is None:
        # ``row.get(column)`` is None for every outer row: empty join.
        return _join_result(batch, node, inner, [], [])
    keys: Sequence[Any] = _select(key_bank, positions)
    if _outer_column_dtype(batch.table, node.column) is not dtype:
        # Cross-type join key: coerce each probe like the row path does.
        # Stored values of a same-typed column coerce to themselves, so
        # the common case skips this pass entirely; failures raise in
        # output order, exactly like the row path's per-row coerce.
        keys = [None if k is None else coerce(k, dtype) for k in keys]
    pair_cap = max(
        _JOIN_PAIR_FLOOR, _JOIN_PAIR_FACTOR * (len(keys) + len(inner))
    )
    hits: list[int] = []
    inner_hits: list[int] = []
    # Both join flavours probe the memoised slot-space build
    # (Table.slot_buckets): buckets hold inner slots in scan order, the
    # exact match sequence the row path produces via index lookups or
    # its per-query probe map.
    buckets = inner.slot_buckets(target)
    if (
        isinstance(node, HashJoin)
        and len(inner) >= _JOIN_SKEW_MIN
        and buckets
        and max(map(len, buckets.values())) * 2 > len(inner)
    ):
        return None  # skew guard: one dominant build key
    get = buckets.get
    for p, key in zip(positions, keys):
        if key is None:
            continue
        bucket = get(key)
        if bucket is None:
            continue
        if len(bucket) == 1:
            hits.append(p)
            inner_hits.append(bucket[0])
        else:
            hits.extend([p] * len(bucket))
            inner_hits.extend(bucket)
            if len(hits) > pair_cap:
                return None
    return _join_result(batch, node, inner, hits, inner_hits)


def _outer_column_dtype(
    table: "Table | _JoinColumns", column: str
) -> DataType | None:
    if isinstance(table, Table):
        schema = table.schema
        if not schema.has_column(column):
            return None
        return schema.column(column).dtype
    return table.column_dtype(column)


def _join_result(
    batch: _Batch,
    node: "HashJoin | IndexNestedLoopJoin",
    inner: Table,
    hits: list[int],
    inner_hits: list[int],
) -> _Batch:
    outer = batch.table
    if isinstance(outer, Table):
        parts: list[tuple[str | None, Table, Sequence[int]]] = [
            (None, outer, hits)
        ]
    else:
        parts = [
            (prefix, table, [slots[p] for p in hits])
            for prefix, table, slots in outer._parts
        ]
    parts.append((node.table, inner, inner_hits))
    return _Batch(_JoinColumns(parts, len(hits)), range(len(hits)))


# Chunk-size cap for limit-aware columnwise filtering.  Chunks grow
# geometrically from a small start, so a LIMIT an unselective predicate
# satisfies in the first rows touches a sliver of the table (like the
# row path's islice early exit) while a selective one quickly reaches
# C-dominated full-size chunks.
_FILTER_CHUNK = 4096
_FILTER_CHUNK_START = 64


def _filter_slots_limited(
    table: Table, predicate: Predicate, slots: Sequence[int], n: int
) -> list[int]:
    """At most ``n`` matching slots, row-path-identical under LIMIT.

    Chunks evaluate columnwise; an erroring chunk replays row by row,
    because the row path's islice early exit stops at the nth match and
    never evaluates the rows behind it — columnwise narrowing inside
    one chunk does.  The replay raises exactly when the erroring row
    precedes the nth match in row order, and returns the matches
    otherwise, so both modes stay byte- (and error-) identical.
    """
    out: list[int] = []
    total = len(slots)
    start = 0
    size = min(_FILTER_CHUNK_START, _FILTER_CHUNK)
    while start < total:
        end = min(start + size, total)
        chunk = slots[start:end]
        try:
            hits = _filter_slots(table, predicate, chunk)
        except Exception:
            # Row-order replay of this chunk: the set of (row, part)
            # evaluations matches columnwise narrowing, but the order
            # is row-major with the early exit, like islice.
            for slot, row in zip(chunk, table.views_for_slots(chunk)):
                if predicate.matches(row):
                    out.append(slot)
                    if len(out) >= n:
                        return out
            start = end
            size = min(size * 4, _FILTER_CHUNK)
            continue
        out.extend(hits)
        if len(out) >= n:
            return out[:n]
        start = end
        size = min(size * 4, _FILTER_CHUNK)
    return out


def _sorted_slots(
    table: Table, slots: Sequence[int], column: str, descending: bool
) -> list[int]:
    """Slots reordered by the column's ordering key — a stable sort, so
    ties keep the incoming order exactly like the row path's Sort/TopN."""
    if not len(slots):
        return []
    bank = table.bank_map().get(column)
    if bank is None:
        # The row path raises KeyError from ``row[column]`` as soon as a
        # sort key is computed, which happens iff there are rows.
        raise KeyError(column)
    return sorted(
        slots,
        key=lambda s: ordering_key(bank[s]),
        reverse=descending,
    )


# --- columnwise predicate evaluation --------------------------------------
#
# These reproduce Predicate.matches() exactly, clause by clause: NULLs
# never match a comparison, a TypeError during a comparison means False
# for that row, an unknown column raises QueryError — but only when a
# row actually reaches the comparison (an empty candidate set never
# evaluates, exactly like the row loop never calls matches()).

def _filter_slots(
    table: Table, predicate: Predicate, slots: Sequence[int]
) -> Sequence[int]:
    if isinstance(predicate, TruePredicate):
        return slots
    if isinstance(predicate, Comparison):
        return _comparison_slots(table, predicate, slots)
    if isinstance(predicate, And):
        # Sequential narrowing: a row rejected by an earlier part never
        # reaches a later one — the row path's all() short-circuit.
        for part in predicate.parts:
            slots = _filter_slots(table, part, slots)
        return slots
    if isinstance(predicate, Or):
        matched: set[int] = set()
        remaining = slots
        for part in predicate.parts:
            # Rows already matched never evaluate later disjuncts (the
            # row path's any() short-circuit), so errors and TypeErrors
            # surface for exactly the same rows.
            hits = _filter_slots(table, part, remaining)
            matched.update(hits)
            remaining = [s for s in remaining if s not in matched]
            if not remaining:
                break
        return [s for s in slots if s in matched]
    if isinstance(predicate, Not):
        matched = set(_filter_slots(table, predicate.part, slots))
        return [s for s in slots if s not in matched]
    # Unknown predicate subclass: evaluate row-wise through views.
    views = table.views_for_slots(slots)
    return [s for s, row in zip(slots, views) if predicate.matches(row)]


# C-level comparison functions for the columnwise evaluator — the same
# truth tables as Predicate._OPERATORS, minus one Python frame per row.
_COLUMN_OPS = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "in": lambda a, b: a in b,
}


def _comparison_slots(
    table: Table, predicate: Comparison, slots: Sequence[int]
) -> list[int]:
    if not len(slots):
        return []
    column = predicate.column
    bank = table.bank_map().get(column)
    if bank is None:
        raise QueryError(f"row has no column {column!r}")
    op = predicate.op
    value = predicate.value
    if op == "contains":
        if not isinstance(value, str):
            return []
        needle = value.lower()
        return [
            s for s in slots
            if isinstance(bank[s], str) and needle in bank[s].lower()
        ]
    op_fn = _COLUMN_OPS[op]
    try:
        return [
            s for s in slots
            if (v := bank[s]) is not None and op_fn(v, value)
        ]
    except TypeError:
        # Mixed-type comparison somewhere in the column: fall back to
        # the row path's per-value TypeError-means-False semantics.
        return [s for s in slots if _safe_match(op_fn, bank[s], value)]


def _safe_match(op_fn, actual: Any, value: Any) -> bool:
    if actual is None:
        return False
    try:
        return op_fn(actual, value)
    except TypeError:
        return False


# ---------------------------------------------------------------------------
# Operator dispatch (row mode / batch fallback boundary)
# ---------------------------------------------------------------------------

def _iterate(
    database: "Database", node: PlanNode
) -> tuple[Iterable[Row], bool]:
    """Return ``(row iterable, rows_are_fresh_dicts)`` for ``node``."""
    if isinstance(node, SeqScan):
        return database.table(node.table).iter_views(), False
    if isinstance(node, IndexEq):
        table = database.table(node.table)
        ids = table.lookup(node.column, node.value)
        return (table.row_view(rid) for rid in ids), False
    if isinstance(node, IndexInList):
        table = database.table(node.table)
        ids = sorted(_in_list_ids(database, node))
        return (table.row_view(rid) for rid in ids), False
    if isinstance(node, IndexOrUnion):
        table = database.table(node.table)
        ids = sorted(_or_union_ids(database, node))
        return (table.row_view(rid) for rid in ids), False
    if isinstance(node, IndexRange):
        return _index_range(database, node), False
    if isinstance(node, HashAggregate):
        return _hash_aggregate(database, node), True
    if isinstance(node, IndexAggScan):
        return _index_agg_scan(database, node), True
    if isinstance(node, IndexGroupedAggScan):
        return _index_grouped_agg_scan(database, node), True
    if isinstance(node, GroupSemiJoin):
        rows, fresh = _iterate(database, node.child)
        return _group_semi_join(database, node, rows), fresh
    if isinstance(node, Filter):
        batch = _batch_node(database, node)
        if batch is not None:
            return batch.table.views_for_slots(batch.slots), False
        rows, fresh = _iterate(database, node.child)
        predicate = node.predicate
        return (row for row in rows if predicate.matches(row)), fresh
    if isinstance(node, HashJoin):
        rows, __ = _iterate(database, node.child)
        return _hash_join(database, node, rows), True
    if isinstance(node, IndexNestedLoopJoin):
        rows, __ = _iterate(database, node.child)
        return _index_join(database, node, rows), True
    if isinstance(node, Sort):
        batch = _batch_node(database, node)
        if batch is not None:
            return batch.table.views_for_slots(batch.slots), False
        rows, fresh = _iterate(database, node.child)
        materialised = list(rows)
        materialised.sort(
            key=lambda row: ordering_key(row[node.column]),
            reverse=node.descending,
        )
        return materialised, fresh
    if isinstance(node, TopN):
        batch = _batch_node(database, node)
        if batch is not None:
            return batch.table.views_for_slots(batch.slots), False
        rows, fresh = _iterate(database, node.child)
        if node.column is None:
            return islice(rows, node.n), fresh
        return _top_n(rows, node.n, node.column, node.descending), fresh
    if isinstance(node, Project):
        batch = _batch_node(database, node.child)
        if batch is not None:
            return (
                batch.table.materialise_slots(batch.slots, node.columns),
                True,
            )
        rows, __ = _iterate(database, node.child)
        columns = node.columns
        return ({c: row[c] for c in columns} for row in rows), True
    raise QueryError(f"unknown plan node {type(node).__name__}")


# ---------------------------------------------------------------------------
# Access paths
# ---------------------------------------------------------------------------

def _index_range_ids(database: "Database", node: IndexRange) -> list[int]:
    """Row ids of an index-range access, in the node's output order."""
    table = database.table(node.table)
    index = table.ordered_index(node.column)
    if not node.sorted_output:
        # Pure filter access: re-establish row-id order so downstream
        # results are identical to a sequential scan.
        return sorted(
            index.range_ids(
                node.low, node.high, node.low_inclusive, node.high_inclusive
            )
        )
    # Value-ordered scan (satisfies ORDER BY).  Index entries exclude
    # NULLs; for an unbounded scan the NULL rows must still appear —
    # last for ascending, first for descending, in row-id order either
    # way, mirroring the stable sort the seed implementation performed.
    unbounded = node.low is None and node.high is None
    null_ids: list[int] = []
    if unbounded and len(index) < len(table):
        null_ids = [
            rid
            for rid, row in table.iter_view_items()
            if row[node.column] is None
        ]
    if node.descending:
        ranged = index.descending_range_ids(
            node.low, node.high, node.low_inclusive, node.high_inclusive
        )
        return null_ids + list(ranged)
    ranged = index.range_ids(
        node.low, node.high, node.low_inclusive, node.high_inclusive
    )
    return list(ranged) + null_ids


def _index_range(database: "Database", node: IndexRange) -> Iterator[Row]:
    table = database.table(node.table)
    for rid in _index_range_ids(database, node):
        yield table.row_view(rid)


def _top_n(
    rows: Iterable[Row], n: int, column: str, descending: bool
) -> Iterator[Row]:
    if n == 0:
        return iter(())
    if descending:
        picked = heapq.nlargest(
            n,
            enumerate(rows),
            key=lambda item: (ordering_key(item[1][column]), _Rev(item[0])),
        )
    else:
        picked = heapq.nsmallest(
            n,
            enumerate(rows),
            key=lambda item: (ordering_key(item[1][column]), item[0]),
        )
    return iter([row for __, row in picked])


class _Rev:
    """Inverts comparisons so ``nlargest`` tie-breaks on arrival order."""

    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value

    def __lt__(self, other: "_Rev") -> bool:
        return self.value > other.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Rev) and self.value == other.value


# ---------------------------------------------------------------------------
# Joins
# ---------------------------------------------------------------------------

def _hash_join(
    database: "Database", node: HashJoin, outer_rows: Iterable[Row]
) -> Iterator[Row]:
    inner = database.table(node.table)
    dtype = inner.schema.column(node.target_column).dtype
    probe = build_probe_map(inner, node.target_column)
    prefix = node.table
    for row in outer_rows:
        key = row.get(node.column)
        if key is None:
            continue
        needle = coerce(key, dtype)
        if needle is None:
            continue
        for rid in probe.get(needle, ()):
            match = inner.row_view(rid)
            widened = dict(row)
            for other_col, value in match.items():
                widened[f"{prefix}.{other_col}"] = value
            yield widened


def _index_join(
    database: "Database", node: IndexNestedLoopJoin, outer_rows: Iterable[Row]
) -> Iterator[Row]:
    inner = database.table(node.table)
    prefix = node.table
    for row in outer_rows:
        key = row.get(node.column)
        if key is None:
            continue
        for rid in inner.lookup(node.target_column, key):
            match = inner.row_view(rid)
            widened = dict(row)
            for other_col, value in match.items():
                widened[f"{prefix}.{other_col}"] = value
            yield widened


# ---------------------------------------------------------------------------
# Probe unions (IN-list, OR of equalities)
# ---------------------------------------------------------------------------

def _in_list_ids(database: "Database", node: IndexInList) -> set[int]:
    """Deduplicated row ids matched by any of the IN-list probes."""
    table = database.table(node.table)
    ids: set[int] = set()
    for value in node.values:
        ids.update(table.lookup(node.column, value))
    return ids


def _or_union_ids(database: "Database", node: IndexOrUnion) -> set[int]:
    """Deduplicated row ids matched by any of the OR's equality probes."""
    table = database.table(node.table)
    ids: set[int] = set()
    for column, value in node.probes:
        ids.update(table.lookup(column, value))
    return ids


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------
#
# The aggregation operators must reproduce repro.db.aggregation.aggregate()
# exactly: groups in first-appearance order, NULL values skipped by
# column aggregates (COUNT(*) keeps them), sum() folding left-to-right
# from 0, min/max keeping the first extremal value, empty global group
# producing one row.  When the child is a batchable scan the reductions
# run straight over the column banks (the default); otherwise the
# single-key single-aggregate shapes get tight one-pass accumulator
# loops over the row stream and everything else banks row views per
# group — no row is ever copied on any path.

def _group_key_error(exc: KeyError) -> QueryError:
    return QueryError(f"unknown group-by column {exc.args[0]!r}")


def _hash_aggregate(database: "Database", node: HashAggregate) -> list[Row]:
    batch = _batch_node(database, node.child)
    if batch is not None:
        return _banked_aggregate(
            batch.table, batch.slots, node.group_by, node.aggregates
        )
    rows, __ = _iterate(database, node.child)
    exprs = node.aggregates
    keys = node.group_by
    if not keys:
        return _global_aggregate(rows, exprs)
    if len(keys) == 1 and len(exprs) == 1:
        result = _single_key_single_agg(rows, keys[0], exprs[0])
        if result is not None:
            return result
    return _generic_aggregate(rows, keys, exprs)


# --- banked (columnar) aggregation ----------------------------------------

def _select(bank: list, slots: Sequence[int]) -> Sequence[Any]:
    """The bank values at ``slots`` (the bank itself for a full range)."""
    if type(slots) is range:
        # A snapshot's range is a prefix: concurrent appends may have
        # grown the bank past it, so only alias the bank when whole.
        if len(bank) == slots.stop:
            return bank
        return bank[: slots.stop]
    return [bank[s] for s in slots]


def _banked_aggregate(
    table: Table,
    slots: Sequence[int],
    keys: tuple[str, ...],
    exprs: tuple[AggExpr, ...],
) -> list[Row]:
    banks = table.bank_map()
    if not keys:
        out: Row = {}
        for expr in exprs:
            out[expr.name] = _reduce_bank(expr, banks, slots)
        return [out]
    key_banks = []
    for key in keys:
        bank = banks.get(key)
        if bank is None:
            if not len(slots):
                return []
            raise _group_key_error(KeyError(key))
        key_banks.append(bank)
    if len(keys) == 1 and len(exprs) == 1:
        result = _banked_single_key_single_agg(
            key_banks[0], banks, slots, keys[0], exprs[0]
        )
        if result is not None:
            return result
    # Generic: bank slot lists per group, reduce each column list.
    groups: dict[Any, list[int]]
    if len(keys) == 1:
        key_bank = key_banks[0]
        groups = {}
        lookup = groups.get
        for s in slots:
            k = key_bank[s]
            bucket = lookup(k)
            if bucket is None:
                groups[k] = bucket = []
            bucket.append(s)
        key_col = keys[0]
        result = []
        for k, bucket in groups.items():
            out = {key_col: k}
            for expr in exprs:
                out[expr.name] = _reduce_bank(expr, banks, bucket)
            result.append(out)
        return result
    groups = {}
    lookup = groups.get
    for s in slots:
        k = tuple(bank[s] for bank in key_banks)
        bucket = lookup(k)
        if bucket is None:
            groups[k] = bucket = []
        bucket.append(s)
    result = []
    for k, bucket in groups.items():
        out = dict(zip(keys, k))
        for expr in exprs:
            out[expr.name] = _reduce_bank(expr, banks, bucket)
        result.append(out)
    return result


def _banked_single_key_single_agg(
    key_bank: list,
    banks: dict[str, list],
    slots: Sequence[int],
    key_col: str,
    expr: AggExpr,
) -> list[Row] | None:
    """One-pass zipped-bank loops for the hot aggregate shapes."""
    kind = expr.kind
    name = expr.name
    keys_seq = _select(key_bank, slots)
    if kind == "count":
        counts = Counter(keys_seq)
        return [{key_col: k, name: n} for k, n in counts.items()]
    value_bank = banks.get(expr.column)
    if value_bank is None:
        # ``row.get(column)`` yields None for every row: groups still
        # enumerate in first-appearance order with their empty-group
        # defaults.
        default = 0 if kind in ("sum", "count_distinct") else None
        return [
            {key_col: k, name: default} for k in dict.fromkeys(keys_seq)
        ]
    return _single_key_pairs_agg(
        zip(keys_seq, _select(value_bank, slots)), kind, key_col, name
    )


def _single_key_pairs_agg(
    pairs: Iterable[tuple[Any, Any]], kind: str, key_col: str, name: str
) -> list[Row] | None:
    """The single-key accumulator loops, shared by the banked and the
    row-stream paths — both feed ``(group key, value)`` pairs; NULL
    handling and first-appearance group order live here, once."""
    if kind == "sum":
        totals: dict[Any, Any] = {}
        lookup = totals.get
        for k, v in pairs:
            t = lookup(k)
            if t is None:  # totals never store None
                t = 0
            totals[k] = t if v is None else t + v
        return [{key_col: k, name: t} for k, t in totals.items()]
    if kind in ("min", "max"):
        keep_smaller = kind == "min"
        best: dict[Any, Any] = {}
        for k, v in pairs:
            if k not in best:
                best[k] = v
            elif v is not None:
                b = best[k]
                if b is None or (v < b if keep_smaller else v > b):
                    best[k] = v
        return [{key_col: k, name: b} for k, b in best.items()]
    if kind == "avg":
        totals = {}
        counts_by_key: dict[Any, int] = {}
        for k, v in pairs:
            if k not in totals:
                totals[k] = 0
                counts_by_key[k] = 0
            if v is not None:
                totals[k] = totals[k] + v
                counts_by_key[k] += 1
        return [
            {key_col: k, name: (t / counts_by_key[k]
                                if counts_by_key[k] else None)}
            for k, t in totals.items()
        ]
    if kind == "count_distinct":
        seen: dict[Any, set] = {}
        for k, v in pairs:
            if k not in seen:
                seen[k] = set()
            if v is not None:
                seen[k].add(v)
        return [{key_col: k, name: len(s)} for k, s in seen.items()]
    return None  # pragma: no cover - all known kinds are specialised


def _reduce_bank(
    expr: AggExpr, banks: dict[str, list], slots: Sequence[int]
) -> Any:
    """Reduce one slot group from the banks, like ``Aggregate.apply``."""
    kind = expr.kind
    if kind == "count":
        return len(slots)
    bank = banks.get(expr.column)
    if bank is None:
        values: list = []
    else:
        values = [v for s in slots if (v := bank[s]) is not None]
    return _reduce_values(kind, values)


def _reduce_values(kind: str, values: list) -> Any:
    if kind == "sum":
        return sum(values) if values else 0
    if kind == "avg":
        return sum(values) / len(values) if values else None
    if kind == "min":
        return min(values) if values else None
    if kind == "max":
        return max(values) if values else None
    if kind == "count_distinct":
        return len(set(values))
    raise QueryError(  # pragma: no cover - planner only emits known kinds
        f"unknown aggregate kind {kind!r}"
    )


# --- row-stream aggregation (fallback) ------------------------------------

def _single_key_single_agg(
    rows: Iterable[Row], key_col: str, expr: AggExpr
) -> list[Row] | None:
    """Specialised one-pass loops for the hot aggregate shapes."""
    kind = expr.kind
    name = expr.name
    col = expr.column
    try:
        if kind == "count":
            counts = Counter(row[key_col] for row in rows)
            return [{key_col: k, name: n} for k, n in counts.items()]
        pairs = ((row[key_col], row.get(col)) for row in rows)
        return _single_key_pairs_agg(pairs, kind, key_col, name)
    except KeyError as exc:
        raise _group_key_error(exc) from None


def _global_aggregate(rows: Iterable[Row], exprs: tuple[AggExpr, ...]) -> list[Row]:
    """The single implicit group: one output row, even for empty input."""
    banked = rows if isinstance(rows, list) else list(rows)
    out: Row = {}
    for expr in exprs:
        out[expr.name] = _reduce_group(expr, banked)
    return [out]


def _generic_aggregate(
    rows: Iterable[Row], keys: tuple[str, ...], exprs: tuple[AggExpr, ...]
) -> list[Row]:
    """Group-hash with banked row *views* and vectorised reductions.

    One pass banks each row's view (no copy) under its group key, then
    every aggregate reduces its group with C-level builtins — the same
    reductions the baseline performs, minus the per-row dict copies and
    per-row accumulator dispatch that would dominate multi-aggregate
    grouping.
    """
    result: list[Row] = []
    lookup: Any
    try:
        if len(keys) == 1:
            key_col = keys[0]
            scalar_groups: dict[Any, list[Row]] = {}
            lookup = scalar_groups.get
            for row in rows:
                k = row[key_col]
                bank = lookup(k)
                if bank is None:
                    scalar_groups[k] = bank = []
                bank.append(row)
            for k, bank in scalar_groups.items():
                out: Row = {key_col: k}
                for expr in exprs:
                    out[expr.name] = _reduce_group(expr, bank)
                result.append(out)
            return result
        groups: dict[tuple, list[Row]] = {}
        lookup = groups.get
        for row in rows:
            key = tuple(row[k] for k in keys)
            bank = lookup(key)
            if bank is None:
                groups[key] = bank = []
            bank.append(row)
    except KeyError as exc:
        raise _group_key_error(exc) from None
    for key, bank in groups.items():
        out = dict(zip(keys, key))
        for expr in exprs:
            out[expr.name] = _reduce_group(expr, bank)
        result.append(out)
    return result


def _reduce_group(expr: AggExpr, rows: list[Row]) -> Any:
    """Reduce one group exactly like ``Aggregate.apply`` does."""
    kind = expr.kind
    if kind == "count":
        return len(rows)
    column = expr.column
    values = [
        row[column] for row in rows if row.get(column) is not None
    ]
    return _reduce_values(kind, values)


def _index_agg_scan(database: "Database", node: IndexAggScan) -> list[Row]:
    """Aggregates answered from index structures without visiting rows."""
    table = database.table(node.table)
    out: Row = {}
    for agg in node.aggregates:
        if agg.kind == "count":
            out[agg.name] = len(table)
        elif agg.kind == "count_distinct":
            out[agg.name] = table.distinct_count(agg.column)
        else:  # min/max via the ordered index
            index = table.ordered_index(agg.column)
            rid = index.first_id() if agg.kind == "min" else index.last_id()
            out[agg.name] = (
                None if rid is None else table.row_view(rid)[agg.column]
            )
    return [out]


def _index_grouped_agg_scan(
    database: "Database", node: IndexGroupedAggScan
) -> list[Row]:
    """Whole-table group-by answered from the hash index's buckets.

    The index already partitions the table by group key, so grouping
    costs nothing: the buckets flatten (once per table generation, see
    ``Table.grouped_layout``) into a slot list clustered by group, and
    exact reductions — counts, integer sums and averages — collapse to
    segment arithmetic over one C-level prefix sum instead of a
    scattered accumulator-dict pass.  Counts never visit a row at all.
    Order-sensitive or non-segmentable reductions (floats, min/max,
    distinct counts) and NULL group keys fall back to the banked
    scan.  In row mode the node streams the table like
    ``HashAggregate`` would, keeping the two modes' work (and the
    benchmark baseline) honest.
    """
    table = database.table(node.table)
    key = node.key
    exprs = node.aggregates
    if not _BATCH_MODE:
        rows = table.iter_views()
        if len(exprs) == 1:
            result = _single_key_single_agg(rows, key, exprs[0])
            if result is not None:
                return result
            rows = table.iter_views()
        return _generic_aggregate(rows, (key,), exprs)
    if all(_segmentable(table, e) for e in exprs):
        layout = table.grouped_layout(key)
        if layout is not None:
            return _segmented_grouped_agg(table, key, exprs, layout)
    return _banked_aggregate(table, table.scan_slots(), (key,), exprs)


def _segmentable(table: Table, expr: AggExpr) -> bool:
    """Reductions a grouped layout can answer with segment arithmetic.

    Counts read group sizes straight off the layout; sums and averages
    difference a prefix sum, which is only exact — and only matches the
    row path's left-to-right fold — for integer (and boolean) values.
    """
    if expr.kind == "count":
        return True
    if expr.kind not in ("sum", "avg"):
        return False
    schema = table.schema
    return (
        expr.column is not None
        and schema.has_column(expr.column)
        and schema.column(expr.column).dtype
        in (DataType.INTEGER, DataType.BOOLEAN)
    )


def _segmented_grouped_agg(
    table: Table,
    key: str,
    exprs: tuple[AggExpr, ...],
    layout: tuple[list, list[int], list[int]],
) -> list[Row]:
    """Reduce each layout segment with C-level primitives.

    ``bounds`` frames group ``i`` as ``flat[bounds[i]:bounds[i + 1]]``,
    and the memoised prefix sums over the clustered values
    (:meth:`Table.grouped_tallies`) turn every group sum into one
    subtraction — the whole reduction is ``map`` machinery plus the
    output-row construction, with no per-row Python frame.
    """
    keys, flat, bounds = layout
    starts = bounds[:-1]
    ends = bounds[1:]
    sub = operator.sub
    if len(exprs) == 1:
        expr = exprs[0]
        name = expr.name
        if expr.kind == "count":
            return [
                {key: k, name: n}
                for k, n in zip(keys, map(sub, ends, starts))
            ]
        tg = table.grouped_tallies(key, expr.column)[0].__getitem__
        if expr.kind == "sum":
            return [
                {key: k, name: hi - lo}
                for k, hi, lo in zip(keys, map(tg, ends), map(tg, starts))
            ]
    columns: list[Iterable] = []
    for expr in exprs:
        if expr.kind == "count":
            columns.append(map(sub, ends, starts))
            continue
        tallies, counts = table.grouped_tallies(key, expr.column)
        sums = map(
            sub, map(tallies.__getitem__, ends),
            map(tallies.__getitem__, starts),
        )
        if expr.kind == "sum":
            columns.append(sums)
        elif counts is None:
            # Average over NOT NULL values: count == group size.
            columns.append(
                t / c for t, c in zip(sums, map(sub, ends, starts))
            )
        else:
            nn = map(
                sub, map(counts.__getitem__, ends),
                map(counts.__getitem__, starts),
            )
            columns.append(
                t / c if c else None for t, c in zip(sums, nn)
            )
    if len(exprs) == 1:
        name = exprs[0].name
        return [{key: k, name: v} for k, v in zip(keys, columns[0])]
    names = (key, *(e.name for e in exprs))
    return [dict(zip(names, row)) for row in zip(keys, *columns)]


def _group_semi_join(
    database: "Database", node: GroupSemiJoin, rows: Iterable[Row]
) -> list[Row]:
    """Keep aggregate-output rows whose group key matches ``table``.

    The residue of a join pushed below the aggregate: the join's only
    observable effect on the grouped output was dropping groups without
    a partner (the target is unique, so fanout never exceeds one), and
    one index probe per *group* reproduces that.  Probing is eager —
    the join this replaces ran before anything above it, so a probe
    error (a group key that does not coerce to the target's type) must
    surface before a HAVING filter evaluates a single group.
    """
    inner = database.table(node.table)
    column = node.column
    target = node.target_column
    out: list[Row] = []
    for row in rows:
        key = row.get(column)
        if key is None:
            continue
        if inner.lookup(target, key):
            out.append(row)
    return out


# ---------------------------------------------------------------------------
# Plan-mode introspection (EXPLAIN annotations)
# ---------------------------------------------------------------------------

def _subtree_batchable(node: PlanNode) -> bool:
    """Would ``_batch_node`` attempt ``node`` columnwise (ignoring the
    data-dependent skew/pair-cap fallbacks it can only see at run
    time)?"""
    if isinstance(node, _BATCH_LEAVES):
        return True
    if isinstance(node, (Filter, Sort, HashJoin, IndexNestedLoopJoin)):
        return _subtree_batchable(node.child)
    if isinstance(node, TopN):
        if node.n > 0 and node.column is None and _contains_join(node.child):
            return False
        return _subtree_batchable(node.child)
    return False


def plan_mode(node: PlanNode) -> str:
    """``"batch"`` or ``"row"``: how the executor would run ``node``."""
    if not _BATCH_MODE and not isinstance(node, IndexAggScan):
        return "row"
    if isinstance(node, (IndexAggScan, IndexGroupedAggScan)):
        return "batch"
    if isinstance(node, GroupSemiJoin):
        return "row"
    if isinstance(node, (HashAggregate, Project)):
        return "batch" if _subtree_batchable(node.child) else "row"
    if isinstance(node, CountOnly):
        child = node.child
        if isinstance(child, SeqScan):
            return "batch"
        if node.limit is not None and _contains_join(child):
            return "row"
        return "batch" if _subtree_batchable(child) else "row"
    return "batch" if _subtree_batchable(node) else "row"
