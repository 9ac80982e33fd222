"""Physical plan execution over the tables' column banks.

Every plan runs columnwise: an intermediate *batch* is ``(table,
slots)``, the access paths produce the slots of the rows they match,
predicates narrow the slot list with C-level list comprehensions,
aggregates reduce column lists per group, and only the surviving rows
are materialised (columnwise) at the output boundary.

Ordering and error contracts (a differential test holds them against
the row-at-a-time reference in ``tests/db/reference_executor.py``):

* access paths emit rows in ascending row-id order;
* predicate evaluation reproduces :meth:`Predicate.matches` clause by
  clause — NULLs never match a comparison, a ``TypeError`` means False
  for that row, an unknown column raises :class:`QueryError` only when
  a row reaches the comparison, AND/OR short-circuit per row;
* aggregates emit groups in first-appearance order, skip NULL values
  (COUNT(*) keeps them), sum from 0 in row order, keep the first
  extremal value, and return one row for an empty global group.  A
  grouped single aggregate folds its sum left to right; other shapes
  call ``sum()``, which Python 3.12+ compensates for floats.
"""

from __future__ import annotations

import operator
from collections import Counter
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.db.engine.plan import (
    AggExpr,
    Filter,
    HashAggregate,
    IndexEq,
    IndexGroupedAggScan,
    PlanNode,
    SeqScan,
)
from repro.db.query import (
    And,
    Comparison,
    Not,
    Or,
    Predicate,
    TruePredicate,
)
from repro.db.table import Row, Table
from repro.db.types import DataType
from repro.errors import QueryError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.db.database import Database

__all__ = [
    "execute_rows",
    "execute_row_ids",
]


def execute_rows(database: "Database", plan: PlanNode) -> list[Row]:
    """Materialise ``plan``'s output as fresh row dicts."""
    if isinstance(plan, (HashAggregate, IndexGroupedAggScan)):
        return _aggregate(database, plan)
    table, slots = _batch(database, plan)
    return table.materialise_slots(slots)


def execute_row_ids(database: "Database", plan: PlanNode) -> list[int]:
    """Row ids for an access-path/filter-only plan, in row-id order.

    Used by the candidate tracker, which keys its snapshots on internal
    row ids rather than materialised rows.  Aggregates do not preserve
    row ids, so such plans are rejected.
    """
    if isinstance(plan, SeqScan):
        return database.table(plan.table).row_ids()
    if isinstance(plan, IndexEq):
        return database.table(plan.table).lookup(plan.column, plan.value)
    if isinstance(plan, Filter):
        table, slots = _batch(database, plan)
        return table.ids_for_slots(slots)
    raise QueryError(
        f"plan node {type(plan).__name__} does not preserve row ids"
    )


# ---------------------------------------------------------------------------
# Row-producing plans
# ---------------------------------------------------------------------------

def _batch(
    database: "Database", node: PlanNode
) -> tuple[Table, Sequence[int]]:
    """``(table, slots)``: the rows ``node`` produces, in row-id order.

    ``slots`` is a list or, for a dense full scan, a ``range`` covering
    the banks whole.
    """
    if isinstance(node, SeqScan):
        table = database.table(node.table)
        return table, table.scan_slots()
    if isinstance(node, IndexEq):
        table = database.table(node.table)
        ids = table.lookup(node.column, node.value)
        return table, table.slots_for_ids(ids)
    if isinstance(node, Filter):
        table, slots = _batch(database, node.child)
        return table, _filter_slots(table, node.predicate, slots)
    raise QueryError(f"unknown plan node {type(node).__name__}")


# --- columnwise predicate evaluation --------------------------------------
#
# These reproduce Predicate.matches() exactly, clause by clause: NULLs
# never match a comparison, a TypeError during a comparison means False
# for that row, an unknown column raises QueryError — but only when a
# row actually reaches the comparison (an empty candidate set never
# evaluates, exactly like a row loop never calls matches()).

def _filter_slots(
    table: Table, predicate: Predicate, slots: Sequence[int]
) -> Sequence[int]:
    if isinstance(predicate, TruePredicate):
        return slots
    if isinstance(predicate, Comparison):
        return _comparison_slots(table, predicate, slots)
    if isinstance(predicate, And):
        # Sequential narrowing: a row rejected by an earlier part never
        # reaches a later one — all()'s short-circuit.
        for part in predicate.parts:
            slots = _filter_slots(table, part, slots)
        return slots
    if isinstance(predicate, Or):
        matched: set[int] = set()
        remaining = slots
        for part in predicate.parts:
            # Rows already matched never evaluate later disjuncts
            # (any()'s short-circuit), so errors and TypeErrors surface
            # for exactly the same rows as a row loop.
            hits = _filter_slots(table, part, remaining)
            matched.update(hits)
            remaining = [s for s in remaining if s not in matched]
            if not remaining:
                break
        return [s for s in slots if s in matched]
    if isinstance(predicate, Not):
        matched = set(_filter_slots(table, predicate.part, slots))
        return [s for s in slots if s not in matched]
    raise QueryError(f"unknown predicate {type(predicate).__name__}")


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
        # per-value TypeError-means-False semantics.
        return [s for s in slots if _safe_match(op_fn, bank[s], value)]


def _safe_match(op_fn, actual: Any, value: Any) -> bool:
    if actual is None:
        return False
    try:
        return op_fn(actual, value)
    except TypeError:
        return False


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def _aggregate(
    database: "Database", node: "HashAggregate | IndexGroupedAggScan"
) -> list[Row]:
    if isinstance(node, HashAggregate):
        table, slots = _batch(database, node.child)
        return _banked_aggregate(table, slots, node.group_by, node.aggregates)
    return _index_grouped_agg_scan(database, node)


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
            raise QueryError(f"unknown group-by column {key!r}")
        key_banks.append(bank)
    if len(keys) == 1 and len(exprs) == 1:
        return _banked_single_key_single_agg(
            key_banks[0], banks, slots, keys[0], exprs[0]
        )
    # Generic: bank slot lists per group, reduce each column list.
    groups: dict[Any, list[int]] = {}
    lookup = groups.get
    if len(keys) == 1:
        key_bank = key_banks[0]
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
) -> list[Row]:
    """One-pass zipped-bank accumulator loops for the hot shapes."""
    kind = expr.kind
    name = expr.name
    keys_seq = _select(key_bank, slots)
    if kind == "count":
        counts = Counter(keys_seq)
        return [{key_col: k, name: n} for k, n in counts.items()]
    value_bank = banks.get(expr.column)
    if value_bank is None:
        # An unknown value column reads as NULL for every row: groups
        # still enumerate in first-appearance order with their
        # empty-group defaults.
        default = 0 if kind in ("sum", "count_distinct") else None
        return [
            {key_col: k, name: default} for k in dict.fromkeys(keys_seq)
        ]
    pairs = zip(keys_seq, _select(value_bank, slots))
    if kind == "sum":
        totals: dict[Any, Any] = {}
        get_total = totals.get
        for k, v in pairs:
            t = get_total(k)
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
    seen: dict[Any, set] = {}  # count_distinct
    for k, v in pairs:
        if k not in seen:
            seen[k] = set()
        if v is not None:
            seen[k].add(v)
    return [{key_col: k, name: len(s)} for k, s in seen.items()]


def _reduce_bank(
    expr: AggExpr, banks: dict[str, list], slots: Sequence[int]
) -> Any:
    """Reduce one slot group's column values."""
    kind = expr.kind
    if kind == "count":
        return len(slots)
    bank = banks.get(expr.column)
    if bank is None:
        values: list = []
    else:
        values = [v for s in slots if (v := bank[s]) is not None]
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
    scan.
    """
    table = database.table(node.table)
    key = node.key
    exprs = node.aggregates
    if all(_segmentable(table, e) for e in exprs):
        layout = table.grouped_layout(key)
        if layout is not None:
            return _segmented_grouped_agg(table, key, exprs, layout)
    return _banked_aggregate(table, table.scan_slots(), (key,), exprs)


def _segmentable(table: Table, expr: AggExpr) -> bool:
    """Reductions a grouped layout can answer with segment arithmetic.

    Counts read group sizes straight off the layout; sums and averages
    difference a prefix sum, which is only exact — and only matches a
    left-to-right fold — for integer (and boolean) values.
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
