"""Row-at-a-time reference executor: the oracle for the columnar engine.

:mod:`repro.db.engine.executor` runs every plan columnwise over the
tables' banks.  This module runs the same plans the simple way: access
paths stream one lazy row view per row in row-id order, a Filter
keeps the rows for which :meth:`Predicate.matches` holds, output rows
are copied at the end, and aggregation consumes the row stream — a
grouped single aggregate through one-pass accumulator folds, every
other shape by banking each group's row views and reducing them with
the builtins.  The differential tests demand byte-identical output —
rows, row ids, and the exception a plan raises — from the engine;
``benchmarks/bench_columnar.py`` times the engine against it.

:func:`aggregate` is the plainer reference still: it materialises its
input rows and reduces each group in one pass.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Iterator, Mapping

from repro.db.aggregation import Aggregate
from repro.db.engine import (
    AggExpr,
    Filter,
    HashAggregate,
    IndexEq,
    IndexGroupedAggScan,
    PlanNode,
    SeqScan,
)
from repro.errors import QueryError

Row = dict[str, Any]

# The reduction behind each aggregate kind, over the group's non-NULL
# column values (over the group's rows for COUNT(*)).
REDUCERS: dict[str, Callable[[list], Any]] = {
    "count": len,
    "sum": lambda vs: sum(vs) if vs else 0,
    "avg": lambda vs: sum(vs) / len(vs) if vs else None,
    "min": lambda vs: min(vs) if vs else None,
    "max": lambda vs: max(vs) if vs else None,
    "count_distinct": lambda vs: len(set(vs)),
}


def aggregate(
    rows: list[Mapping],
    aggregates: Mapping[str, Aggregate],
    group_by: list[str] | None = None,
) -> list[Row]:
    """Group materialised ``rows`` and apply ``aggregates`` per group.

    Without ``group_by`` the whole input forms a single group (one
    output row, even for empty input).  Group keys appear in the output
    rows alongside the aggregate results; output order follows first
    appearance of each group.  NULL values never reach a column
    reduction; COUNT(*) counts every row.
    """
    if not aggregates:
        raise QueryError("at least one aggregate is required")
    keys = group_by or []
    groups: dict[tuple, list[Mapping]] = {}
    for row in rows:
        try:
            key = tuple(row[k] for k in keys)
        except KeyError as exc:
            raise _group_key_error(exc) from None
        groups.setdefault(key, []).append(row)
    if not keys and not rows:
        groups[()] = []
    result: list[Row] = []
    for key, members in groups.items():
        out: Row = dict(zip(keys, key))
        for name, agg in aggregates.items():
            if agg.column is None:
                values: list = members
            else:
                values = [
                    row[agg.column] for row in members
                    if row.get(agg.column) is not None
                ]
            out[name] = REDUCERS[agg.name](values)
        result.append(out)
    return result


def execute_rows(database, plan: PlanNode) -> list[Row]:
    """``plan``'s output rows, computed one row at a time."""
    if isinstance(plan, HashAggregate):
        return _aggregate_stream(
            _iterate(database, plan.child), plan.group_by, plan.aggregates
        )
    if isinstance(plan, IndexGroupedAggScan):
        return _aggregate_stream(
            _scan(database.table(plan.table)), (plan.key,), plan.aggregates
        )
    return [dict(row) for row in _iterate(database, plan)]


def execute_row_ids(database, plan: PlanNode) -> list[int]:
    """Row ids of an access-path/filter-only plan, in row-id order."""
    if isinstance(plan, SeqScan):
        return database.table(plan.table).row_ids()
    if isinstance(plan, IndexEq):
        return database.table(plan.table).lookup(plan.column, plan.value)
    if isinstance(plan, Filter):
        table = database.table(_leaf(plan).table)
        return [
            rid for rid in execute_row_ids(database, plan.child)
            if plan.predicate.matches(table.row_view(rid))
        ]
    raise QueryError(
        f"plan node {type(plan).__name__} does not preserve row ids"
    )


def _iterate(database, node: PlanNode) -> Iterator[Mapping]:
    if isinstance(node, SeqScan):
        return _scan(database.table(node.table))
    if isinstance(node, IndexEq):
        table = database.table(node.table)
        ids = table.lookup(node.column, node.value)
        return (table.row_view(rid) for rid in ids)
    if isinstance(node, Filter):
        predicate = node.predicate
        return (
            row for row in _iterate(database, node.child)
            if predicate.matches(row)
        )
    raise QueryError(f"unknown plan node {type(node).__name__}")


def _scan(table) -> Iterator[Mapping]:
    return table.views_for_slots(table.scan_slots())


def _leaf(plan: PlanNode) -> PlanNode:
    while plan.children():
        plan = plan.children()[0]
    return plan


# --- row-stream aggregation -------------------------------------------------

def _group_key_error(exc: KeyError) -> QueryError:
    return QueryError(f"unknown group-by column {exc.args[0]!r}")


def _aggregate_stream(
    rows: Iterator[Mapping], keys: tuple[str, ...], exprs: tuple[AggExpr, ...]
) -> list[Row]:
    if not keys:
        # The single implicit group: one output row, even for no input.
        members = list(rows)
        return [{expr.name: _reduce_group(expr, members) for expr in exprs}]
    if len(keys) == 1 and len(exprs) == 1:
        return _single_key_single_agg(rows, keys[0], exprs[0])
    return _generic_aggregate(rows, keys, exprs)


def _single_key_single_agg(
    rows: Iterator[Mapping], key_col: str, expr: AggExpr
) -> list[Row]:
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


def _single_key_pairs_agg(
    pairs: Iterator[tuple[Any, Any]], kind: str, key_col: str, name: str
) -> list[Row]:
    """One-pass accumulator loops over ``(group key, value)`` pairs;
    sums fold left to right from 0."""
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
    seen: dict[Any, set] = {}  # count_distinct
    for k, v in pairs:
        if k not in seen:
            seen[k] = set()
        if v is not None:
            seen[k].add(v)
    return [{key_col: k, name: len(s)} for k, s in seen.items()]


def _generic_aggregate(
    rows: Iterator[Mapping], keys: tuple[str, ...], exprs: tuple[AggExpr, ...]
) -> list[Row]:
    """Bank each group's row views, then reduce every aggregate."""
    groups: dict[Any, list[Mapping]] = {}
    lookup = groups.get
    single = len(keys) == 1
    key_col = keys[0]
    try:
        for row in rows:
            key = row[key_col] if single else tuple(row[k] for k in keys)
            bank = lookup(key)
            if bank is None:
                groups[key] = bank = []
            bank.append(row)
    except KeyError as exc:
        raise _group_key_error(exc) from None
    result: list[Row] = []
    for key, members in groups.items():
        out: Row = {key_col: key} if single else dict(zip(keys, key))
        for expr in exprs:
            out[expr.name] = _reduce_group(expr, members)
        result.append(out)
    return result


def _reduce_group(expr: AggExpr, rows: list[Mapping]) -> Any:
    if expr.kind == "count":
        return len(rows)
    column = expr.column
    values = [row[column] for row in rows if row.get(column) is not None]
    return REDUCERS[expr.kind](values)
