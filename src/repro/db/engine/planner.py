"""Planner: compile a :class:`QuerySpec` into a physical plan from index DDL.

1. split the predicate into AND parts and classify each part as
   *pushable* (mentions only the table's columns) or *residual*
   (mentions unknown columns — evaluated last, so a bad column name
   raises only when a row survives the pushable parts);
2. choose the access path: a hash-index equality probe on a unique or
   primary-key column first, otherwise the first indexed equality (in
   predicate order) whose constant coerces to the column type,
   otherwise a sequential scan;
3. aggregate specs (``spec.aggregates``) wrap the row plan in a
   :class:`HashAggregate`, or — for an unfiltered single-key group-by
   on a hash-indexed column — become an :class:`IndexGroupedAggScan`
   that walks the index's buckets.

The planner reads the table's schema and its hash-index columns, never
its rows, so a plan depends only on the spec's shape, its constants'
coercibility and the table's index DDL.

Every predicate part is re-applied as a Filter even when an index
pre-selected rows: index probes coerce values to the column type while
predicate evaluation compares raw values, so the index result is a
*superset* of the final answer and the filter keeps results identical
to a scan.

When planning a statement's *template* the spec's constants may be
named :class:`~repro.db.engine.plan.Param` placeholders: the planner
receives the first execution's bindings via ``binds`` to test
coercibility, while the emitted nodes keep the placeholders so the
compiled plan can be re-bound to any values (see
:mod:`repro.db.engine.cache`).
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Any, Mapping

from repro.db.engine.plan import (
    Filter,
    HashAggregate,
    IndexEq,
    IndexGroupedAggScan,
    PlanNode,
    QuerySpec,
    SeqScan,
    bind_value,
)
from repro.db.query import And, Comparison, Predicate, TruePredicate, and_
from repro.db.types import TypeMismatchError, coerce

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.db.database import Database
    from repro.db.table import Table

__all__ = ["plan_query"]


def plan_query(
    database: "Database",
    spec: QuerySpec,
    binds: Mapping[str, Any] | None = None,
) -> PlanNode:
    """Plan ``spec`` against ``database``'s schema and index DDL.

    ``binds`` resolves the spec's named :class:`Param` placeholders
    when planning a statement's template.
    """
    table = database.table(spec.table)
    if spec.aggregates is None:
        return _plan_rows(table, spec, binds)
    if (
        len(spec.group_by) == 1
        and not _and_parts(spec.predicate)
        and table.has_index(spec.group_by[0])
    ):
        return IndexGroupedAggScan(
            table=spec.table, key=spec.group_by[0], aggregates=spec.aggregates
        )
    child = _plan_rows(
        table, replace(spec, aggregates=None, group_by=()), binds
    )
    return HashAggregate(
        child=child, aggregates=spec.aggregates, group_by=spec.group_by
    )


def _plan_rows(
    table: "Table", spec: QuerySpec, binds: Mapping[str, Any] | None
) -> PlanNode:
    root_columns = set(table.schema.column_names)
    parts = _and_parts(spec.predicate)
    pushable = [p for p in parts if p.columns() <= root_columns]
    residual = [p for p in parts if not (p.columns() <= root_columns)]
    node = _access_path(table, pushable, binds)
    if pushable:
        node = Filter(child=node, predicate=and_(*pushable))
    if residual:
        node = Filter(child=node, predicate=and_(*residual))
    return node


def _access_path(
    table: "Table", pushable: list[Predicate], binds: Mapping[str, Any] | None
) -> PlanNode:
    """The unique indexed equality, else the first indexed equality,
    whose constant coerces; else a sequential scan."""
    probes = [
        part for part in pushable
        if isinstance(part, Comparison) and part.op == "=="
        and table.has_index(part.column)
        and _coerces(table, part.column, part.value, binds)
    ]
    if not probes:
        return SeqScan(table=table.name)
    schema = table.schema
    chosen = next(
        (
            part for part in probes
            if part.column == schema.primary_key
            or schema.column(part.column).unique
        ),
        probes[0],
    )
    return IndexEq(
        table=table.name, column=chosen.column, value=chosen.value
    )


def _coerces(
    table: "Table", column: str, value: Any, binds: Mapping[str, Any] | None
) -> bool:
    """Can ``value`` (a Param resolves to its execution's binding)
    serve as a probe of ``column``'s index?"""
    if binds is not None:
        value = bind_value(value, binds)
    try:
        coerce(value, table.schema.column(column).dtype)
    except TypeMismatchError:
        return False
    return True


# ---------------------------------------------------------------------------
# Predicate decomposition
# ---------------------------------------------------------------------------

def _and_parts(predicate: Predicate) -> list[Predicate]:
    """Top-level AND-ed parts (TruePredicate contributes nothing)."""
    if isinstance(predicate, TruePredicate):
        return []
    if isinstance(predicate, And):
        out: list[Predicate] = []
        for part in predicate.parts:
            out.extend(_and_parts(part))
        return out
    return [predicate]
