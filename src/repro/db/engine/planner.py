"""Cost-based planner: compile a :class:`QuerySpec` into a physical plan.

1. split the predicate into AND parts and classify each part as
   *pushable* (mentions only the table's columns) or *residual*
   (mentions unknown columns — evaluated last, so a bad column name
   raises only when a row survives the pushable parts);
2. choose the access path: a hash-index equality probe on a unique
   column wins outright; otherwise every indexed equality is priced
   with the statistics catalog's most-common-value selectivities
   against the sequential scan, and the cheapest is kept;
3. aggregate specs (``spec.aggregates``) wrap the row plan in a
   :class:`HashAggregate`, or — for an unfiltered single-key group-by
   on a hash-indexed column — become an :class:`IndexGroupedAggScan`
   that walks the index's buckets.

Every predicate part is re-applied as a Filter even when an index
pre-selected rows: index probes coerce values to the column type while
predicate evaluation compares raw values, so the index result is a
*superset* of the final answer and the filter keeps results identical
to a scan.

When planning a cache *template* the spec's constants are
:class:`~repro.db.engine.plan.Param` slots and the planner receives the
first execution's actual values via ``params``: costing uses the actual
values, while the emitted nodes keep the slots so the compiled plan can
be re-bound to any constants (see :mod:`repro.db.engine.cache`).
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Any, Sequence

from repro.db.engine.plan import (
    Filter,
    HashAggregate,
    IndexEq,
    IndexGroupedAggScan,
    Param,
    PlanNode,
    QuerySpec,
    SeqScan,
)
from repro.db.query import And, Comparison, Predicate, TruePredicate, and_
from repro.db.types import TypeMismatchError, coerce

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.db.database import Database
    from repro.db.statistics import ColumnStatistics, StatisticsCatalog

__all__ = ["Planner", "plan_query"]

# Default selectivity guesses for predicates the statistics cannot price.
_SEL_CONTAINS = 0.25
_SEL_NE = 0.9
_SEL_RANGE = 1 / 3
_SEL_DEFAULT = 0.5


def plan_query(
    database: "Database",
    spec: QuerySpec,
    statistics: "StatisticsCatalog | None" = None,
    params: Sequence[Any] | None = None,
) -> PlanNode:
    """Convenience wrapper: plan ``spec`` against ``database``."""
    return Planner(database, statistics, params=params).plan(spec)


class Planner:
    """Compiles query specs into costed physical plans."""

    def __init__(
        self,
        database: "Database",
        statistics: "StatisticsCatalog | None" = None,
        params: Sequence[Any] | None = None,
    ) -> None:
        self._database = database
        self._statistics = statistics if statistics is not None \
            else database.statistics
        self._params = params

    # ------------------------------------------------------------------
    def _resolve(self, value: Any) -> Any:
        """The concrete constant behind ``value`` (Param slots resolve
        to the template-compilation execution's actual parameter)."""
        if isinstance(value, Param):
            if self._params is None:  # pragma: no cover - cache guards this
                raise ValueError("parameterised spec planned without params")
            return self._params[value.index]
        return value

    # ------------------------------------------------------------------
    def plan(self, spec: QuerySpec) -> PlanNode:
        if spec.aggregates is not None:
            return self._plan_aggregate(spec)
        return self._plan_rows(spec)

    def _plan_rows(self, spec: QuerySpec) -> PlanNode:
        table = self._database.table(spec.table)
        root_columns = set(table.schema.column_names)
        parts = _and_parts(spec.predicate)
        pushable = [p for p in parts if p.columns() <= root_columns]
        residual = [p for p in parts if not (p.columns() <= root_columns)]

        node = self._access_path(spec, table, pushable)
        if pushable:
            if node.estimated_rows <= 1.0:
                # A unique probe: the residual filter cannot shrink the
                # estimate in any way that would change later decisions,
                # so skip the per-part statistics pricing.
                est = node.estimated_rows
            else:
                selectivity = self._filter_selectivity(spec.table, pushable)
                est = min(node.estimated_rows, len(table) * selectivity)
            node = Filter(
                child=node,
                predicate=and_(*pushable),
                estimated_rows=est,
                cost=node.cost + node.estimated_rows,
            )
        if residual:
            node = Filter(
                child=node,
                predicate=and_(*residual),
                estimated_rows=node.estimated_rows * _SEL_DEFAULT,
                cost=node.cost + node.estimated_rows,
            )
        return node

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def _plan_aggregate(self, spec: QuerySpec) -> PlanNode:
        assert spec.aggregates is not None
        if self._index_grouped_agg_eligible(spec):
            table = self._database.table(spec.table)
            est = self._group_count_estimate(spec, float(len(table)))
            # Bucket iteration skips the group-hash pass; count-only
            # aggregates never visit a row, value aggregates still read
            # each group's bank values once.
            per_group = sum(
                1.0 if a.kind == "count" else len(table) / est
                for a in spec.aggregates
            )
            return IndexGroupedAggScan(
                table=spec.table,
                key=spec.group_by[0],
                aggregates=spec.aggregates,
                estimated_rows=est,
                cost=est * (1.0 + per_group),
            )
        child = self._plan_rows(replace(spec, aggregates=None, group_by=()))
        if spec.group_by:
            est = self._group_count_estimate(spec, child.estimated_rows)
        else:
            est = 1.0
        return HashAggregate(
            child=child,
            aggregates=spec.aggregates,
            group_by=spec.group_by,
            estimated_rows=est,
            cost=child.cost + child.estimated_rows,
        )

    def _index_grouped_agg_eligible(self, spec: QuerySpec) -> bool:
        """True when a whole-table single-key group-by can walk the
        group key's hash-index buckets instead of scanning."""
        if len(spec.group_by) != 1 or _and_parts(spec.predicate):
            return False
        return self._database.table(spec.table).has_index(spec.group_by[0])

    def _group_count_estimate(
        self, spec: QuerySpec, input_rows: float
    ) -> float:
        """Expected group count: distinct-count product capped by input."""
        distinct = 1.0
        for column in spec.group_by:
            stats = self._column_stats(spec.table, column)
            if stats is not None and stats.distinct_count > 0:
                distinct *= stats.distinct_count
            else:
                distinct *= max(1.0, input_rows * 0.1)
        return max(1.0, min(distinct, input_rows))

    # ------------------------------------------------------------------
    # Access-path selection
    # ------------------------------------------------------------------
    def _access_path(
        self, spec: QuerySpec, table, pushable: list[Predicate]
    ) -> PlanNode:
        n_rows = len(table)
        equalities = _equality_bindings(pushable)
        # Fast path: an equality probe on a unique (or primary-key)
        # hash index matches at most one row — no plan can beat it and
        # no statistics are needed to know that.  This keeps point
        # lookups, the OLTP hot path, nearly planning-free.
        for column, value in equalities.items():
            if not table.has_index(column):
                continue
            if not _is_unique_column(table, column):
                continue
            if self._coerced(table, column, value) is _UNUSABLE:
                continue
            return IndexEq(
                table=spec.table, column=column, value=value,
                estimated_rows=1.0, cost=2.0,
            )
        best: PlanNode = SeqScan(
            table=spec.table, estimated_rows=n_rows, cost=n_rows + 1.0
        )
        for column, value in equalities.items():
            if not table.has_index(column):
                continue
            coerced = self._coerced(table, column, value)
            if coerced is _UNUSABLE:
                continue
            est = n_rows * self._eq_selectivity(spec.table, column, coerced)
            if 1.0 + est < best.cost:
                best = IndexEq(
                    table=spec.table,
                    column=column,
                    value=value,
                    estimated_rows=est,
                    cost=1.0 + est,
                )
        return best

    # ------------------------------------------------------------------
    # Statistics helpers
    # ------------------------------------------------------------------
    def _column_stats(
        self, table: str, column: str
    ) -> "ColumnStatistics | None":
        try:
            return self._statistics.column(table, column)
        except KeyError:  # pragma: no cover - schema/statistics drift
            return None

    def _eq_selectivity(self, table: str, column: str, value: Any) -> float:
        stats = self._column_stats(table, column)
        if stats is None:
            return _SEL_DEFAULT
        return stats.selectivity(value)

    def _filter_selectivity(
        self, table: str, parts: list[Predicate]
    ) -> float:
        selectivity = 1.0
        for part in parts:
            selectivity *= self._part_selectivity(table, part)
        return selectivity

    def _part_selectivity(self, table: str, part: Predicate) -> float:
        if isinstance(part, Comparison):
            value = self._resolve(part.value)
            if part.op == "==":
                return self._eq_selectivity(table, part.column, value)
            if part.op in ("<", "<=", ">", ">="):
                return _SEL_RANGE
            if part.op == "!=":
                return _SEL_NE
            if part.op == "contains":
                return _SEL_CONTAINS
            if part.op == "in":
                try:
                    n = len(value)
                except TypeError:
                    n = 1
                stats = self._column_stats(table, part.column)
                per_value = (
                    stats.average_selectivity if stats is not None
                    else _SEL_DEFAULT / 4
                )
                return min(1.0, n * per_value)
        return _SEL_DEFAULT

    def _coerced(self, table, column: str, value: Any) -> Any:
        """``value`` coerced to the column type, or ``_UNUSABLE`` when it
        cannot serve as an index probe."""
        try:
            return coerce(self._resolve(value), table.schema.column(column).dtype)
        except TypeMismatchError:
            return _UNUSABLE


def _is_unique_column(table, column: str) -> bool:
    if column == table.schema.primary_key:
        return True
    return table.schema.column(column).unique


class _Unusable:
    """Sentinel: a binding value that cannot serve as an index probe."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<unusable>"


_UNUSABLE = _Unusable()


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


def _equality_bindings(parts: list[Predicate]) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for part in parts:
        if isinstance(part, Comparison) and part.op == "==":
            out[part.column] = part.value
    return out
