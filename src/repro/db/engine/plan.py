"""Physical plan nodes and the compiled query spec.

A plan is a tree of frozen dataclass nodes.  Leaves are access paths on
the queried table (:class:`SeqScan`, :class:`IndexEq`); :class:`Filter`
narrows its input by a predicate; :class:`HashAggregate` groups and
reduces its input, and :class:`IndexGroupedAggScan` answers a
whole-table single-key group-by from the key's hash-index buckets
without re-hashing a row.  These five are every shape the agent's
statements plan to.

Constants inside a plan may be :class:`Param` placeholders: a prepared
statement plans one *template* for its shape and binds the concrete
values of each execution into a fresh tree (see
:mod:`repro.db.engine.cache`), so its executions with different
constants share one planning pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.db.query import Predicate

__all__ = [
    "format_predicate",
    "Param",
    "AggExpr",
    "QuerySpec",
    "PlanNode",
    "SeqScan",
    "IndexEq",
    "Filter",
    "HashAggregate",
    "IndexGroupedAggScan",
]


@dataclass(frozen=True)
class Param:
    """A parameter slot standing in for one query constant.

    Plan templates carry these where the planner would otherwise embed
    the literal value; binding substitutes the execution's actual
    constants (coerced exactly as direct planning would have).
    """

    index: int

    def __repr__(self) -> str:
        return f"${self.index + 1}"


def format_predicate(predicate: "Predicate") -> str:
    """Compact SQL-ish rendering of a predicate tree for EXPLAIN."""
    from repro.db.query import And, Comparison, Not, Or, TruePredicate

    if isinstance(predicate, TruePredicate):
        return "true"
    if isinstance(predicate, Comparison):
        op = "=" if predicate.op == "==" else predicate.op
        return f"{predicate.column} {op} {predicate.value!r}"
    if isinstance(predicate, And):
        return "(" + " AND ".join(format_predicate(p) for p in predicate.parts) + ")"
    if isinstance(predicate, Or):
        return "(" + " OR ".join(format_predicate(p) for p in predicate.parts) + ")"
    if isinstance(predicate, Not):
        return f"NOT {format_predicate(predicate.part)}"
    return repr(predicate)


@dataclass(frozen=True)
class AggExpr:
    """One named aggregate the engine knows how to stream.

    ``kind`` is one of ``count`` (``column is None``), ``sum``, ``avg``,
    ``min``, ``max`` or ``count_distinct``.
    """

    name: str
    kind: str
    column: str | None = None

    def describe(self) -> str:
        arg = "*" if self.column is None else self.column
        return f"{self.name}={self.kind}({arg})"


@dataclass(frozen=True)
class QuerySpec:
    """The logical query compiled from the fluent :class:`~repro.db.query.Query`.

    With ``aggregates`` set the plan root aggregates the filtered rows
    (grouped by ``group_by``); otherwise the plan returns them.
    """

    table: str
    predicate: "Predicate"
    aggregates: tuple[AggExpr, ...] | None = None
    group_by: tuple[str, ...] = ()


@dataclass(frozen=True)
class PlanNode:
    """Base node: the EXPLAIN surface."""

    def children(self) -> tuple["PlanNode", ...]:
        return ()

    def describe(self) -> str:
        return type(self).__name__


# ---------------------------------------------------------------------------
# Access paths (leaves)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeqScan(PlanNode):
    table: str

    def describe(self) -> str:
        return f"SeqScan on {self.table}"


@dataclass(frozen=True)
class IndexEq(PlanNode):
    """Hash-index equality probe ``table.column == value``."""

    table: str
    column: str
    value: Any

    def describe(self) -> str:
        return f"IndexEq on {self.table} using {self.column} = {self.value!r}"


# ---------------------------------------------------------------------------
# Unary operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Filter(PlanNode):
    child: PlanNode
    predicate: "Predicate"

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def describe(self) -> str:
        return f"Filter {format_predicate(self.predicate)}"


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HashAggregate(PlanNode):
    """Group-hash aggregation over the child's column banks.

    One pass over the child's surviving slots, no row copied: the hot
    single-aggregate shapes keep per-group accumulators, wider
    aggregate lists bank slots per group and reduce each group's column
    values with C-level builtins.  Output groups appear in
    first-appearance order of their key.
    """

    child: PlanNode
    aggregates: tuple[AggExpr, ...]
    group_by: tuple[str, ...] = ()

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def describe(self) -> str:
        aggs = ", ".join(a.describe() for a in self.aggregates)
        if self.group_by:
            return (
                f"HashAggregate [{aggs}] "
                f"group by [{', '.join(self.group_by)}]"
            )
        return f"HashAggregate [{aggs}]"


@dataclass(frozen=True)
class IndexGroupedAggScan(PlanNode):
    """Whole-table single-key group-by answered from hash-index buckets.

    The key column's hash index already partitions the table into
    groups, so the executor walks ``value -> row ids`` buckets instead
    of re-hashing every row: COUNT(*) per group is the bucket size
    without visiting a single row, and the other builtin aggregates
    reduce each bucket's bank values columnwise.  Falls back to the
    :class:`HashAggregate` behaviour at runtime when the key column
    holds NULLs (the index skips those rows, but NULL forms a group).
    Only eligible for unfiltered single-key group-bys; anything else
    goes through :class:`HashAggregate`.
    """

    table: str
    key: str
    aggregates: tuple[AggExpr, ...]

    def describe(self) -> str:
        aggs = ", ".join(a.describe() for a in self.aggregates)
        return (
            f"IndexGroupedAggScan on {self.table} [{aggs}] "
            f"group by [{self.key}]"
        )
