"""Query engine: plan tree, planner, executor, plan templates, EXPLAIN.

A statement compiles into a :class:`QuerySpec`; a prepared statement
plans it once per index set of its table into a template that keeps
its named :class:`Param` placeholders, binds each execution's values
into that template (:mod:`.cache`), then executes the resulting plan
tree.  :func:`plan_query` takes its access path from index DDL alone —
a unique indexed equality, else the first indexed equality, probes a
hash index; anything else scans — filters with the statement's
predicate, and aggregates through :class:`HashAggregate` (or, for a
whole-table group-by on an indexed key, :class:`IndexGroupedAggScan`).
Execution runs columnwise over the tables' column banks.
:func:`render_plan` renders the chosen plan tree.
"""

from repro.db.engine.cache import compile_binder
from repro.db.engine.executor import execute_row_ids, execute_rows
from repro.db.engine.explain import render_plan
from repro.db.engine.plan import (
    AggExpr,
    Filter,
    HashAggregate,
    IndexEq,
    IndexGroupedAggScan,
    Param,
    PlanNode,
    QuerySpec,
    SeqScan,
)
from repro.db.engine.planner import plan_query

__all__ = [
    "AggExpr",
    "Filter",
    "HashAggregate",
    "IndexEq",
    "IndexGroupedAggScan",
    "Param",
    "PlanNode",
    "QuerySpec",
    "SeqScan",
    "compile_binder",
    "execute_row_ids",
    "execute_rows",
    "plan_query",
    "render_plan",
]
