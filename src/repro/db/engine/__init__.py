"""Query engine: plan tree, planner, executor, plan cache, EXPLAIN.

A statement compiles into a :class:`QuerySpec`, reads a physical plan
through the database's :class:`PlanCache` (one compilation per query
shape and index set of its table; constants bind into the cached
template) and executes the resulting plan tree.  :func:`plan_query`
takes its access path from index DDL alone — a unique indexed
equality, else the first indexed equality, probes a hash index;
anything else scans — filters with the statement's predicate, and
aggregates through :class:`HashAggregate` (or, for a whole-table
group-by on an indexed key, :class:`IndexGroupedAggScan`).  Execution
runs columnwise over the tables' column banks.  :func:`render_plan`
renders the chosen plan tree.
"""

from repro.db.engine.cache import (
    DEFAULT_MAX_ENTRIES,
    PlanCache,
    compile_binder,
    fingerprint_spec,
    parameterize_spec,
)
from repro.db.engine.executor import (
    execute_iter,
    execute_row_ids,
    execute_rows,
)
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
    "DEFAULT_MAX_ENTRIES",
    "Filter",
    "HashAggregate",
    "IndexEq",
    "IndexGroupedAggScan",
    "Param",
    "PlanCache",
    "PlanNode",
    "QuerySpec",
    "SeqScan",
    "compile_binder",
    "execute_iter",
    "execute_row_ids",
    "execute_rows",
    "fingerprint_spec",
    "parameterize_spec",
    "plan_query",
    "render_plan",
]
