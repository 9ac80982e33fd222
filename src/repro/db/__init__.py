"""In-memory relational OLTP engine: the paper's database substrate.

Public surface:

* :class:`~repro.db.database.Database` — tables, FK enforcement,
  transactions, stored procedures, the commit-point generation clock.
* :mod:`~repro.db.api` — connections, prepared statements, results.
* :mod:`~repro.db.schema` — declarative schemas.
* :mod:`~repro.db.query` — predicates and single-table queries.
* :mod:`~repro.db.engine` — the planner (access paths from index DDL),
  the columnar executor and prepared statements' plan templates.
* :class:`~repro.db.catalog.Catalog` — introspection for task extraction.
"""

from repro.db.catalog import Catalog, ColumnRef
from repro.db.database import Database
from repro.db.procedures import Parameter, Procedure, ProcedureResult
from repro.db.query import (
    Query,
    and_,
    contains,
    eq,
    ge,
    gt,
    in_,
    le,
    lt,
    ne,
    not_,
    or_,
)
from repro.db.schema import Column, DatabaseSchema, ForeignKey, TableSchema
from repro.db.types import DataType, coerce, render

__all__ = [
    "Catalog",
    "Column",
    "ColumnRef",
    "DataType",
    "Database",
    "DatabaseSchema",
    "ForeignKey",
    "Parameter",
    "Procedure",
    "ProcedureResult",
    "Query",
    "TableSchema",
    "and_",
    "coerce",
    "contains",
    "eq",
    "ge",
    "gt",
    "in_",
    "le",
    "lt",
    "ne",
    "not_",
    "or_",
    "render",
]

from repro.db.persistence import (
    dump_database,
    dump_incremental,
    dumps_database,
    load_database,
    load_incremental,
    loads_database,
)

__all__ += [
    "dump_database",
    "dump_incremental",
    "dumps_database",
    "load_database",
    "load_incremental",
    "loads_database",
]

from repro.db.aggregation import (
    Aggregate,
    avg,
    count,
    count_distinct,
    max_,
    min_,
    sum_,
)

__all__ += [
    "Aggregate",
    "avg",
    "count",
    "count_distinct",
    "max_",
    "min_",
    "sum_",
]

# The execution API (Connection / PreparedStatement / Result).
# The aggregate-statement builder is reached as ``api.aggregate(...)``
# (``from repro.db import api``).
from repro.db import api
from repro.db.api import (
    Connection,
    ConnectionStats,
    Param,
    PreparedStatement,
    Result,
    SelectStatement,
    select,
)

__all__ += [
    "Connection",
    "ConnectionStats",
    "Param",
    "PreparedStatement",
    "Result",
    "SelectStatement",
    "api",
    "select",
]
