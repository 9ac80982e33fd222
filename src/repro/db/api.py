"""The execution API: ``Connection`` → ``PreparedStatement`` → ``Result``.

Queries and grouped aggregates go through the classic prepare/execute
split of DB client interfaces; stored procedures through
:meth:`Connection.call`::

    conn = database.connect()
    stmt = conn.prepare(
        select("screening").where(eq("movie_id", Param("m")))
    )
    rows = stmt.execute(m=3).all()
    outcome = conn.call("ticket_reservation", customer_id=1,
                        screening_id=3, ticket_amount=2)

Why prepare/execute: the serving runtime issues the same two
statements on every booking or listing turn, differing only in their
named parameters' values.  A prepared statement plans at its first
execution and keeps that plan template, named :class:`Param`
placeholders included; every later ``execute`` binds the call's values
straight into it — one stable compiled artifact, many cheap
parameterised executions.  A one-shot ``Connection.execute`` is a
statement executed once: it plans the bound statement directly, with
no template.  ``benchmarks/bench_statement_api.py`` gates the
difference.  Atomic multi-statement scopes are
:meth:`Database.transaction <repro.db.database.Database.transaction>`'s
(``with database.transaction(): ...``).

The objects:

* :class:`Connection` — a lightweight handle from ``database.connect()``
  owning execution and plan counters and a prepared-statement pool
  (:meth:`Connection.prepare_cached`).
* :class:`PreparedStatement` — one compiled statement with named
  :class:`Param` placeholders and its own plan template; safe to share
  across threads (every ``execute`` builds its own bound plan, so
  bindings never bleed between concurrent callers).
* :class:`Result` — one query execution: its rows materialise once, on
  the first read (``__iter__``, ``fetchone``, ``fetchmany``, ``all``,
  ``scalar``); ``row_ids()`` re-runs the plan id-wise and
  ``.plan``/``explain()`` show it.  Read it within the read scope it
  was produced in.
* :meth:`Connection.call` returns the procedure's
  :class:`~repro.db.procedures.ProcedureResult` outcome record.

Statements come from two builders: :func:`select` (rows) and
:func:`aggregate` (grouped aggregates).  Plain
:class:`~repro.db.query.Query` objects are also accepted by
``prepare``/``execute``.  Predicates are built from the
:mod:`repro.db.query` combinators; a ``Predicate`` subclass of one's
own is rejected at prepare time.

A statement's plan template reads only its table's hash-index columns:
commits keep it, and index DDL on that table makes the next execution
plan again (see :mod:`repro.db.engine.cache`).
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, Hashable, Iterator, Mapping

from repro.db.aggregation import Aggregate
from repro.db.engine import (
    AggExpr,
    Param,
    PlanNode,
    QuerySpec,
    compile_binder,
    execute_row_ids,
    execute_rows,
    plan_query,
    render_plan,
)
from repro.db.engine.cache import Unbindable
from repro.db.engine.plan import bind_value
from repro.db.query import (
    And,
    Comparison,
    Not,
    Or,
    Predicate,
    Query,
    TruePredicate,
)
from repro.db.table import Row
from repro.errors import QueryError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.db.database import Database
    from repro.db.procedures import ProcedureResult

__all__ = [
    "Param",
    "SelectStatement",
    "select",
    "aggregate",
    "Connection",
    "ConnectionStats",
    "PreparedStatement",
    "Result",
]


# ---------------------------------------------------------------------------
# Named parameters
# ---------------------------------------------------------------------------

def _param_names(predicate: Predicate) -> frozenset[str]:
    """The named parameters in ``predicate``.

    Raises :class:`QueryError` for a predicate subclass other than the
    :mod:`repro.db.query` combinators: its constants are invisible to
    binding.
    """
    if isinstance(predicate, TruePredicate):
        return frozenset()
    if isinstance(predicate, Comparison):
        value = predicate.value
        if type(value) is Param:
            return frozenset((value.name,))
        if isinstance(value, tuple):
            return frozenset(e.name for e in value if type(e) is Param)
        return frozenset()
    if isinstance(predicate, (And, Or)):
        return frozenset().union(*map(_param_names, predicate.parts))
    if isinstance(predicate, Not):
        return _param_names(predicate.part)
    raise QueryError(
        f"cannot prepare a {type(predicate).__name__} predicate (build "
        "predicates from the repro.db.query combinators)"
    )


def _check_binds(names: frozenset[str], binds: Mapping[str, Any]) -> None:
    if binds.keys() == names:
        return
    missing = names - binds.keys()
    if missing:
        raise QueryError(f"missing parameter bindings: {sorted(missing)}")
    unknown = binds.keys() - names
    raise QueryError(f"unknown parameter bindings: {sorted(unknown)}")


def _bind_predicate(
    predicate: Predicate, binds: Mapping[str, Any]
) -> Predicate:
    """``predicate`` with named Params substituted (shared, not copied,
    when nothing inside changes)."""
    if isinstance(predicate, Comparison):
        value = bind_value(predicate.value, binds)
        if value is predicate.value:
            return predicate
        return Comparison(predicate.column, predicate.op, value)
    if isinstance(predicate, And):
        parts = tuple(_bind_predicate(p, binds) for p in predicate.parts)
        if all(a is b for a, b in zip(parts, predicate.parts)):
            return predicate
        return And(parts)
    if isinstance(predicate, Or):
        parts = tuple(_bind_predicate(p, binds) for p in predicate.parts)
        if all(a is b for a, b in zip(parts, predicate.parts)):
            return predicate
        return Or(parts)
    if isinstance(predicate, Not):
        part = _bind_predicate(predicate.part, binds)
        return predicate if part is predicate.part else Not(part)
    return predicate


def _bind_spec(spec: QuerySpec, binds: Mapping[str, Any]) -> QuerySpec:
    predicate = _bind_predicate(spec.predicate, binds)
    if predicate is spec.predicate:
        return spec
    return replace(spec, predicate=predicate)


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

class SelectStatement(Query):
    """A fluent row or aggregate statement with named parameters.

    Extends the fluent :class:`~repro.db.query.Query` builder (``where``)
    with grouped aggregation (``group_by``, for statements built by
    :func:`aggregate`) and named :class:`Param` placeholders anywhere a
    constant goes.
    """

    def __init__(self, table: str) -> None:
        Query.__init__(self, table)
        self._aggregates: dict[str, Aggregate] | None = None
        self._group_by: tuple[str, ...] = ()

    def group_by(self, *columns: str) -> "SelectStatement":
        self._group_by = tuple(columns)
        return self


def select(table: str) -> SelectStatement:
    """Start a row-returning statement."""
    return SelectStatement(table)


def aggregate(
    table: str,
    aggregates: Mapping[str, Aggregate] | None = None,
    **named: Aggregate,
) -> SelectStatement:
    """Start an aggregate statement: ``aggregate("reservation",
    booked=sum_("no_tickets")).group_by("screening_id")``.

    A lone ``count()`` gives ``COUNT(*)``:
    ``conn.execute(aggregate("movie", n=count())).scalar()``.
    """
    statement = SelectStatement(table)
    merged: dict[str, Aggregate] = dict(aggregates or {})
    merged.update(named)
    statement._aggregates = merged
    return statement


_AGGREGATE_KINDS = ("sum", "avg", "min", "max", "count_distinct")


def _aggregate_exprs(aggregates: Mapping[str, Aggregate]) -> tuple[AggExpr, ...]:
    """The engine's :class:`AggExpr` per named aggregate."""
    if not aggregates:
        raise QueryError("at least one aggregate is required")
    exprs = []
    for name, agg in aggregates.items():
        if agg.name == "count" and agg.column is None:
            exprs.append(AggExpr(name, "count", None))
        elif agg.name in _AGGREGATE_KINDS and agg.column is not None:
            exprs.append(AggExpr(name, agg.name, agg.column))
        else:
            raise QueryError(f"unknown aggregate {agg!r} for {name!r}")
    return tuple(exprs)


def _compile(statement: Query) -> QuerySpec:
    """``statement``'s spec, its aggregates included."""
    if not isinstance(statement, Query):
        raise QueryError(
            f"cannot prepare {type(statement).__name__!r} "
            "(expected a select/aggregate statement or a Query)"
        )
    spec = statement.compile()
    aggregates = getattr(statement, "_aggregates", None)
    group_by = getattr(statement, "_group_by", ())
    if aggregates is not None:
        return replace(
            spec,
            aggregates=_aggregate_exprs(aggregates),
            group_by=tuple(group_by),
        )
    if group_by:
        raise QueryError("group_by requires aggregates")
    return spec


# ---------------------------------------------------------------------------
# Result
# ---------------------------------------------------------------------------

class Result:
    """One query execution's output.

    The rows materialise once, on the first read, and every read serves
    from them: ``__iter__`` and ``fetchmany`` advance through them,
    ``fetchone`` takes the next row, ``all()`` returns what remains and
    ``scalar()`` the first value of the next row.  ``row_ids()`` re-runs
    the plan id-wise without building rows.  ``.plan`` / ``explain()``
    expose the executed physical plan.

    Read a result inside the read scope it was produced in (e.g. ``with
    database.read_locked(): ...``): the first read scans table storage.
    """

    def __init__(self, database: "Database", plan: PlanNode) -> None:
        self._database = database
        self._plan = plan
        self._rows: Iterator[Row] | None = None

    def _cursor(self) -> Iterator[Row]:
        rows = self._rows
        if rows is None:
            rows = self._rows = iter(execute_rows(self._database, self._plan))
        return rows

    # ------------------------------------------------------------------
    @property
    def plan(self) -> PlanNode:
        """The executed physical plan."""
        return self._plan

    def explain(self) -> str:
        """EXPLAIN output of the executed plan."""
        return render_plan(self._plan)

    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Row]:
        yield from self._cursor()

    def fetchone(self) -> Row | None:
        """The next row, or ``None`` when the result is exhausted."""
        return next(self._cursor(), None)

    def fetchmany(self, n: int) -> list[Row]:
        """Up to ``n`` more rows (fewer at the end, ``[]`` when done)."""
        if n < 0:
            raise QueryError("fetchmany size must be non-negative")
        return list(itertools.islice(self._cursor(), n))

    def all(self) -> list[Row]:
        """Every remaining row."""
        return list(self._cursor())

    def scalar(self) -> Any:
        """First value of the next row (``None`` when exhausted/empty).

        The natural reader for ungrouped aggregates:
        ``conn.execute(aggregate("movie", n=count())).scalar()``.
        """
        row = self.fetchone()
        if row is None:
            return None
        return next(iter(row.values()), None)

    def row_ids(self) -> list[int]:
        """Row ids of an access-path/filter-only plan.

        Independent of the rows read so far (re-runs the plan id-wise);
        used by candidate tracking, which keys snapshots on internal
        row ids.
        """
        return execute_row_ids(self._database, self._plan)


# ---------------------------------------------------------------------------
# PreparedStatement
# ---------------------------------------------------------------------------

class PreparedStatement:
    """One statement, compiled once, with its own plan template.

    ``execute(**binds)`` substitutes named parameters straight into the
    statement's plan template and returns a :class:`Result`; a
    statement with only literal constants has a static template.  The
    first execution plans the template; index DDL on the statement's
    table makes the next one plan again.  Instances are safe to share across
    threads: the template is one immutable tuple replaced whole, and
    every execution builds its own bound plan, so concurrent
    ``execute`` calls never see each other's bindings.  Two racing
    first executions may both plan; they store equal templates.
    """

    def __init__(self, connection: "Connection", statement: Query) -> None:
        self._connection = connection
        self._database = connection.database
        self.statement = statement
        self._spec = _compile(statement)
        self._param_names = _param_names(self._spec.predicate)
        # (the table's index columns, compiled binder) from the first
        # execution that planned the statement; replaced whole, never
        # mutated.
        self._template: tuple[list[str], Callable] | None = None

    # ------------------------------------------------------------------
    @property
    def param_names(self) -> frozenset[str]:
        """Names ``execute`` requires as keyword bindings."""
        return self._param_names

    def _plan_for(self, binds: Mapping[str, Any]) -> tuple[PlanNode, bool]:
        """``(bound plan, template reused)`` for one execution.

        The hot path.  A template reads only its table's index columns,
        so it is kept until they change.
        """
        database = self._database
        columns = database.table(self._spec.table).hash_index_columns()
        template = self._template
        reused = template is not None and template[0] == columns
        if not reused:
            plan = plan_query(database, self._spec, binds)
            template = (columns, compile_binder(database, plan))
            self._template = template
        try:
            return template[1](binds), reused
        except Unbindable:
            return plan_query(database, _bind_spec(self._spec, binds)), reused

    # ------------------------------------------------------------------
    def execute(self, **binds: Any) -> Result:
        """Bind ``binds`` and execute; returns a :class:`Result`."""
        _check_binds(self._param_names, binds)
        plan, reused = self._plan_for(binds)
        self._connection._note_execution(reused)
        return Result(self._database, plan)

    def plan(self, **binds: Any) -> PlanNode:
        """The plan ``execute(**binds)`` would run."""
        _check_binds(self._param_names, binds)
        plan, __ = self._plan_for(binds)
        return plan

    def explain(self, **binds: Any) -> str:
        """EXPLAIN output for the plan ``execute(**binds)`` would run."""
        return render_plan(self.plan(**binds))


# ---------------------------------------------------------------------------
# Connection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConnectionStats:
    """Snapshot of one connection's counters."""

    name: str
    executions: int
    plan_cache_hits: int
    plan_cache_misses: int


_connection_counter = itertools.count(1)


class Connection:
    """A lightweight execution handle over one database.

    Cheap to create (``database.connect()``), safe to share across
    threads; owns its counters and a prepared-statement pool.  Its
    ``plan_cache_hits`` count executions that reused their statement's
    plan template and ``plan_cache_misses`` those that planned.
    """

    def __init__(self, database: "Database", name: str | None = None) -> None:
        self._database = database
        self.name = name or f"conn-{next(_connection_counter)}"
        self._lock = threading.Lock()
        self._statements: dict[Hashable, PreparedStatement] = {}
        self._executions = 0
        self._plan_cache_hits = 0
        self._plan_cache_misses = 0

    @property
    def database(self) -> "Database":
        return self._database

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Connection({self.name!r})"

    # ------------------------------------------------------------------
    # Prepare / execute / call
    # ------------------------------------------------------------------
    def prepare(self, statement: Query) -> PreparedStatement:
        """Compile ``statement`` once for many executes."""
        return PreparedStatement(self, statement)

    def prepare_cached(
        self, key: Hashable, factory: Callable[[], Query]
    ) -> PreparedStatement:
        """The pooled prepared statement under ``key`` (built on first use).

        The pool is the amortisation point for long-lived components
        that issue one statement per call site (the stored-procedure
        bodies).
        """
        with self._lock:
            prepared = self._statements.get(key)
        if prepared is None:
            prepared = self.prepare(factory())
            with self._lock:
                if len(self._statements) >= self._MAX_STATEMENTS:
                    # Call sites key on constants, so a real pool stays
                    # tiny; the cap guards data-derived key churn.
                    self._statements.clear()
                prepared = self._statements.setdefault(key, prepared)
        return prepared

    def execute(self, statement: Query, **binds: Any) -> Result:
        """Execute ``statement`` once (prefer ``prepare`` for hot shapes).

        Checks the binds as :meth:`prepare` would, then plans the bound
        statement directly: no template, no binder.  Counts as one
        execution and one plan miss.
        """
        spec = _compile(statement)
        _check_binds(_param_names(spec.predicate), binds)
        plan = plan_query(self._database, _bind_spec(spec, binds))
        self._note_execution(False)
        return Result(self._database, plan)

    def call(self, procedure: str, **arguments: Any) -> "ProcedureResult":
        """Run a stored procedure atomically; returns its outcome."""
        return self._database.procedures.call(procedure, **arguments)

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    def stats(self) -> ConnectionStats:
        with self._lock:
            return ConnectionStats(
                name=self.name,
                executions=self._executions,
                plan_cache_hits=self._plan_cache_hits,
                plan_cache_misses=self._plan_cache_misses,
            )

    def _note_execution(self, reused: bool) -> None:
        """Count one execution, as a plan hit when ``reused``."""
        with self._lock:
            self._executions += 1
            if reused:
                self._plan_cache_hits += 1
            else:
                self._plan_cache_misses += 1

    #: Cap on pooled prepared statements (see :meth:`prepare_cached`).
    _MAX_STATEMENTS = 1024
