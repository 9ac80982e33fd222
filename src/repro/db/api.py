"""The unified execution API: ``Connection`` → ``PreparedStatement`` → ``Result``.

Everything the database can execute — scalar queries, aggregates with
HAVING, counts and stored-procedure calls — goes through one calling
convention, the classic prepare/execute split of DB client interfaces::

    conn = database.connect()
    stmt = conn.prepare(
        select("screening").where(eq("movie_id", Param("m"))).limit(5)
    )
    for row in stmt.execute(m=3):          # a streaming Result cursor
        ...

Why prepare/execute: the serving runtime issues the same handful of
statement *shapes* on every turn, differing only in their constants.
The implicit path (``Query.run``) re-fingerprints the whole query tree
on every call to find its cached plan template; ``prepare`` fingerprints
ONCE and every ``execute`` binds the call's constants straight into the
cached template — one stable compiled artifact, many cheap
parameterised executions (the trade-off hybrid-join and HTAP designs
lean on).  ``benchmarks/bench_statement_api.py`` gates the difference.

The three objects:

* :class:`Connection` — a lightweight handle from ``database.connect()``
  owning per-connection statistics, read-lock scoping (``reading()``),
  transaction scoping (``with conn.transaction(): ...``), a
  prepared-statement pool (:meth:`Connection.prepare_cached`) and the
  per-connection index advisor (:meth:`Connection.advisor`).
* :class:`PreparedStatement` — one compiled statement with named
  :class:`Param` placeholders; immutable after ``prepare`` and safe to
  share across threads (every ``execute`` builds its own bound plan, so
  bindings never bleed between concurrent callers).
* :class:`Result` — a streaming cursor (``__iter__``, ``fetchone``,
  ``fetchmany``, ``all``, ``scalar``, ``.plan``/``explain()``) that
  defers materialisation to the consumer instead of always returning
  ``list[Row]``.  Consume it within the read scope it was produced in.

Statements come from three builders: :func:`select` (rows and counts),
:func:`aggregate` (grouped aggregates + HAVING) and :func:`call`
(stored procedures).  Plain :class:`~repro.db.query.Query` objects are
also accepted by ``prepare``/``execute`` for easy migration.

Cached plan *templates* are shared with the implicit ``Query.run`` path
through the database's :class:`~repro.db.engine.cache.PlanCache`, so
both surfaces warm each other and invalidate together on data-version
bumps (committed mutations, index DDL).
"""

from __future__ import annotations

import itertools
import threading
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, Hashable, Iterator, Mapping

from repro.db.aggregation import Aggregate, _engine_exprs
from repro.db.aggregation import aggregate as _reduce_rows
from repro.db.engine import (
    Filter,
    HashJoin,
    PlanNode,
    QuerySpec,
    SeqScan,
    execute_count,
    execute_iter,
    execute_row_ids,
    execute_rows,
    render_plan,
)

# The advisor's notion of an "advisable predicate" must stay in
# lockstep with how the planner decomposes conjunctions.
from repro.db.engine.planner import _and_parts
from repro.db.query import (
    And,
    Comparison,
    Not,
    Or,
    Predicate,
    Query,
)
from repro.db.table import Row
from repro.errors import ProcedureError, QueryError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.db.database import Database
    from repro.db.procedures import ProcedureResult

__all__ = [
    "Param",
    "Statement",
    "SelectStatement",
    "CallStatement",
    "select",
    "aggregate",
    "call",
    "Connection",
    "ConnectionStats",
    "PreparedStatement",
    "Result",
    "IndexAdvisor",
    "IndexSuggestion",
]


# ---------------------------------------------------------------------------
# Named parameters
# ---------------------------------------------------------------------------

class Param:
    """A named placeholder for one statement constant.

    Appears wherever a predicate constant, HAVING constant or procedure
    argument would: ``eq("movie_id", Param("m"))``.  ``execute(m=3)``
    binds it.  Distinct from the engine's positional
    :class:`~repro.db.engine.plan.Param` slots, which the plan cache
    derives internally.
    """

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        if not isinstance(name, str) or not name.isidentifier():
            raise QueryError(
                f"parameter name must be an identifier, got {name!r}"
            )
        self.name = name

    def __repr__(self) -> str:
        return f":{self.name}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Param) and other.name == self.name

    def __hash__(self) -> int:
        return hash((Param, self.name))


def _resolve_value(value: Any, binds: Mapping[str, Any]) -> Any:
    """``value`` with any :class:`Param` (or Params inside an IN-list
    tuple) replaced by its binding."""
    if type(value) is Param:
        return binds[value.name]
    if isinstance(value, tuple) and any(type(e) is Param for e in value):
        return tuple(
            binds[e.name] if type(e) is Param else e for e in value
        )
    return value


def _value_param_names(value: Any, names: set[str]) -> None:
    if type(value) is Param:
        names.add(value.name)
    elif isinstance(value, tuple):
        names.update(e.name for e in value if type(e) is Param)


def _predicate_param_names(predicate: Predicate, names: set[str]) -> None:
    if isinstance(predicate, Comparison):
        _value_param_names(predicate.value, names)
    elif isinstance(predicate, (And, Or)):
        for part in predicate.parts:
            _predicate_param_names(part, names)
    elif isinstance(predicate, Not):
        _predicate_param_names(predicate.part, names)


def _bind_predicate(
    predicate: Predicate, binds: Mapping[str, Any]
) -> Predicate:
    """``predicate`` with named Params substituted (shared, not copied,
    when nothing inside changes)."""
    if isinstance(predicate, Comparison):
        value = _resolve_value(predicate.value, binds)
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
    having = (
        None if spec.having is None else _bind_predicate(spec.having, binds)
    )
    if predicate is spec.predicate and having is spec.having:
        return spec
    return replace(spec, predicate=predicate, having=having)


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

class Statement:
    """Base class of everything :meth:`Connection.prepare` accepts."""


class SelectStatement(Statement, Query):
    """A fluent query/aggregate/count statement with named parameters.

    Extends the fluent :class:`~repro.db.query.Query` builder (``where``
    / ``join`` / ``order_by`` / ``limit`` / projection) with ``count()``,
    grouped aggregation (``group_by`` / ``having``) and named
    :class:`Param` placeholders anywhere a constant goes.
    """

    def __init__(self, table: str) -> None:
        Query.__init__(self, table)
        self._count_only = False
        self._aggregates: dict[str, Aggregate] | None = None
        self._group_by: tuple[str, ...] = ()
        self._having: Predicate | None = None

    # Builder extensions ---------------------------------------------------
    def project(self, *columns: str) -> "SelectStatement":
        """Restrict output columns (alias of ``Query.select``)."""
        self.select(*columns)
        return self

    def count(self) -> "SelectStatement":
        """Turn the statement into a COUNT(*): ``execute().scalar()``."""
        self._count_only = True
        return self

    def group_by(self, *columns: str) -> "SelectStatement":
        self._group_by = tuple(columns)
        return self

    def having(self, predicate: Predicate) -> "SelectStatement":
        """Post-aggregate filter over group keys + aggregate names."""
        self._having = predicate
        return self

    # Legacy-surface overrides ---------------------------------------------
    # Query.run/plan/explain compile only the row query and would
    # silently drop count()/aggregates/group_by/having; statements
    # route through the prepared path instead (parameterised
    # statements require prepare + execute(**binds)).
    def run(self, database: "Database") -> list[Row]:
        """Execute through the database's shared connection.

        Honours ``count()`` (returns ``[{"count": n}]``) and
        aggregates, unlike ``Query.run``.
        """
        return database.default_connection.execute(self).all()

    def plan(self, database: "Database", count_only: bool = False):
        if count_only and not self._count_only:
            raise QueryError(
                "pass count_only via select(...).count(), not plan()"
            )
        prepared = database.default_connection.prepare(self)
        prepared._check_binds({})
        node, __, __profile = prepared._plan_for({})
        return node

    def explain(self, database: "Database", count_only: bool = False) -> str:
        if count_only and not self._count_only:
            raise QueryError(
                "pass count_only via select(...).count(), not explain()"
            )
        return database.default_connection.prepare(self).explain()


class CallStatement(Statement):
    """A stored-procedure call with (possibly parameterised) arguments."""

    def __init__(self, procedure: str, arguments: dict[str, Any]) -> None:
        self.procedure = procedure
        self.arguments = dict(arguments)


def select(table: str) -> SelectStatement:
    """Start a row-returning (or, with ``.count()``, counting) statement."""
    return SelectStatement(table)


def aggregate(
    table: str,
    aggregates: Mapping[str, Aggregate] | None = None,
    **named: Aggregate,
) -> SelectStatement:
    """Start an aggregate statement: ``aggregate("reservation",
    booked=sum_("no_tickets")).group_by("screening_id")``.

    Built-in aggregates push down into the engine; custom reducers fall
    back to materialise-then-reduce, byte-identically.
    """
    statement = SelectStatement(table)
    merged: dict[str, Aggregate] = dict(aggregates or {})
    merged.update(named)
    statement._aggregates = merged
    return statement


def call(procedure: str, **arguments: Any) -> CallStatement:
    """Start a stored-procedure call statement."""
    return CallStatement(procedure, arguments)


# ---------------------------------------------------------------------------
# Index advisor
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IndexSuggestion:
    """One ranked ``CREATE INDEX`` recommendation."""

    table: str
    column: str
    kind: str            # "hash" (equality/IN probes) or "ordered" (ranges)
    misses: int          # executions that scanned instead of probing
    rows_scanned: int    # total rows those scans visited

    @property
    def statement(self) -> str:
        using = " USING ordered" if self.kind == "ordered" else ""
        return f"CREATE INDEX ON {self.table} ({self.column}){using}"

    def apply(self, database: "Database") -> bool:
        """Create the suggested index on ``database`` (DDL); idempotent.

        Takes the commit latch for the existence check *and* the build,
        so two concurrent ``apply`` calls of the same suggestion cannot
        double-build: the loser observes the winner's index and no-ops
        with a warning.  Returns ``True`` when the index was created,
        ``False`` on the already-exists no-op.
        """
        with database.write_locked():
            table = database.table(self.table)
            exists = (
                table.has_ordered_index(self.column)
                if self.kind == "ordered"
                else table.has_index(self.column)
            )
            if exists:
                warnings.warn(
                    f"{self.statement}: equivalent index already exists; "
                    "skipping",
                    stacklevel=2,
                )
                return False
            if self.kind == "ordered":
                database.create_ordered_index(self.table, self.column)
            else:
                database.create_index(self.table, self.column)
            return True


class IndexAdvisor:
    """Tallies SeqScan+Filter executions an index would have served.

    The planner settles for a sequential scan whenever an
    equality/range predicate names a column without a hash/ordered
    index; every such execution records a *miss* here, weighted by the
    rows the scan visited, so :meth:`suggestions` ranks the indexes by
    the work they would have saved.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # (table, column, kind) -> [misses, rows_scanned]
        self._misses: dict[tuple[str, str, str], list[int]] = {}

    def record(self, table: str, column: str, kind: str, rows: int) -> None:
        with self._lock:
            entry = self._misses.setdefault((table, column, kind), [0, 0])
            entry[0] += 1
            entry[1] += rows

    def record_all(
        self, misses: list[tuple[str, str, str, int]]
    ) -> None:
        for table, column, kind, rows in misses:
            self.record(table, column, kind, rows)

    @property
    def total_misses(self) -> int:
        with self._lock:
            return sum(entry[0] for entry in self._misses.values())

    def suggestions(
        self, database: "Database | None" = None
    ) -> list[IndexSuggestion]:
        """Ranked recommendations, most rows-saved first.

        With ``database``, columns that have since gained the suggested
        index (``suggestion.apply``, manual DDL) are filtered out — the
        tallies record history, the suggestions describe what is still
        missing.
        """
        with self._lock:
            items = [
                IndexSuggestion(table, column, kind, misses, rows)
                for (table, column, kind), (misses, rows)
                in self._misses.items()
            ]
        if database is not None:
            items = [
                s for s in items
                if s.table in database and not (
                    database.table(s.table).has_ordered_index(s.column)
                    if s.kind == "ordered"
                    else database.table(s.table).has_index(s.column)
                )
            ]
        items.sort(key=lambda s: (-s.rows_scanned, -s.misses, s.table, s.column))
        return items


def _index_misses(
    database: "Database", plan: PlanNode
) -> list[tuple[str, str, str, int]]:
    """``(table, column, kind, rows_scanned)`` per advisable predicate
    in ``plan``'s SeqScan+Filter subtrees and per unindexed join key."""
    out: list[tuple[str, str, str, int]] = []
    stack = [plan]
    while stack:
        node = stack.pop()
        if isinstance(node, HashJoin):
            # The planner builds a transient hash table per execution;
            # a hash index on the inner key would unlock the
            # index-nested-loop (and the vectorized bucket-probe) path.
            inner = database.table(node.table)
            if not inner.has_index(node.target_column):
                out.append(
                    (node.table, node.target_column, "hash", len(inner))
                )
        if isinstance(node, Filter) and isinstance(node.child, SeqScan):
            table = database.table(node.child.table)
            names = table.schema.column_names  # tuple; few entries
            for part in _and_parts(node.predicate):
                if not isinstance(part, Comparison) or part.column not in names:
                    continue
                if part.op in ("==", "in"):
                    if not table.has_index(part.column):
                        out.append((table.name, part.column, "hash", len(table)))
                elif part.op in ("<", "<=", ">", ">="):
                    if not table.has_ordered_index(part.column):
                        out.append(
                            (table.name, part.column, "ordered", len(table))
                        )
        stack.extend(node.children())
    return out


# ---------------------------------------------------------------------------
# Result
# ---------------------------------------------------------------------------

class Result:
    """A streaming cursor over one execution's output.

    Rows materialise as the consumer pulls them — ``__iter__`` and
    ``fetchmany`` stream, ``all()`` drains what remains, ``scalar()``
    reads the first value of the next row.  ``.plan`` / ``explain()``
    expose the executed physical plan.  Procedure results carry their
    outcome in ``.value`` and render rows via the
    :class:`~repro.db.procedures.ProcedureResult` row view, so query
    and procedure results are interchangeable to a consumer that
    iterates.

    Consume a streaming result inside the read scope it was produced
    in (e.g. ``with conn.reading(): ...``): the cursor reads table
    storage as it advances.
    """

    def __init__(
        self,
        connection: "Connection",
        *,
        plan: PlanNode | None = None,
        stream: bool = False,
        rows: list[Row] | None = None,
        procedure_result: "ProcedureResult | None" = None,
    ) -> None:
        self._connection = connection
        self._plan = plan
        self._procedure_result = procedure_result
        # While the consumer has not started streaming, ``all()`` can
        # take the bulk executor path (columnwise materialisation, no
        # per-row generator frame); the first fetch/iteration switches
        # to the lazy cursor.
        self._pending = stream and plan is not None
        if rows is not None:
            self._source: Iterator[Row] = iter(rows)
        elif procedure_result is not None:
            self._source = iter(procedure_result.rows())
        else:
            self._source = iter(())

    def _start_stream(self) -> Iterator[Row]:
        if self._pending:
            self._pending = False
            self._source = execute_iter(self._connection.database, self._plan)
        return self._source

    # ------------------------------------------------------------------
    @property
    def plan(self) -> PlanNode | None:
        """The executed physical plan (``None`` for procedure calls)."""
        return self._plan

    def explain(self) -> str:
        """EXPLAIN output of the executed plan."""
        if self._plan is None:
            raise QueryError("procedure results have no query plan")
        return render_plan(self._plan)

    @property
    def procedure_result(self) -> "ProcedureResult | None":
        return self._procedure_result

    @property
    def value(self) -> Any:
        """A procedure call's raw outcome value."""
        if self._procedure_result is None:
            raise QueryError("not a procedure result")
        return self._procedure_result.value

    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Row]:
        source = self._start_stream()
        fetched = 0
        try:
            for row in source:
                fetched += 1
                yield row
        finally:
            if fetched:
                self._connection._note_rows(fetched)

    def fetchone(self) -> Row | None:
        """The next row, or ``None`` when the cursor is exhausted."""
        row = next(self._start_stream(), None)
        if row is not None:
            self._connection._note_rows(1)
        return row

    def fetchmany(self, n: int) -> list[Row]:
        """Up to ``n`` more rows (fewer at the end, ``[]`` when done)."""
        if n < 0:
            raise QueryError("fetchmany size must be non-negative")
        rows = list(itertools.islice(self._start_stream(), n))
        if rows:
            self._connection._note_rows(len(rows))
        return rows

    def all(self) -> list[Row]:
        """Every remaining row, materialised.

        An unstarted cursor drains through the bulk executor path
        (columnwise materialisation); a started one finishes streaming.
        """
        if self._pending:
            self._pending = False
            rows = execute_rows(self._connection.database, self._plan)
        else:
            rows = list(self._source)
        if rows:
            self._connection._note_rows(len(rows))
        return rows

    def scalar(self) -> Any:
        """First value of the next row (``None`` when exhausted/empty).

        The natural reader for counts and ungrouped aggregates:
        ``conn.execute(select("movie").count()).scalar()``.
        """
        row = self.fetchone()
        if row is None:
            return None
        return next(iter(row.values()), None)

    def row_ids(self) -> list[int]:
        """Root-table row ids of an access-path/filter-only plan.

        Independent of the cursor (re-runs the plan id-wise); used by
        candidate tracking, which keys snapshots on internal row ids.
        """
        if self._plan is None:
            raise QueryError("procedure results have no row ids")
        return execute_row_ids(self._connection.database, self._plan)


# ---------------------------------------------------------------------------
# PreparedStatement
# ---------------------------------------------------------------------------

class PreparedStatement:
    """One statement, compiled and fingerprinted once.

    ``execute(**binds)`` substitutes named parameters straight into the
    cached plan template — no per-call fingerprinting — and returns a
    :class:`Result`.  Instances are immutable after ``prepare`` and
    safe to share across threads: every execution builds its own bound
    plan, so concurrent ``execute`` calls never see each other's
    bindings.
    """

    def __init__(self, connection: "Connection", statement: Statement | Query) -> None:
        self._connection = connection
        self._database = connection.database
        self.statement = statement
        if isinstance(statement, CallStatement):
            self._init_call(statement)
        elif isinstance(statement, Query):
            self._init_query(statement)
        else:
            raise QueryError(
                f"cannot prepare {type(statement).__name__!r} "
                "(expected a select/aggregate/call statement or a Query)"
            )

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def _init_call(self, statement: CallStatement) -> None:
        registry = self._database.procedures
        procedure = registry.get(statement.procedure)  # validates the name
        known = set(procedure.parameter_names)
        unknown = set(statement.arguments) - known
        if unknown:
            raise ProcedureError(
                f"procedure {statement.procedure!r}: "
                f"unknown arguments {sorted(unknown)}"
            )
        self._kind = "call"
        self._procedure = statement.procedure
        self._arguments = dict(statement.arguments)
        names: set[str] = set()
        for value in self._arguments.values():
            _value_param_names(value, names)
        self._param_names = frozenset(names)
        self._spec = None
        self._aggregates: dict[str, Aggregate] | None = None
        self._having: Predicate | None = None
        self._group_by: tuple[str, ...] = ()

    def _init_query(self, statement: Query) -> None:
        aggregates = getattr(statement, "_aggregates", None)
        count_only = getattr(statement, "_count_only", False)
        having = getattr(statement, "_having", None)
        group_by = getattr(statement, "_group_by", ())
        self._procedure = None
        self._arguments = {}
        self._aggregates = None
        self._having = None
        self._group_by = ()
        self._count_name = "count"
        if aggregates is not None:
            if count_only:
                raise QueryError(
                    "count() cannot be combined with aggregates "
                    "(use a count() aggregate instead)"
                )
            self._compile_aggregate(statement, aggregates, group_by, having)
        elif group_by or having is not None:
            raise QueryError("group_by/having require aggregates")
        elif count_only:
            self._kind = "count"
            self._fingerprint_spec(statement.compile(count_only=True))
        else:
            self._kind = "rows"
            self._fingerprint_spec(statement.compile())

    def _compile_aggregate(
        self,
        statement: Query,
        aggregates: dict[str, Aggregate],
        group_by: tuple[str, ...],
        having: Predicate | None,
    ) -> None:
        if not aggregates:
            raise QueryError("at least one aggregate is required")
        exprs = _engine_exprs(aggregates)
        if exprs is None:
            # Custom reducers: plan the row query, reduce in Python —
            # exactly the aggregate_query fallback.
            self._kind = "aggregate_python"
            self._aggregates = dict(aggregates)
            self._group_by = tuple(group_by)
            self._having = having
            self._fingerprint_spec(statement.compile())
            if having is not None:
                names = set(self._param_names)
                _predicate_param_names(having, names)
                self._param_names = frozenset(names)
            return
        if having is None and not group_by and len(aggregates) == 1:
            (name, agg), = aggregates.items()
            if agg.builtin and agg.column is None and agg.name == "count":
                # Bare COUNT(*): a CountOnly plan, no materialisation.
                self._kind = "aggregate_count"
                self._count_name = name
                self._fingerprint_spec(statement.compile(count_only=True))
                return
        self._kind = "rows"
        self._fingerprint_spec(
            replace(
                statement.compile(),
                aggregates=exprs,
                group_by=tuple(group_by),
                having=having,
            )
        )

    def _fingerprint_spec(self, spec: QuerySpec) -> None:
        """The one-time shape analysis every ``execute`` amortises.

        Parameterising the spec into the compile shape and compiling
        the bind program are deferred further still — to the first
        template miss (the shape) and to the connection's shared
        per-template profile cache (the binder), so one-shot
        ``Connection.execute`` calls of a warm shape pay neither.
        """
        from repro.db.engine import fingerprint_spec

        self._spec = spec
        fingerprint, slots = fingerprint_spec(spec)
        if fingerprint is None:
            # Value-dependent shape: planned per execution, uncached.
            self._fingerprint = None
            self._slots: tuple = ()
            names: set[str] = set()
            _predicate_param_names(spec.predicate, names)
            if spec.having is not None:
                _predicate_param_names(spec.having, names)
        else:
            self._fingerprint = fingerprint
            self._slots = slots
            names = set()
            for value in slots:
                _value_param_names(value, names)
        self._param_names = frozenset(names)

    # ------------------------------------------------------------------
    @property
    def param_names(self) -> frozenset[str]:
        """Names ``execute`` requires as keyword bindings."""
        return self._param_names

    def _check_binds(self, binds: Mapping[str, Any]) -> None:
        if binds.keys() == self._param_names:
            return
        missing = self._param_names - binds.keys()
        if missing:
            raise QueryError(
                f"missing parameter bindings: {sorted(missing)}"
            )
        unknown = binds.keys() - self._param_names
        raise QueryError(f"unknown parameter bindings: {sorted(unknown)}")

    def _plan_for(
        self, binds: Mapping[str, Any]
    ) -> tuple[PlanNode, bool | None, tuple | None]:
        """``(bound plan, template hit, profile)`` for one execution.

        The hot path.  ``hit`` and ``profile`` are ``None`` on the
        uncacheable-shape path (planned per execution through
        :meth:`PlanCache.plan`, which attributes its own bypass/hit
        accounting).  The profile is returned, never stored on the
        statement: instances are shared across threads, and a stashed
        profile could be overwritten by a concurrent execution that
        observed a newer template.
        """
        cache = self._database.plan_cache
        if self._fingerprint is None:
            return cache.plan(_bind_spec(self._spec, binds)), None, None
        params = tuple(_resolve_value(v, binds) for v in self._slots)
        template, hit = cache.template_for(
            self._fingerprint, self._spec, params
        )
        profile = self._connection._profile_for(self._fingerprint, template)
        plan = cache.bind_or_replan(
            profile[1], params, lambda: _bind_spec(self._spec, binds)
        )
        return plan, hit, profile

    # ------------------------------------------------------------------
    def execute(self, **binds: Any) -> Result:
        """Bind ``binds`` and execute; returns a :class:`Result` cursor."""
        self._check_binds(binds)
        connection = self._connection
        if self._kind == "call":
            arguments = {
                name: _resolve_value(value, binds)
                for name, value in self._arguments.items()
            }
            outcome = connection._call_procedure(self._procedure, arguments)
            return Result(connection, procedure_result=outcome)
        database = self._database
        plan, hit, profile = self._plan_for(binds)
        if profile is None:
            # Uncacheable shape: attribute against the bound plan.
            connection._note_execution(
                plan, int(hit is True), int(hit is False)
            )
        else:
            connection._note_prepared(hit, profile[2])
        if self._kind == "count":
            n = execute_count(database, plan)
            return Result(connection, plan=plan, rows=[{"count": n}])
        if self._kind == "aggregate_count":
            n = execute_count(database, plan)
            return Result(connection, plan=plan, rows=[{self._count_name: n}])
        if self._kind == "aggregate_python":
            rows = execute_rows(database, plan)
            having = (
                None if self._having is None
                else _bind_predicate(self._having, binds)
            )
            reduced = _reduce_rows(
                rows, self._aggregates, list(self._group_by) or None, having
            )
            return Result(connection, plan=plan, rows=reduced)
        return Result(connection, plan=plan, stream=True)

    def explain(self, **binds: Any) -> str:
        """EXPLAIN output for the plan ``execute(**binds)`` would run."""
        if self._kind == "call":
            raise QueryError("procedure calls have no query plan")
        self._check_binds(binds)
        plan, __, __profile = self._plan_for(binds)
        return render_plan(plan)


# ---------------------------------------------------------------------------
# Connection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConnectionStats:
    """Snapshot of one connection's counters."""

    name: str
    statements_prepared: int
    executions: int
    rows_returned: int
    procedure_calls: int
    transactions_committed: int
    transactions_aborted: int
    plan_cache_hits: int
    plan_cache_misses: int
    index_misses: int

    @property
    def plan_cache_hit_rate(self) -> float:
        total = self.plan_cache_hits + self.plan_cache_misses
        return self.plan_cache_hits / total if total else 0.0


_connection_counter = itertools.count(1)


class Connection:
    """A lightweight execution handle over one database.

    Cheap to create (``database.connect()``), safe to share across
    threads; owns per-connection statistics, a prepared-statement pool
    and an index advisor.  The serving runtime gives every session its
    own connection, so per-session stats come for free.
    """

    def __init__(self, database: "Database", name: str | None = None) -> None:
        self._database = database
        self.name = name or f"conn-{next(_connection_counter)}"
        self._lock = threading.Lock()
        self._statements: dict[Hashable, PreparedStatement] = {}
        # fingerprint -> (template, compiled binder, advisor misses):
        # shared across every statement of a shape on this connection,
        # so repeated one-shot executes compile the bind program once.
        self._profiles: dict[tuple, tuple] = {}
        self._advisor = IndexAdvisor()
        self._statements_prepared = 0
        self._executions = 0
        self._rows_returned = 0
        self._procedure_calls = 0
        self._transactions_committed = 0
        self._transactions_aborted = 0
        self._plan_cache_hits = 0
        self._plan_cache_misses = 0

    @property
    def database(self) -> "Database":
        return self._database

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Connection({self.name!r})"

    # ------------------------------------------------------------------
    # Prepare / execute
    # ------------------------------------------------------------------
    def prepare(self, statement: Statement | Query) -> PreparedStatement:
        """Compile + fingerprint ``statement`` once for many executes."""
        prepared = PreparedStatement(self, statement)
        with self._lock:
            self._statements_prepared += 1
        return prepared

    def prepare_cached(
        self, key: Hashable, factory: Callable[[], Statement | Query]
    ) -> PreparedStatement:
        """The pooled prepared statement under ``key`` (built on first use).

        The pool is the amortisation point for long-lived components
        that issue one shape per call site (candidate refinement, the
        entity linker's pools, stored-procedure bodies).
        """
        with self._lock:
            prepared = self._statements.get(key)
        if prepared is None:
            prepared = self.prepare(factory())
            with self._lock:
                if len(self._statements) >= self._MAX_PROFILES:
                    # Call sites key on constants, so a real pool stays
                    # tiny; the cap guards data-derived key churn, like
                    # the profile cache's.
                    self._statements.clear()
                prepared = self._statements.setdefault(key, prepared)
        return prepared

    def execute(self, statement: Statement | Query, **binds: Any) -> Result:
        """One-shot prepare + execute (prefer ``prepare`` for hot shapes)."""
        return self.prepare(statement).execute(**binds)

    def call(self, procedure: str, **arguments: Any) -> Result:
        """Run a stored procedure atomically; returns its Result."""
        outcome = self._call_procedure(procedure, arguments)
        return Result(self, procedure_result=outcome)

    # ------------------------------------------------------------------
    # Lock / transaction scoping
    # ------------------------------------------------------------------
    def reading(self):
        """Pinned snapshot scope: every read inside observes one
        consistent generation (consume streaming results inside it).
        Writers commit freely alongside — the scope never blocks them."""
        return self._database.read_locked()

    @contextmanager
    def transaction(self):
        """An atomic multi-statement scope under the commit latch.

        Commits on normal exit, rolls back (undoing every mutation) on
        exception.  Nests inside an enclosing transaction without
        committing it.  Concurrent readers keep scanning their pinned
        snapshots throughout; they observe the whole transaction or
        none of it.
        """
        database = self._database
        with database.write_locked():
            manager = database.transactions
            owns = not manager.in_transaction()
            if owns:
                manager.begin()
            try:
                yield self
            except BaseException:
                if owns:
                    manager.rollback()
                    with self._lock:
                        self._transactions_aborted += 1
                raise
            else:
                if owns:
                    manager.commit()
                    with self._lock:
                        self._transactions_committed += 1

    # ------------------------------------------------------------------
    # Shim surface (Query.run / aggregate_query delegate here)
    # ------------------------------------------------------------------
    def run_query(self, query: Query) -> list[Row]:
        """Materialised rows of ``query`` (the ``Query.run`` shim path)."""
        plan = self._plan_spec(query.compile())
        rows = execute_rows(self._database, plan)
        self._note_rows(len(rows))
        return rows

    def count_query(self, query: Query) -> int:
        """Matching-row count of ``query`` (the ``Query.count`` shim path)."""
        plan = self._plan_spec(query.compile(count_only=True))
        return execute_count(self._database, plan)

    def run_aggregate(
        self,
        query: Query,
        aggregates: Mapping[str, Aggregate],
        group_by: list[str] | None = None,
        having: Predicate | None = None,
    ) -> list[Row]:
        """Aggregate ``query`` in the engine (the ``aggregate_query`` shim).

        Delegates to the prepared path: the statement adopts the
        query's builder state, so the shim and
        :class:`PreparedStatement` aggregates cannot diverge.
        """
        statement = SelectStatement(query.table)
        statement.__dict__.update(query.__dict__)
        statement._count_only = False
        statement._aggregates = dict(aggregates)
        statement._group_by = tuple(group_by or ())
        statement._having = having
        return self.prepare(statement).execute().all()

    # ------------------------------------------------------------------
    # Stats / advisor
    # ------------------------------------------------------------------
    def stats(self) -> ConnectionStats:
        with self._lock:
            return ConnectionStats(
                name=self.name,
                statements_prepared=self._statements_prepared,
                executions=self._executions,
                rows_returned=self._rows_returned,
                procedure_calls=self._procedure_calls,
                transactions_committed=self._transactions_committed,
                transactions_aborted=self._transactions_aborted,
                plan_cache_hits=self._plan_cache_hits,
                plan_cache_misses=self._plan_cache_misses,
                index_misses=self._advisor.total_misses,
            )

    def advisor(self) -> list[IndexSuggestion]:
        """Ranked CREATE INDEX suggestions from this connection's misses
        (suggestions already satisfied by an existing index are elided)."""
        return self._advisor.suggestions(self._database)

    def note_plan_cache(self, hits: int, misses: int) -> None:
        """Attribute externally-measured plan-cache traffic (the serving
        runtime charges a turn's thread-local delta to the session's
        connection)."""
        with self._lock:
            self._plan_cache_hits += hits
            self._plan_cache_misses += misses

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _plan_spec(self, spec: QuerySpec) -> PlanNode:
        cache = self._database.plan_cache
        hits0, misses0 = cache.local_counters()
        plan = cache.plan(spec)
        hits1, misses1 = cache.local_counters()
        self._note_execution(plan, hits1 - hits0, misses1 - misses0)
        return plan

    def _note_execution(
        self, plan: PlanNode, cache_hits: int, cache_misses: int
    ) -> None:
        with self._lock:
            self._executions += 1
            self._plan_cache_hits += cache_hits
            self._plan_cache_misses += cache_misses
        database = self._database
        misses = _index_misses(database, plan)
        if misses:
            self._advisor.record_all(misses)
            database.index_advisor.record_all(misses)

    def _note_prepared(
        self, hit: bool, misses: tuple[tuple[str, str, str], ...]
    ) -> None:
        """Per-execute accounting on the prepared hot path: the template
        lookup already established hit/miss, and the advisor misses were
        precomputed per template — (table, column, kind), weighted by
        the table's live cardinality at record time."""
        with self._lock:
            self._executions += 1
            if hit:
                self._plan_cache_hits += 1
            else:
                self._plan_cache_misses += 1
        database = self._database
        if misses:
            shared = database.index_advisor
            for table, column, kind in misses:
                rows = len(database.table(table))
                self._advisor.record(table, column, kind, rows)
                shared.record(table, column, kind, rows)

    def _note_rows(self, n: int) -> None:
        with self._lock:
            self._rows_returned += n

    #: Cap on cached per-shape execution profiles; the shape space of a
    #: real workload is tiny, the cap only guards adversarial churn.
    _MAX_PROFILES = 1024

    def _profile_for(self, fingerprint: tuple, template: PlanNode) -> tuple:
        """``(template, binder, advisor misses)`` per shape.

        Revalidated by template identity: a data-version bump or LRU
        eviction hands back a new template instance, which recompiles
        the bind program and re-derives the advisor misses.
        """
        entry = self._profiles.get(fingerprint)
        if entry is None or entry[0] is not template:
            from repro.db.engine.cache import compile_binder

            entry = (
                template,
                compile_binder(self._database, template),
                tuple(
                    (table, column, kind)
                    for table, column, kind, __ in
                    _index_misses(self._database, template)
                ),
            )
            with self._lock:
                if len(self._profiles) >= self._MAX_PROFILES:
                    self._profiles.clear()
                self._profiles[fingerprint] = entry
        return entry

    def _call_procedure(
        self, procedure: str, arguments: dict[str, Any]
    ) -> "ProcedureResult":
        with self._lock:
            self._procedure_calls += 1
        return self._database.procedures.call(procedure, **arguments)
