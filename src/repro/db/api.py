"""The unified execution API: ``Connection`` → ``PreparedStatement`` → ``Result``.

Everything the database can execute — row queries, grouped aggregates
and stored-procedure calls — goes through one calling convention, the
classic prepare/execute split of DB client interfaces::

    conn = database.connect()
    stmt = conn.prepare(
        select("screening").where(eq("movie_id", Param("m")))
    )
    for row in stmt.execute(m=3):          # a streaming Result cursor
        ...

Why prepare/execute: the serving runtime issues the same handful of
statement *shapes* on every turn, differing only in their constants.
A one-shot ``Connection.execute`` re-fingerprints the whole query tree
on every call to find its cached plan template; ``prepare``
fingerprints ONCE and every ``execute`` binds the call's constants
straight into the cached template — one stable compiled artifact, many
cheap parameterised executions.  ``benchmarks/bench_statement_api.py``
gates the difference.

The three objects:

* :class:`Connection` — a lightweight handle from ``database.connect()``
  owning per-connection counters, read-lock scoping (``reading()``),
  transaction scoping (``with conn.transaction(): ...``) and a
  prepared-statement pool (:meth:`Connection.prepare_cached`).
* :class:`PreparedStatement` — one compiled statement with named
  :class:`Param` placeholders; immutable after ``prepare`` and safe to
  share across threads (every ``execute`` builds its own bound plan, so
  bindings never bleed between concurrent callers).
* :class:`Result` — a streaming cursor (``__iter__``, ``fetchone``,
  ``fetchmany``, ``all``, ``scalar``, ``.plan``/``explain()``) that
  defers materialisation to the consumer instead of always returning
  ``list[Row]``.  Consume it within the read scope it was produced in.

Statements come from three builders: :func:`select` (rows),
:func:`aggregate` (grouped aggregates) and :func:`call` (stored
procedures).  Plain :class:`~repro.db.query.Query` objects are also
accepted by ``prepare``/``execute``.

Cached plan *templates* live in the database's
:class:`~repro.db.engine.cache.PlanCache`, shared by every connection
and invalidated together on data-version bumps (committed mutations,
index DDL).
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, Hashable, Iterator, Mapping

from repro.db.aggregation import Aggregate
from repro.db.engine import (
    AggExpr,
    PlanNode,
    QuerySpec,
    execute_iter,
    execute_row_ids,
    execute_rows,
    render_plan,
)
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
]


# ---------------------------------------------------------------------------
# Named parameters
# ---------------------------------------------------------------------------

class Param:
    """A named placeholder for one statement constant.

    Appears wherever a predicate constant or procedure argument would: ``eq("movie_id", Param("m"))``.  ``execute(m=3)``
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
    if predicate is spec.predicate:
        return spec
    return replace(spec, predicate=predicate)


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

class Statement:
    """Base class of everything :meth:`Connection.prepare` accepts."""


class SelectStatement(Statement, Query):
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


class CallStatement(Statement):
    """A stored-procedure call with (possibly parameterised) arguments."""

    def __init__(self, procedure: str, arguments: dict[str, Any]) -> None:
        self.procedure = procedure
        self.arguments = dict(arguments)


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


def call(procedure: str, **arguments: Any) -> CallStatement:
    """Start a stored-procedure call statement."""
    return CallStatement(procedure, arguments)


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
        procedure_result: "ProcedureResult | None" = None,
    ) -> None:
        self._connection = connection
        self._plan = plan
        self._procedure_result = procedure_result
        # While the consumer has not started streaming, ``all()`` can
        # take the bulk executor path (columnwise materialisation, no
        # per-row generator frame); the first fetch/iteration switches
        # to the lazy cursor.
        self._pending = plan is not None
        if procedure_result is not None:
            self._source: Iterator[Row] = iter(procedure_result.rows())
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

        The natural reader for ungrouped aggregates:
        ``conn.execute(aggregate("movie", n=count())).scalar()``.
        """
        row = self.fetchone()
        if row is None:
            return None
        return next(iter(row.values()), None)

    def row_ids(self) -> list[int]:
        """Row ids of an access-path/filter-only plan.

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

    def _init_query(self, statement: Query) -> None:
        aggregates = getattr(statement, "_aggregates", None)
        group_by = getattr(statement, "_group_by", ())
        self._kind = "rows"
        self._procedure = None
        self._arguments = {}
        spec = statement.compile()
        if aggregates is not None:
            spec = replace(
                spec,
                aggregates=_aggregate_exprs(aggregates),
                group_by=tuple(group_by),
            )
        elif group_by:
            raise QueryError("group_by requires aggregates")
        self._fingerprint_spec(spec)

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
            # Opaque predicate: planned per execution, uncached.
            self._fingerprint = None
            self._slots: tuple = ()
            names: set[str] = set()
            _predicate_param_names(spec.predicate, names)
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
    ) -> tuple[PlanNode, bool | None]:
        """``(bound plan, template hit)`` for one execution.

        The hot path.  ``hit`` is ``None`` on the uncacheable-shape
        path (planned per execution through
        :meth:`PlanCache.plan_uncached`, which counts a bypass).  The
        binder is looked up per call, never stored on the statement:
        instances are shared across threads, and a stashed binder could
        be overwritten by a concurrent execution that observed a newer
        template.
        """
        cache = self._database.plan_cache
        if self._fingerprint is None:
            return cache.plan_uncached(_bind_spec(self._spec, binds)), None
        params = tuple(_resolve_value(v, binds) for v in self._slots)
        template, hit = cache.template_for(
            self._fingerprint, self._spec, params
        )
        __, binder = self._connection._profile_for(self._fingerprint, template)
        plan = cache.bind_or_replan(
            binder, params, lambda: _bind_spec(self._spec, binds)
        )
        return plan, hit

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
        plan, hit = self._plan_for(binds)
        connection._note_execution(hit)
        return Result(connection, plan=plan)

    def plan(self, **binds: Any) -> PlanNode:
        """The plan ``execute(**binds)`` would run."""
        if self._kind == "call":
            raise QueryError("procedure calls have no query plan")
        self._check_binds(binds)
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
    statements_prepared: int
    executions: int
    rows_returned: int
    procedure_calls: int
    transactions_committed: int
    transactions_aborted: int
    plan_cache_hits: int
    plan_cache_misses: int

    @property
    def plan_cache_hit_rate(self) -> float:
        total = self.plan_cache_hits + self.plan_cache_misses
        return self.plan_cache_hits / total if total else 0.0


_connection_counter = itertools.count(1)


class Connection:
    """A lightweight execution handle over one database.

    Cheap to create (``database.connect()``), safe to share across
    threads; owns per-connection counters and a prepared-statement
    pool.  The serving runtime gives every session its own connection,
    so per-session stats come for free.
    """

    def __init__(self, database: "Database", name: str | None = None) -> None:
        self._database = database
        self.name = name or f"conn-{next(_connection_counter)}"
        self._lock = threading.Lock()
        self._statements: dict[Hashable, PreparedStatement] = {}
        # fingerprint -> (template, compiled binder): shared across
        # every statement of a shape on this connection, so repeated
        # one-shot executes compile the bind program once.
        self._profiles: dict[tuple, tuple] = {}
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
    # Stats
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
            )

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
    def _note_execution(self, hit: bool | None) -> None:
        """Per-execute accounting: the template lookup already
        established hit/miss (``None`` for an uncacheable shape)."""
        with self._lock:
            self._executions += 1
            if hit is True:
                self._plan_cache_hits += 1
            elif hit is False:
                self._plan_cache_misses += 1

    def _note_rows(self, n: int) -> None:
        with self._lock:
            self._rows_returned += n

    #: Cap on cached per-shape execution profiles; the shape space of a
    #: real workload is tiny, the cap only guards adversarial churn.
    _MAX_PROFILES = 1024

    def _profile_for(self, fingerprint: tuple, template: PlanNode) -> tuple:
        """``(template, binder)`` per shape.

        Revalidated by template identity: a data-version bump or LRU
        eviction hands back a new template instance, which recompiles
        the bind program.
        """
        entry = self._profiles.get(fingerprint)
        if entry is None or entry[0] is not template:
            from repro.db.engine.cache import compile_binder

            entry = (template, compile_binder(self._database, template))
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
