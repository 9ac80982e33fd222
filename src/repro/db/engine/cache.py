"""The prepared-plan cache: one planning pass per query *shape*.

The serving runtime issues the same handful of query shapes on every
turn — candidate refinement probes, count checks, the booked-seats
aggregate — differing only in their constants.  Planning one of these
costs a statistics-catalog consultation plus access-path enumeration;
this module amortises that to one compilation per (shape, data version):

1. :func:`fingerprint_spec` reduces a :class:`QuerySpec` to a structural
   *fingerprint* (a nested plain tuple — cheap to hash on every lookup)
   plus the tuple of extracted constants; equal-shape queries with
   different constants produce the same fingerprint.  On a miss,
   :func:`parameterize_spec` additionally builds the spec with every
   constant replaced by a :class:`~repro.db.engine.plan.Param` slot for
   the planner to compile.
2. The fingerprint maps to a compiled plan *template* through the shared
   :class:`~repro.db.versioncache.VersionStampedCache` protocol, so a
   committed mutation invalidates templates exactly like it invalidates
   the statistics the planner priced them with.  The template is planned
   with the first execution's constants (classic generic-plan
   behaviour) but its nodes carry the slots.
3. :func:`bind_plan` substitutes the current execution's constants into
   the template — re-coercing index bounds exactly as direct planning
   would — yielding a concrete plan for the executor.  Constants a
   template cannot absorb (a value that no longer coerces to the column
   type) fall back to an uncached planning pass, preserving the
   planner's SeqScan + Filter semantics for such values.

Shapes whose plan *structure* depends on the constants (several lower or
upper bounds on one column, where the fold winner is value-dependent)
are refused by :func:`parameterize_spec` and planned per query.

The template store is bounded: at most ``max_entries`` shapes are kept,
evicting least-recently-used templates beyond the cap (an evicted shape
simply recompiles on its next use).  Real workloads stay far below the
default of :data:`DEFAULT_MAX_ENTRIES`; the bound is a guard against
adversarial shape churn, mirroring the session store's LRU policy.

Hit/miss counters are kept globally and per thread; the serving runtime
reads the thread-local counters around a turn to attribute cache traffic
to the session being served.
"""

from __future__ import annotations

import threading
from dataclasses import replace
from typing import TYPE_CHECKING, Any

from repro.db.engine.plan import (
    CountOnly,
    Filter,
    GroupSemiJoin,
    HashAggregate,
    HashJoin,
    IndexAggScan,
    IndexEq,
    IndexGroupedAggScan,
    IndexInList,
    IndexNestedLoopJoin,
    IndexOrUnion,
    IndexRange,
    Param,
    PlanNode,
    Project,
    QuerySpec,
    SeqScan,
    Sort,
    TopN,
)
from repro.db.engine.planner import plan_query
from repro.db.query import (
    And,
    Comparison,
    Not,
    Or,
    Predicate,
    TruePredicate,
)
from repro.db.types import TypeMismatchError, coerce
from repro.db.versioncache import VersionStampedCache
from repro.errors import QueryError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.db.database import Database
    from repro.db.statistics import StatisticsCatalog

__all__ = [
    "DEFAULT_MAX_ENTRIES",
    "PlanCache",
    "fingerprint_spec",
    "parameterize_spec",
    "bind_plan",
    "compile_binder",
]


# ---------------------------------------------------------------------------
# Shape extraction
# ---------------------------------------------------------------------------

class _Uncacheable(Exception):
    """Internal: this spec cannot share a compiled plan across constants."""


class _Unbindable(Exception):
    """Internal: a template cannot absorb this execution's constants."""


_TRUE = TruePredicate()


def fingerprint_spec(spec: QuerySpec) -> tuple[tuple | None, tuple]:
    """``(fingerprint, params)`` for ``spec`` — the cache's hot path.

    The fingerprint is a nested plain tuple (cheap to hash and compare
    — no dataclass machinery) that two specs share exactly when they
    are the same query *shape*: same structure everywhere, constants
    ignored.  ``params`` holds the constants in slot order.  Returns
    ``(None, ())`` for specs whose plan shape depends on the constants
    themselves.
    """
    if _has_value_dependent_shape(spec.predicate):
        return None, ()
    params: list[Any] = []
    try:
        predicate_key = _predicate_key(spec.predicate, params)
        having_key = (
            None if spec.having is None
            else _predicate_key(spec.having, params)
        )
    except _Uncacheable:
        return None, ()
    return (
        (
            spec.table,
            predicate_key,
            spec.joins,
            spec.projection,
            spec.order_by,
            spec.descending,
            spec.limit,
            spec.count_only,
            spec.aggregates,
            spec.group_by,
            having_key,
        ),
        tuple(params),
    )


def _predicate_key(predicate: Predicate, params: list[Any]) -> tuple:
    """Structural key of the predicate; constants append to ``params``
    in the same traversal order :func:`_parameterize_predicate` uses."""
    if isinstance(predicate, TruePredicate):
        return ("true",)
    if isinstance(predicate, Comparison):
        params.append(predicate.value)
        return ("cmp", predicate.column, predicate.op)
    if isinstance(predicate, And):
        return ("and",) + tuple(
            _predicate_key(p, params) for p in predicate.parts
        )
    if isinstance(predicate, Or):
        return ("or",) + tuple(
            _predicate_key(p, params) for p in predicate.parts
        )
    if isinstance(predicate, Not):
        return ("not", _predicate_key(predicate.part, params))
    raise _Uncacheable


def parameterize_spec(spec: QuerySpec) -> tuple[QuerySpec | None, tuple]:
    """Split ``spec`` into ``(shape, params)``.

    The shape is a structurally-equal spec with every comparison
    constant replaced by a parameter slot; ``params`` holds the
    extracted constants in slot order (identical to
    :func:`fingerprint_spec`'s order — both walk the same traversal).
    Returns ``(None, ())`` for specs whose plan shape depends on the
    constants themselves.
    """
    if _has_value_dependent_shape(spec.predicate):
        return None, ()
    params: list[Any] = []
    try:
        predicate = _parameterize_predicate(spec.predicate, params)
        having = (
            None if spec.having is None
            else _parameterize_predicate(spec.having, params)
        )
    except _Uncacheable:
        return None, ()
    return replace(spec, predicate=predicate, having=having), tuple(params)


def _parameterize_predicate(
    predicate: Predicate, params: list[Any]
) -> Predicate:
    if isinstance(predicate, TruePredicate):
        return _TRUE
    if isinstance(predicate, Comparison):
        slot = Param(len(params))
        params.append(predicate.value)
        return Comparison(predicate.column, predicate.op, slot)
    if isinstance(predicate, And):
        return And(
            tuple(_parameterize_predicate(p, params) for p in predicate.parts)
        )
    if isinstance(predicate, Or):
        return Or(
            tuple(_parameterize_predicate(p, params) for p in predicate.parts)
        )
    if isinstance(predicate, Not):
        return Not(_parameterize_predicate(predicate.part, params))
    # A predicate subclass this module does not know cannot be slotted
    # (its constants are invisible); plan such queries directly.
    raise _Uncacheable


def _has_value_dependent_shape(predicate: Predicate) -> bool:
    """Several bounds on one side of one column: the planner folds them
    by comparing the *values*, so the winning slot is not shape-stable."""
    if isinstance(predicate, (TruePredicate, Comparison)):
        return False  # a single part can never fold against another
    lows: dict[str, int] = {}
    highs: dict[str, int] = {}
    for part in _flatten_and(predicate):
        if not isinstance(part, Comparison):
            continue
        if part.op in (">", ">="):
            lows[part.column] = lows.get(part.column, 0) + 1
        elif part.op in ("<", "<="):
            highs[part.column] = highs.get(part.column, 0) + 1
    return any(n > 1 for n in lows.values()) or any(
        n > 1 for n in highs.values()
    )


def _flatten_and(predicate: Predicate) -> list[Predicate]:
    if isinstance(predicate, TruePredicate):
        return []
    if isinstance(predicate, And):
        out: list[Predicate] = []
        for part in predicate.parts:
            out.extend(_flatten_and(part))
        return out
    return [predicate]


# ---------------------------------------------------------------------------
# Template binding
# ---------------------------------------------------------------------------

def bind_plan(
    database: "Database", template: PlanNode, params: tuple
) -> PlanNode:
    """Substitute ``params`` into ``template``, re-coercing index bounds.

    Raises :class:`QueryError` (via the cache's fallback) when a
    constant cannot be absorbed — e.g. it no longer coerces to the
    probed column's type, where direct planning would have chosen a
    different access path.
    """
    if not params:
        return template
    return _bind(database, template, params)


def _bind(database: "Database", node: PlanNode, params: tuple) -> PlanNode:
    if isinstance(node, SeqScan):
        return node
    if isinstance(node, IndexEq):
        if not isinstance(node.value, Param):
            return node
        value = params[node.value.index]
        _check_coercible(database, node.table, node.column, value)
        return replace(node, value=value)
    if isinstance(node, IndexInList):
        if not isinstance(node.values, Param):
            return node
        values = params[node.values.index]
        if isinstance(values, (str, bytes)):
            # ``x in "text"`` is a substring test, not a probe list —
            # only the SeqScan + Filter plan evaluates it correctly.
            raise _Unbindable
        try:
            elements = tuple(values)
        except TypeError:
            raise _Unbindable from None
        for element in elements:
            coerced = _check_coercible(
                database, node.table, node.column, element
            )
            if coerced is None:
                raise _Unbindable
        return replace(node, values=elements)
    if isinstance(node, IndexOrUnion):
        if not any(isinstance(v, Param) for __, v in node.probes):
            return node
        probes = []
        for column, value in node.probes:
            if isinstance(value, Param):
                value = params[value.index]
                # Like IndexEq: a value that no longer coerces needs the
                # SeqScan + Filter plan (None probes match nothing, and
                # the Or re-check keeps results exact either way).
                _check_coercible(database, node.table, column, value)
            probes.append((column, value))
        return replace(node, probes=tuple(probes))
    if isinstance(node, IndexRange):
        low = _bind_bound(database, node, node.low, params)
        high = _bind_bound(database, node, node.high, params)
        if low is node.low and high is node.high:
            return node
        return replace(node, low=low, high=high)
    if isinstance(node, (IndexAggScan, IndexGroupedAggScan)):
        return node
    if isinstance(node, Filter):
        child = _bind(database, node.child, params)
        predicate = _bind_predicate(node.predicate, params)
        if child is node.child and predicate is node.predicate:
            return node
        return replace(node, child=child, predicate=predicate)
    if isinstance(
        node,
        (HashJoin, IndexNestedLoopJoin, GroupSemiJoin, Sort, TopN, Project,
         CountOnly, HashAggregate),
    ):
        child = _bind(database, node.child, params)
        if child is node.child:
            return node
        return replace(node, child=child)
    raise QueryError(  # pragma: no cover - new nodes must be taught here
        f"cannot bind plan node {type(node).__name__}"
    )


def _bind_bound(
    database: "Database", node: IndexRange, bound: Any, params: tuple
) -> Any:
    if not isinstance(bound, Param):
        return bound
    value = params[bound.index]
    coerced = _check_coercible(database, node.table, node.column, value)
    if coerced is None:
        # Direct planning treats a NULL bound as unusable and scans.
        raise _Unbindable
    return coerced


def _check_coercible(
    database: "Database", table_name: str, column: str, value: Any
) -> Any:
    dtype = database.table(table_name).schema.column(column).dtype
    try:
        return coerce(value, dtype)
    except TypeMismatchError:
        raise _Unbindable from None


# ---------------------------------------------------------------------------
# Compiled binders (the PreparedStatement fast path)
# ---------------------------------------------------------------------------

def compile_binder(database: "Database", template: PlanNode):
    """A specialised bind function for one ``template`` instance.

    ``bind_plan`` re-discovers per call which nodes carry Param slots
    and what column types their constants must coerce to; a prepared
    statement executes one template thousands of times, so this
    compiles that discovery once into a closure tree: static subtrees
    collapse to the template's own nodes, slot-carrying nodes capture
    their coercion targets.  Returns ``fn(params) -> PlanNode`` with
    exactly ``bind_plan``'s semantics (including raising the internal
    unbindable signal handled by :meth:`PlanCache.bind_or_replan`).
    """
    binder = _compile_node_binder(database, template)
    if binder is None:
        return lambda params: template
    return binder


def _compile_node_binder(database: "Database", node: PlanNode):
    """``fn(params) -> node`` or ``None`` when the subtree is static."""
    if isinstance(node, (SeqScan, IndexAggScan, IndexGroupedAggScan)):
        return None
    if isinstance(node, IndexEq):
        if not isinstance(node.value, Param):
            return None
        dtype = database.table(node.table).schema.column(node.column).dtype
        index = node.value.index

        def bind_eq(params, node=node, dtype=dtype, index=index):
            value = params[index]
            try:
                coerce(value, dtype)
            except TypeMismatchError:
                raise _Unbindable from None
            return replace(node, value=value)

        return bind_eq
    if isinstance(node, IndexInList):
        if not isinstance(node.values, Param):
            return None
        dtype = database.table(node.table).schema.column(node.column).dtype
        index = node.values.index

        def bind_in(params, node=node, dtype=dtype, index=index):
            values = params[index]
            if isinstance(values, (str, bytes)):
                raise _Unbindable
            try:
                elements = tuple(values)
            except TypeError:
                raise _Unbindable from None
            for element in elements:
                try:
                    coerced = coerce(element, dtype)
                except TypeMismatchError:
                    raise _Unbindable from None
                if coerced is None:
                    raise _Unbindable
            return replace(node, values=elements)

        return bind_in
    if isinstance(node, IndexOrUnion):
        if not any(isinstance(v, Param) for __, v in node.probes):
            return None
        schema = database.table(node.table).schema
        slots = tuple(
            (column, value, schema.column(column).dtype
             if isinstance(value, Param) else None)
            for column, value in node.probes
        )

        def bind_or(params, node=node, slots=slots):
            probes = []
            for column, value, dtype in slots:
                if dtype is not None:
                    value = params[value.index]
                    try:
                        coerce(value, dtype)
                    except TypeMismatchError:
                        raise _Unbindable from None
                probes.append((column, value))
            return replace(node, probes=tuple(probes))

        return bind_or
    if isinstance(node, IndexRange):
        if not isinstance(node.low, Param) and not isinstance(node.high, Param):
            return None
        dtype = database.table(node.table).schema.column(node.column).dtype

        def coerce_bound(value):
            try:
                coerced = coerce(value, dtype)
            except TypeMismatchError:
                raise _Unbindable from None
            if coerced is None:
                raise _Unbindable
            return coerced

        low_index = node.low.index if isinstance(node.low, Param) else None
        high_index = node.high.index if isinstance(node.high, Param) else None

        def bind_range(params, node=node):
            low = node.low if low_index is None else \
                coerce_bound(params[low_index])
            high = node.high if high_index is None else \
                coerce_bound(params[high_index])
            return replace(node, low=low, high=high)

        return bind_range
    if isinstance(node, Filter):
        child = _compile_node_binder(database, node.child)
        predicate = _compile_predicate_binder(node.predicate)
        if child is None and predicate is None:
            return None

        def bind_filter(params, node=node, child=child, predicate=predicate):
            return replace(
                node,
                child=node.child if child is None else child(params),
                predicate=node.predicate if predicate is None
                else predicate(params),
            )

        return bind_filter
    if isinstance(
        node,
        (HashJoin, IndexNestedLoopJoin, GroupSemiJoin, Sort, TopN, Project,
         CountOnly, HashAggregate),
    ):
        child = _compile_node_binder(database, node.child)
        if child is None:
            return None

        def bind_unary(params, node=node, child=child):
            return replace(node, child=child(params))

        return bind_unary
    raise QueryError(  # pragma: no cover - new nodes must be taught here
        f"cannot compile a binder for {type(node).__name__}"
    )


def _compile_predicate_binder(predicate: Predicate):
    """``fn(params) -> predicate`` or ``None`` for static predicates."""
    if isinstance(predicate, Comparison):
        if not isinstance(predicate.value, Param):
            return None
        column, op, index = predicate.column, predicate.op, predicate.value.index
        return lambda params: Comparison(column, op, params[index])
    if isinstance(predicate, (And, Or)):
        binders = tuple(
            _compile_predicate_binder(p) for p in predicate.parts
        )
        if not any(binders):
            return None
        cls = type(predicate)
        parts = predicate.parts

        def bind_parts(params, cls=cls, parts=parts, binders=binders):
            return cls(
                tuple(
                    part if binder is None else binder(params)
                    for part, binder in zip(parts, binders)
                )
            )

        return bind_parts
    if isinstance(predicate, Not):
        inner = _compile_predicate_binder(predicate.part)
        if inner is None:
            return None
        return lambda params: Not(inner(params))
    return None


def _bind_predicate(predicate: Predicate, params: tuple) -> Predicate:
    if isinstance(predicate, Comparison):
        if isinstance(predicate.value, Param):
            return Comparison(
                predicate.column, predicate.op, params[predicate.value.index]
            )
        return predicate
    if isinstance(predicate, And):
        return And(
            tuple(_bind_predicate(p, params) for p in predicate.parts)
        )
    if isinstance(predicate, Or):
        return Or(
            tuple(_bind_predicate(p, params) for p in predicate.parts)
        )
    if isinstance(predicate, Not):
        return Not(_bind_predicate(predicate.part, params))
    return predicate


# ---------------------------------------------------------------------------
# The cache
# ---------------------------------------------------------------------------

#: Default cap on cached plan templates.  Real workloads issue a
#: handful of shapes; the bound exists so an adversarial client cannot
#: grow the shape space (and the cache) without limit.
DEFAULT_MAX_ENTRIES = 512


class PlanCache:
    """Version-stamped, LRU-bounded ``shape -> plan template`` cache.

    Thread-safe via the shared :class:`VersionStampedCache` protocol:
    hits never take the database lock, rebuilds run under the shared
    read lock and stamp the data version they observed, racing rebuilds
    converge on the freshest template.  Entries are capped at
    ``max_entries`` with least-recently-used eviction (like the serving
    session store), so unbounded query-shape churn cannot exhaust
    memory; evictions are counted for the runtime's observability
    surface.
    """

    def __init__(
        self,
        database: "Database",
        statistics: "StatisticsCatalog | None" = None,
        max_entries: int | None = DEFAULT_MAX_ENTRIES,
    ) -> None:
        self._database = database
        self._statistics = statistics
        self._cache = VersionStampedCache(database, max_entries=max_entries)
        self._local = threading.local()
        self._bypass_lock = threading.Lock()
        self._bypasses = 0

    # ------------------------------------------------------------------
    @property
    def hits(self) -> int:
        """Global template-cache hits (across all threads)."""
        return self._cache.hits

    @property
    def misses(self) -> int:
        """Global template-cache misses (compilations)."""
        return self._cache.misses

    @property
    def bypasses(self) -> int:
        """Queries planned directly because their shape is uncacheable."""
        return self._bypasses

    @property
    def evictions(self) -> int:
        """Templates dropped by the LRU bound (not by invalidation)."""
        return self._cache.evictions

    def __len__(self) -> int:
        """Number of currently cached templates (stale ones included)."""
        return len(self._cache)

    def local_counters(self) -> tuple[int, int]:
        """(hits, misses) attributed to the calling thread.

        The serving runtime snapshots these around a turn — turns hold
        the session's turn lock on the calling thread, so the delta is
        exactly the turn's cache traffic.
        """
        return (
            getattr(self._local, "hits", 0),
            getattr(self._local, "misses", 0),
        )

    def _count(self, hit: bool) -> None:
        if hit:
            self._local.hits = getattr(self._local, "hits", 0) + 1
        else:
            self._local.misses = getattr(self._local, "misses", 0) + 1

    # ------------------------------------------------------------------
    def plan(self, spec: QuerySpec) -> PlanNode:
        """The (bound, concrete) plan for ``spec`` — cached when possible."""
        fingerprint, params = fingerprint_spec(spec)
        if fingerprint is None:
            with self._bypass_lock:
                self._bypasses += 1
            return plan_query(self._database, spec, self._statistics)
        computed = False

        def compile_template() -> PlanNode:
            nonlocal computed
            computed = True
            # Only a miss pays for building the parameterised spec.
            shape, __ = parameterize_spec(spec)
            return plan_query(
                self._database, shape, self._statistics, params=params
            )

        template = self._cache.lookup(fingerprint, compile_template)
        self._count(hit=not computed)
        try:
            return bind_plan(self._database, template, params)
        except _Unbindable:
            # These constants need a different plan shape (failed
            # coercion etc.); plan them directly, outside the cache.
            return plan_query(self._database, spec, self._statistics)

    def template_for(
        self, fingerprint: tuple, spec: QuerySpec, params: tuple
    ) -> tuple[PlanNode, bool]:
        """``(template, hit)`` for a *pre-fingerprinted* spec.

        The :class:`~repro.db.api.PreparedStatement` hot path: the
        statement computed ``fingerprint`` once at prepare time, so
        each execution is a version-stamped dict lookup — no per-call
        spec traversal.  Only a miss parameterises ``spec`` into the
        shape to compile (like :meth:`plan`); ``params`` are the
        execution's concrete constants, used to cost the template
        (classic generic-plan behaviour).
        """
        computed = False

        def compile_template() -> PlanNode:
            nonlocal computed
            computed = True
            shape, __ = parameterize_spec(spec)
            return plan_query(
                self._database, shape, self._statistics, params=params
            )

        template = self._cache.lookup(fingerprint, compile_template)
        self._count(hit=not computed)
        return template, not computed

    def bind_or_replan(
        self, binder, params: tuple, spec_factory
    ) -> PlanNode:
        """Run a compiled :func:`compile_binder` closure, falling back to
        an uncached planning pass (via ``spec_factory``'s concrete spec)
        when a constant cannot be absorbed by the template — exactly
        :meth:`plan`'s unbindable fallback."""
        try:
            return binder(params)
        except _Unbindable:
            return plan_query(self._database, spec_factory(), self._statistics)

    def invalidate(self) -> None:
        """Drop every template (they also refresh lazily via the stamps)."""
        self._cache.invalidate()
