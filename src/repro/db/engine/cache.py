"""The prepared-plan cache: one planning pass per query *shape*.

The serving runtime issues the same handful of query shapes on every
turn — candidate refinement probes, the booked-seats aggregate, the
linker's value pools — differing only in their constants.  Planning one
of these costs a statistics-catalog consultation plus access-path
enumeration; this module amortises that to one compilation per (shape,
data version):

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
3. :func:`compile_binder` turns a template into a bind function that
   substitutes an execution's constants into a fresh plan tree.  A
   constant the template cannot absorb (an index probe value that does
   not coerce to the column type) falls back to an uncached planning
   pass, preserving the planner's SeqScan + Filter plan for such
   values.

No built-in predicate makes a plan's *structure* depend on its
constants, so every shape built from them is cacheable; only predicate
subclasses this module cannot see into are planned per query.

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
    ``(None, ())`` for specs whose predicate hides its constants (a
    predicate subclass this module does not know).
    """
    params: list[Any] = []
    try:
        predicate_key = _predicate_key(spec.predicate, params)
    except _Uncacheable:
        return None, ()
    return (
        (spec.table, predicate_key, spec.aggregates, spec.group_by),
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
    Returns ``(None, ())`` for specs :func:`fingerprint_spec` refuses.
    """
    params: list[Any] = []
    try:
        predicate = _parameterize_predicate(spec.predicate, params)
    except _Uncacheable:
        return None, ()
    return replace(spec, predicate=predicate), tuple(params)


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


# ---------------------------------------------------------------------------
# Compiled binders (the PreparedStatement fast path)
# ---------------------------------------------------------------------------

def compile_binder(database: "Database", template: PlanNode):
    """A specialised bind function for one ``template`` instance.

    A prepared statement executes one template thousands of times, so
    the discovery of which nodes carry Param slots and what column types
    their constants must coerce to happens once, here, into a closure
    tree: static subtrees collapse to the template's own nodes,
    slot-carrying nodes capture their coercion targets.  Returns
    ``fn(params) -> PlanNode``, which raises the internal unbindable
    signal (handled by :meth:`PlanCache.bind_or_replan`) for a probe
    constant that does not coerce to its column's type.
    """
    binder = _compile_node_binder(database, template)
    if binder is None:
        return lambda params: template
    return binder


def _compile_node_binder(database: "Database", node: PlanNode):
    """``fn(params) -> node`` or ``None`` when the subtree is static."""
    if isinstance(node, (SeqScan, IndexGroupedAggScan)):
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
    if isinstance(node, HashAggregate):
        child = _compile_node_binder(database, node.child)
        if child is None:
            return None

        def bind_aggregate(params, node=node, child=child):
            return replace(node, child=child(params))

        return bind_aggregate
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
    def plan_uncached(self, spec: QuerySpec) -> PlanNode:
        """Plan ``spec`` directly, counted as a bypass: its shape cannot
        share a template (see :func:`fingerprint_spec`)."""
        with self._bypass_lock:
            self._bypasses += 1
        return plan_query(self._database, spec, self._statistics)

    def template_for(
        self, fingerprint: tuple, spec: QuerySpec, params: tuple
    ) -> tuple[PlanNode, bool]:
        """``(template, hit)`` for a *pre-fingerprinted* spec.

        The :class:`~repro.db.api.PreparedStatement` hot path: the
        statement computed ``fingerprint`` once at prepare time, so
        each execution is a version-stamped dict lookup — no per-call
        spec traversal.  Only a miss parameterises ``spec`` into the
        shape to compile; ``params`` are the execution's concrete
        constants, used to cost the template (classic generic-plan
        behaviour).
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
        when a constant cannot be absorbed by the template."""
        try:
            return binder(params)
        except _Unbindable:
            return plan_query(self._database, spec_factory(), self._statistics)

    def invalidate(self) -> None:
        """Drop every template (they also refresh lazily via the stamps)."""
        self._cache.invalidate()
