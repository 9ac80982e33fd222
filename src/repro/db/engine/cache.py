"""Plan templates for prepared statements: one planning pass per statement.

The serving runtime issues the same handful of prepared statements on
every turn — candidate refinement probes, the booked-seats aggregate,
the linker's value pools — differing only in their constants.  Each
:class:`~repro.db.api.PreparedStatement` keeps its own plan template,
so planning happens once per statement and index set of its table:

1. At prepare time :func:`parameterize_spec` splits the statement's
   :class:`QuerySpec` into its *shape*, with every constant replaced by
   a :class:`~repro.db.engine.plan.Param` slot, and the tuple of
   constants in slot order.
2. The first execution plans the shape with its own constants (classic
   generic-plan behaviour: they decide which index probes coerce) into
   a *template* whose nodes carry the slots.  The planner reads nothing
   of the table but its hash-index columns, so the statement keeps the
   template until they change.
3. :func:`compile_binder` turns the template into a bind function that
   substitutes an execution's constants into a fresh plan tree.  A
   constant the template cannot absorb (an index probe value that does
   not coerce to the column type) raises :class:`Unbindable`, and the
   statement plans the bound spec directly instead, preserving the
   planner's SeqScan + Filter plan for such values.

No predicate makes a plan's *structure* depend on its constants, so
every shape has a template.  A predicate subclass other than the
:mod:`repro.db.query` combinators hides its constants from the shape
and is rejected at prepare time.
"""

from __future__ import annotations

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
from repro.db.query import (
    And,
    Comparison,
    Not,
    Or,
    Predicate,
    TruePredicate,
)
from repro.db.types import TypeMismatchError, coerce
from repro.errors import QueryError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.db.database import Database

__all__ = ["Unbindable", "parameterize_spec", "compile_binder"]


# ---------------------------------------------------------------------------
# Shape extraction
# ---------------------------------------------------------------------------

class Unbindable(Exception):
    """A template cannot absorb this execution's constants."""


_TRUE = TruePredicate()


def parameterize_spec(spec: QuerySpec) -> tuple[QuerySpec, tuple]:
    """Split ``spec`` into ``(shape, params)``.

    The shape is a structurally-equal spec with every comparison
    constant replaced by a parameter slot; ``params`` holds the
    extracted constants in slot order.  Raises :class:`QueryError` for
    a predicate subclass this module does not know, whose constants
    are invisible.
    """
    params: list[Any] = []
    predicate = _parameterize_predicate(spec.predicate, params)
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
    raise QueryError(
        f"cannot prepare a {type(predicate).__name__} predicate (build "
        "predicates from the repro.db.query combinators)"
    )


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
    ``fn(params) -> PlanNode``, which raises :class:`Unbindable` for a
    probe constant that does not coerce to its column's type.
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
                raise Unbindable from None
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
