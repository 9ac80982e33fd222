"""Plan templates for prepared statements: one planning pass per statement.

The serving runtime issues the same two prepared statements on every
booking or listing turn — the booked-seats aggregate and the screening
list — differing only in their named parameters' values.  Each
:class:`~repro.db.api.PreparedStatement` keeps its own plan template,
so planning happens once per statement and index set of its table:

1. The first execution plans the statement with its own bindings
   (classic generic-plan behaviour: they decide which index probes
   coerce) into a *template* whose nodes keep the named
   :class:`~repro.db.engine.plan.Param` placeholders; literal constants
   stay as written.  The planner reads nothing of the table but its
   hash-index columns, so the statement keeps the template until they
   change.
2. :func:`compile_binder` turns the template into a bind function that
   substitutes an execution's bindings into a fresh plan tree; a
   template without placeholders is static and served as is.  A value
   the template cannot absorb (an index probe value that does not
   coerce to the column type) raises :class:`Unbindable`, and the
   statement plans the bound spec directly instead, preserving the
   planner's SeqScan + Filter plan for such values.

No predicate makes a plan's *structure* depend on its constants, so
every statement has a template.  A predicate subclass other than the
:mod:`repro.db.query` combinators could hide placeholders from the
binder and is rejected at prepare time.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING

from repro.db.engine.plan import (
    Filter,
    HashAggregate,
    IndexEq,
    IndexGroupedAggScan,
    PlanNode,
    SeqScan,
    bind_value,
    has_param,
)
from repro.db.query import And, Comparison, Not, Or, Predicate
from repro.db.types import TypeMismatchError, coerce
from repro.errors import QueryError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.db.database import Database

__all__ = ["Unbindable", "compile_binder"]


class Unbindable(Exception):
    """A template cannot absorb this execution's bindings."""


# ---------------------------------------------------------------------------
# Compiled binders (the PreparedStatement fast path)
# ---------------------------------------------------------------------------

def compile_binder(database: "Database", template: PlanNode):
    """A specialised bind function for one ``template`` instance.

    A prepared statement executes one template thousands of times, so
    the discovery of which nodes carry named parameters and what column
    types their values must coerce to happens once, here, into a
    closure tree: static subtrees collapse to the template's own nodes,
    parameterised nodes capture their coercion targets.  Returns
    ``fn(binds) -> PlanNode``, which raises :class:`Unbindable` for a
    probe value that does not coerce to its column's type.
    """
    binder = _compile_node_binder(database, template)
    if binder is None:
        return lambda binds: template
    return binder


def _compile_node_binder(database: "Database", node: PlanNode):
    """``fn(binds) -> node`` or ``None`` when the subtree is static."""
    if isinstance(node, (SeqScan, IndexGroupedAggScan)):
        return None
    if isinstance(node, IndexEq):
        if not has_param(node.value):
            return None
        dtype = database.table(node.table).schema.column(node.column).dtype

        def bind_eq(binds, node=node, dtype=dtype):
            value = bind_value(node.value, binds)
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

        def bind_filter(binds, node=node, child=child, predicate=predicate):
            return replace(
                node,
                child=node.child if child is None else child(binds),
                predicate=node.predicate if predicate is None
                else predicate(binds),
            )

        return bind_filter
    if isinstance(node, HashAggregate):
        child = _compile_node_binder(database, node.child)
        if child is None:
            return None

        def bind_aggregate(binds, node=node, child=child):
            return replace(node, child=child(binds))

        return bind_aggregate
    raise QueryError(  # pragma: no cover - new nodes must be taught here
        f"cannot compile a binder for {type(node).__name__}"
    )


def _compile_predicate_binder(predicate: Predicate):
    """``fn(binds) -> predicate`` or ``None`` for static predicates."""
    if isinstance(predicate, Comparison):
        if not has_param(predicate.value):
            return None
        column, op, value = predicate.column, predicate.op, predicate.value
        return lambda binds: Comparison(column, op, bind_value(value, binds))
    if isinstance(predicate, (And, Or)):
        binders = tuple(
            _compile_predicate_binder(p) for p in predicate.parts
        )
        if not any(binders):
            return None
        cls = type(predicate)
        parts = predicate.parts

        def bind_parts(binds, cls=cls, parts=parts, binders=binders):
            return cls(
                tuple(
                    part if binder is None else binder(binds)
                    for part, binder in zip(parts, binders)
                )
            )

        return bind_parts
    if isinstance(predicate, Not):
        inner = _compile_predicate_binder(predicate.part)
        if inner is None:
            return None
        return lambda binds: Not(inner(binds))
    return None
