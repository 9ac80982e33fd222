"""Predicate and query layer over :class:`repro.db.table.Table`.

This is not a SQL parser; it is a small relational-algebra API sufficient
for the agent runtime: typed comparison predicates with boolean
combinators over one table.  Execution goes through the unified API in
:mod:`repro.db.api` — a connection prepares the query, the engine in
:mod:`repro.db.engine` plans it from the table's index DDL and
executes the plan; ``explain()`` shows the chosen plan.

Example
-------
>>> from repro.db.query import eq, and_, Query
>>> query = Query("screening").where(and_(eq("movie_id", 3), eq("date", "2022-03-26")))
>>> rows = database.connect().execute(query).all()   # doctest: +SKIP
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.db.table import Row
from repro.errors import QueryError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.db.database import Database

__all__ = [
    "Predicate",
    "Comparison",
    "And",
    "Or",
    "Not",
    "TruePredicate",
    "eq",
    "ne",
    "lt",
    "le",
    "gt",
    "ge",
    "contains",
    "in_",
    "and_",
    "or_",
    "not_",
    "Query",
]


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------

class Predicate:
    """Base class of the predicate expression tree."""

    def matches(self, row: Row) -> bool:
        raise NotImplementedError

    def columns(self) -> set[str]:
        """All column names mentioned by this predicate."""
        raise NotImplementedError

    def equality_bindings(self) -> dict[str, Any]:
        """``column -> value`` for top-level AND-ed equality comparisons.

        Used by the executor to pick hash indexes.
        """
        return {}


_OPERATORS: dict[str, Callable[[Any, Any], bool]] = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "contains": lambda a, b: isinstance(a, str)
    and isinstance(b, str)
    and b.lower() in a.lower(),
    "in": lambda a, b: a in b,
}


@dataclass(frozen=True)
class Comparison(Predicate):
    """``column <op> value`` with NULL-rejecting semantics (like SQL)."""

    column: str
    op: str
    value: Any

    def __post_init__(self) -> None:
        if self.op not in _OPERATORS:
            raise QueryError(f"unknown comparison operator {self.op!r}")

    def matches(self, row: Row) -> bool:
        if self.column not in row:
            raise QueryError(f"row has no column {self.column!r}")
        actual = row[self.column]
        if actual is None:
            return False
        try:
            return _OPERATORS[self.op](actual, self.value)
        except TypeError:
            return False

    def columns(self) -> set[str]:
        return {self.column}

    def equality_bindings(self) -> dict[str, Any]:
        if self.op == "==":
            return {self.column: self.value}
        return {}


@dataclass(frozen=True)
class And(Predicate):
    parts: tuple[Predicate, ...]

    def matches(self, row: Row) -> bool:
        return all(part.matches(row) for part in self.parts)

    def columns(self) -> set[str]:
        out: set[str] = set()
        for part in self.parts:
            out |= part.columns()
        return out

    def equality_bindings(self) -> dict[str, Any]:
        out: dict[str, Any] = {}
        for part in self.parts:
            out.update(part.equality_bindings())
        return out


@dataclass(frozen=True)
class Or(Predicate):
    parts: tuple[Predicate, ...]

    def matches(self, row: Row) -> bool:
        return any(part.matches(row) for part in self.parts)

    def columns(self) -> set[str]:
        out: set[str] = set()
        for part in self.parts:
            out |= part.columns()
        return out


@dataclass(frozen=True)
class Not(Predicate):
    part: Predicate

    def matches(self, row: Row) -> bool:
        return not self.part.matches(row)

    def columns(self) -> set[str]:
        return self.part.columns()


class TruePredicate(Predicate):
    """Matches every row; the identity element for AND.

    All instances are interchangeable, and compare (and hash) equal so
    that plans and query shapes containing one compare equal.
    """

    def matches(self, row: Row) -> bool:
        return True

    def columns(self) -> set[str]:
        return set()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TruePredicate)

    def __hash__(self) -> int:
        return hash(TruePredicate)


# Convenience constructors -------------------------------------------------

def eq(column: str, value: Any) -> Comparison:
    return Comparison(column, "==", value)


def ne(column: str, value: Any) -> Comparison:
    return Comparison(column, "!=", value)


def lt(column: str, value: Any) -> Comparison:
    return Comparison(column, "<", value)


def le(column: str, value: Any) -> Comparison:
    return Comparison(column, "<=", value)


def gt(column: str, value: Any) -> Comparison:
    return Comparison(column, ">", value)


def ge(column: str, value: Any) -> Comparison:
    return Comparison(column, ">=", value)


def contains(column: str, needle: str) -> Comparison:
    """Case-insensitive substring match on a text column."""
    return Comparison(column, "contains", needle)


def in_(column: str, values: Iterable[Any]) -> Comparison:
    from repro.db.api import Param

    if isinstance(values, Param):
        # A named placeholder for the whole list: the prepared-statement
        # API binds the tuple at execute time.
        return Comparison(column, "in", values)
    return Comparison(column, "in", tuple(values))


def and_(*parts: Predicate) -> Predicate:
    flat = [p for p in parts if not isinstance(p, TruePredicate)]
    if not flat:
        return TruePredicate()
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def or_(*parts: Predicate) -> Predicate:
    if not parts:
        raise QueryError("or_() needs at least one predicate")
    if len(parts) == 1:
        return parts[0]
    return Or(tuple(parts))


def not_(part: Predicate) -> Not:
    return Not(part)


# ---------------------------------------------------------------------------
# Query
# ---------------------------------------------------------------------------

class Query:
    """A fluent single-table query: ``Query("movie").where(eq("year", 1995))``.

    Execute it through a connection (``conn.execute(query)`` or
    ``conn.prepare(query)``); :func:`repro.db.api.select` builds the
    same query as a statement with named parameters.
    """

    def __init__(self, table: str) -> None:
        self.table = table
        self._predicate: Predicate = TruePredicate()

    def where(self, predicate: Predicate) -> "Query":
        """AND ``predicate`` into the query's filter."""
        self._predicate = and_(self._predicate, predicate)
        return self

    def compile(self):
        """The logical :class:`~repro.db.engine.plan.QuerySpec` of this query."""
        from repro.db.engine import QuerySpec

        return QuerySpec(table=self.table, predicate=self._predicate)

    def plan(self, database: "Database"):
        """The physical plan the engine would execute.

        Planned as a one-shot statement on the database's default
        connection; prepare a statement to keep its plan across
        executions.
        """
        return database.default_connection.prepare(self).plan()

    def explain(self, database: "Database") -> str:
        """EXPLAIN output: the chosen plan tree."""
        return database.default_connection.prepare(self).explain()
