"""Aggregates for grouped statements: count/sum/avg/min/max/count distinct.

Complements :mod:`repro.db.query` with the handful of aggregates an OLTP
workload needs (e.g. "seats already booked for this screening").  The
constructors here name a reduction; an aggregate statement
(:func:`repro.db.api.aggregate`) runs them inside the engine.

Example
-------
>>> from repro.db import api
>>> from repro.db.aggregation import count, sum_
>>> statement = api.aggregate("reservation", booked=sum_("no_tickets"),
...                           reservations=count()).group_by("screening_id")
>>> rows = database.connect().execute(statement).all()   # doctest: +SKIP
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "Aggregate",
    "count",
    "sum_",
    "avg",
    "min_",
    "max_",
    "count_distinct",
]


@dataclass(frozen=True)
class Aggregate:
    """A reduction over a group of rows.

    ``name`` is the reduction (``count``, ``sum``, ``avg``, ``min``,
    ``max`` or ``count_distinct``); ``column`` is its input, ``None``
    for ``COUNT(*)``.  NULL values never reach a column reduction.
    """

    name: str
    column: str | None


def count() -> Aggregate:
    """``COUNT(*)`` — number of rows in the group."""
    return Aggregate("count", None)


def count_distinct(column: str) -> Aggregate:
    """``COUNT(DISTINCT column)`` over non-NULL values."""
    return Aggregate("count_distinct", column)


def sum_(column: str) -> Aggregate:
    """``SUM(column)`` over non-NULL values (0 for empty groups)."""
    return Aggregate("sum", column)


def avg(column: str) -> Aggregate:
    """``AVG(column)`` over non-NULL values (None for empty groups)."""
    return Aggregate("avg", column)


def min_(column: str) -> Aggregate:
    """``MIN(column)`` over non-NULL values (None for empty groups)."""
    return Aggregate("min", column)


def max_(column: str) -> Aggregate:
    """``MAX(column)`` over non-NULL values (None for empty groups)."""
    return Aggregate("max", column)
