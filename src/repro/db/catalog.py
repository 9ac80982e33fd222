"""Introspection helpers: everything CAT extracts "for free" from the DB.

The paper's central observation is that the information a dialogue-system
developer would normally hand-specify (tasks, slots, slot types, affected
tables) "is typically already available in the given database and the set
of its transactions".  :class:`Catalog` is that extraction surface: a
read-only view over schema, procedures and foreign-key topology used by
:mod:`repro.annotation.extraction`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.db.procedures import Procedure
from repro.db.schema import Column, ForeignKey, TableSchema
from repro.db.types import DataType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.db.database import Database

__all__ = ["ColumnRef", "Catalog"]


@dataclass(frozen=True, order=True)
class ColumnRef:
    """A fully qualified column reference ``table.column``."""

    table: str
    column: str

    def __str__(self) -> str:
        return f"{self.table}.{self.column}"


class Catalog:
    """Read-only introspection over a database."""

    def __init__(self, database: "Database") -> None:
        self._database = database

    # ------------------------------------------------------------------
    # Schema
    # ------------------------------------------------------------------
    @property
    def database(self) -> "Database":
        return self._database

    def tables(self) -> list[TableSchema]:
        return list(self._database.schema)

    def columns(self, table: str) -> list[Column]:
        return list(self._database.schema.table(table).columns)

    def column_type(self, ref: ColumnRef) -> DataType:
        return self._database.schema.table(ref.table).column(ref.column).dtype

    def primary_key(self, table: str) -> str | None:
        return self._database.schema.table(table).primary_key

    def foreign_keys(self, table: str) -> list[ForeignKey]:
        return list(self._database.schema.table(table).foreign_keys)

    def all_column_refs(self) -> list[ColumnRef]:
        refs: list[ColumnRef] = []
        for table in self.tables():
            refs.extend(ColumnRef(table.name, c.name) for c in table.columns)
        return refs

    # ------------------------------------------------------------------
    # Procedures
    # ------------------------------------------------------------------
    def procedures(self) -> list[Procedure]:
        return list(self._database.procedures)

    def procedure(self, name: str) -> Procedure:
        return self._database.procedures.get(name)

    # ------------------------------------------------------------------
    # Foreign-key topology
    # ------------------------------------------------------------------
    def is_junction_table(self, name: str) -> bool:
        """True for pure N:M junction tables (every column is the PK or an FK).

        Junction tables carry no askable attributes of their own; the
        iterative join expansion should treat hopping *through* them as a
        single logical join (movie -> movie_actor -> actor counts as one
        hop from movie to actor).
        """
        schema = self._database.schema.table(name)
        fk_columns = {fk.column for fk in schema.foreign_keys}
        if len(fk_columns) < 2:
            return False
        for column in schema.columns:
            if column.name == schema.primary_key:
                continue
            if column.name not in fk_columns:
                return False
        return True

    def identification_graph(self) -> dict[str, dict[str, float]]:
        """``table -> {neighbour: weight}`` over the joins that *describe*
        an entity.

        From a table you may hop (a) forward along its own foreign keys —
        the referenced row is a property of the entity (screening ->
        movie) — and (b) into a pure junction table that references it,
        and onward out of the junction (movie -> movie_actor -> actor:
        the cast is a set-valued property of the movie).  Reverse fan-in
        joins (screening <- reservation) are excluded: the rows referencing
        an entity describe *other* entities, and asking the user about
        them ("whose reservation is on this screening?") is nonsensical.

        Edges touching a junction table weigh 0.5 so that traversing a
        junction counts as one logical join.  Every table is a key, and
        when two foreign keys give the same edge the later one's weight
        stands.
        """
        graph: dict[str, dict[str, float]] = {
            table.name: {} for table in self.tables()
        }
        for table in self.tables():
            junction = self.is_junction_table(table.name)
            for fk in table.foreign_keys:
                graph[table.name][fk.target_table] = 0.5 if junction else 1.0
                if junction:
                    # Entering the junction from the referenced side.
                    graph[fk.target_table][table.name] = 0.5
        return graph

    def tables_within(self, root: str, max_hops: int) -> dict[str, int]:
        """Tables reachable from ``root`` within ``max_hops`` logical joins.

        Returns ``table -> hop distance`` (the root maps to 0), the
        distance being the shortest path's weight rounded down.  This
        bounds the paper's iterative join expansion; reachability follows
        :meth:`identification_graph`.
        """
        graph = self.identification_graph()
        if root not in graph:
            return {root: 0}
        return {
            table: int(distance)
            for table, (distance, __) in _shortest_paths(
                graph, root, max_hops
            ).items()
        }

    def join_path(self, source: str, target: str) -> list[str] | None:
        """Shortest identification-join path between two tables, or ``None``.

        Among paths of equal weight the one whose sequence of table names
        sorts first wins.
        """
        graph = self.identification_graph()
        if source not in graph or target not in graph:
            return None
        found = _shortest_paths(graph, source).get(target)
        return None if found is None else list(found[1])

    def fk_between(self, left: str, right: str) -> tuple[str, ForeignKey] | None:
        """The FK connecting two adjacent tables (either direction)."""
        for table_name, other in ((left, right), (right, left)):
            schema = self._database.schema.table(table_name)
            for fk in schema.foreign_keys:
                if fk.target_table == other:
                    return (table_name, fk)
        return None


def _shortest_paths(
    graph: dict[str, dict[str, float]],
    root: str,
    cutoff: float | None = None,
) -> dict[str, tuple[float, tuple[str, ...]]]:
    """Dijkstra from ``root``: ``table -> (distance, path)`` for every
    table within ``cutoff`` (inclusive).

    The heap orders partial paths by ``(distance, path)``, so each table
    is settled by the least such pair: the shortest path, ties going to
    the name sequence that sorts first.  With positive weights extending
    two paths to one table by the same edge keeps their order, so the
    first pop of a table is its least pair over all simple paths.
    """
    settled: dict[str, tuple[float, tuple[str, ...]]] = {}
    heap: list[tuple[float, tuple[str, ...]]] = [(0.0, (root,))]
    while heap:
        distance, path = heapq.heappop(heap)
        table = path[-1]
        if table in settled:
            continue
        settled[table] = (distance, path)
        for neighbour, weight in graph[table].items():
            reach = distance + weight
            if neighbour in settled or (cutoff is not None and reach > cutoff):
                continue
            heapq.heappush(heap, (reach, path + (neighbour,)))
    return settled
