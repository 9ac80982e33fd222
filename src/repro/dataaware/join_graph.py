"""Foreign-key join paths and candidate-preserving value mapping.

The data-aware policy must evaluate attributes that live in *other*
tables than the entity being identified ("if a customer does not recall
the exact movie title, it might be beneficial to ask for actors appearing
in the movie", Section 4).  For that we need, per candidate root row, the
set of values an attribute takes when the attribute's table is joined in
along the FK path.

:class:`JoinPlanner` finds shortest FK paths from the root table;
:func:`attribute_values` walks one path column by column and returns an
:class:`AttributeValues` entry: a ``root_row_id -> value`` column while
every root reaches at most one row, else ``root_row_id -> frozenset of
values`` (one-to-many hops, i.e. reverse FK edges, yield several values
per root row).  :func:`map_values` returns the frozenset form either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, repeat
from typing import Any, Iterable, NamedTuple, Sequence

from repro.db.catalog import Catalog, ColumnRef
from repro.db.database import Database
from repro.db.table import Table
from repro.db.types import coerce
from repro.errors import PolicyError

__all__ = [
    "AttributeValues",
    "JoinStep",
    "JoinPath",
    "JoinPlanner",
    "attribute_values",
    "map_values",
]

_NO_VALUES: frozenset = frozenset()


@dataclass(frozen=True)
class JoinStep:
    """One hop: match ``source_column`` values against ``target_column``.

    ``source_column``/``target_column`` are bare column names in the
    current table and the next table respectively.
    """

    from_table: str
    to_table: str
    source_column: str
    target_column: str


@dataclass(frozen=True)
class JoinPath:
    """An ordered chain of join steps from the root table to a target table."""

    root: str
    steps: tuple[JoinStep, ...]

    @property
    def target(self) -> str:
        return self.steps[-1].to_table if self.steps else self.root

    @property
    def length(self) -> int:
        return len(self.steps)


class AttributeValues(NamedTuple):
    """One attribute's values per root row id: a value-cache entry.

    A ``single`` entry is a value column: no root row reached more than
    one row of the attribute's table, so ``values`` maps a row id to its
    one value (``None`` for NULL).  Otherwise ``values`` maps every root
    row id to the frozenset of its non-NULL values.  A row id missing
    from ``values`` has no value either way.
    """

    values: dict[int, Any]
    single: bool

    def sets(self, row_ids: Iterable[int]) -> dict[int, frozenset]:
        """``row_id -> value set`` for ``row_ids`` (empty when none)."""
        values = self.values
        if not self.single:
            return {rid: values.get(rid, _NO_VALUES) for rid in row_ids}
        return {
            rid: _NO_VALUES if (value := values.get(rid)) is None
            else frozenset((value,))
            for rid in row_ids
        }


class JoinPlanner:
    """Computes and caches FK join paths from one root table."""

    def __init__(self, catalog: Catalog, root: str) -> None:
        self._catalog = catalog
        self.root = root
        self._paths: dict[str, JoinPath | None] = {root: JoinPath(root, ())}

    def path_to(self, table: str) -> JoinPath | None:
        """Shortest FK path from the root to ``table`` (``None`` if absent)."""
        if table in self._paths:
            return self._paths[table]
        node_path = self._catalog.join_path(self.root, table)
        if node_path is None:
            self._paths[table] = None
            return None
        steps: list[JoinStep] = []
        for left, right in zip(node_path, node_path[1:]):
            link = self._catalog.fk_between(left, right)
            if link is None:  # pragma: no cover - join_path implies an edge
                raise PolicyError(f"no foreign key between {left} and {right}")
            fk_table, fk = link
            if fk_table == left:
                # left has the FK pointing at right.
                steps.append(JoinStep(left, right, fk.column, fk.target_column))
            else:
                # right references left: reverse hop (one-to-many).
                steps.append(JoinStep(left, right, fk.target_column, fk.column))
        path = JoinPath(self.root, tuple(steps))
        self._paths[table] = path
        return path


def map_values(
    database: Database,
    path: JoinPath,
    attribute: ColumnRef,
    root_row_ids: list[int],
) -> dict[int, frozenset]:
    """Per root row, the set of ``attribute`` values reachable along ``path``.

    Rows whose chain dead-ends (NULL FK, no referencing rows) map to an
    empty set.  NULL attribute values are dropped from the result sets.
    """
    return attribute_values(database, path, attribute, root_row_ids).sets(
        root_row_ids
    )


def attribute_values(
    database: Database,
    path: JoinPath,
    attribute: ColumnRef,
    root_row_ids: Sequence[int],
) -> AttributeValues:
    """Per root row, the values of ``attribute`` reachable along ``path``.

    The walk reads columns, not rows: each hop gathers the join column
    of every row reached so far with one :meth:`Table.column_values`
    call, so the reader's snapshot visibility is resolved once per hop
    instead of once per row.  While no root has reached more than one
    row the walk keeps one current row per root and ends in a value
    column.  The first fan-out switches it to a row set per root, built
    and visited in the order a row-at-a-time walk uses, so multi-valued
    entries hold exactly the frozensets such a walk builds.
    """
    if attribute.table != path.target:
        raise PolicyError(
            f"attribute {attribute} does not live on path target {path.target!r}"
        )
    current = database.table(path.root)
    # root row id -> the one current-table row it reached (dead ends drop
    # out) until a hop fans out; from then on root row id -> row set.
    reached = dict(zip(root_row_ids, root_row_ids))
    frontier: dict[int, set[int]] | None = None
    for step in path.steps:
        if frontier is None:
            matches = _joined(database, current, step, list(reached.values()))
            if all(len(match) <= 1 for match in matches):
                reached = {
                    root: match[0]
                    for root, match in zip(reached, matches)
                    if match
                }
            else:
                matched = dict(zip(reached, map(set, matches)))
                frontier = {
                    root: matched.get(root, set()) for root in root_row_ids
                }
        else:
            flat = [row for rows in frontier.values() for row in rows]
            matches = iter(_joined(database, current, step, flat))
            next_frontier: dict[int, set[int]] = {}
            for root, rows in frontier.items():
                joined: set[int] = set()
                for match in islice(matches, len(rows)):
                    joined.update(match)
                next_frontier[root] = joined
            frontier = next_frontier
        current = database.table(step.to_table)
    if frontier is None:
        values = current.column_values(attribute.column, list(reached.values()))
        return AttributeValues(dict(zip(reached, values)), True)
    flat = [row for rows in frontier.values() for row in rows]
    values = iter(current.column_values(attribute.column, flat))
    return AttributeValues(
        {
            root: frozenset(
                {v for v in islice(values, len(rows)) if v is not None}
            )
            for root, rows in frontier.items()
        },
        False,
    )


def _joined(
    database: Database, current: Table, step: JoinStep, rows: list[int]
) -> list[Sequence[int]]:
    """For each of ``rows`` (row ids of ``current``), the ascending ids of
    the ``step.to_table`` rows it joins to."""
    next_table = database.table(step.to_table)
    # Build vs probe from exact sizes: probing visits about
    # len(rows) * (rows per key) rows of the next table, building visits
    # all of them, so on NULL-free keys probing wins exactly when the
    # frontier is shorter than the key count (O(1) on an index).  A
    # wide frontier (or a fat fanout, e.g. a junction table) amortises
    # one build pass.
    use_index = (
        next_table.has_index(step.target_column)
        and len(rows) < next_table.distinct_count(step.target_column)
    )
    probe = (
        None if use_index
        else build_probe_map(next_table, step.target_column)
    )
    keys = current.column_values(step.source_column, rows)
    if probe is None:
        column = step.target_column
        return [
            () if key is None else next_table.lookup(column, key)
            for key in keys
        ]
    dtype = next_table.schema.column(step.target_column).dtype
    if current.schema.column(step.source_column).dtype is not dtype:
        # Stored values are canonical for their own column's type, so
        # only a cross-typed hop needs its keys coerced.
        keys = [coerce(key, dtype) for key in keys]
    return list(map(probe.get, keys, repeat(())))


def build_probe_map(table, column: str) -> dict[Any, list[int]]:
    """``value -> row ids`` (ascending) for one column — the build side
    of a hash join.  Values are the stored, canonical column values;
    NULLs are excluded.  Reads the column's bank directly.
    """
    bank = table.bank_map()[column]
    slots = table.scan_slots()
    ids = table.ids_for_slots(slots)
    probe: dict[Any, list[int]] = {}
    for rid, value in zip(ids, map(bank.__getitem__, slots)):
        if value is None:
            continue
        probe.setdefault(value, []).append(rid)
    return probe
