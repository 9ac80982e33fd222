"""Foreign-key join paths and candidate-preserving value mapping.

The data-aware policy must evaluate attributes that live in *other*
tables than the entity being identified ("if a customer does not recall
the exact movie title, it might be beneficial to ask for actors appearing
in the movie", Section 4).  For that we need, per candidate root row, the
set of values an attribute takes when the attribute's table is joined in
along the FK path.

:class:`JoinPlanner` finds shortest FK paths from the root table;
:func:`map_values` walks one path and returns ``root_row_id -> frozenset
of attribute values``.  One-to-many hops (reverse FK edges) naturally
yield multiple values per root row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.db.catalog import Catalog, ColumnRef
from repro.db.database import Database
from repro.db.types import coerce
from repro.errors import PolicyError

__all__ = ["JoinStep", "JoinPath", "JoinPlanner", "map_values"]


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

    Each hop picks a join strategy: a frontier wider than the next
    table builds one shared probe map (a hash join's build side); a
    narrow frontier against an indexed column probes the hash index per
    row instead.
    """
    if attribute.table != path.target:
        raise PolicyError(
            f"attribute {attribute} does not live on path target {path.target!r}"
        )
    root_table = database.table(path.root)
    # frontier: root_row_id -> set of current-table row ids
    frontier: dict[int, set[int]] = {rid: {rid} for rid in root_row_ids}
    current = root_table
    for step in path.steps:
        next_table = database.table(step.to_table)
        dtype = next_table.schema.column(step.target_column).dtype
        frontier_size = sum(len(ids) for ids in frontier.values())
        # A build-vs-probe decision priced with the statistics catalog:
        # probing pays one index lookup per expected match per frontier
        # row, building pays one pass over the next table.  A narrow
        # frontier against a low-fanout column probes; a wide frontier
        # (or a fat fanout, e.g. a junction table) amortises a single
        # build pass.
        use_index = (
            next_table.has_index(step.target_column)
            and frontier_size * database.statistics.matches_per_key(
                step.to_table, step.target_column
            ) < len(next_table)
        )
        probe = (
            None if use_index
            else build_probe_map(next_table, step.target_column)
        )
        next_frontier: dict[int, set[int]] = {}
        for root_id, row_ids in frontier.items():
            matched: set[int] = set()
            for row_id in row_ids:
                value = current.row_view(row_id).get(step.source_column)
                if value is None:
                    continue
                if probe is None:
                    matched.update(
                        next_table.lookup(step.target_column, value)
                    )
                else:
                    matched.update(probe.get(coerce(value, dtype), ()))
            next_frontier[root_id] = matched
        frontier = next_frontier
        current = next_table
    result: dict[int, frozenset] = {}
    for root_id, row_ids in frontier.items():
        values = set()
        for row_id in row_ids:
            value = current.row_view(row_id).get(attribute.column)
            if value is not None:
                values.add(value)
        result[root_id] = frozenset(values)
    return result


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
