"""Reference data-aware loop: the row-at-a-time paths the value columns
replaced.

Every step is plain Python over one row at a time:

* :func:`map_values` walks a join path through ``Table.row_view``, one
  snapshot resolution per visited row, and joins each key with one
  ``Table.lookup``;
* :func:`full_map` builds a root column with ``Table.get`` per row;
* :class:`ReferenceCandidates` keeps ``row_id -> frozenset`` maps,
  refines with one exact-text scan and one matching scan over the
  candidates, and prunes with ``Table.has_row`` per candidate;
* :class:`ReferenceScorer` sums each candidate's value shares into a
  float dict.

Slow, but obviously right: the differential tests require
:mod:`repro.dataaware` to give identical distributions, scores, rankings
and survivors (``==`` on every float).
"""

from __future__ import annotations

import math
from typing import Any

from repro.dataaware.join_graph import JoinPath, JoinPlanner
from repro.db.api import Param, select
from repro.db.catalog import Catalog, ColumnRef
from repro.db.database import Database
from repro.db.query import eq
from repro.db.types import DataType, TypeMismatchError, coerce
from repro.errors import PolicyError
from repro.textutil import damerau_levenshtein

UNKNOWN = object()  # category for candidates with no value for the attribute


def map_values(
    database: Database,
    path: JoinPath,
    attribute: ColumnRef,
    root_row_ids: list[int],
) -> dict[int, frozenset]:
    """Per root row, the set of ``attribute`` values along ``path``."""
    if attribute.table != path.target:
        raise PolicyError(
            f"attribute {attribute} does not live on path target {path.target!r}"
        )
    frontier: dict[int, set[int]] = {rid: {rid} for rid in root_row_ids}
    current = database.table(path.root)
    for step in path.steps:
        next_table = database.table(step.to_table)
        next_frontier: dict[int, set[int]] = {}
        for root_id, row_ids in frontier.items():
            matched: set[int] = set()
            for row_id in row_ids:
                value = current.row_view(row_id).get(step.source_column)
                if value is not None:
                    matched.update(
                        next_table.lookup(step.target_column, value)
                    )
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


def full_map(
    database: Database,
    planner: JoinPlanner,
    root_table: str,
    attribute: ColumnRef,
) -> dict[int, frozenset]:
    """``row_id -> value set`` of ``attribute`` for every root row."""
    row_ids = database.table(root_table).row_ids()
    if attribute.table == root_table:
        table = database.table(root_table)
        value_map = {}
        for rid in row_ids:
            value = table.get(rid).get(attribute.column)
            value_map[rid] = (
                frozenset((value,)) if value is not None else frozenset()
            )
        return value_map
    path = planner.path_to(attribute.table)
    if path is None:
        return {rid: frozenset() for rid in row_ids}
    return map_values(database, path, attribute, row_ids)


def _text_matches_exact(candidate: str, needle: str) -> bool:
    left = candidate.strip().lower()
    right = needle.strip().lower()
    return left == right or right in left


def _is_identifier_token(token: str) -> bool:
    return "@" in token or any(char.isdigit() for char in token)


def _text_matches(candidate: str, needle: str, fuzzy: float) -> bool:
    left = candidate.strip().lower()
    right = needle.strip().lower()
    if _text_matches_exact(left, right):
        return True
    if fuzzy >= 1.0:
        return False
    candidate_tokens = left.split()
    for token in right.split():
        if len(token) <= 3 or _is_identifier_token(token):
            if token not in candidate_tokens:
                return False
            continue
        budget = 1 if len(token) <= 8 else 2
        best = min(
            (damerau_levenshtein(token, other) for other in candidate_tokens),
            default=budget + 1,
        )
        if best > budget:
            return False
    return True


class ReferenceCandidates:
    """Candidate root rows with per-set ``row_id -> frozenset`` maps.

    ``shared`` selects the cached mode: values come from :func:`full_map`
    over the whole root table, computed when the set first needs them;
    otherwise they are collected for the set's own rows only.
    """

    def __init__(
        self,
        database: Database,
        catalog: Catalog,
        table: str,
        row_ids: tuple[int, ...],
        shared: bool,
        fuzzy_threshold: float = 0.82,
    ) -> None:
        self._database = database
        self._catalog = catalog
        self.table = table
        self.row_ids = row_ids
        self.shared = shared
        self.fuzzy_threshold = fuzzy_threshold
        self._planner = JoinPlanner(catalog, table)
        self._value_cache: dict[ColumnRef, dict[int, frozenset]] = {}

    def __len__(self) -> int:
        return len(self.row_ids)

    def _derived(self, row_ids: tuple[int, ...]) -> "ReferenceCandidates":
        return ReferenceCandidates(
            self._database, self._catalog, self.table, row_ids,
            self.shared, self.fuzzy_threshold,
        )

    def values_for(self, attribute: ColumnRef) -> dict[int, frozenset]:
        cached = self._value_cache.get(attribute)
        if cached is not None:
            return cached
        if self.shared:
            full = full_map(
                self._database, self._planner, self.table, attribute
            )
            result = {rid: full.get(rid, frozenset()) for rid in self.row_ids}
        elif attribute.table == self.table:
            table = self._database.table(self.table)
            result = {}
            for rid in self.row_ids:
                value = table.get(rid).get(attribute.column)
                result[rid] = (
                    frozenset((value,)) if value is not None else frozenset()
                )
        else:
            path = self._planner.path_to(attribute.table)
            if path is None:
                raise PolicyError(
                    f"no foreign-key path from {self.table!r} to "
                    f"{attribute.table!r}"
                )
            result = map_values(
                self._database, path, attribute, list(self.row_ids)
            )
        self._value_cache[attribute] = result
        return result

    def refine(self, attribute: ColumnRef, value: Any) -> "ReferenceCandidates":
        dtype = self._catalog.column_type(attribute)
        try:
            needle = coerce(value, dtype)
        except TypeMismatchError:
            needle = value
        narrowed = self._index_refine(attribute, needle, dtype)
        if narrowed is not None:
            return self._derived(narrowed)
        values = self.values_for(attribute)
        if dtype is DataType.TEXT and isinstance(needle, str):
            exact = tuple(
                rid
                for rid in self.row_ids
                if any(
                    isinstance(v, str) and _text_matches_exact(v, needle)
                    for v in values[rid]
                )
            )
            if exact:
                return self._derived(exact)
        surviving = tuple(
            rid for rid in self.row_ids
            if self._matches(values[rid], needle, dtype)
        )
        return self._derived(surviving)

    def _index_refine(
        self, attribute: ColumnRef, needle: Any, dtype: DataType
    ) -> tuple[int, ...] | None:
        if dtype is DataType.TEXT or needle is None:
            return None
        if attribute.table != self.table:
            return None
        table = self._database.table(self.table)
        if not table.has_index(attribute.column):
            return None
        root, column = self.table, attribute.column
        statement = self._database.default_connection.prepare_cached(
            ("candidates.refine", root, column),
            lambda: select(root).where(eq(column, Param("value"))),
        )
        try:
            matched = set(statement.execute(value=needle).row_ids())
        except TypeMismatchError:
            return None
        return tuple(rid for rid in self.row_ids if rid in matched)

    def _matches(
        self, candidate_values: frozenset, needle: Any, dtype: DataType
    ) -> bool:
        if dtype is DataType.TEXT and isinstance(needle, str):
            return any(
                isinstance(v, str)
                and _text_matches(v, needle, self.fuzzy_threshold)
                for v in candidate_values
            )
        return needle in candidate_values

    def prune_missing(self) -> "ReferenceCandidates":
        table = self._database.table(self.table)
        surviving = tuple(
            rid for rid in self.row_ids if table.has_row(rid)
        )
        if len(surviving) == len(self.row_ids):
            return self
        return self._derived(surviving)


def weighted_entropy(weights_by_value: dict[Any, float]) -> float:
    total = sum(weights_by_value.values())
    if total <= 0:
        return 0.0
    result = 0.0
    for weight in weights_by_value.values():
        if weight <= 0:
            continue
        p = weight / total
        result -= p * math.log2(p)
    return result


class ReferenceScorer:
    """Entropy, distinct-count or Gini informativeness x awareness."""

    def __init__(self, awareness, measure: str, use_awareness: bool = True):
        self._awareness = awareness
        self._measure = measure
        self._use_awareness = use_awareness

    def value_distribution(
        self, candidates: ReferenceCandidates, attribute: ColumnRef
    ) -> dict[Any, float]:
        values = candidates.values_for(attribute)
        weights: dict[Any, float] = {}
        for rid in candidates.row_ids:
            value_set = values.get(rid, frozenset())
            if not value_set:
                weights[UNKNOWN] = weights.get(UNKNOWN, 0.0) + 1.0
                continue
            share = 1.0 / len(value_set)
            for value in value_set:
                weights[value] = weights.get(value, 0.0) + share
        return weights

    def informativeness(
        self, candidates: ReferenceCandidates, attribute: ColumnRef
    ) -> float:
        n = len(candidates)
        if n <= 1:
            return 0.0
        weights = self.value_distribution(candidates, attribute)
        if self._measure == "entropy":
            return weighted_entropy(weights) / math.log2(n)
        if self._measure == "distinct_count":
            distinct = len([v for v in weights if v is not UNKNOWN])
            return min(distinct, n) / n
        if self._measure == "gini":
            total = sum(weights.values())
            gini = 1.0 - sum((w / total) ** 2 for w in weights.values())
            max_gini = 1.0 - 1.0 / n
            return gini / max_gini if max_gini > 0 else 0.0
        raise ValueError(self._measure)

    def rank(
        self, candidates: ReferenceCandidates, attributes: list[ColumnRef]
    ) -> list[tuple[ColumnRef, float, float, float]]:
        """``(attribute, score, informativeness, awareness)``, best first."""
        scores = []
        for attribute in attributes:
            informativeness = self.informativeness(candidates, attribute)
            awareness = (
                self._awareness.probability(attribute)
                if self._use_awareness else 1.0
            )
            scores.append((
                attribute, awareness * informativeness,
                informativeness, awareness,
            ))
        scores.sort(key=lambda s: (-s[1], str(s[0])))
        return scores

    def expected_candidates_after(
        self, candidates: ReferenceCandidates, attribute: ColumnRef
    ) -> float:
        n = len(candidates)
        if n == 0:
            return 0.0
        weights = self.value_distribution(candidates, attribute)
        total = sum(weights.values())
        return sum(w * w for w in weights.values()) / total
