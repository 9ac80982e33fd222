"""Candidate-set tracking for entity identification.

"We ... explicitly keep track of the candidates (e.g., the screenings
that match the previous user preferences) and request the next attribute
based on the data distribution of the candidates" (Section 4).

A :class:`CandidateSet` is an immutable snapshot: the root entity table,
the surviving root row ids, and the constraints applied so far.  Refining
with an attribute/value pair produces a *new* candidate set, so dialogue
state can be rewound cheaply (e.g. when the user corrects themselves).

Matching semantics: equality after type coercion; for text attributes a
case-insensitive comparison with optional fuzzy tolerance (edit distance)
so that misspelled user input still narrows candidates — the demo video's
"corrects misspellings" behaviour.  A refinement tests each distinct
value among the candidates once, not each candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Any, Callable

from repro.dataaware.caching import AttributeValueCache
from repro.dataaware.join_graph import (
    AttributeValues,
    JoinPath,
    JoinPlanner,
    attribute_values,
)
from repro.db.api import Param, select
from repro.db.catalog import Catalog, ColumnRef
from repro.db.database import Database
from repro.db.query import Predicate, eq
from repro.db.types import DataType, TypeMismatchError, coerce
from repro.errors import PolicyError
from repro.textutil import damerau_levenshtein

__all__ = ["Constraint", "CandidateSet"]


@dataclass(frozen=True)
class Constraint:
    """One applied filter: ``attribute == value`` (with text tolerance)."""

    attribute: ColumnRef
    value: Any


def _text_matches_exact(candidate: str, needle: str) -> bool:
    left = candidate.strip().lower()
    right = needle.strip().lower()
    return left == right or right in left


def _is_identifier_token(token: str) -> bool:
    """Emails, codes and numbers must never fuzzy-match."""
    return "@" in token or any(char.isdigit() for char in token)


def _text_matches(candidate: str, needle: str, fuzzy: float) -> bool:
    """Tolerant text match: exact, substring, or token-wise fuzzy.

    Fuzziness is applied per token with an edit budget (one Damerau edit
    for tokens up to eight characters, two beyond that).  Tokens of three
    characters or fewer, and identifier-like tokens (emails, anything
    with digits), must match exactly — otherwise "room A" would fuzzily
    match "room B" and one email would match a colleague's.
    ``fuzzy >= 1.0`` disables fuzziness entirely.
    """
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


class CandidateSet:
    """Immutable set of candidate root rows plus applied constraints."""

    def __init__(
        self,
        database: Database,
        catalog: Catalog,
        table: str,
        row_ids: tuple[int, ...],
        constraints: tuple[Constraint, ...] = (),
        fuzzy_threshold: float = 0.82,
        planner: JoinPlanner | None = None,
        shared_cache: AttributeValueCache | None = None,
    ) -> None:
        self._database = database
        self._catalog = catalog
        self.table = table
        self.row_ids = row_ids
        self.constraints = constraints
        self.fuzzy_threshold = fuzzy_threshold
        self.shared_cache = shared_cache
        #: Seeded by :meth:`initial` with every row of the table: its
        #: scores are worth keeping in the shared cache.
        self.whole_table = False
        if planner is not None:
            self._planner = planner
        elif shared_cache is not None:
            self._planner = shared_cache.planner(table)
        else:
            self._planner = JoinPlanner(catalog, table)
        self._entries: dict[ColumnRef, AttributeValues] = {}
        self._value_sets: dict[ColumnRef, dict[int, frozenset]] = {}

    # ------------------------------------------------------------------
    @classmethod
    def initial(
        cls,
        database: Database,
        catalog: Catalog,
        table: str,
        fuzzy_threshold: float = 0.82,
        shared_cache: AttributeValueCache | None = None,
        where: Predicate | None = None,
    ) -> "CandidateSet":
        """Candidates of ``table``, optionally pre-filtered by ``where``.

        With a predicate, seeding executes once through the database's
        shared connection: the access path pushes an equality
        constraint into a hash index instead of materialising every row
        id and filtering afterwards.  Without one the set is ``whole_table``: the shared
        cache keeps its informativeness scores for the next such set.
        """
        if where is None:
            row_ids = tuple(database.table(table).row_ids())
        else:
            result = database.default_connection.execute(
                select(table).where(where)
            )
            row_ids = tuple(result.row_ids())
        candidates = cls(database, catalog, table, row_ids,
                         fuzzy_threshold=fuzzy_threshold,
                         shared_cache=shared_cache)
        candidates.whole_table = where is None
        return candidates

    # ------------------------------------------------------------------
    @property
    def database(self) -> Database:
        """The database the candidates are rows of."""
        return self._database

    def __len__(self) -> int:
        return len(self.row_ids)

    @property
    def is_unique(self) -> bool:
        return len(self.row_ids) == 1

    @property
    def is_empty(self) -> bool:
        return not self.row_ids

    def rows(self) -> list[dict[str, Any]]:
        table = self._database.table(self.table)
        return [table.get(rid) for rid in self.row_ids]

    def the_row(self) -> dict[str, Any]:
        """The single remaining candidate row."""
        if not self.is_unique:
            raise PolicyError(
                f"candidate set is not unique ({len(self)} candidates)"
            )
        return self._database.table(self.table).get(self.row_ids[0])

    # ------------------------------------------------------------------
    # Attribute values (with join expansion)
    # ------------------------------------------------------------------
    def join_path(self, attribute: ColumnRef) -> JoinPath | None:
        return self._planner.path_to(attribute.table)

    def attribute_values(self, attribute: ColumnRef) -> AttributeValues:
        """The values of ``attribute`` for the candidate root rows.

        With a shared cache this is the cache's whole-table entry;
        without one it is built for this set's rows.  Either way it is
        fetched once per candidate set.
        """
        entry = self._entries.get(attribute)
        if entry is not None:
            return entry
        if self.shared_cache is not None:
            entry = self.shared_cache.full_map(self.table, attribute)
        else:
            path = self.join_path(attribute)
            if path is None:
                raise PolicyError(
                    f"no foreign-key path from {self.table!r} to "
                    f"{attribute.table!r}"
                )
            entry = attribute_values(
                self._database, path, attribute, self.row_ids
            )
        self._entries[attribute] = entry
        return entry

    def values_for(self, attribute: ColumnRef) -> dict[int, frozenset]:
        """Per candidate root row, the value set of ``attribute``.

        For the root table itself this is just the column; for attributes
        in FK-reachable tables the values are collected along the join
        path.  Results are cached per candidate set.
        """
        sets = self._value_sets.get(attribute)
        if sets is None:
            sets = self.attribute_values(attribute).sets(self.row_ids)
            self._value_sets[attribute] = sets
        return sets

    # ------------------------------------------------------------------
    # Refinement
    # ------------------------------------------------------------------
    def refine(self, attribute: ColumnRef, value: Any) -> "CandidateSet":
        """New candidate set keeping rows compatible with ``attribute == value``.

        For text attributes, candidates matching *exactly* take precedence:
        fuzzy matches only survive when no exact match exists (your own
        email must not keep a near-identical colleague in the set).
        """
        dtype = self._catalog.column_type(attribute)
        try:
            needle = coerce(value, dtype)
        except TypeMismatchError:
            # Unparseable user value: treat as text comparison if possible.
            needle = value
        narrowed = self._index_refine(attribute, needle, dtype)
        if narrowed is not None:
            return self._refined(narrowed, attribute, needle)
        entry = self.attribute_values(attribute)
        if dtype is DataType.TEXT and isinstance(needle, str):
            exact = self._keep(
                entry,
                lambda v: isinstance(v, str) and _text_matches_exact(v, needle),
            )
            if exact:
                return self._refined(exact, attribute, needle)
        surviving = self._keep(
            entry, lambda v: self._matches(v, needle, dtype)
        )
        return self._refined(surviving, attribute, needle)

    def _keep(
        self, entry: AttributeValues, test: Callable[[Any], bool]
    ) -> tuple[int, ...]:
        """Candidates with a value passing ``test``.  The test runs once
        per distinct value (or value set) among the candidates, and the
        survivors keep their order."""
        keys = list(map(entry.values.get, self.row_ids))
        if entry.single:
            verdicts = {
                key: key is not None and test(key)
                for key in dict.fromkeys(keys)
            }
        else:
            verdicts = {
                key: bool(key) and any(map(test, key))
                for key in dict.fromkeys(keys)
            }
        return tuple(compress(self.row_ids, map(verdicts.__getitem__, keys)))

    def _index_refine(
        self, attribute: ColumnRef, needle: Any, dtype: DataType
    ) -> tuple[int, ...] | None:
        """Index-backed narrowing via the query engine, when applicable.

        Only exact (non-text) equality on a hash-indexed root-table
        column qualifies — text attributes need the fuzzy-match
        semantics and joined attributes the value maps.  The probe runs
        through a prepared statement pooled on the shared connection:
        every refine of the same attribute binds into that statement's
        plan template — only the constant changes.
        Returns the surviving row ids (order preserved) or ``None`` to
        fall back to the value-map path.
        """
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
        return tuple(filter(matched.__contains__, self.row_ids))

    def _refined(
        self, surviving: tuple[int, ...], attribute: ColumnRef, needle: Any
    ) -> "CandidateSet":
        return CandidateSet(
            self._database,
            self._catalog,
            self.table,
            surviving,
            self.constraints + (Constraint(attribute, needle),),
            self.fuzzy_threshold,
            self._planner,
            self.shared_cache,
        )

    def _matches(self, value: Any, needle: Any, dtype: DataType) -> bool:
        if dtype is DataType.TEXT and isinstance(needle, str):
            return isinstance(value, str) and _text_matches(
                value, needle, self.fuzzy_threshold
            )
        # Set membership's test: identity first, then equality.
        return value is needle or value == needle

    def prune_missing(self) -> "CandidateSet":
        """Drop candidates whose rows no longer exist in the table.

        Snapshots of row ids can go stale between dialogue turns when a
        *different* session's committed transaction deletes rows (e.g.
        two users cancelling reservations of the same table).  Returns
        ``self`` unchanged when every candidate is still present.  The
        reader's snapshot is resolved once for the whole set.
        """
        surviving = self._database.table(self.table).present(self.row_ids)
        if len(surviving) == len(self.row_ids):
            return self
        return CandidateSet(
            self._database,
            self._catalog,
            self.table,
            surviving,
            self.constraints,
            self.fuzzy_threshold,
            self._planner,
            self.shared_cache,
        )

    def reset(self) -> "CandidateSet":
        """Back to all rows (e.g. after the user restarts the task)."""
        return CandidateSet.initial(
            self._database,
            self._catalog,
            self.table,
            self.fuzzy_threshold,
            self.shared_cache,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        applied = ", ".join(f"{c.attribute}={c.value!r}" for c in self.constraints)
        return f"CandidateSet({self.table!r}, n={len(self)}, [{applied}])"
