"""Database statistics: distinct counts, frequencies, entropy, selectivity.

The data-aware dialogue policy (Section 4 of the paper) scores candidate
attributes by how much they narrow down the current entity set.  The
primitives for that live here:

* :func:`entropy` — Shannon entropy of a value multiset (the paper: "we
  choose the attribute with the highest entropy"),
* :class:`ColumnStatistics` — per-column summary (distinct count, most
  common values, null fraction, histogram) as a query optimizer would
  keep, used as the *a-priori* signal for deciding which related tables
  are worth joining in,
* :class:`StatisticsCatalog` — lazily computed, version-stamped statistics
  for a whole database; recomputed automatically when the data version
  changes, which is what lets the agent adapt without retraining.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence

from repro.db.versioncache import VersionStampedCache

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.db.database import Database

__all__ = [
    "entropy",
    "normalized_entropy",
    "gini_impurity",
    "ColumnStatistics",
    "TableStatistics",
    "StatisticsCatalog",
]


def entropy(values: Sequence[Any]) -> float:
    """Shannon entropy (bits) of the empirical distribution of ``values``.

    NULLs are kept as their own category: an attribute that is NULL for
    half the candidates genuinely separates them less.
    """
    total = len(values)
    if total == 0:
        return 0.0
    counts = Counter(values)
    result = 0.0
    for count in counts.values():
        p = count / total
        result -= p * math.log2(p)
    return result


def normalized_entropy(values: Sequence[Any]) -> float:
    """Entropy scaled to [0, 1] by the maximum ``log2(n_distinct)``."""
    counts = Counter(values)
    if len(counts) <= 1:
        return 0.0
    return entropy(values) / math.log2(len(counts))


def gini_impurity(values: Sequence[Any]) -> float:
    """Gini impurity — an alternative informativeness score (ablation)."""
    total = len(values)
    if total == 0:
        return 0.0
    counts = Counter(values)
    return 1.0 - sum((count / total) ** 2 for count in counts.values())


@dataclass(frozen=True)
class ColumnStatistics:
    """Summary statistics of one column at one point in time."""

    table: str
    column: str
    row_count: int
    distinct_count: int
    null_count: int
    entropy: float
    most_common: tuple[tuple[Any, int], ...]

    @property
    def null_fraction(self) -> float:
        return self.null_count / self.row_count if self.row_count else 0.0

    @property
    def average_selectivity(self) -> float:
        """Expected fraction of rows matched by an equality predicate.

        For a uniform column this is ``1 / distinct_count``; we compute the
        exact expectation under the empirical distribution:
        ``sum_v (count_v / n)^2``.
        """
        if self.row_count == 0:
            return 0.0
        total_sq = sum(count * count for __, count in self.most_common)
        counted = sum(count for __, count in self.most_common)
        # Values beyond the retained most-common list are approximated as
        # uniform over the remaining distinct values.  Clamp at zero:
        # externally supplied histograms can disagree with row_count.
        remaining_rows = max(0, self.row_count - self.null_count - counted)
        remaining_distinct = self.distinct_count - len(self.most_common)
        if remaining_rows > 0 and remaining_distinct > 0:
            per_value = remaining_rows / remaining_distinct
            total_sq += remaining_distinct * per_value * per_value
        return min(1.0, total_sq / (self.row_count * self.row_count))

    def selectivity(self, value: Any) -> float:
        """Estimated fraction of rows where ``column == value``.

        Degenerate inputs are guarded: an empty table and an all-NULL
        column estimate 0.0 (an equality can match nothing); a value
        outside a *fully enumerated* most-common list (``distinct_count
        == len(most_common)``) floors at half a row rather than 0.0, so
        cost models never see a hard zero for a value that may have
        been inserted since statistics were cut.
        """
        if self.row_count == 0:
            return 0.0
        for known, count in self.most_common:
            if known == value:
                return min(1.0, count / self.row_count)
        if self.distinct_count == 0:
            # All-NULL column: no non-null value can match.
            return 0.0
        counted = sum(count for __, count in self.most_common)
        remaining_rows = max(0, self.row_count - self.null_count - counted)
        remaining_distinct = self.distinct_count - len(self.most_common)
        if remaining_rows <= 0 or remaining_distinct <= 0:
            return 0.5 / self.row_count
        return min(
            1.0, (remaining_rows / remaining_distinct) / self.row_count
        )

    @property
    def is_key_like(self) -> bool:
        """True when values are (almost) unique — ID-like columns."""
        non_null = self.row_count - self.null_count
        return non_null > 0 and self.distinct_count >= 0.99 * non_null


def compute_column_statistics(
    table_name: str,
    column: str,
    values: Sequence[Any],
    most_common_k: int = 16,
) -> ColumnStatistics:
    """Build :class:`ColumnStatistics` from raw column values."""
    non_null = [v for v in values if v is not None]
    counts = Counter(non_null)
    return ColumnStatistics(
        table=table_name,
        column=column,
        row_count=len(values),
        distinct_count=len(counts),
        null_count=len(values) - len(non_null),
        entropy=entropy(list(values)),
        most_common=tuple(counts.most_common(most_common_k)),
    )


@dataclass(frozen=True)
class TableStatistics:
    """Statistics for all columns of one table."""

    table: str
    row_count: int
    columns: dict[str, ColumnStatistics]

    def column(self, name: str) -> ColumnStatistics:
        return self.columns[name]


class StatisticsCatalog:
    """Version-stamped statistics over a whole database.

    Statistics are computed lazily per table and cached until the
    database's data version changes.  This is the "integrated caching
    strategy" of Section 4 — the policy can consult statistics on every
    turn at millisecond latency while staying consistent with updates.

    The catalog is safe for concurrent readers via the shared
    :class:`~repro.db.versioncache.VersionStampedCache` protocol.
    """

    def __init__(self, database: "Database", most_common_k: int = 16) -> None:
        self._database = database
        self._most_common_k = most_common_k
        self._cache = VersionStampedCache(database)

    @property
    def hits(self) -> int:
        return self._cache.hits

    @property
    def misses(self) -> int:
        return self._cache.misses

    def table(self, table_name: str) -> TableStatistics:
        """Statistics for ``table_name``, recomputing if stale."""
        return self._cache.lookup(
            table_name, lambda: self._compute(table_name)
        )

    def column(self, table_name: str, column: str) -> ColumnStatistics:
        """Statistics for one column, cached independently.

        The planner prices one predicate column at a time; computing
        (and re-computing, every commit) the whole table's histograms
        for that would make each OLTP commit pay for the widest
        key-like column nobody asked about.  Per-column entries share
        the catalog's version-stamped cache with the table entries.
        """
        return self._cache.lookup(
            (table_name, column),
            lambda: self._compute_column(table_name, column),
        )

    def matches_per_key(self, table_name: str, column: str) -> float:
        """Expected rows matched by one equality probe on ``column``.

        ``(non-null rows) / (distinct values)`` — always >= 1 when the
        column has data, since every distinct value occupies at least
        one row.  Used by the dataaware join-path walker to price join
        fanout.  Falls back to 1.0 when the column is unknown or empty.
        """
        try:
            stats = self.column(table_name, column)
        except KeyError:
            return 1.0
        if stats.distinct_count == 0:
            return 1.0
        return max(
            1.0, (stats.row_count - stats.null_count) / stats.distinct_count
        )

    def invalidate(self) -> None:
        self._cache.invalidate()

    def _compute(self, table_name: str) -> TableStatistics:
        table = self._database.table(table_name)
        # The columns come straight from the banks in one shared slot
        # pass.  Not assembled from :meth:`column` entries — a
        # whole-table consumer would then count one miss per column,
        # and the two access patterns rarely overlap.
        arrays = table.column_arrays()
        columns = {
            column: compute_column_statistics(
                table_name, column, values, self._most_common_k
            )
            for column, values in arrays.items()
        }
        return TableStatistics(
            table=table_name, row_count=len(table), columns=columns
        )

    def _compute_column(
        self, table_name: str, column: str
    ) -> ColumnStatistics:
        table = self._database.table(table_name)
        if not table.schema.has_column(column):
            raise KeyError(column)
        return compute_column_statistics(
            table_name, column, table.column_arrays()[column],
            self._most_common_k,
        )
