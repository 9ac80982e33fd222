"""Tests for database statistics: entropy, selectivity, caching."""

import math

import pytest

from repro.db import (
    Column,
    Database,
    DatabaseSchema,
    DataType,
    StatisticsCatalog,
    TableSchema,
    entropy,
    gini_impurity,
    normalized_entropy,
)
from repro.db.statistics import compute_column_statistics


class TestEntropy:
    def test_empty_is_zero(self):
        assert entropy([]) == 0.0

    def test_single_value_is_zero(self):
        assert entropy(["a", "a", "a"]) == 0.0

    def test_uniform_two_values(self):
        assert entropy(["a", "b"]) == pytest.approx(1.0)

    def test_uniform_n_values(self):
        assert entropy(list(range(8))) == pytest.approx(3.0)

    def test_skew_reduces_entropy(self):
        balanced = entropy(["a", "b", "a", "b"])
        skewed = entropy(["a", "a", "a", "b"])
        assert skewed < balanced

    def test_nulls_form_their_own_category(self):
        assert entropy(["a", None]) == pytest.approx(1.0)

    def test_normalized_in_unit_interval(self):
        values = ["a", "a", "b", "c", "c", "c"]
        assert 0.0 < normalized_entropy(values) <= 1.0

    def test_normalized_uniform_is_one(self):
        assert normalized_entropy(["a", "b", "c"]) == pytest.approx(1.0)

    def test_gini_bounds(self):
        assert gini_impurity([]) == 0.0
        assert gini_impurity(["a", "a"]) == 0.0
        assert gini_impurity(["a", "b"]) == pytest.approx(0.5)


class TestColumnStatistics:
    def test_basic_counts(self):
        stats = compute_column_statistics("t", "c", ["a", "a", "b", None])
        assert stats.row_count == 4
        assert stats.distinct_count == 2
        assert stats.null_count == 1
        assert stats.null_fraction == pytest.approx(0.25)

    def test_most_common(self):
        stats = compute_column_statistics("t", "c", ["a", "a", "b"])
        assert stats.most_common[0] == ("a", 2)

    def test_min_max(self):
        stats = compute_column_statistics("t", "c", [3, 1, 2])
        assert stats.min_value == 1 and stats.max_value == 3

    def test_mixed_unorderable_min_max_none(self):
        stats = compute_column_statistics("t", "c", ["a", 1])
        assert stats.min_value is None and stats.max_value is None

    def test_selectivity_known_value(self):
        stats = compute_column_statistics("t", "c", ["a", "a", "b", "b"])
        assert stats.selectivity("a") == pytest.approx(0.5)

    def test_selectivity_unknown_value(self):
        values = [f"v{i}" for i in range(100)]
        stats = compute_column_statistics("t", "c", values, most_common_k=4)
        # Unknown values approximated as uniform over the tail.
        assert stats.selectivity("v99") == pytest.approx(1 / 100, rel=0.2)

    def test_average_selectivity_uniform(self):
        values = [f"v{i}" for i in range(10)]
        stats = compute_column_statistics("t", "c", values)
        assert stats.average_selectivity == pytest.approx(0.1)

    def test_key_like_detection(self):
        unique = compute_column_statistics("t", "c", list(range(50)))
        repeated = compute_column_statistics("t", "c", [1] * 50)
        assert unique.is_key_like
        assert not repeated.is_key_like

    def test_entropy_matches_function(self):
        values = ["a", "b", "b"]
        stats = compute_column_statistics("t", "c", values)
        assert stats.entropy == pytest.approx(entropy(values))


@pytest.fixture()
def db():
    schema = DatabaseSchema(
        [
            TableSchema(
                "movie",
                [
                    Column("movie_id", DataType.INTEGER),
                    Column("genre", DataType.TEXT),
                ],
                primary_key="movie_id",
            )
        ]
    )
    database = Database(schema)
    for i, genre in enumerate(["drama", "drama", "comedy", "horror"], start=1):
        database.insert("movie", {"movie_id": i, "genre": genre})
    return database


class TestStatisticsCatalog:
    def test_table_statistics(self, db):
        catalog = StatisticsCatalog(db)
        stats = catalog.table("movie")
        assert stats.row_count == 4
        assert stats.column("genre").distinct_count == 3

    def test_cache_hit_on_second_access(self, db):
        catalog = StatisticsCatalog(db)
        catalog.table("movie")
        catalog.table("movie")
        assert catalog.hits == 1
        assert catalog.misses == 1

    def test_cache_invalidated_by_write(self, db):
        catalog = StatisticsCatalog(db)
        assert catalog.column("movie", "genre").distinct_count == 3
        db.insert("movie", {"movie_id": 5, "genre": "western"})
        assert catalog.column("movie", "genre").distinct_count == 4
        assert catalog.misses == 2

    def test_explicit_invalidate(self, db):
        catalog = StatisticsCatalog(db)
        catalog.table("movie")
        catalog.invalidate()
        catalog.table("movie")
        assert catalog.misses == 2


class TestDegenerateSelectivity:
    """Estimator guards: edge inputs must yield sane, clamped estimates."""

    @staticmethod
    def _stats(**overrides):
        from repro.db.statistics import ColumnStatistics

        base = dict(
            table="t", column="c", row_count=100, distinct_count=10,
            null_count=0, entropy=1.0,
            most_common=(("a", 40), ("b", 20)),
        )
        base.update(overrides)
        return ColumnStatistics(**base)

    def test_empty_table_all_estimates_zero(self):
        stats = self._stats(row_count=0, distinct_count=0, most_common=())
        assert stats.selectivity("a") == 0.0
        assert stats.average_selectivity == 0.0
        assert stats.range_selectivity(low=1, high=2) == 0.0

    def test_all_null_column_matches_nothing(self):
        stats = self._stats(
            row_count=50, distinct_count=0, null_count=50, most_common=()
        )
        assert stats.selectivity("a") == 0.0
        assert stats.range_selectivity(low=1) == 0.0

    def test_fully_enumerated_mcv_unseen_value_floors(self):
        # distinct_count == len(most_common): statistics claim every
        # value is enumerated, but a newer insert may disagree — the
        # estimate floors at half a row instead of a hard zero.
        stats = self._stats(
            row_count=100, distinct_count=2,
            most_common=(("a", 60), ("b", 40)),
        )
        assert stats.selectivity("zzz") == pytest.approx(0.5 / 100)
        assert stats.selectivity("zzz") > 0.0

    def test_mcv_match_clamped_to_one(self):
        # Externally supplied histograms can overcount; estimates clamp.
        stats = self._stats(
            row_count=10, distinct_count=1, most_common=(("a", 25),)
        )
        assert stats.selectivity("a") == 1.0

    def test_average_selectivity_overcounted_histogram_clamps(self):
        stats = self._stats(
            row_count=10, distinct_count=5,
            most_common=(("a", 30), ("b", 20)),
        )
        assert 0.0 <= stats.average_selectivity <= 1.0

    def test_range_selectivity_all_null_side(self):
        stats = self._stats(
            row_count=10, distinct_count=0, null_count=10, most_common=(),
            min_value=None, max_value=None,
        )
        assert stats.range_selectivity(low=0, high=1) == 0.0
