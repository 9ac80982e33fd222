"""Tests for group-by aggregation statements in the engine."""

import random

import pytest

from repro.db import (
    Column,
    Database,
    DatabaseSchema,
    DataType,
    Query,
    TableSchema,
    api,
    avg,
    count,
    count_distinct,
    eq,
    ge,
    in_,
    max_,
    min_,
    sum_,
)
from repro.errors import QueryError

from tests.db.reference_executor import aggregate

ROWS = [
    {"screening_id": 1, "no_tickets": 2, "customer_id": 10},
    {"screening_id": 1, "no_tickets": 3, "customer_id": 11},
    {"screening_id": 2, "no_tickets": 1, "customer_id": 10},
    {"screening_id": 2, "no_tickets": None, "customer_id": 12},
]


def _engine_aggregate(rows, aggregates, group_by=None, columns=()):
    """Aggregate ``rows`` in the engine: load them into a one-table
    database (``columns`` adds columns no row mentions) and execute an
    aggregate statement over it."""
    names = list(dict.fromkeys(
        [k for row in rows for k in row] + list(columns)
    ))

    def dtype(name):
        values = [row.get(name) for row in rows]
        if any(isinstance(v, str) for v in values):
            return DataType.TEXT
        return DataType.INTEGER

    schema = DatabaseSchema([TableSchema(
        "r",
        [Column("rid", DataType.INTEGER)]
        + [Column(name, dtype(name)) for name in names],
        primary_key="rid",
    )])
    database = Database(schema)
    for rid, row in enumerate(rows, start=1):
        database.insert("r", {"rid": rid, **row})
    statement = api.aggregate("r", aggregates)
    if group_by:
        statement.group_by(*group_by)
    return database.connect().execute(statement).all()


class TestAggregate:
    def test_global_count(self):
        result = _engine_aggregate(ROWS, {"n": count()})
        assert result == [{"n": 4}]

    def test_group_by_sum(self):
        result = _engine_aggregate(ROWS, {"booked": sum_("no_tickets")},
                                   group_by=["screening_id"])
        assert result == [
            {"screening_id": 1, "booked": 5},
            {"screening_id": 2, "booked": 1},
        ]

    def test_nulls_skipped(self):
        result = _engine_aggregate(
            ROWS, {"n": count(), "a": avg("no_tickets")},
            group_by=["screening_id"],
        )
        # count(*) counts the NULL row; avg skips it.
        assert result[1]["n"] == 2
        assert result[1]["a"] == 1.0

    def test_min_max(self):
        result = _engine_aggregate(ROWS, {"lo": min_("no_tickets"),
                                          "hi": max_("no_tickets")})
        assert result == [{"lo": 1, "hi": 3}]

    def test_count_distinct(self):
        result = _engine_aggregate(ROWS, {"customers": count_distinct("customer_id")})
        assert result == [{"customers": 3}]

    def test_empty_input_global_group(self):
        result = _engine_aggregate([], {"n": count(), "s": sum_("x"),
                                        "a": avg("x")}, columns=["x"])
        assert result == [{"n": 0, "s": 0, "a": None}]

    def test_empty_input_group_by(self):
        assert _engine_aggregate(
            [], {"n": count()}, group_by=["g"], columns=["g"]
        ) == []

    def test_group_order_is_first_appearance(self):
        rows = [{"g": "b"}, {"g": "a"}, {"g": "b"}]
        result = _engine_aggregate(rows, {"n": count()}, group_by=["g"])
        assert [r["g"] for r in result] == ["b", "a"]

    def test_multi_column_group(self):
        result = _engine_aggregate(ROWS, {"n": count()},
                                   group_by=["screening_id", "customer_id"])
        assert len(result) == 4

    def test_no_aggregates_rejected(self):
        with pytest.raises(QueryError):
            _engine_aggregate(ROWS, {})

    def test_unknown_group_column_rejected(self):
        with pytest.raises(QueryError):
            _engine_aggregate(ROWS, {"n": count()}, group_by=["ghost"])


def _baseline(database, query, aggregates, group_by=None):
    """Materialise the query's rows, then reduce them in the oracle."""
    rows = database.connect().execute(query).all()
    return aggregate(rows, aggregates, group_by)


def _aggregate_statement(database, query, aggregates, group_by=None):
    """``aggregates`` over ``query``'s rows, executed in the engine."""
    statement = api.aggregate(query.table, aggregates)
    statement.where(query.compile().predicate)
    if group_by:
        statement.group_by(*group_by)
    return database.connect().execute(statement).all()


class TestAggregatePushdown:
    """Aggregate statements must reproduce materialise-then-reduce exactly."""

    def _check(self, database, query, aggregates, group_by=None):
        expected = _baseline(database, query, aggregates, group_by)
        assert _aggregate_statement(
            database, query, aggregates, group_by
        ) == expected
        return expected

    def test_grouped_sum(self, movie_db):
        database, __ = movie_db
        self._check(database, Query("reservation"),
                    {"booked": sum_("no_tickets")}, ["screening_id"])

    def test_grouped_count_and_avg(self, movie_db):
        database, __ = movie_db
        self._check(database, Query("screening"),
                    {"n": count(), "mean": avg("price")}, ["room"])

    def test_grouped_multi_key(self, movie_db):
        database, __ = movie_db
        self._check(database, Query("screening"),
                    {"n": count()}, ["movie_id", "room"])

    def test_count_distinct_from_hash_index(self, movie_db):
        database, __ = movie_db
        # Grouped on a hash-indexed key, COUNT DISTINCT reduces the
        # index's buckets one by one.
        statement = api.aggregate(
            "screening", rooms=count_distinct("room")
        ).group_by("movie_id")
        assert "IndexGroupedAggScan on screening" in \
            statement.explain(database)
        self._check(database, Query("screening"),
                    {"rooms": count_distinct("room")}, ["movie_id"])
        self._check(database, Query("screening"),
                    {"movies": count_distinct("movie_id")})

    def test_filtered_aggregate_streams(self, movie_db):
        database, __ = movie_db
        self._check(
            database,
            Query("reservation").where(ge("no_tickets", 3)),
            {"booked": sum_("no_tickets"), "n": count()},
            ["screening_id"],
        )

    def test_empty_result_grouped_and_global(self, movie_db):
        database, __ = movie_db
        nothing = Query("reservation").where(eq("screening_id", 999999))
        assert self._check(
            database, nothing, {"n": count()}, ["screening_id"]
        ) == []
        global_row = self._check(
            database, nothing,
            {"n": count(), "s": sum_("no_tickets"), "a": avg("no_tickets"),
             "lo": min_("no_tickets")},
        )
        assert global_row == [{"n": 0, "s": 0, "a": None, "lo": None}]

    def test_unknown_group_column_raises_like_baseline(self, movie_db):
        database, __ = movie_db
        with pytest.raises(QueryError):
            _aggregate_statement(database, Query("screening"),
                                 {"n": count()}, group_by=["ghost"])
        with pytest.raises(QueryError):
            _baseline(database, Query("screening"), {"n": count()},
                      group_by=["ghost"])

    def test_results_are_invalidated_by_mutation(self, movie_db):
        database, __ = movie_db
        query = Query("reservation").where(eq("screening_id", 1))
        aggregates = {"booked": sum_("no_tickets")}
        before = _aggregate_statement(database, query, aggregates)
        database.insert(
            "reservation",
            {"reservation_id": 9999, "customer_id": 1, "screening_id": 1,
             "no_tickets": 4},
        )
        after = _aggregate_statement(database, query, aggregates)
        assert after[0]["booked"] == before[0]["booked"] + 4

    def test_randomised_differential(self, movie_db):
        database, __ = movie_db
        rng = random.Random(41)
        kinds = [sum_, avg, min_, max_, count_distinct]
        numeric = ["price", "capacity", "movie_id"]
        group_candidates = ["room", "movie_id", "capacity"]
        for __i in range(200):
            query = Query("screening")
            shape = rng.randrange(4)
            if shape == 1:
                query.where(eq("movie_id", rng.randrange(1, 16)))
            elif shape == 2:
                query.where(ge("price", 7.0 + rng.randrange(10)))
            elif shape == 3:
                query.where(in_("movie_id", tuple(
                    rng.randrange(1, 16) for __j in range(rng.randrange(1, 5))
                )))
            aggregates = {"n": count()}
            for j in range(rng.randrange(0, 3)):
                aggregates[f"a{j}"] = rng.choice(kinds)(rng.choice(numeric))
            group_by = (
                rng.sample(group_candidates, rng.randrange(1, 3))
                if rng.random() < 0.6 else None
            )
            self._check(database, query, aggregates, group_by)
