"""Tests for the cost-based query engine: planner, executor, EXPLAIN."""

import datetime as dt

import pytest

from repro.dataaware import JoinPlanner, map_values
from repro.db import (
    Catalog,
    Column,
    ColumnRef,
    Database,
    DatabaseSchema,
    DataType,
    ForeignKey,
    Query,
    TableSchema,
    and_,
    eq,
    ge,
    in_,
    le,
    lt,
    or_,
)
from repro.db import api
from repro.db.aggregation import count
from repro.db.engine import execute_row_ids
from repro.errors import QueryError


def run(db, query):
    """Materialised rows of ``query``, executed through a connection."""
    return db.connect().execute(query).all()


@pytest.fixture()
def db():
    schema = DatabaseSchema(
        [
            TableSchema(
                "movie",
                [
                    Column("movie_id", DataType.INTEGER),
                    Column("title", DataType.TEXT, nullable=False),
                    Column("year", DataType.INTEGER),
                ],
                primary_key="movie_id",
            ),
            TableSchema(
                "screening",
                [
                    Column("screening_id", DataType.INTEGER),
                    Column("movie_id", DataType.INTEGER),
                    Column("date", DataType.DATE),
                    Column("price", DataType.FLOAT),
                    Column("room", DataType.TEXT),
                ],
                primary_key="screening_id",
                foreign_keys=[ForeignKey("movie_id", "movie", "movie_id")],
            ),
        ]
    )
    database = Database(schema)
    movies = [
        (1, "Heat", 1995),
        (2, "Ran", 1985),
        (3, "Alien", None),
        (4, "Blade Runner", 1982),
        (5, "Arrival", 2016),
    ]
    for movie_id, title, year in movies:
        database.insert(
            "movie", {"movie_id": movie_id, "title": title, "year": year}
        )
    base = dt.date(2022, 3, 26)
    for i in range(1, 21):
        database.insert(
            "screening",
            {
                "screening_id": i,
                "movie_id": (i % 5) + 1,
                "date": base + dt.timedelta(days=i % 7),
                "price": 8.0 + (i % 4),
                "room": f"room {chr(ord('A') + i % 3)}",
            },
        )
    return database


class TestPlannerChoices:
    def test_equality_on_indexed_column_uses_index_eq(self, db):
        explained = Query("screening").where(eq("screening_id", 3)).explain(db)
        assert "IndexEq on screening using screening_id" in explained

    def test_no_index_means_seq_scan(self, db):
        explained = Query("screening").where(eq("room", "room A")).explain(db)
        assert "SeqScan on screening" in explained

    def test_or_with_unindexable_disjunct_stays_seq_scan(self, db):
        explained = (
            Query("screening")
            .where(or_(eq("screening_id", 1), eq("room", "room B")))
            .explain(db)
        )
        assert "SeqScan on screening" in explained
        assert "IndexEq" not in explained

    def test_selective_equality_beats_range(self, db):
        # Both access paths are available; the point lookup is cheaper.
        explained = (
            Query("screening")
            .where(and_(eq("screening_id", 3), ge("date", dt.date(2022, 3, 26))))
            .explain(db)
        )
        assert "IndexEq on screening using screening_id" in explained


class TestExecutorParity:
    def test_range_results_match_scan_order(self, db):
        rows = run(db, (
            Query("screening")
            .where(and_(ge("date", dt.date(2022, 3, 27)),
                        le("date", dt.date(2022, 3, 29))))
        ))
        ids = [r["screening_id"] for r in rows]
        assert ids == sorted(ids)  # row-id order, like a scan
        assert all(
            dt.date(2022, 3, 27) <= r["date"] <= dt.date(2022, 3, 29)
            for r in rows
        )

    def test_results_are_fresh_dicts(self, db):
        rows = run(db, Query("movie"))
        rows[0]["title"] = "mutated"
        assert run(db, Query("movie"))[0]["title"] == "Heat"


class TestCountOnly:
    """COUNT(*) is an aggregate statement: ``aggregate(t, n=count())``."""

    def test_count_equals_len_run(self, db):
        where = eq("room", "room A")
        counted = db.connect().execute(
            api.aggregate("screening", n=count()).where(where)
        ).scalar()
        assert counted == len(run(db, Query("screening").where(where)))

    def test_count_whole_table_is_cardinality(self, db):
        statement = api.aggregate("screening", n=count())
        assert db.connect().execute(statement).scalar() == 20


class TestJoinSemantics:
    def test_join_with_unknown_predicate_column_raises(self, db):
        query = Query("screening").where(eq("missing_column", 1))
        with pytest.raises(QueryError):
            run(db, query)

    def test_none_join_keys_are_skipped(self, db):
        # The FK walk of the data-aware layer is the one join left.
        db.insert(
            "screening",
            {"screening_id": 99, "movie_id": None, "date": dt.date(2022, 4, 1),
             "price": 9.0, "room": "room Z"},
        )
        path = JoinPlanner(Catalog(db), "screening").path_to("movie")
        title = ColumnRef("movie", "title")
        null_rid = db.table("screening").lookup("screening_id", 99)[0]
        # 21 roots against 5 movies build a probe map; one root probes
        # the primary-key index.  Neither matches the NULL key.
        values = map_values(db, path, title, db.table("screening").row_ids())
        assert values[null_rid] == frozenset()
        assert sum(1 for v in values.values() if v) == 20
        assert map_values(db, path, title, [null_rid]) == \
            {null_rid: frozenset()}


class TestExecuteRowIds:
    def test_index_eq_plan_yields_ids(self, db):
        plan = Query("screening").where(eq("screening_id", 3)).plan(db)
        assert execute_row_ids(db, plan) == [3]

    def test_filtered_scan_yields_ids_in_order(self, db):
        plan = Query("screening").where(eq("room", "room A")).plan(db)
        ids = execute_row_ids(db, plan)
        assert ids == sorted(ids)
        assert ids  # room A exists

    def test_range_plan_yields_ids(self, db):
        plan = (
            Query("screening")
            .where(ge("date", dt.date(2022, 4, 1)))
            .plan(db)
        )
        ids = execute_row_ids(db, plan)
        rows = run(db, Query("screening").where(ge("date", dt.date(2022, 4, 1))))
        assert len(ids) == len(rows)

    def test_non_id_preserving_plan_rejected(self, db):
        plan = api.aggregate("screening", n=count()).plan(db)
        with pytest.raises(QueryError):
            execute_row_ids(db, plan)


class TestOrderedIndexMaintenance:
    def test_unbounded_lt_gt(self, db):
        low = run(db, Query("screening").where(lt("price", 9.0)))
        high = run(db, Query("screening").where(ge("price", 9.0)))
        assert len(low) + len(high) == 20


class TestInListAccessPath:
    def test_in_list_results_match_scan(self, db):
        db.create_index("screening", "movie_id")
        via_index = run(db, Query("screening").where(in_("movie_id", (2, 4))))
        scanned = [
            r for r in run(db, Query("screening")) if r["movie_id"] in (2, 4)
        ]
        assert via_index == scanned

    def test_in_list_without_index_stays_seq_scan(self, db):
        explained = (
            Query("screening").where(in_("room", ("room A",))).explain(db)
        )
        assert "SeqScan on screening" in explained

    def test_empty_in_list(self, db):
        db.create_index("screening", "movie_id")
        assert run(db, Query("screening").where(in_("movie_id", ()))) == []

    def test_string_in_value_keeps_substring_semantics(self, db):
        # Comparison(col, "in", "room A") is a substring test ("room A"
        # contains the value), not a list of candidate values.
        from repro.db.query import Comparison

        db.create_index("screening", "room")
        predicate = Comparison("room", "in", "room A")
        via_engine = run(db, Query("screening").where(predicate))
        scanned = [
            r for r in run(db, Query("screening")) if r["room"] in "room A"
        ]
        assert via_engine == scanned and via_engine

    def test_in_list_row_ids(self, db):
        db.create_index("screening", "movie_id")
        plan = Query("screening").where(in_("movie_id", (1, 3))).plan(db)
        ids = execute_row_ids(db, plan)
        assert ids == sorted(ids)
        assert ids


class TestOrUnionExecution:
    """OR-of-equality predicates: results identical to a row-wise scan."""

    def _expected(self, db, predicate):
        return [
            row for row in db.rows("screening") if predicate.matches(row)
        ]

    def test_results_match_scan_semantics(self, db):
        predicate = or_(eq("screening_id", 3), eq("screening_id", 7))
        rows = run(db, Query("screening").where(predicate))
        assert rows == self._expected(db, predicate)

    def test_union_deduplicates_overlapping_probes(self, db):
        predicate = or_(eq("screening_id", 3), eq("screening_id", 3))
        rows = run(db, Query("screening").where(predicate))
        assert rows == self._expected(db, predicate)
        assert len(rows) == 1

    def test_row_ids_preserved_for_candidates(self, db):
        predicate = or_(eq("screening_id", 2), eq("screening_id", 9))
        plan = Query("screening").where(predicate).plan(db)
        assert execute_row_ids(db, plan) == [2, 9]

    def test_template_rebinds_constants(self, db):
        conn = db.connect()
        statement = conn.prepare(api.select("screening").where(
            or_(eq("screening_id", api.Param("a")),
                eq("screening_id", api.Param("b")))
        ))
        statement.execute(a=1, b=2).all()
        misses = conn.stats().plan_cache_misses
        rows = statement.execute(a=5, b=6).all()
        # Bound into the statement's template, not planned again.
        assert conn.stats().plan_cache_misses == misses
        assert sorted(r["screening_id"] for r in rows) == [5, 6]

    def test_uncoercible_constant_falls_back_to_scan(self, db):
        predicate = or_(eq("screening_id", 1),
                        eq("screening_id", "not-an-int"))
        rows = run(db, Query("screening").where(predicate))
        assert rows == self._expected(db, predicate)
        assert [r["screening_id"] for r in rows] == [1]

    def test_or_across_different_columns(self, db):
        db.create_index("screening", "movie_id")
        predicate = or_(eq("movie_id", 2), eq("screening_id", 7))
        rows = run(db, Query("screening").where(predicate))
        assert rows == self._expected(db, predicate)
