"""Tests for the predicate and query layer."""

import pytest

from repro.db import (
    Column,
    Database,
    DatabaseSchema,
    DataType,
    ForeignKey,
    Query,
    TableSchema,
    and_,
    contains,
    eq,
    ge,
    gt,
    in_,
    le,
    lt,
    ne,
    not_,
    or_,
)
from repro.db import api
from repro.db.aggregation import count
from repro.db.query import TruePredicate
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
                    Column("room", DataType.TEXT),
                ],
                primary_key="screening_id",
                foreign_keys=[ForeignKey("movie_id", "movie", "movie_id")],
            ),
        ]
    )
    database = Database(schema)
    database.insert("movie", {"movie_id": 1, "title": "Heat", "year": 1995})
    database.insert("movie", {"movie_id": 2, "title": "Ran", "year": 1985})
    database.insert("movie", {"movie_id": 3, "title": "Alien", "year": None})
    database.insert("screening", {"screening_id": 1, "movie_id": 1, "room": "A"})
    database.insert("screening", {"screening_id": 2, "movie_id": 1, "room": "B"})
    database.insert("screening", {"screening_id": 3, "movie_id": 2, "room": "A"})
    return database


class TestPredicates:
    def test_eq(self):
        assert eq("a", 1).matches({"a": 1})
        assert not eq("a", 1).matches({"a": 2})

    def test_null_rejected_by_all_comparisons(self):
        row = {"a": None}
        for predicate in (eq("a", 1), ne("a", 1), lt("a", 1), gt("a", 1)):
            assert not predicate.matches(row)

    def test_ordering_operators(self):
        row = {"a": 5}
        assert lt("a", 6).matches(row)
        assert le("a", 5).matches(row)
        assert gt("a", 4).matches(row)
        assert ge("a", 5).matches(row)

    def test_contains_case_insensitive(self):
        assert contains("t", "gump").matches({"t": "Forrest Gump"})
        assert not contains("t", "xyz").matches({"t": "Forrest Gump"})

    def test_in(self):
        assert in_("a", [1, 2]).matches({"a": 2})
        assert not in_("a", [1, 2]).matches({"a": 3})

    def test_and_or_not(self):
        row = {"a": 1, "b": 2}
        assert and_(eq("a", 1), eq("b", 2)).matches(row)
        assert not and_(eq("a", 1), eq("b", 3)).matches(row)
        assert or_(eq("a", 9), eq("b", 2)).matches(row)
        assert not_(eq("a", 9)).matches(row)

    def test_and_identity(self):
        assert isinstance(and_(), TruePredicate)
        single = eq("a", 1)
        assert and_(single) is single

    def test_or_requires_argument(self):
        with pytest.raises(QueryError):
            or_()

    def test_unknown_operator_rejected(self):
        from repro.db.query import Comparison

        with pytest.raises(QueryError):
            Comparison("a", "<>", 1)

    def test_missing_column_raises(self):
        with pytest.raises(QueryError):
            eq("missing", 1).matches({"a": 1})

    def test_equality_bindings(self):
        predicate = and_(eq("a", 1), gt("b", 2), eq("c", 3))
        assert predicate.equality_bindings() == {"a": 1, "c": 3}

    def test_columns_collected(self):
        predicate = or_(eq("a", 1), and_(eq("b", 2), not_(eq("c", 3))))
        assert predicate.columns() == {"a", "b", "c"}

    def test_type_error_comparison_is_false(self):
        assert not lt("a", "zzz").matches({"a": 5})


class TestQuery:
    def test_select_all(self, db):
        rows = run(db, Query("movie"))
        assert len(rows) == 3

    def test_where_eq_uses_index(self, db):
        rows = run(db, Query("movie").where(eq("movie_id", 2)))
        assert [r["title"] for r in rows] == ["Ran"]

    def test_where_non_indexed(self, db):
        rows = run(db, Query("movie").where(gt("year", 1990)))
        assert [r["title"] for r in rows] == ["Heat"]

    def test_limit(self, db):
        # A cursor caps what it returns: fetchmany(n) takes the first n.
        result = db.connect().execute(Query("movie"))
        assert len(result.fetchmany(2)) == 2

    def test_negative_limit_rejected(self, db):
        result = db.connect().execute(Query("movie"))
        with pytest.raises(QueryError):
            result.fetchmany(-1)

    def test_count(self, db):
        statement = api.aggregate("screening", n=count()).where(eq("room", "A"))
        assert db.connect().execute(statement).scalar() == 2

    def test_fluent_chaining_returns_self(self, db):
        query = Query("movie")
        assert query.where(eq("movie_id", 1)) is query
