"""Tests for prepared statements' plan templates: reuse, replanning,
fallback and threads."""

import datetime as dt
import sys
import threading

import pytest

from repro.db import (
    Column,
    Database,
    DatabaseSchema,
    DataType,
    Param,
    Query,
    TableSchema,
    and_,
    api,
    count,
    eq,
    ge,
    in_,
    le,
    select,
)
from repro.db.engine import (
    compile_binder,
    execute_rows,
    plan_query,
    render_plan,
)
from repro.errors import QueryError


def run(db, query):
    """Materialised rows of ``query``, executed through a connection."""
    return db.connect().execute(query).all()


def direct_plan(db, predicate):
    """``plan_query`` of the screening spec with ``predicate`` written in."""
    return plan_query(db, Query("screening").where(predicate).compile())


def by_movie():
    return select("screening").where(eq("movie_id", Param("m")))


def by_room():
    return select("screening").where(eq("room", Param("room")))


def counted_by_movie():
    return api.aggregate("screening", n=count()).where(
        eq("movie_id", Param("m"))
    )


@pytest.fixture()
def db():
    schema = DatabaseSchema(
        [
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
            )
        ]
    )
    database = Database(schema)
    base = dt.date(2022, 3, 26)
    for i in range(1, 41):
        database.insert(
            "screening",
            {
                "screening_id": i,
                "movie_id": (i % 8) + 1,
                "date": base + dt.timedelta(days=i % 10),
                "price": 8.0 + (i % 5),
                "room": f"room {chr(ord('A') + i % 3)}",
            },
        )
    database.create_index("screening", "movie_id")
    return database


class TestTemplateSharing:
    def test_same_shape_different_constants_hits(self, db):
        conn = db.connect()
        statement = conn.prepare(by_movie())
        for movie_id in range(1, 9):
            rows = statement.execute(m=movie_id).all()
            assert rows
            assert all(r["movie_id"] == movie_id for r in rows)
        stats = conn.stats()
        assert (stats.plan_cache_misses, stats.plan_cache_hits) == (1, 7)

    def test_bound_plan_matches_direct_planning(self, db):
        window = db.connect().prepare(select("screening").where(
            and_(eq("movie_id", Param("m")), ge("date", Param("lo")),
                 le("date", Param("hi")))
        ))
        for day in range(6):
            lo = dt.date(2022, 3, 26) + dt.timedelta(days=day)
            hi = lo + dt.timedelta(days=2)
            assert window.plan(m=day + 1, lo=lo, hi=hi) == direct_plan(
                db, and_(eq("movie_id", day + 1), ge("date", lo),
                         le("date", hi))
            )

    def test_cached_results_equal_uncached(self, db):
        statement = db.connect().prepare(
            select("screening").where(ge("price", Param("p")))
        )
        for price in (8.0, 10.0, 12.0, 13.0):
            assert statement.execute(p=price).all() == execute_rows(
                db, direct_plan(db, ge("price", price))
            )

    def test_in_list_constants_share_template(self, db):
        conn = db.connect()
        statement = conn.prepare(
            select("screening").where(in_("movie_id", Param("ids")))
        )
        a = statement.execute(ids=(1, 2)).all()
        b = statement.execute(ids=(3, 4, 5)).all()
        assert conn.stats().plan_cache_misses == 1
        assert {r["movie_id"] for r in a} == {1, 2}
        assert {r["movie_id"] for r in b} == {3, 4, 5}


class TestFingerprints:
    """A statement's template: named parameters kept, bound per execution."""

    def test_opaque_predicate_is_planned_per_execution(self, db):
        # A predicate subclass hides its constants from binding, so no
        # statement can be prepared over it, one-shot or pooled.
        from repro.db.query import Predicate

        class PriceAbove(Predicate):
            def __init__(self, floor):
                self.floor = floor

            def matches(self, row):
                return row["price"] > self.floor

            def columns(self):
                return {"price"}

        conn = db.connect()
        statement = select("screening").where(
            and_(eq("movie_id", 5), PriceAbove(10.0))
        )
        with pytest.raises(QueryError, match="PriceAbove"):
            conn.prepare(statement)
        with pytest.raises(QueryError, match="PriceAbove"):
            conn.execute(statement)
        assert conn.stats().executions == 0

    def test_parameterize_and_bind_round_trip(self, db):
        template_spec = Query("screening").where(
            and_(eq("movie_id", Param("m")), ge("date", Param("lo")))
        ).compile()
        binds = {"m": 5, "lo": dt.date(2022, 3, 28)}
        template = plan_query(db, template_spec, binds)
        assert "IndexEq on screening using movie_id = :m" in render_plan(
            template)
        bound_spec = Query("screening").where(
            and_(eq("movie_id", 5), ge("date", dt.date(2022, 3, 28)))
        ).compile()
        bound = compile_binder(db, template)(binds)
        assert bound == plan_query(db, bound_spec)
        assert render_plan(bound) == render_plan(plan_query(db, bound_spec))


class TestRepeatedTurns:
    def test_turn_workload_hit_rate_above_90_percent(self, db):
        """The serving shapes, pooled as the turn path pools them and
        replayed with fresh constants each turn."""
        conn = db.connect()
        window = (
            "window",
            lambda: select("screening").where(
                and_(ge("date", Param("lo")), le("date", Param("hi")))
            ),
        )
        for turn in range(50):
            movie_id = turn % 8 + 1
            day = dt.date(2022, 3, 26) + dt.timedelta(days=turn % 10)
            conn.prepare_cached("by_movie", by_movie).execute(
                m=movie_id).all()
            conn.prepare_cached("count", counted_by_movie).execute(
                m=movie_id).scalar()
            conn.prepare_cached(*window).execute(
                lo=day, hi=day + dt.timedelta(days=1)).all()
        stats = conn.stats()
        hits, misses = stats.plan_cache_hits, stats.plan_cache_misses
        assert (hits, misses) == (147, 3)
        assert hits / (hits + misses) > 0.9


class TestInvalidation:
    def test_insert_keeps_template(self, db):
        # Templates read index DDL, not rows: a commit leaves the
        # statement's template in place, and the bound plan still sees
        # the new row.
        conn = db.connect()
        counted = conn.prepare(counted_by_movie())
        before = counted.execute(m=1).scalar()
        db.insert(
            "screening",
            {"screening_id": 99, "movie_id": 1, "date": dt.date(2022, 4, 9),
             "price": 9.0, "room": "room A"},
        )
        misses = conn.stats().plan_cache_misses
        assert counted.execute(m=1).scalar() == before + 1
        assert conn.stats().plan_cache_misses == misses

    def test_template_compiled_in_a_transaction_is_kept(self, db):
        # The template reads no row, so the writer's uncommitted insert
        # cannot be in it: it is kept even though the transaction rolls
        # back.
        conn = db.connect()
        statement = conn.prepare(by_room())
        with db.write_locked():
            db.transactions.begin()
            db.insert(
                "screening",
                {"screening_id": 98, "movie_id": 1,
                 "date": dt.date(2022, 4, 9), "price": 9.0,
                 "room": "room B"},
            )
            inside = statement.execute(room="room B").all()
            db.transactions.rollback()
        misses = conn.stats().plan_cache_misses
        outside = statement.execute(room="room B").all()
        assert conn.stats().plan_cache_misses == misses
        assert len(outside) == len(inside) - 1

    def test_update_and_delete_keep_results_fresh(self, db):
        conn = db.connect()
        statement = conn.prepare(by_movie())

        def ids() -> set:
            return {r["screening_id"] for r in statement.execute(m=2)}

        baseline_ids = ids()
        victim = sorted(baseline_ids)[0]
        rid = db.table("screening").lookup("screening_id", victim)[0]
        db.update("screening", rid, {"movie_id": 3})
        after_update = ids()
        assert after_update == baseline_ids - {victim}
        rid2 = db.table("screening").lookup(
            "screening_id", sorted(after_update)[0]
        )[0]
        db.delete("screening", rid2)
        after_delete = ids()
        assert after_delete == after_update - {sorted(after_update)[0]}
        assert conn.stats().plan_cache_misses == 1

    def test_create_index_invalidates_cached_templates(self, db):
        # Plan a SeqScan template, then add the index: the statement's
        # next execution must plan again and use the probe.
        conn = db.connect()
        statement = conn.prepare(by_room())
        rows = statement.execute(room="room A").all()
        assert "SeqScan" in statement.explain(room="room A")
        db.create_index("screening", "room")
        misses = conn.stats().plan_cache_misses
        assert statement.execute(room="room A").all() == rows
        assert conn.stats().plan_cache_misses == misses + 1
        explained = statement.explain(room="room A")
        assert "IndexEq on screening using room" in explained
        assert "SeqScan" not in explained

    def test_create_index_inside_open_write_scope(self, db):
        # The commit latch is reentrant: index DDL inside an open write
        # scope must not deadlock, and the statement still plans again
        # to the new access path.
        statement = db.connect().prepare(by_room())
        assert "SeqScan" in statement.explain(room="room A")
        with db.write_locked():
            db.create_index("screening", "room")
        assert db.table("screening").has_index("room")
        assert "IndexEq on screening using room" in statement.explain(
            room="room A")

    def test_unbindable_constant_falls_back(self, db):
        # Plan the template with a proper id, then bind a string that
        # cannot coerce to INTEGER: the statement must plan that
        # execution directly and reproduce scan semantics, and keep its
        # template for the next execution.
        statement = db.connect().prepare(by_movie())
        assert statement.execute(m=3).all()
        assert "IndexEq" in statement.explain(m=3)
        assert statement.plan(m="three") == direct_plan(
            db, eq("movie_id", "three"))
        assert "SeqScan" in statement.explain(m="three")
        assert statement.execute(m="three").all() == []
        assert "IndexEq" in statement.explain(m=4)


class TestThreadSafety:
    def test_sixteen_threads_share_the_cache(self, db):
        """Sixteen threads share two statements on one connection."""
        errors: list[Exception] = []
        barrier = threading.Barrier(16)
        conn = db.connect()
        rows_of = conn.prepare(by_movie())
        counted = conn.prepare(
            api.aggregate("screening", n=count()).where(
                ge("price", Param("p")))
        )

        def worker(seed: int) -> None:
            try:
                barrier.wait(timeout=10)
                for i in range(40):
                    movie_id = (seed + i) % 8 + 1
                    rows = rows_of.execute(m=movie_id).all()
                    assert rows
                    assert all(r["movie_id"] == movie_id for r in rows)
                    price = 8.0 + (i % 5)
                    assert counted.execute(p=price).scalar() == sum(
                        r["price"] >= price for r in db.rows("screening")
                    )
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(s,)) for s in range(16)
        ]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        # One count per execution: a lost counter update shows here.
        # Racing first executions may each plan, at most once per thread
        # and statement.
        stats = conn.stats()
        assert stats.executions == 16 * 80
        assert stats.plan_cache_hits + stats.plan_cache_misses == 16 * 80
        assert 2 <= stats.plan_cache_misses <= 2 * 16

    def test_reader_threads_with_concurrent_writer(self, db):
        stop = threading.Event()
        errors: list[Exception] = []
        statement = db.connect().prepare(by_movie())

        def writer() -> None:
            try:
                for i in range(30):
                    db.insert(
                        "screening",
                        {"screening_id": 1000 + i, "movie_id": (i % 8) + 1,
                         "date": dt.date(2022, 5, 1), "price": 10.0,
                         "room": "room W"},
                    )
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)
            finally:
                stop.set()

        def reader() -> None:
            try:
                while not stop.is_set():
                    rows = statement.execute(m=3).all()
                    assert all(r["movie_id"] == 3 for r in rows)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=reader) for __ in range(4)]
        threads.append(threading.Thread(target=writer))
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors
        # After the writer finishes, the kept template serves the final
        # state.
        final = statement.execute(m=3).all()
        direct = [
            r for r in db.rows("screening") if r["movie_id"] == 3
        ]
        assert final == direct
        assert run(db, Query("screening").where(eq("movie_id", 3))) == direct
