"""Tests for the prepared-plan cache: sharing, invalidation, threads."""

import datetime as dt
import threading
from dataclasses import replace

import pytest

from repro.db import (
    Column,
    Database,
    DatabaseSchema,
    DataType,
    Query,
    TableSchema,
    and_,
    api,
    count,
    eq,
    ge,
    in_,
    le,
    ne,
)
from repro.db.engine import (
    AggExpr,
    compile_binder,
    fingerprint_spec,
    parameterize_spec,
    plan_query,
    render_plan,
)


def run(db, query):
    """Materialised rows of ``query``, executed through a connection."""
    return db.connect().execute(query).all()


def prepared_plan(db, query):
    """The plan a prepared ``query`` binds from the shared plan cache."""
    return db.connect().prepare(query).plan()


def small_cache(db, max_entries):
    """Give ``db`` a fresh plan cache holding at most ``max_entries``."""
    from repro.db.engine import PlanCache

    db._plan_cache = PlanCache(db, max_entries=max_entries)
    return db._plan_cache


def count_rows(db, query):
    """COUNT(*) over ``query``'s predicate, as an aggregate statement."""
    statement = api.aggregate(query.table, n=count())
    statement.where(query.compile().predicate)
    return db.connect().execute(statement).scalar()


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
        cache = db.plan_cache
        misses_before = cache.misses
        for movie_id in range(1, 9):
            rows = run(db, Query("screening").where(eq("movie_id", movie_id)))
            assert all(r["movie_id"] == movie_id for r in rows)
        assert cache.misses - misses_before == 1
        assert cache.hits >= 7

    def test_bound_plan_matches_direct_planning(self, db):
        query = Query("screening").where(
            and_(ge("date", dt.date(2022, 3, 28)),
                 le("date", dt.date(2022, 3, 30)))
        )
        prepared_plan(db, query)  # compile the template
        cached = prepared_plan(db, query)
        direct = plan_query(db, query.compile())
        assert render_plan(cached) == render_plan(direct)

    def test_cached_results_equal_uncached(self, db):
        query = Query("screening").where(ge("price", 10.0))
        from repro.db.engine import execute_rows

        prepared_plan(db, query)
        assert execute_rows(db, prepared_plan(db, query)) == execute_rows(
            db, plan_query(db, query.compile())
        )

    def test_in_list_constants_share_template(self, db):
        cache = db.plan_cache
        misses_before = cache.misses
        a = run(db, Query("screening").where(in_("movie_id", (1, 2))))
        b = run(db, Query("screening").where(in_("movie_id", (3, 4, 5))))
        assert cache.misses - misses_before == 1
        assert {r["movie_id"] for r in a} <= {1, 2}
        assert {r["movie_id"] for r in b} <= {3, 4, 5}


class TestFingerprints:
    def test_different_shapes_do_not_collide(self, db):
        by_movie = Query("screening").where(eq("movie_id", 3)).compile()
        counted = replace(by_movie, aggregates=(AggExpr("n", "count"),))
        specs = [
            by_movie,
            Query("screening").where(ge("movie_id", 3)).compile(),
            Query("screening").where(eq("screening_id", 3)).compile(),
            counted,
            replace(counted, group_by=("room",)),
            Query("screening").where(in_("movie_id", (3,))).compile(),
        ]
        fingerprints = [fingerprint_spec(s)[0] for s in specs]
        assert len(set(fingerprints)) == len(fingerprints)

    def test_same_shape_same_fingerprint(self, db):
        a = Query("screening").where(eq("movie_id", 1)).compile()
        b = Query("screening").where(eq("movie_id", 999)).compile()
        assert fingerprint_spec(a)[0] == fingerprint_spec(b)[0]
        assert fingerprint_spec(a)[1] == (1,)
        assert fingerprint_spec(b)[1] == (999,)

    def test_opaque_predicate_is_planned_per_execution(self, db):
        # A predicate subclass hides its constants from the fingerprint,
        # so its statements bypass the template cache and the executor
        # evaluates it row by row.
        from repro.db.query import Predicate

        class PriceAbove(Predicate):
            def __init__(self, floor):
                self.floor = floor

            def matches(self, row):
                return row["price"] > self.floor

            def columns(self):
                return {"price"}

        spec = Query("screening").where(PriceAbove(10.0)).compile()
        assert fingerprint_spec(spec) == (None, ())
        bypasses_before = db.plan_cache.bypasses
        rows = run(db, Query("screening").where(PriceAbove(10.0)))
        assert db.plan_cache.bypasses == bypasses_before + 1
        assert rows == [r for r in db.rows("screening") if r["price"] > 10.0]

    def test_parameterize_and_bind_round_trip(self, db):
        spec = Query("screening").where(
            and_(eq("movie_id", 5), ge("date", dt.date(2022, 3, 28)))
        ).compile()
        shape, params = parameterize_spec(spec)
        template = plan_query(db, shape, params=params)
        bound = compile_binder(db, template)(params)
        assert render_plan(bound) == render_plan(plan_query(db, spec))


class TestRepeatedTurns:
    def test_turn_workload_hit_rate_above_90_percent(self, db):
        """The serving shapes, replayed with fresh constants each turn."""
        cache = db.plan_cache
        hits_before, misses_before = cache.hits, cache.misses
        for turn in range(50):
            movie_id = turn % 8 + 1
            day = dt.date(2022, 3, 26) + dt.timedelta(days=turn % 10)
            run(db, Query("screening").where(eq("movie_id", movie_id)))
            count_rows(db, Query("screening").where(eq("movie_id", movie_id)))
            run(db, Query("screening").where(
                and_(ge("date", day), le("date", day + dt.timedelta(days=1)))
            ))
        hits = cache.hits - hits_before
        misses = cache.misses - misses_before
        assert hits / (hits + misses) > 0.9


class TestInvalidation:
    def test_insert_invalidates_template(self, db):
        query = Query("screening").where(eq("movie_id", 1))
        before = count_rows(db, query)
        misses_before = db.plan_cache.misses
        db.insert(
            "screening",
            {"screening_id": 99, "movie_id": 1, "date": dt.date(2022, 4, 9),
             "price": 9.0, "room": "room A"},
        )
        assert count_rows(db, query) == before + 1
        assert db.plan_cache.misses > misses_before  # recompiled

    def test_update_and_delete_keep_results_fresh(self, db):
        query = Query("screening").where(eq("movie_id", 2))
        baseline_ids = {r["screening_id"] for r in run(db, query)}
        victim = sorted(baseline_ids)[0]
        rid = db.table("screening").lookup("screening_id", victim)[0]
        db.update("screening", rid, {"movie_id": 3})
        after_update = {r["screening_id"] for r in run(db, query)}
        assert after_update == baseline_ids - {victim}
        rid2 = db.table("screening").lookup(
            "screening_id", sorted(after_update)[0]
        )[0]
        db.delete("screening", rid2)
        after_delete = {r["screening_id"] for r in run(db, query)}
        assert after_delete == after_update - {sorted(after_update)[0]}

    def test_create_index_invalidates_cached_templates(self, db):
        # Cache a SeqScan template, then add the index: the next plan
        # of the same shape must recompile and use the probe.
        query = Query("screening").where(eq("room", "room A"))
        assert "SeqScan" in query.explain(db)
        db.create_index("screening", "room")
        explained = query.explain(db)
        assert "IndexEq on screening using room" in explained
        assert "SeqScan" not in explained

    def test_unbindable_constant_falls_back(self, db):
        # Compile the template with a proper date, then reuse the shape
        # with a string that cannot coerce to DATE: the cache must fall
        # back to direct planning and reproduce scan semantics.
        good = Query("screening").where(ge("date", dt.date(2022, 3, 28)))
        good_rows = run(db, good)
        assert good_rows
        bad = Query("screening").where(ge("date", "not a date"))
        assert run(db, bad) == []  # comparison semantics: nothing matches


class TestThreadSafety:
    def test_sixteen_threads_share_the_cache(self, db):
        errors: list[Exception] = []
        barrier = threading.Barrier(16)

        def worker(seed: int) -> None:
            try:
                barrier.wait(timeout=10)
                for i in range(40):
                    movie_id = (seed + i) % 8 + 1
                    rows = run(db, Query("screening").where(
                        eq("movie_id", movie_id)
                    ))
                    assert all(r["movie_id"] == movie_id for r in rows)
                    n = count_rows(db, Query("screening").where(
                        ge("price", 8.0 + (i % 5))
                    ))
                    assert n >= 0
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(s,)) for s in range(16)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors
        cache = db.plan_cache
        assert cache.hits + cache.misses >= 16 * 80

    def test_reader_threads_with_concurrent_writer(self, db):
        stop = threading.Event()
        errors: list[Exception] = []

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
                    rows = run(db, Query("screening").where(eq("movie_id", 3)))
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
        # After the writer finishes, cached plans serve the final state.
        final = run(db, Query("screening").where(eq("movie_id", 3)))
        direct = [
            r for r in db.rows("screening") if r["movie_id"] == 3
        ]
        assert len(final) == len(direct)


class TestLRUBound:
    def test_eviction_beyond_cap(self, db):
        cache = small_cache(db, 4)
        predicates = [eq("movie_id", 1), ge("movie_id", 1), eq("room", "A"),
                      ge("price", 9.0), le("date", dt.date(2022, 4, 1)),
                      ne("room", "A")]
        for predicate in predicates:
            # One distinct shape per predicate.
            prepared_plan(db, Query("screening").where(predicate))
        assert len(cache) == 4
        assert cache.evictions == 2

    def test_hit_refreshes_recency(self, db):
        cache = small_cache(db, 2)
        a = Query("screening").where(eq("room", "A"))
        b = Query("screening").where(eq("price", 9.0))
        c = Query("screening").where(eq("date", dt.date(2022, 4, 1)))
        prepared_plan(db, a)
        prepared_plan(db, b)
        prepared_plan(db, a)        # touch a: b is now the LRU entry
        prepared_plan(db, c)        # evicts b, not a
        misses = cache.misses
        prepared_plan(db, a)
        assert cache.misses == misses  # still cached
        prepared_plan(db, b)
        assert cache.misses == misses + 1  # was evicted, recompiles

    def test_evicted_shape_recompiles_correctly(self, db):
        cache = small_cache(db, 1)
        q1 = Query("screening").where(eq("movie_id", 3))
        q2 = Query("screening").where(ge("price", 9.0))
        plan1 = prepared_plan(db, q1)
        prepared_plan(db, q2)
        plan1_again = prepared_plan(db, q1)
        assert plan1_again == plan1
        assert cache.evictions >= 1

    def test_default_cache_is_bounded(self, db):
        from repro.db.engine import DEFAULT_MAX_ENTRIES

        assert DEFAULT_MAX_ENTRIES >= 64
        # The database's shared cache exposes the eviction counter.
        assert db.plan_cache.evictions == 0

    def test_invalidation_does_not_count_as_eviction(self, db):
        cache = db.plan_cache
        prepared_plan(db, Query("screening").where(eq("movie_id", 1)))
        before = cache.evictions
        cache.invalidate()
        assert cache.evictions == before
