"""The unified execution API: Connection / PreparedStatement / Result."""

from __future__ import annotations

import random
import threading

import pytest

from repro.db import Param, Query, api, select
from repro.db.aggregation import count, sum_
from repro.db.api import IndexSuggestion
from repro.db.engine import Filter, IndexEq, SeqScan
from repro.db.procedures import ProcedureResult
from repro.db.query import contains, eq, ge, gt, le, or_
from repro.errors import ProcedureError, QueryError

from tests.db.reference_executor import aggregate


def scan(database, query):
    """Reference rows of ``query``: every row of its table in row-id
    order, kept when the predicate matches."""
    predicate = query.compile().predicate
    return [
        row for row in database.rows(query.table) if predicate.matches(row)
    ]


@pytest.fixture()
def database(movie_db):
    db, __ = movie_db
    return db


@pytest.fixture()
def conn(database):
    return database.connect()


# ---------------------------------------------------------------------------
# Connection basics
# ---------------------------------------------------------------------------

class TestConnection:
    def test_connect_returns_fresh_connections(self, database):
        a = database.connect()
        b = database.connect()
        assert a is not b
        assert a.name != b.name
        assert a.database is database

    def test_default_connection_is_shared(self, database):
        assert database.default_connection is database.default_connection

    def test_named_connection(self, database):
        assert database.connect(name="svc").name == "svc"

    def test_stats_count_prepares_and_executions(self, conn):
        stmt = conn.prepare(select("movie").where(eq("year", Param("y"))))
        stmt.execute(y=1999).all()
        stmt.execute(y=2001).all()
        stats = conn.stats()
        assert stats.statements_prepared == 1
        assert stats.executions == 2

    def test_rows_returned_counted(self, conn, database):
        n = len(database.table("movie"))
        rows = conn.execute(select("movie")).all()
        assert len(rows) == n
        assert conn.stats().rows_returned == n

    def test_prepare_cached_pools_by_key(self, conn):
        a = conn.prepare_cached("k", lambda: select("movie"))
        b = conn.prepare_cached("k", lambda: select("movie"))
        assert a is b
        assert conn.stats().statements_prepared == 1

    def test_reading_scope_allows_queries(self, conn):
        with conn.reading():
            assert conn.execute(
                api.aggregate("movie", n=count())
            ).scalar() > 0

    def test_prepare_rejects_unknown_statement_types(self, conn):
        with pytest.raises(QueryError):
            conn.prepare("SELECT 1")  # type: ignore[arg-type]


class TestTransactionScope:
    def test_commit_on_success(self, conn, database):
        before = database.count("movie")
        with conn.transaction():
            database.insert("movie", {
                "movie_id": 9001, "title": "Committed", "genre": "drama",
                "year": 2024, "duration_minutes": 100, "language_id": 1,
            })
        assert database.count("movie") == before + 1
        assert conn.stats().transactions_committed == 1

    def test_rollback_on_exception(self, conn, database):
        before = database.count("movie")
        with pytest.raises(RuntimeError):
            with conn.transaction():
                database.insert("movie", {
                    "movie_id": 9002, "title": "Undone", "genre": "drama",
                    "year": 2024, "duration_minutes": 90, "language_id": 1,
                })
                raise RuntimeError("abort")
        assert database.count("movie") == before
        stats = conn.stats()
        assert stats.transactions_aborted == 1
        assert stats.transactions_committed == 0

    def test_commit_bumps_data_version(self, conn, database):
        version = database.data_version
        with conn.transaction():
            database.insert("movie", {
                "movie_id": 9003, "title": "Versioned", "genre": "drama",
                "year": 2024, "duration_minutes": 95, "language_id": 1,
            })
        assert database.data_version > version


# ---------------------------------------------------------------------------
# PreparedStatement: select/count parity with a reference scan
# ---------------------------------------------------------------------------

class TestPreparedSelect:
    def test_execute_matches_query_run(self, conn, database):
        stmt = conn.prepare(
            select("screening").where(eq("movie_id", Param("m")))
        )
        for movie_id in (1, 2, 3, 99):
            expected = scan(database, Query("screening").where(
                eq("movie_id", movie_id)
            ))
            assert stmt.execute(m=movie_id).all() == expected

    def test_literal_constants_need_no_binds(self, conn, database):
        stmt = conn.prepare(select("movie").where(ge("year", 2000)))
        assert stmt.param_names == frozenset()
        assert stmt.execute().all() == \
            scan(database, Query("movie").where(ge("year", 2000)))

    def test_count_statement(self, conn, database):
        stmt = conn.prepare(
            api.aggregate("screening", n=count())
            .where(eq("movie_id", Param("m")))
        )
        for movie_id in (1, 5):
            assert stmt.execute(m=movie_id).scalar() == len(scan(
                database, Query("screening").where(eq("movie_id", movie_id))
            ))

    def test_plain_query_is_preparable(self, conn, database):
        stmt = conn.prepare(Query("movie").where(ge("year", 2000)))
        assert stmt.execute().all() == \
            scan(database, Query("movie").where(ge("year", 2000)))

    def test_missing_binding_rejected(self, conn):
        stmt = conn.prepare(select("movie").where(eq("year", Param("y"))))
        with pytest.raises(QueryError, match="missing parameter"):
            stmt.execute()

    def test_unknown_binding_rejected(self, conn):
        stmt = conn.prepare(select("movie").where(eq("year", Param("y"))))
        with pytest.raises(QueryError, match="unknown parameter"):
            stmt.execute(y=2000, z=1)

    def test_same_param_twice_binds_both_slots(self, conn, database):
        stmt = conn.prepare(
            select("screening").where(
                or_(eq("movie_id", Param("x")), eq("room", Param("x")))
            )
        )
        expected = scan(database, Query("screening").where(
            or_(eq("movie_id", 2), eq("room", 2))
        ))
        assert stmt.execute(x=2).all() == expected

    def test_param_name_must_be_identifier(self):
        with pytest.raises(QueryError):
            Param("not an identifier")

    def test_unbindable_constant_falls_back_to_direct_plan(
        self, conn, database
    ):
        stmt = conn.prepare(
            select("screening").where(eq("movie_id", Param("m")))
        )
        stmt.execute(m=3).all()  # compile the template with a good value
        expected = scan(database, Query("screening").where(
            eq("movie_id", "not-an-int")
        ))
        assert stmt.execute(m="not-an-int").all() == expected

    def test_in_list_param_binds_whole_tuple(self, conn, database):
        from repro.db.query import in_

        stmt = conn.prepare(
            select("screening").where(in_("movie_id", Param("ids")))
        )
        expected = scan(database, Query("screening").where(in_("movie_id", (1, 3))))
        assert stmt.execute(ids=(1, 3)).all() == expected
        # A second shape through the same template, different list size.
        expected = scan(database, Query("screening").where(in_("movie_id", (2,))))
        assert stmt.execute(ids=(2,)).all() == expected

    def test_data_changes_invalidate_template(self, conn, database):
        stmt = conn.prepare(
            select("movie").where(eq("year", Param("y")))
        )
        before = len(stmt.execute(y=2024).all())
        database.insert("movie", {
            "movie_id": 9010, "title": "Fresh", "genre": "drama",
            "year": 2024, "duration_minutes": 100, "language_id": 1,
        })
        assert len(stmt.execute(y=2024).all()) == before + 1

    def test_index_ddl_adopted_by_prepared_statement(self, conn, database):
        stmt = conn.prepare(
            select("movie").where(eq("title", Param("t")))
        )
        title = database.rows("movie")[0]["title"]
        result = stmt.execute(t=title)
        assert isinstance(result.plan, Filter)
        assert isinstance(result.plan.child, SeqScan)
        expected = result.all()
        database.create_index("movie", "title")
        result = stmt.execute(t=title)
        assert isinstance(result.plan.child, IndexEq)
        assert result.all() == expected

    def test_explain_renders_bound_plan(self, conn):
        stmt = conn.prepare(
            select("screening").where(eq("screening_id", Param("s")))
        )
        text = stmt.explain(s=7)
        assert "IndexEq on screening using screening_id" in text

    def test_statement_run_honours_count_and_aggregates(self, database):
        # A one-shot execute routes aggregate statements through the
        # aggregate plan, not just the row query underneath them.
        counted = database.connect().execute(
            api.aggregate("movie", count=count())
        )
        assert counted.all() == [{"count": database.count("movie")}]
        assert "HashAggregate" in counted.explain()
        grouped = database.connect().execute(
            api.aggregate("reservation", booked=sum_("no_tickets"))
            .group_by("screening_id")
        )
        assert grouped.all() == aggregate(
            scan(database, Query("reservation")),
            {"booked": sum_("no_tickets")},
            group_by=["screening_id"],
        )
        assert "IndexGroupedAggScan" in grouped.explain()

    def test_statement_run_with_unbound_params_rejected(self, database):
        with pytest.raises(QueryError, match="missing parameter"):
            database.connect().execute(
                select("movie").where(eq("year", Param("y")))
            )

# ---------------------------------------------------------------------------
# Aggregate statements
# ---------------------------------------------------------------------------

class TestPreparedAggregates:
    def test_grouped_aggregate_matches_aggregate_query(self, conn, database):
        # The materialise-then-reduce result aggregate_query defined.
        stmt = conn.prepare(
            api.aggregate("reservation", booked=sum_("no_tickets"), n=count())
            .group_by("screening_id")
        )
        expected = aggregate(
            scan(database, Query("reservation")),
            {"booked": sum_("no_tickets"), "n": count()},
            group_by=["screening_id"],
        )
        assert stmt.execute().all() == expected

    def test_parameterised_aggregate(self, conn, database):
        stmt = conn.prepare(
            api.aggregate("reservation", booked=sum_("no_tickets"))
            .where(eq("screening_id", Param("s")))
        )
        for screening_id in (1, 2, 3):
            expected = aggregate(
                scan(database, Query("reservation").where(
                    eq("screening_id", screening_id)
                )),
                {"booked": sum_("no_tickets")},
            )
            assert stmt.execute(s=screening_id).all() == expected

    def test_empty_aggregates_rejected(self, conn):
        with pytest.raises(QueryError):
            conn.prepare(api.aggregate("screening"))

    def test_group_by_without_aggregates_rejected(self, conn):
        with pytest.raises(QueryError):
            conn.prepare(select("screening").group_by("room"))

# ---------------------------------------------------------------------------
# Procedure call statements + ProcedureResult protocol
# ---------------------------------------------------------------------------

class TestCallStatements:
    def test_call_executes_procedure(self, conn, database):
        customer = database.rows("customer")[0]
        screening = database.rows("screening")[0]
        before = database.count("reservation")
        result = conn.call(
            "ticket_reservation",
            customer_id=customer["customer_id"],
            screening_id=screening["screening_id"],
            ticket_amount=1,
        )
        assert database.count("reservation") == before + 1
        assert result.value["no_tickets"] == 1
        assert result.plan is None
        with pytest.raises(QueryError):
            result.explain()
        assert conn.stats().procedure_calls == 1

    def test_prepared_call_binds_params(self, conn, database):
        customer = database.rows("customer")[0]
        screening = database.rows("screening")[1]
        stmt = conn.prepare(
            api.call(
                "ticket_reservation",
                customer_id=Param("c"),
                screening_id=Param("s"),
                ticket_amount=2,
            )
        )
        assert stmt.param_names == {"c", "s"}
        result = stmt.execute(
            c=customer["customer_id"], s=screening["screening_id"]
        )
        assert result.value["no_tickets"] == 2

    def test_unknown_procedure_rejected_at_prepare(self, conn):
        with pytest.raises(ProcedureError):
            conn.prepare(api.call("no_such_procedure"))

    def test_unknown_argument_rejected_at_prepare(self, conn):
        with pytest.raises(ProcedureError):
            conn.prepare(api.call("ticket_reservation", bogus=1))

    def test_procedure_result_rows_interchangeable(self, conn, database):
        movie = database.rows("movie")[0]
        result = conn.call("list_screenings", movie_id=movie["movie_id"])
        rows = result.all()
        assert rows == result.procedure_result.rows()
        assert rows == scan(database, Query("screening").where(
            eq("movie_id", movie["movie_id"])
        ))


class TestProcedureResultProtocol:
    def test_none_value_yields_no_rows(self):
        result = ProcedureResult("p", {}, None)
        assert list(result) == []
        assert result.all() == []
        assert result.scalar() is None
        assert len(result) == 0
        # An outcome object stays truthy even when it produced no rows
        # (callers gate success handling on `if outcome.result:`).
        assert bool(result)

    def test_mapping_value_is_one_row(self):
        result = ProcedureResult("p", {}, {"reservation_id": 7, "n": 2})
        assert result.all() == [{"reservation_id": 7, "n": 2}]
        assert result.scalar() == 7
        assert len(result) == 1

    def test_row_sequence_value_iterates_rows(self):
        rows = [{"a": 1}, {"a": 2}]
        result = ProcedureResult("p", {}, rows)
        assert list(result) == rows
        assert result.all() is not rows  # fresh copies

    def test_scalar_value_wraps_as_row(self):
        result = ProcedureResult("p", {}, 42)
        assert result.all() == [{"value": 42}]
        assert result.scalar() == 42


# ---------------------------------------------------------------------------
# Result cursor semantics
# ---------------------------------------------------------------------------

class TestResultCursor:
    def test_iteration_streams_all_rows(self, conn, database):
        rows = list(conn.execute(select("screening")))
        assert rows == scan(database, Query("screening"))

    def test_fetchmany_pages_through(self, conn, database):
        expected = scan(database, Query("screening"))
        result = conn.execute(select("screening"))
        pages = []
        while True:
            page = result.fetchmany(7)
            if not page:
                break
            assert len(page) <= 7
            pages.extend(page)
        assert pages == expected

    def test_all_after_partial_fetch_returns_remainder(self, conn, database):
        expected = scan(database, Query("screening"))
        result = conn.execute(select("screening"))
        head = result.fetchmany(3)
        assert head == expected[:3]
        assert result.all() == expected[3:]
        assert result.all() == []

    def test_fetchone_then_exhaustion(self, conn, database):
        movie_id = database.rows("movie")[0]["movie_id"]
        result = conn.execute(select("movie").where(eq("movie_id", movie_id)))
        assert result.fetchone() is not None
        assert result.fetchone() is None

    def test_scalar_on_empty_result_is_none(self, conn):
        assert conn.execute(
            select("movie").where(eq("movie_id", -1))
        ).scalar() is None

    def test_negative_fetchmany_rejected(self, conn):
        with pytest.raises(QueryError):
            conn.execute(select("movie")).fetchmany(-1)

    def test_plan_and_explain_exposed(self, conn):
        result = conn.execute(
            select("screening").where(eq("screening_id", 3))
        )
        assert result.plan is not None
        assert "screening" in result.explain()

    def test_streaming_defers_materialisation(self, conn, database):
        # Only the consumed prefix is charged to the connection.
        result = conn.execute(select("screening"))
        result.fetchmany(2)
        assert conn.stats().rows_returned == 2

    def test_row_ids_for_filter_plans(self, conn, database):
        result = conn.execute(
            select("screening").where(eq("movie_id", 1))
        )
        from repro.db.engine import execute_row_ids

        assert result.row_ids() == execute_row_ids(database, result.plan)

    def test_error_surfaces_on_consumption(self, conn):
        result = conn.execute(select("movie").where(eq("nope", 1)))
        with pytest.raises(QueryError):
            result.all()


# ---------------------------------------------------------------------------
# Index advisor
# ---------------------------------------------------------------------------

class TestIndexAdvisor:
    def test_equality_miss_suggests_hash_index(self, conn, database):
        assert not database.table("movie").has_index("title")
        conn.execute(select("movie").where(eq("title", "Heat"))).all()
        suggestions = conn.advisor()
        assert any(
            s.table == "movie" and s.column == "title"
            for s in suggestions
        )
        assert "CREATE INDEX ON movie (title)" in suggestions[0].statement

    def test_indexed_probe_records_no_miss(self, conn, database):
        conn.execute(select("screening").where(eq("movie_id", 1))).all()
        assert conn.advisor() == []

    def test_contains_predicate_not_advisable(self, conn):
        conn.execute(select("movie").where(contains("title", "the"))).all()
        assert conn.advisor() == []

    def test_misses_accumulate_and_rank(self, conn, database):
        for __ in range(3):
            conn.execute(select("movie").where(eq("title", "Heat"))).all()
        conn.execute(
            select("movie").where(ge("duration_minutes", 100))
        ).all()
        suggestions = conn.advisor()
        title = next(s for s in suggestions if s.column == "title")
        assert title.misses == 3
        assert title.rows_scanned == 3 * len(database.table("movie"))
        assert suggestions[0] is title  # most rows walked first

    def test_prepared_statements_record_misses_too(self, conn, database):
        stmt = conn.prepare(select("movie").where(eq("title", Param("t"))))
        stmt.execute(t="Heat").all()
        stmt.execute(t="Alien").all()
        title = next(s for s in conn.advisor() if s.column == "title")
        assert title.misses == 2

    def test_database_advisor_aggregates_connections(self, database):
        a = database.connect()
        b = database.connect()
        a.execute(select("movie").where(eq("title", "Heat"))).all()
        b.execute(select("movie").where(eq("title", "Alien"))).all()
        title = next(
            s for s in database.index_advisor.suggestions()
            if s.column == "title"
        )
        assert title.misses == 2

    def test_suggestion_apply_creates_index_and_clears_misses(
        self, conn, database
    ):
        conn.execute(select("movie").where(eq("title", "Heat"))).all()
        suggestion = conn.advisor()[0]
        suggestion.apply(database)
        assert database.table("movie").has_index("title")
        # A satisfied suggestion disappears from the advisor output...
        assert not any(s.column == "title" for s in conn.advisor())
        assert not any(
            s.column == "title"
            for s in database.index_advisor.suggestions(database)
        )
        # ...and the new index is adopted: later executions probe,
        # recording no new miss.
        before = conn.stats().index_misses
        conn.execute(select("movie").where(eq("title", "Heat"))).all()
        assert conn.stats().index_misses == before


class TestApplyIdempotent:
    def test_apply_creates_then_noops_with_warning(self, database):
        suggestion = IndexSuggestion("movie", "title", 10, 10_000)
        assert suggestion.apply(database) is True
        assert database.table("movie").has_index("title")
        with pytest.warns(UserWarning, match="already exists"):
            assert suggestion.apply(database) is False

    def test_apply_safe_under_commit_latch(self, database):
        # The latch is reentrant: applying inside an open write scope
        # must not deadlock.
        suggestion = IndexSuggestion("movie", "title", 10, 10_000)
        with database.write_locked():
            assert suggestion.apply(database) is True
        assert database.table("movie").has_index("title")

    def test_existing_constraint_index_noops(self, database):
        suggestion = IndexSuggestion("movie", "movie_id", 10, 10_000)
        with pytest.warns(UserWarning):
            assert suggestion.apply(database) is False


# ---------------------------------------------------------------------------
# Concurrency: one PreparedStatement shared by 16 threads
# ---------------------------------------------------------------------------

class TestConcurrentExecution:
    def test_16_threads_share_one_prepared_statement(self, conn, database):
        stmt = conn.prepare(
            select("screening").where(eq("movie_id", Param("m")))
        )
        movie_ids = sorted(
            {row["movie_id"] for row in database.rows("screening")}
        )[:16] or [1]
        expected = {
            m: scan(database, Query("screening").where(eq("movie_id", m)))
            for m in movie_ids
        }
        errors: list[BaseException] = []
        mismatches: list[tuple] = []
        barrier = threading.Barrier(16)

        def worker(thread_index: int) -> None:
            m = movie_ids[thread_index % len(movie_ids)]
            try:
                barrier.wait(timeout=10)
                for __ in range(40):
                    rows = stmt.execute(m=m).all()
                    if rows != expected[m]:
                        mismatches.append((m, rows))
                        return
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(16)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        assert not mismatches  # bindings never bleed between threads
        assert conn.stats().executions == 16 * 40


# ---------------------------------------------------------------------------
# Randomised differential: PreparedStatement.execute ≡ a reference scan
# ---------------------------------------------------------------------------

class TestRandomisedParity:
    def test_500_query_differential(self, conn, database):
        rng = random.Random(37)
        tables = {
            "screening": (
                ["movie_id", "price", "capacity"], ["room", "date"]
            ),
            "movie": (["year", "duration_minutes"], ["genre", "title"]),
            "reservation": (["screening_id", "no_tickets"], []),
        }
        ops = [eq, ge, le, gt]
        for case in range(500):
            table = rng.choice(list(tables))
            numeric, __ = tables[table]
            statement = select(table)
            query = Query(table)
            binds = {}
            for i in range(rng.randrange(0, 3)):
                column = rng.choice(numeric)
                op = rng.choice(ops)
                value = rng.randrange(0, 2000)
                name = f"p{i}"
                statement.where(op(column, Param(name)))
                query.where(op(column, value))
                binds[name] = value
            counting = rng.random() < 0.25
            if counting:
                counted = api.aggregate(table, n=count())
                counted.where(statement.compile().predicate)
                assert conn.prepare(counted).execute(**binds).scalar() \
                    == len(scan(database, query)), f"case {case}"
            else:
                assert conn.prepare(statement).execute(**binds).all() \
                    == scan(database, query), f"case {case}"


# ---------------------------------------------------------------------------
# The execution-API lint (one execution surface; storage stamps private)
# ---------------------------------------------------------------------------

class TestExecutionApiLint:
    def test_src_has_no_direct_legacy_executions(self, capsys):
        import sys
        from pathlib import Path

        from repro.db import Connection, aggregation

        # The legacy shims are gone, so no caller can execute through
        # them: a call to one fails here instead of in a lint.
        assert not hasattr(Query, "run") and not hasattr(Query, "count")
        assert not hasattr(aggregation, "aggregate_query")
        assert not any(
            hasattr(Connection, name)
            for name in ("run_query", "count_query", "run_aggregate")
        )
        # The lint keeps the storage-stamp rule.

        tools = Path(__file__).resolve().parents[2] / "tools"
        sys.path.insert(0, str(tools))
        try:
            import check_execution_api

            assert check_execution_api.main() == 0
        finally:
            sys.path.remove(str(tools))
