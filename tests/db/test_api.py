"""The unified execution API: Connection / PreparedStatement / Result."""

from __future__ import annotations

import random
import threading

import pytest

from repro.db import Param, Query, api, select
from repro.db.aggregation import count, sum_
from repro.db.engine import Filter, IndexEq, SeqScan
from repro.db.procedures import ProcedureResult
from repro.db.query import eq, ge, gt, le, or_
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
        assert conn.stats().executions == 2

    def test_prepare_cached_pools_by_key(self, conn):
        a = conn.prepare_cached("k", lambda: select("movie"))
        b = conn.prepare_cached("k", lambda: select("movie"))
        assert a is b

    def test_reading_scope_allows_queries(self, conn, database):
        with database.read_locked():
            assert conn.execute(
                api.aggregate("movie", n=count())
            ).scalar() > 0

    def test_prepare_rejects_unknown_statement_types(self, conn):
        with pytest.raises(QueryError):
            conn.prepare("SELECT 1")  # type: ignore[arg-type]


class TestTransactionScope:
    def test_commit_on_success(self, database):
        before = database.count("movie")
        committed = database.transactions.committed_count
        with database.transaction():
            database.insert("movie", {
                "movie_id": 9001, "title": "Committed", "genre": "drama",
                "year": 2024, "duration_minutes": 100, "language_id": 1,
            })
        assert database.count("movie") == before + 1
        assert database.transactions.committed_count == committed + 1

    def test_rollback_on_exception(self, database):
        before = database.count("movie")
        committed = database.transactions.committed_count
        aborted = database.transactions.aborted_count
        with pytest.raises(RuntimeError):
            with database.transaction():
                database.insert("movie", {
                    "movie_id": 9002, "title": "Undone", "genre": "drama",
                    "year": 2024, "duration_minutes": 90, "language_id": 1,
                })
                raise RuntimeError("abort")
        assert database.count("movie") == before
        assert database.transactions.aborted_count == aborted + 1
        assert database.transactions.committed_count == committed

    def test_commit_bumps_data_version(self, database):
        version = database.data_version
        with database.transaction():
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

    def test_one_shot_execute_plans_the_bound_statement(
        self, conn, database, monkeypatch
    ):
        # A one-shot execution plans its bound statement directly: it
        # compiles no binder, and counts as one execution and one miss.
        def no_binder(*args):
            raise AssertionError("a one-shot execute compiled a binder")

        monkeypatch.setattr(api, "compile_binder", no_binder)
        result = conn.execute(
            select("screening").where(eq("movie_id", Param("m"))), m=3
        )
        assert result.all() == scan(
            database, Query("screening").where(eq("movie_id", 3))
        )
        stats = conn.stats()
        assert (stats.executions, stats.plan_cache_hits,
                stats.plan_cache_misses) == (1, 0, 1)
        with pytest.raises(QueryError, match="unknown parameter"):
            conn.execute(select("movie"), y=1)

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
# Procedure calls
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
        assert isinstance(result, ProcedureResult)
        assert result.procedure == "ticket_reservation"
        assert result.value["no_tickets"] == 1

    def test_call_returns_the_registry_outcome(
        self, conn, database, monkeypatch
    ):
        registry = database.procedures
        outcomes = []

        def recorded(name, **arguments):
            outcome = type(registry).call(registry, name, **arguments)
            outcomes.append(outcome)
            return outcome

        monkeypatch.setattr(registry, "call", recorded)
        movie_id = database.rows("movie")[0]["movie_id"]
        result = conn.call("list_screenings", movie_id=movie_id)
        assert outcomes == [result] and outcomes[0] is result
        assert result.arguments == {"movie_id": movie_id}

    def test_unknown_procedure_rejected_at_prepare(self, conn):
        with pytest.raises(ProcedureError):
            conn.call("no_such_procedure")

    def test_unknown_argument_rejected_at_prepare(self, conn, database):
        before = database.count("reservation")
        with pytest.raises(ProcedureError, match="unknown arguments"):
            conn.call("ticket_reservation", bogus=1)
        assert database.count("reservation") == before


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

    def test_rows_materialise_once(self, conn, database, monkeypatch):
        calls = []
        execute_rows = api.execute_rows

        def counted(*args):
            calls.append(1)
            return execute_rows(*args)

        monkeypatch.setattr(api, "execute_rows", counted)
        expected = scan(database, Query("screening"))
        result = conn.execute(select("screening"))
        assert calls == []
        assert result.fetchone() == expected[0]
        assert result.all() == expected[1:]
        assert calls == [1]
        ids = conn.execute(select("screening")).row_ids()
        assert ids == database.table("screening").row_ids()
        assert calls == [1]

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
    @pytest.fixture()
    def lint(self):
        import sys
        from pathlib import Path

        tools = Path(__file__).resolve().parents[2] / "tools"
        sys.path.insert(0, str(tools))
        try:
            import check_execution_api

            yield check_execution_api
        finally:
            sys.path.remove(str(tools))

    def test_src_has_no_direct_legacy_executions(self, lint):
        from repro.db import Connection, aggregation

        # The legacy shims are gone, so no caller can execute through
        # them: a call to one fails here instead of in a lint.
        assert not hasattr(Query, "run") and not hasattr(Query, "count")
        assert not hasattr(aggregation, "aggregate_query")
        assert not any(
            hasattr(Connection, name)
            for name in ("run_query", "count_query", "run_aggregate",
                         "transaction")
        )
        # src/ passes the storage-stamp and transaction-scope rules.
        assert lint.main() == 0

    def test_write_generation_written_outside_storage_is_flagged(
        self, lint, tmp_path, monkeypatch, capsys
    ):
        module = tmp_path / "src" / "repro" / "caching.py"
        module.parent.mkdir(parents=True)
        module.write_text(
            "def forget(table):\n"
            "    print(table.write_generation)\n"
            "    table._write_generation = 0\n"
        )
        monkeypatch.setattr(lint, "SRC", module.parent)
        assert lint.main() == 1
        flagged = capsys.readouterr().err.splitlines()[1:]
        assert flagged == [
            "  src/repro/caching.py:3: table._write_generation = 0"
        ]

    def test_rewrite_generation_written_outside_storage_is_flagged(
        self, lint, tmp_path, monkeypatch, capsys
    ):
        module = tmp_path / "src" / "repro" / "caching.py"
        module.parent.mkdir(parents=True)
        module.write_text(
            "def forget(table):\n"
            "    print(table.rewrite_generation)\n"
            "    table._rewrite_generation = 0\n"
        )
        monkeypatch.setattr(lint, "SRC", module.parent)
        assert lint.main() == 1
        flagged = capsys.readouterr().err.splitlines()[1:]
        assert flagged == [
            "  src/repro/caching.py:3: table._rewrite_generation = 0"
        ]

    def test_transaction_calls_outside_the_scope_are_flagged(
        self, lint, tmp_path, monkeypatch, capsys
    ):
        src = tmp_path / "src" / "repro"
        (src / "db").mkdir(parents=True)
        (src / "db" / "database.py").write_text(
            "def transaction(manager):\n"
            "    manager.begin()\n"
            "    manager.commit()\n"
        )
        (src / "executor.py").write_text(
            "def book(database, manager):\n"
            "    manager.begin()\n"
            "    try:\n"
            "        database.insert('reservation', {})\n"
            "    except Exception:\n"
            "        manager.rollback()\n"
            "        raise\n"
            "    manager.commit()\n"
        )
        monkeypatch.setattr(lint, "SRC", src)
        assert lint.main() == 1
        flagged = capsys.readouterr().err.splitlines()[1:]
        assert flagged == [
            "  src/repro/executor.py:2: manager.begin()",
            "  src/repro/executor.py:6: manager.rollback()",
            "  src/repro/executor.py:8: manager.commit()",
        ]

    def test_tables_built_outside_the_database_are_flagged(
        self, lint, tmp_path, monkeypatch, capsys
    ):
        src = tmp_path / "src" / "repro"
        (src / "db").mkdir(parents=True)
        (src / "db" / "database.py").write_text(
            "def tables(schema, clock, snapshots, active):\n"
            "    return [Table(t, clock, snapshots, active) for t in schema]\n"
        )
        (src / "db" / "table.py").write_text(
            "def describe(table):\n"
            "    return f\"Table({table.name!r})\"\n"
        )
        (src / "scratch.py").write_text(
            "def scratch_table(schema):\n"
            "    return Table(schema)\n"
            "def scratch_schema(name):\n"
            "    return TableSchema(name, [])\n"
        )
        monkeypatch.setattr(lint, "SRC", src)
        assert lint.main() == 1
        flagged = capsys.readouterr().err.splitlines()[1:]
        assert flagged == ["  src/repro/scratch.py:2: return Table(schema)"]

    def test_index_internals_read_outside_storage_are_flagged(
        self, lint, tmp_path, monkeypatch, capsys
    ):
        module = tmp_path / "src" / "repro" / "planner.py"
        module.parent.mkdir(parents=True)
        module.write_text(
            "def keys(table, column):\n"
            "    if table.has_index(column):\n"
            "        return table.distinct_count(column)\n"
            "    index = table._indexes[column]\n"
            "    return len(index._buckets)\n"
        )
        monkeypatch.setattr(lint, "SRC", module.parent)
        assert lint.main() == 1
        flagged = capsys.readouterr().err.splitlines()[1:]
        assert flagged == [
            "  src/repro/planner.py:4: index = table._indexes[column]",
            "  src/repro/planner.py:5: return len(index._buckets)",
        ]
