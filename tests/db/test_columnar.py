"""Tests for the columnar storage and the columnar executor.

Covers the bank/slot layout (insert/update/delete/restore slot reuse,
dense fast path, RowView semantics) and parity between the columnar
executor and the row-at-a-time reference in
``tests/db/reference_executor.py``: a 500-query randomised workload
plus the error-semantics corners (unknown columns, mixed-type
comparisons, OR short-circuiting) must behave identically in both.
"""

import datetime as dt
import random
import threading

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
    in_,
    le,
    ne,
    not_,
    or_,
)
from repro.db import api
from repro.db.aggregation import (
    avg,
    count,
    count_distinct,
    max_,
    min_,
    sum_,
)
from repro.db.engine import execute_row_ids
from repro.db.table import RowView
from repro.errors import QueryError

from tests.db import reference_executor as reference


@pytest.fixture()
def customer_db():
    schema = TableSchema(
        "customer",
        [
            Column("customer_id", DataType.INTEGER),
            Column("name", DataType.TEXT, nullable=False),
            Column("city", DataType.TEXT),
        ],
        primary_key="customer_id",
    )
    return Database(DatabaseSchema([schema]))


@pytest.fixture()
def customers(customer_db):
    return customer_db.table("customer")


def _fill(database, n=5):
    """Insert customers 1..n; each insert reaches a commit point."""
    for i in range(1, n + 1):
        database.insert(
            "customer",
            {"customer_id": i, "name": f"c{i}",
             "city": "Worms" if i % 2 else "Mainz"},
        )


class TestColumnBanks:
    def test_dense_scan_is_a_full_range(self, customer_db, customers):
        _fill(customer_db)
        slots = customers.scan_slots()
        assert type(slots) is range
        assert len(slots) == 5

    def test_delete_in_middle_breaks_density_and_frees_slot(
        self, customer_db, customers
    ):
        _fill(customer_db)
        customer_db.delete("customer", 3)
        slots = customers.scan_slots()
        assert type(slots) is list
        assert customers.ids_for_slots(slots) == [1, 2, 4, 5]

    def test_insert_reuses_freed_slot(self, customer_db, customers):
        _fill(customer_db)
        freed_slot = customers._slot_of[3]
        customer_db.delete("customer", 3)
        rid = customer_db.insert("customer", {"customer_id": 9, "name": "c9"})
        assert customers._slot_of[rid] == freed_slot
        # Bank length unchanged: the hole was recycled, not appended to.
        assert len(customers.bank_map()["customer_id"]) == 5
        # Scans still come out in ascending row-id order.
        assert [row["customer_id"] for row in customers] == [1, 2, 4, 5, 9]

    def test_tail_delete_keeps_layout_hole_free(self, customer_db, customers):
        _fill(customer_db)
        customer_db.delete("customer", 5)
        assert type(customers.scan_slots()) is range
        assert len(customers.bank_map()["customer_id"]) == 4

    def test_tail_delete_sheds_trailing_freed_slots(
        self, customer_db, customers
    ):
        _fill(customer_db)
        customer_db.delete("customer", 4)  # hole at slot 3
        customer_db.delete("customer", 5)  # tail pop also sheds the hole
        assert len(customers.bank_map()["customer_id"]) == 3
        assert customers._free == set()
        rid = customer_db.insert("customer", {"customer_id": 6, "name": "c6"})
        assert sorted(customers.row_ids())[-1] == rid

    def test_emptying_table_resets_banks(self, customer_db, customers):
        _fill(customer_db, 3)
        for rid in list(customers.row_ids()):
            customer_db.delete("customer", rid)
        assert len(customers) == 0
        assert customers.bank_map()["name"] == []
        assert type(customers.scan_slots()) is range
        _fill(customer_db, 2)
        assert [row["name"] for row in customers] == ["c1", "c2"]

    def test_update_appends_a_version(self, customer_db, customers):
        _fill(customer_db, 2)
        customer_db.create_index("customer", "city")
        old_slot = customers._slot_of[1]
        assert customers.get(1)["city"] == "Worms"
        customer_db.update("customer", 1, {"city": "Speyer"})
        # The new version went to the tail, and the autocommit's vacuum
        # freed the old slot.
        assert customers._slot_of[1] == 2
        assert customers._free == {old_slot}
        assert len(customers.bank_map()["city"]) == 3
        assert customers.get(1)["city"] == "Speyer"
        # The index follows the row to its new cells.
        assert customers.lookup("city", "Speyer") == [1]
        assert customers.lookup("city", "Worms") == []

    def test_restore_roundtrips_through_slot_reuse(
        self, customer_db, customers
    ):
        _fill(customer_db)
        row = customers.delete(2)
        customers.delete(4)
        customer_db.notify_data_changed()  # its vacuum frees both slots
        customers.restore(2, row)
        assert customers._slot_of[2] in (1, 3)
        assert customers.get(2) == row
        assert [r["customer_id"] for r in customers] == [1, 2, 3, 5]
        # The hash index was rebuilt for the restored row.
        assert customers.lookup("customer_id", 2) == [2]

    def test_restore_after_newer_inserts_keeps_id_order(
        self, customer_db, customers
    ):
        _fill(customer_db, 2)
        row = customers.delete(1)
        customers.insert({"customer_id": 7, "name": "c7"})
        customers.restore(1, row)
        assert [r["customer_id"] for r in customers] == [1, 2, 7]

    def test_density_recovers_once_holes_drain(self, customer_db, customers):
        _fill(customer_db)
        customer_db.delete("customer", 3)  # mid-table hole: slow scan path
        assert type(customers.scan_slots()) is list
        customer_db.delete("customer", 5)
        customer_db.delete("customer", 4)  # tail deletes shed the hole
        assert customers._free == set()
        assert type(customers.scan_slots()) is range
        assert [row["customer_id"] for row in customers] == [1, 2]

    def test_density_stays_lost_after_slot_reuse(
        self, customer_db, customers
    ):
        _fill(customer_db)
        customer_db.delete("customer", 3)
        # Reuses the freed slot.
        customer_db.insert("customer", {"customer_id": 9, "name": "c9"})
        # Tail delete; free is empty but the order broke.
        customer_db.delete("customer", 5)
        assert customers._free == set()
        assert type(customers.scan_slots()) is list
        assert [row["customer_id"] for row in customers] == [1, 2, 4, 9]

    def test_ascending_delete_sweep_leaves_clean_layout(
        self, customer_db, customers
    ):
        # Deleting every row front-to-back turns each row into a hole
        # until the final tail delete sheds them all at once; the banks
        # must come out empty with nothing left on the free set.
        _fill(customer_db, 200)
        for rid in customers.row_ids():
            customer_db.delete("customer", rid)
        assert len(customers) == 0
        assert customers._free == set()
        assert customers.bank_map()["name"] == []

    def test_column_arrays_shares_one_slot_pass(self, customer_db, customers):
        _fill(customer_db, 4)
        customers.delete(2)
        arrays = customers.column_arrays()
        assert arrays["customer_id"] == [1, 3, 4]
        assert arrays["name"] == ["c1", "c3", "c4"]
        # A fresh copy, not the live bank.
        arrays["name"].append("zz")
        assert customers.column_values("name") == ["c1", "c3", "c4"]

    def test_iteration_is_a_snapshot_under_mutation(
        self, customer_db, customers
    ):
        _fill(customer_db, 3)
        it = iter(customers)
        first = next(it)
        customers.delete(2)
        customers.insert({"customer_id": 8, "name": "c8"})
        rest = list(it)
        assert first["customer_id"] == 1
        assert [row["customer_id"] for row in rest] == [2, 3]

    def test_column_values_reads_banks(self, customer_db, customers):
        _fill(customer_db, 3)
        assert customers.column_values("name") == ["c1", "c2", "c3"]
        customers.delete(2)
        assert customers.column_values("name") == ["c1", "c3"]
        assert customers.column_values("name", row_ids=[3, 1]) == ["c3", "c1"]


class TestRowView:
    def test_mapping_protocol(self, customer_db, customers):
        _fill(customer_db, 1)
        view = customers.row_view(1)
        assert isinstance(view, RowView)
        assert view["name"] == "c1"
        assert view.get("city") == "Worms"
        assert view.get("nope", "x") == "x"
        assert "name" in view and "nope" not in view
        assert len(view) == 3
        assert set(view.keys()) == {"customer_id", "name", "city"}
        assert ("name", "c1") in view.items()
        assert "c1" in view.values()
        with pytest.raises(KeyError):
            view["nope"]

    def test_equals_dict_and_copies(self, customer_db, customers):
        _fill(customer_db, 1)
        view = customers.row_view(1)
        materialised = customers.get(1)
        assert view == materialised
        assert dict(view) == materialised
        # get() hands out fresh dicts — mutating one is invisible.
        materialised["city"] = "elsewhere"
        assert customers.get(1)["city"] == "Worms"

    def test_view_reflects_updates(self, customer_db, customers):
        _fill(customer_db, 1)
        with customer_db.read_locked():
            view = customers.row_view(1)
            # Another thread's update: a commit on this thread would
            # refresh this thread's own pin.
            writer = threading.Thread(target=customer_db.update, args=(
                "customer", 1, {"city": "Speyer"}
            ))
            writer.start()
            writer.join()
            # The pinned view keeps the old version's cells.
            assert view["city"] == "Worms"
        assert customers.row_view(1)["city"] == "Speyer"


# ---------------------------------------------------------------------------
# Columnar vs row-at-a-time execution parity
# ---------------------------------------------------------------------------

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
                    Column("genre", DataType.TEXT),
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
    rng = random.Random(7)
    genres = ("drama", "comedy", None)
    for i in range(1, 13):
        database.insert(
            "movie",
            {
                "movie_id": i,
                "title": f"movie {i}",
                "year": None if i % 5 == 0 else 1980 + i,
                "genre": genres[i % 3],
            },
        )
    base = dt.date(2022, 3, 26)
    for i in range(1, 81):
        database.insert(
            "screening",
            {
                "screening_id": i,
                "movie_id": rng.randrange(1, 13),
                "date": base + dt.timedelta(days=i % 9),
                "price": None if i % 11 == 0 else 8.0 + (i % 4),
                "room": f"room {chr(ord('A') + i % 3)}",
            },
        )
    # Mix of access paths: some deletes so slots are non-dense.
    for rid in database.table("screening").lookup("screening_id", 17):
        database.delete("screening", rid)
    return database


def _both_modes(db, statement):
    """``statement``'s rows from the row-at-a-time reference, then from
    the columnar executor, over the plan the engine chose; errors
    become comparable values."""
    plan = db.connect().prepare(statement).plan()
    out = []
    for run in (
        lambda: reference.execute_rows(db, plan),
        lambda: db.connect().execute(statement).all(),
    ):
        try:
            out.append(run())
        except QueryError as exc:
            out.append(("error", str(exc)))
    return out


def _aggregate(query, aggregates, group_by=None):
    """An aggregate statement over ``query``'s table and predicate."""
    statement = api.aggregate(query.table, aggregates)
    statement.where(query.compile().predicate)
    if group_by:
        statement.group_by(*group_by)
    return statement


class TestBatchRowParity:
    def test_500_query_differential(self, db):
        rng = random.Random(23)
        rooms = ("room A", "room B", "room C")
        predicates = [
            lambda: eq("room", rng.choice(rooms)),
            lambda: ne("room", rng.choice(rooms)),
            lambda: ge("price", 8.0 + rng.randrange(0, 4)),
            lambda: le("date", dt.date(2022, 3, 26)
                       + dt.timedelta(days=rng.randrange(9))),
            lambda: in_("movie_id", tuple(
                rng.randrange(1, 13) for __ in range(rng.randrange(1, 4))
            )),
            lambda: or_(eq("room", rng.choice(rooms)),
                        eq("movie_id", rng.randrange(1, 13))),
            lambda: not_(eq("room", rng.choice(rooms))),
            lambda: contains("room", rng.choice(("a", "b", "room"))),
        ]
        checked = 0
        for __ in range(500):
            query = Query("screening")
            for __p in range(rng.randrange(0, 3)):
                query.where(rng.choice(predicates)())
            roll = rng.random()
            if roll < 0.2:
                statement = _aggregate(query, {"n": count()})
            elif roll < 0.4:
                aggs = {"n": count(),
                        "p": rng.choice((sum_, avg, min_, max_,
                                         count_distinct))("price")}
                group = rng.choice((None, ["room"], ["movie_id", "room"]))
                statement = _aggregate(query, aggs, group)
            else:
                statement = query
            row_result, batch_result = _both_modes(db, statement)
            assert row_result == batch_result
            checked += 1
        assert checked == 500

    def test_execute_row_ids_parity(self, db):
        plans = [
            Query("screening").where(ne("room", "room A")),
            Query("screening").where(
                or_(eq("room", "room B"), eq("movie_id", 3))
            ),
            Query("screening"),
        ]
        for query in plans:
            plan = query.plan(db)
            assert execute_row_ids(db, plan) == \
                reference.execute_row_ids(db, plan)

    def test_unknown_filter_column_raises_in_both_modes(self, db):
        query = Query("screening").where(eq("nope", 1))
        row_result, batch_result = _both_modes(db, query)
        assert row_result == batch_result
        assert row_result[0] == "error"

    def test_unknown_column_with_empty_input_is_silent(self, db):
        # An earlier AND part filters everything out, so the unknown
        # column is never evaluated — in either mode.
        query = Query("screening").where(
            and_(eq("room", "no such room"), eq("nope", 1))
        )
        row_result, batch_result = _both_modes(db, query)
        assert row_result == batch_result == []

    def test_or_short_circuit_error_parity(self, db):
        # Rows matching the first disjunct never evaluate the second;
        # since some rows fail the first, both modes must raise.
        query = Query("screening").where(
            or_(eq("room", "room A"), eq("nope", 1))
        )
        row_result, batch_result = _both_modes(db, query)
        assert row_result == batch_result
        assert row_result[0] == "error"

    def test_mixed_type_comparison_is_false_not_error(self, db):
        query = Query("screening").where(ge("room", 3))
        row_result, batch_result = _both_modes(db, query)
        assert row_result == batch_result == []

    def test_contains_non_string_needle_matches_nothing(self, db):
        query = Query("screening").where(contains("room", 3))
        row_result, batch_result = _both_modes(db, query)
        assert row_result == batch_result == []

    def test_unknown_group_by_column_parity(self, db):
        statement = _aggregate(Query("screening"), {"n": count()}, ["nope"])
        row_result, batch_result = _both_modes(db, statement)
        assert row_result == batch_result
        assert row_result[0] == "error"

    def test_unknown_aggregate_column_yields_nulls(self, db):
        statement = _aggregate(
            Query("screening"), {"m": min_("nope")}, ["room"]
        )
        row_result, batch_result = _both_modes(db, statement)
        assert row_result == batch_result
        assert all(row["m"] is None for row in row_result)

    def test_grouping_empty_input_parity(self, db):
        statement = _aggregate(
            Query("screening").where(eq("room", "nowhere")),
            {"n": count(), "s": sum_("price")},
            ["room"],
        )
        row_result, batch_result = _both_modes(db, statement)
        assert row_result == batch_result == []

    def test_global_aggregate_empty_input_parity(self, db):
        statement = _aggregate(
            Query("screening").where(eq("room", "nowhere")),
            {"n": count(), "s": sum_("price"), "m": max_("price")},
        )
        row_result, batch_result = _both_modes(db, statement)
        assert row_result == batch_result == [{"n": 0, "s": 0, "m": None}]
