"""Tests for row storage, indexes and constraints."""

import threading
from collections import Counter

import pytest

from repro.db import (
    Column,
    Database,
    DatabaseSchema,
    DataType,
    TableSchema,
)
from repro.db import api
from repro.db.aggregation import count
from repro.db.table import Table
from repro.errors import ConstraintViolation, UnknownColumnError


@pytest.fixture()
def customers():
    schema = TableSchema(
        "customer",
        [
            Column("customer_id", DataType.INTEGER),
            Column("name", DataType.TEXT, nullable=False),
            Column("email", DataType.TEXT, unique=True),
            Column("city", DataType.TEXT),
        ],
        primary_key="customer_id",
    )
    return Table(schema)


class TestInsert:
    def test_insert_returns_row_id(self, customers):
        rid = customers.insert({"customer_id": 1, "name": "Ada"})
        assert rid == 1
        assert len(customers) == 1

    def test_row_ids_monotonic(self, customers):
        first = customers.insert({"customer_id": 1, "name": "Ada"})
        second = customers.insert({"customer_id": 2, "name": "Bob"})
        assert second > first

    def test_missing_column_defaults_null(self, customers):
        rid = customers.insert({"customer_id": 1, "name": "Ada"})
        assert customers.get(rid)["city"] is None

    def test_values_coerced(self, customers):
        rid = customers.insert({"customer_id": "7", "name": "Ada"})
        assert customers.get(rid)["customer_id"] == 7

    def test_unknown_column_rejected(self, customers):
        with pytest.raises(UnknownColumnError):
            customers.insert({"customer_id": 1, "name": "Ada", "zzz": 1})

    def test_not_null_enforced(self, customers):
        with pytest.raises(ConstraintViolation):
            customers.insert({"customer_id": 1})

    def test_pk_not_null(self, customers):
        with pytest.raises(ConstraintViolation):
            customers.insert({"name": "Ada"})

    def test_pk_unique(self, customers):
        customers.insert({"customer_id": 1, "name": "Ada"})
        with pytest.raises(ConstraintViolation):
            customers.insert({"customer_id": 1, "name": "Bob"})

    def test_unique_column_enforced(self, customers):
        customers.insert({"customer_id": 1, "name": "Ada", "email": "a@x"})
        with pytest.raises(ConstraintViolation):
            customers.insert({"customer_id": 2, "name": "Bob", "email": "a@x"})

    def test_null_unique_values_allowed_repeatedly(self, customers):
        customers.insert({"customer_id": 1, "name": "Ada"})
        customers.insert({"customer_id": 2, "name": "Bob"})  # both emails NULL


class TestUpdate:
    def test_update_changes_value(self, customers):
        rid = customers.insert({"customer_id": 1, "name": "Ada"})
        old = customers.update(rid, {"city": "Mainz"})
        assert old["city"] is None
        assert customers.get(rid)["city"] == "Mainz"

    def test_update_maintains_index(self, customers):
        rid = customers.insert({"customer_id": 1, "name": "Ada"})
        customers.update(rid, {"customer_id": 9})
        assert customers.lookup("customer_id", 9) == [rid]
        assert customers.lookup("customer_id", 1) == []

    def test_update_unique_violation(self, customers):
        customers.insert({"customer_id": 1, "name": "Ada", "email": "a@x"})
        rid = customers.insert({"customer_id": 2, "name": "Bob", "email": "b@x"})
        with pytest.raises(ConstraintViolation):
            customers.update(rid, {"email": "a@x"})

    def test_self_update_allowed(self, customers):
        rid = customers.insert({"customer_id": 1, "name": "Ada", "email": "a@x"})
        customers.update(rid, {"email": "a@x"})  # no-op is fine


class TestDeleteRestore:
    def test_delete_removes(self, customers):
        rid = customers.insert({"customer_id": 1, "name": "Ada"})
        row = customers.delete(rid)
        assert row["name"] == "Ada"
        assert len(customers) == 0
        assert customers.lookup("customer_id", 1) == []

    def test_restore_roundtrip(self, customers):
        rid = customers.insert({"customer_id": 1, "name": "Ada"})
        row = customers.delete(rid)
        customers.restore(rid, row)
        assert customers.get(rid) == row
        assert customers.lookup("customer_id", 1) == [rid]

    def test_restore_in_use_rejected(self, customers):
        rid = customers.insert({"customer_id": 1, "name": "Ada"})
        with pytest.raises(ConstraintViolation):
            customers.restore(rid, {"customer_id": 2, "name": "X",
                                    "email": None, "city": None})


class TestLookupScan:
    def test_lookup_with_index(self, customers):
        rid = customers.insert({"customer_id": 1, "name": "Ada"})
        assert customers.lookup("customer_id", 1) == [rid]

    def test_lookup_without_index(self, customers):
        rid = customers.insert({"customer_id": 1, "name": "Ada", "city": "Mainz"})
        customers.insert({"customer_id": 2, "name": "Bob", "city": "Worms"})
        assert customers.lookup("city", "Mainz") == [rid]

    def test_lookup_coerces_needle(self, customers):
        rid = customers.insert({"customer_id": 1, "name": "Ada"})
        assert customers.lookup("customer_id", "1") == [rid]

    def test_lookup_null_matches_nothing(self, customers):
        customers.insert({"customer_id": 1, "name": "Ada"})
        assert customers.lookup("city", None) == []

    def test_scan_with_predicate(self, customers):
        customers.insert({"customer_id": 1, "name": "Ada", "city": "Mainz"})
        customers.insert({"customer_id": 2, "name": "Bob", "city": "Worms"})
        result = customers.scan(lambda row: row["city"] == "Worms")
        assert len(result) == 1

    def test_create_index_backfills(self, customers):
        customers.insert({"customer_id": 1, "name": "Ada", "city": "Mainz"})
        customers.create_index("city")
        assert customers.has_index("city")
        assert customers.lookup("city", "Mainz") != []


class TestColumnValues:
    def test_all_rows(self, customers):
        customers.insert({"customer_id": 1, "name": "Ada"})
        customers.insert({"customer_id": 2, "name": "Bob"})
        assert customers.column_values("name") == ["Ada", "Bob"]

    def test_subset(self, customers):
        a = customers.insert({"customer_id": 1, "name": "Ada"})
        customers.insert({"customer_id": 2, "name": "Bob"})
        assert customers.column_values("name", [a]) == ["Ada"]

    def test_distinct_count(self, customers):
        customers.insert({"customer_id": 1, "name": "Ada", "city": "Mainz"})
        customers.insert({"customer_id": 2, "name": "Bob", "city": "Mainz"})
        customers.insert({"customer_id": 3, "name": "Cid"})
        assert customers.distinct_count("city") == 1
        assert customers.distinct_count("name") == 3

    def test_iteration_returns_copies(self, customers):
        customers.insert({"customer_id": 1, "name": "Ada"})
        for row in customers:
            row["name"] = "mutated"
        assert customers.get(1)["name"] == "Ada"


BUCKETS = ("red", "green", "blue", "amber")


def _item_db() -> Database:
    """A 40-row ``item`` table with a hash index on ``bucket``."""
    schema = DatabaseSchema(
        [
            TableSchema(
                "item",
                [
                    Column("item_id", DataType.INTEGER),
                    Column("bucket", DataType.TEXT),
                    Column("qty", DataType.INTEGER),
                ],
                primary_key="item_id",
            )
        ]
    )
    database = Database(schema)
    database.create_index("item", "bucket")
    for i in range(1, 41):
        database.insert(
            "item",
            {"item_id": i, "bucket": BUCKETS[i % len(BUCKETS)], "qty": i % 7},
        )
    return database


def _row_id_of(database: Database, item_id: int) -> int:
    return database.table("item").lookup("item_id", item_id)[0]


class TestVacuumMemoInvalidation:
    """Regression: vacuum's wholesale reset used to leave memoised
    layouts keyed to pre-vacuum slot ids."""

    def test_join_parity_after_vacuum(self):
        database = _item_db()
        table = database.table("item")
        table.grouped_layout("bucket")
        for item_id in range(1, 31):
            database.delete("item", _row_id_of(database, item_id))
        table.vacuum(None)
        result = database.connect().execute(
            api.aggregate("item", n=count()).group_by("bucket")
        ).all()
        expected = Counter(
            row["bucket"] for row in database.rows("item")
        )
        assert {r["bucket"]: r["n"] for r in result} == dict(expected)


class TestDistinctCountMemo:
    """An unindexed column's distinct count is not memoised: every call
    counts the slots the reader sees, so no write can leave it stale."""

    @pytest.fixture()
    def scans(self, monkeypatch):
        """Names of the tables whose slots were scanned, one per scan."""
        calls = []
        scan_slots = Table.scan_slots

        def counting(self):
            calls.append(self.name)
            return scan_slots(self)

        monkeypatch.setattr(Table, "scan_slots", counting)
        return calls

    def test_recounts_after_every_kind_of_write(self, scans):
        database = _item_db()
        table = database.table("item")
        table.distinct_count("qty")

        def recount() -> int:
            scanned = len(scans)
            count = table.distinct_count("qty")
            assert len(scans) == scanned + 1
            return count

        database.insert("item", {"item_id": 41, "bucket": "red", "qty": 90})
        assert recount() == 8
        database.update("item", _row_id_of(database, 41), {"qty": 91})
        assert recount() == 8
        database.update("item", _row_id_of(database, 41), {"qty": None})
        assert recount() == 7
        database.delete("item", _row_id_of(database, 41))
        assert recount() == 7
        with database.write_locked():
            database.transactions.begin()
            database.insert("item", {"item_id": 42, "qty": 92})
            assert recount() == 8  # the writer sees its own insert
            database.transactions.rollback()
        assert recount() == 7

    def test_pinned_reader_gets_its_snapshots_count(self):
        database = _item_db()
        table = database.table("item")
        assert table.distinct_count("qty") == 7
        with database.read_locked():
            writer = threading.Thread(target=lambda: database.insert(
                "item", {"item_id": 41, "qty": 90}
            ))
            writer.start()
            writer.join()
            assert table.distinct_count("qty") == 7
        assert table.distinct_count("qty") == 8
