"""Property-based tests of core database invariants (hypothesis)."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import (
    Column,
    Database,
    DatabaseSchema,
    DataType,
    TableSchema,
)
from repro.errors import ConstraintViolation

names = st.text(alphabet="abcdefgh", min_size=1, max_size=4)


def make_db():
    schema = DatabaseSchema(
        [
            TableSchema(
                "t",
                [
                    Column("pk", DataType.INTEGER),
                    Column("a", DataType.TEXT),
                    Column("b", DataType.INTEGER),
                ],
                primary_key="pk",
            )
        ]
    )
    return Database(schema)


@st.composite
def row_batches(draw):
    n = draw(st.integers(1, 12))
    rows = []
    for pk in range(1, n + 1):
        rows.append(
            {
                "pk": pk,
                "a": draw(st.one_of(names, st.none())),
                "b": draw(st.one_of(st.integers(-3, 3), st.none())),
            }
        )
    return rows


class TestTableInvariants:
    @given(row_batches())
    @settings(max_examples=50)
    def test_insert_then_read_roundtrip(self, rows):
        db = make_db()
        ids = db.insert_many("t", rows)
        for rid, row in zip(ids, rows):
            stored = db.table("t").get(rid)
            assert stored == row

    @given(row_batches())
    @settings(max_examples=50)
    def test_distinct_count_matches_python(self, rows):
        db = make_db()
        db.insert_many("t", rows)
        stored = db.table("t").column_values("a")
        expected = len({v for v in stored if v is not None})
        assert db.table("t").distinct_count("a") == expected

    @given(row_batches())
    @settings(max_examples=50)
    def test_duplicate_pk_always_rejected(self, rows):
        db = make_db()
        db.insert_many("t", rows)
        with pytest.raises(ConstraintViolation):
            db.insert("t", {"pk": rows[0]["pk"], "a": None, "b": None})

    @given(row_batches(), st.integers(0, 11))
    @settings(max_examples=50)
    def test_delete_removes_exactly_one(self, rows, index):
        db = make_db()
        ids = db.insert_many("t", rows)
        victim = ids[index % len(ids)]
        db.delete("t", victim)
        assert len(db.table("t")) == len(rows) - 1
        remaining_pks = Counter(db.table("t").column_values("pk"))
        assert all(count == 1 for count in remaining_pks.values())


class TestTransactionInvariants:
    @given(row_batches(), row_batches())
    @settings(max_examples=40)
    def test_rollback_restores_exact_state(self, initial, extra):
        db = make_db()
        db.insert_many("t", initial)
        before = db.rows("t")
        db.transactions.begin()
        offset = len(initial)
        for i, row in enumerate(extra):
            row = dict(row)
            row["pk"] = offset + i + 1
            db.insert("t", row)
        for rid in db.table("t").row_ids()[: len(initial)]:
            db.update("t", rid, {"b": 99})
        db.transactions.rollback()
        assert db.rows("t") == before

    @given(row_batches())
    @settings(max_examples=40)
    def test_lookup_agrees_with_scan(self, rows):
        db = make_db()
        db.insert_many("t", rows)
        table = db.table("t")
        for value in {r["a"] for r in rows if r["a"] is not None}:
            indexed = set(table.lookup("a", value))
            scanned = {
                rid
                for rid in table.row_ids()
                if table.get(rid)["a"] == value
            }
            assert indexed == scanned
