"""Tests for transactions: atomicity, commit and rollback."""

import pytest

from repro.db import Column, Database, DatabaseSchema, DataType, TableSchema
from repro.errors import TransactionError


@pytest.fixture()
def db():
    schema = DatabaseSchema(
        [
            TableSchema(
                "account",
                [
                    Column("account_id", DataType.INTEGER),
                    Column("balance", DataType.INTEGER, nullable=False),
                ],
                primary_key="account_id",
            )
        ]
    )
    database = Database(schema)
    database.insert("account", {"account_id": 1, "balance": 100})
    database.insert("account", {"account_id": 2, "balance": 50})
    return database


class TestBeginCommitRollback:
    def test_commit_keeps_changes(self, db):
        db.transactions.begin()
        db.insert("account", {"account_id": 3, "balance": 10})
        db.transactions.commit()
        assert db.count("account") == 3

    def test_rollback_undoes_insert(self, db):
        db.transactions.begin()
        db.insert("account", {"account_id": 3, "balance": 10})
        db.transactions.rollback()
        assert db.count("account") == 2

    def test_rollback_undoes_update(self, db):
        rid = db.table("account").lookup("account_id", 1)[0]
        db.transactions.begin()
        db.update("account", rid, {"balance": 0})
        db.transactions.rollback()
        assert db.table("account").get(rid)["balance"] == 100

    def test_rollback_undoes_delete(self, db):
        rid = db.table("account").lookup("account_id", 2)[0]
        db.transactions.begin()
        db.delete("account", rid)
        db.transactions.rollback()
        assert db.table("account").get(rid)["balance"] == 50

    def test_rollback_undoes_mixed_sequence(self, db):
        rid1 = db.table("account").lookup("account_id", 1)[0]
        rid2 = db.table("account").lookup("account_id", 2)[0]
        before = db.rows("account")
        db.transactions.begin()
        db.update("account", rid1, {"balance": 70})
        db.insert("account", {"account_id": 3, "balance": 30})
        db.delete("account", rid2)
        db.transactions.rollback()
        assert db.rows("account") == before

    def test_nested_begin_rejected(self, db):
        db.transactions.begin()
        with pytest.raises(TransactionError):
            db.transactions.begin()
        db.transactions.rollback()

    def test_commit_without_begin_rejected(self, db):
        with pytest.raises(TransactionError):
            db.transactions.commit()

    def test_rollback_without_begin_rejected(self, db):
        with pytest.raises(TransactionError):
            db.transactions.rollback()

    def test_counters(self, db):
        db.transactions.begin()
        db.transactions.commit()
        db.transactions.begin()
        db.transactions.rollback()
        assert db.transactions.committed_count == 1
        assert db.transactions.aborted_count == 1


class TestDataVersion:
    def test_commit_bumps_version(self, db):
        before = db.data_version
        db.transactions.begin()
        db.insert("account", {"account_id": 3, "balance": 1})
        db.transactions.commit()
        assert db.data_version > before

    def test_autocommit_bumps_version(self, db):
        before = db.data_version
        db.insert("account", {"account_id": 3, "balance": 1})
        assert db.data_version > before
