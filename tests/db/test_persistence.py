"""Tests for database JSON snapshots."""

import os

import pytest

from repro.db import (
    Column,
    Database,
    DatabaseSchema,
    DataType,
    ForeignKey,
    TableSchema,
    dump_database,
    dump_incremental,
    dumps_database,
    load_database,
    load_incremental,
    loads_database,
)
from repro.db import persistence
from repro.errors import DatabaseError


class TestRoundtrip:
    def test_movie_db_roundtrip(self, movie_db):
        database, __ = movie_db
        restored = loads_database(dumps_database(database))
        assert restored.table_names == database.table_names
        for name in database.table_names:
            assert restored.rows(name) == database.rows(name)

    def test_dates_and_times_survive(self, movie_db):
        database, __ = movie_db
        restored = loads_database(dumps_database(database))
        import datetime as dt

        row = restored.rows("screening")[0]
        assert isinstance(row["date"], dt.date)
        assert isinstance(row["start_time"], dt.time)

    def test_schema_constraints_survive(self, movie_db):
        database, __ = movie_db
        restored = loads_database(dumps_database(database))
        schema = restored.schema.table("screening")
        assert schema.primary_key == "screening_id"
        fk = schema.foreign_key_for("movie_id")
        assert fk is not None and fk.target_table == "movie"
        from repro.errors import ConstraintViolation

        with pytest.raises(ConstraintViolation):
            restored.insert(
                "screening",
                {"screening_id": 1, "movie_id": 1, "date": "2022-01-01",
                 "start_time": "20:00", "capacity": 10},
            )

    def test_file_roundtrip(self, movie_db, tmp_path):
        database, __ = movie_db
        path = tmp_path / "snapshot.json"
        dump_database(database, str(path))
        restored = load_database(str(path))
        assert restored.count("customer") == database.count("customer")

    def test_restored_db_is_mutable(self, movie_db):
        database, __ = movie_db
        restored = loads_database(dumps_database(database))
        before = restored.count("customer")
        restored.insert(
            "customer",
            {"customer_id": 9999, "first_name": "Zoe", "last_name": "Zett",
             "email": "zoe@example.com"},
        )
        assert restored.count("customer") == before + 1

    def test_fk_dependency_order_resolved(self):
        # Child serialised before its parent must still load.
        schema = DatabaseSchema(
            [
                TableSchema(
                    "zchild",
                    [Column("id", DataType.INTEGER),
                     Column("parent_id", DataType.INTEGER)],
                    primary_key="id",
                    foreign_keys=[ForeignKey("parent_id", "aparent", "id")],
                ),
                TableSchema(
                    "aparent",
                    [Column("id", DataType.INTEGER)],
                    primary_key="id",
                ),
            ]
        )
        database = Database(schema)
        database.insert("aparent", {"id": 1})
        database.insert("zchild", {"id": 1, "parent_id": 1})
        restored = loads_database(dumps_database(database))
        assert restored.count("zchild") == 1

    def test_unknown_version_rejected(self):
        with pytest.raises(DatabaseError):
            loads_database('{"format_version": 99, "schema": [], "rows": {}}')


class TestIndexDDLPersistence:
    def test_secondary_indexes_survive_roundtrip(self, movie_db):
        database, __ = movie_db
        restored = loads_database(dumps_database(database))
        for name in database.table_names:
            table = database.table(name)
            loaded = restored.table(name)
            assert loaded.hash_index_columns() == table.hash_index_columns()

    def test_loaded_database_plans_identically(self, movie_db):
        import datetime as dt

        from repro.db import Query, and_, eq, ge, le

        database, __ = movie_db
        restored = loads_database(dumps_database(database))
        queries = [
            Query("screening").where(
                and_(ge("date", dt.date(2022, 3, 27)),
                     le("date", dt.date(2022, 3, 30)))
            ),
            Query("screening").where(eq("movie_id", 3)),
            Query("reservation").where(eq("screening_id", 5)),
        ]
        for query in queries:
            assert query.explain(restored) == query.explain(database)

    @pytest.mark.parametrize("version", [3, 4])
    def test_ordered_index_list_is_ignored_on_load(self, movie_db, version):
        # Snapshots written while ordered indexes existed list them per
        # table; every movie snapshot of that era has one.  Loading
        # ignores the list and restores the same rows and hash indexes.
        import json

        database, __ = movie_db
        body = json.loads(dumps_database(database, version=version))
        assert "ordered" not in json.dumps(body["indexes"])
        body["indexes"].setdefault("screening", {"hash": []})["ordered"] = [
            "date", "start_time", "price",
        ]
        body["indexes"].setdefault("movie", {"hash": []})["ordered"] = [
            "year"
        ]
        restored = loads_database(json.dumps(body))
        for name in database.table_names:
            assert restored.rows(name) == database.rows(name)
            assert restored.table(name).row_ids() == \
                database.table(name).row_ids()
            assert restored.table(name).hash_index_columns() == \
                database.table(name).hash_index_columns()

    def test_snapshot_indexes_on_unknown_table_rejected(self, movie_db):
        import json

        database, __ = movie_db
        body = json.loads(dumps_database(database))
        body["indexes"]["ghost_table"] = {"hash": ["x"], "ordered": []}
        with pytest.raises(DatabaseError):
            loads_database(json.dumps(body))


class TestColumnarSnapshotFormat:
    """Format v3: column banks on disk; the v1/v2 row layouts are gone."""

    def test_dump_is_version_3_and_columnar(self, movie_db):
        import json

        database, __ = movie_db
        body = json.loads(dumps_database(database))
        assert body["format_version"] == 3
        assert "rows" not in body
        banks = body["columns"]["screening"]
        lengths = {column: len(values) for column, values in banks.items()}
        assert set(lengths.values()) == {database.count("screening")}

    def test_v3_roundtrip_preserves_rows_and_order(self, movie_db):
        database, __ = movie_db
        restored = loads_database(dumps_database(database))
        for name in database.table_names:
            assert restored.rows(name) == database.rows(name)

    def test_v3_roundtrip_after_deletes(self, movie_db):
        database, __ = movie_db
        # Punch holes into the slot layout; the snapshot and the reload
        # must both present rows in row-id order regardless.
        reservations = database.table("reservation").row_ids()
        for rid in reservations[1:4]:
            database.delete("reservation", rid)
        restored = loads_database(dumps_database(database))
        assert restored.rows("reservation") == database.rows("reservation")

    @pytest.mark.parametrize("version", [1, 2])
    def test_row_snapshot_versions_rejected(self, movie_db, version):
        import json

        database, __ = movie_db
        body = json.loads(dumps_database(database))
        body["format_version"] = version
        body["rows"] = {
            name: [
                dict(zip(banks, values)) for values in zip(*banks.values())
            ]
            for name, banks in body.pop("columns").items()
        }
        with pytest.raises(DatabaseError, match="unsupported snapshot version"):
            loads_database(json.dumps(body))

    def test_ragged_v3_banks_rejected(self, movie_db):
        import json

        database, __ = movie_db
        body = json.loads(dumps_database(database))
        body["columns"]["screening"]["room"].append("room Z")
        with pytest.raises(DatabaseError):
            loads_database(json.dumps(body))

    def test_missing_content_section_rejected(self, movie_db):
        import json

        database, __ = movie_db
        body = json.loads(dumps_database(database))
        del body["columns"]
        with pytest.raises(DatabaseError, match="'columns' section"):
            loads_database(json.dumps(body))


class _InjectedFailure(Exception):
    pass


def _fail(*args, **kwargs):
    raise _InjectedFailure("injected")


class TestCrashSafeWrites:
    """A dump that fails part-way must leave the previous snapshot
    loadable and no temp file behind."""

    @staticmethod
    def _item_db() -> Database:
        schema = DatabaseSchema(
            [
                TableSchema(
                    "item",
                    [Column("item_id", DataType.INTEGER),
                     Column("label", DataType.TEXT)],
                    primary_key="item_id",
                )
            ]
        )
        database = Database(schema)
        for i in range(1, 6):
            database.insert("item", {"item_id": i, "label": f"i{i}"})
        return database

    @pytest.mark.parametrize("failing", ["dumps_database", "fsync"])
    @pytest.mark.parametrize(
        "dump, load, target",
        [
            (dump_database, load_database, "snapshot.json"),
            (dump_incremental, load_incremental, "snapshot-dir"),
        ],
        ids=["dump_database", "dump_incremental"],
    )
    def test_failed_redump_keeps_old_snapshot(
        self, tmp_path, monkeypatch, closing_log, dump, load, target, failing
    ):
        database = closing_log(self._item_db())
        path = str(tmp_path / target)
        dump(database, path)
        # Make the failed re-dump's content differ from what is on disk.
        database.insert("item", {"item_id": 6, "label": "i6"})
        expected = load(path).rows("item")
        directory = path if os.path.isdir(path) else str(tmp_path)
        files_before = sorted(os.listdir(directory))
        if failing == "fsync":
            monkeypatch.setattr(os, "fsync", _fail)
        else:
            monkeypatch.setattr(persistence, "dumps_database", _fail)
        with pytest.raises(_InjectedFailure):
            dump(database, path)
        monkeypatch.undo()
        assert load(path).rows("item") == expected
        assert sorted(os.listdir(directory)) == files_before
