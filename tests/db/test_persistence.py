"""Tests for database JSON snapshots."""

import pytest

from repro.db import (
    Column,
    Database,
    DatabaseSchema,
    DataType,
    ForeignKey,
    TableSchema,
    dump_database,
    dumps_database,
    load_database,
    loads_database,
)
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
            assert loaded.ordered_index_columns() == \
                table.ordered_index_columns()

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
            Query("movie").order_by("year", descending=True).limit(3),
        ]
        for query in queries:
            assert query.explain(restored) == query.explain(database)

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
