"""Tests for snapshot format v4 and incremental (base + delta log)
persistence: exact row-id restores, commit-only logging, crash-torn
log recovery and compatibility with the older snapshot formats."""

import json
import os

import pytest

from repro.db import (
    Column,
    Database,
    DatabaseSchema,
    DataType,
    TableSchema,
    dump_incremental,
    dumps_database,
    load_incremental,
    loads_database,
)
from repro.db.persistence import (
    BASE_SNAPSHOT_NAME,
    DELTA_LOG_NAME,
    DeltaLog,
    _record_crc,
)
from repro.errors import DatabaseError


def _make_db() -> Database:
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
    for i in range(1, 11):
        database.insert(
            "item", {"item_id": i, "bucket": "b%d" % (i % 3), "qty": i}
        )
    return database


def _rows(database: Database) -> dict:
    return {name: database.rows(name) for name in database.table_names}


class TestV4Format:
    def test_default_dump_stays_v3(self, movie_db):
        database, __ = movie_db
        body = json.loads(dumps_database(database))
        assert body["format_version"] == 3
        assert "row_ids" not in body

    def test_v4_dump_carries_row_ids_and_counter(self, movie_db):
        database, __ = movie_db
        body = json.loads(dumps_database(database, version=4))
        assert body["format_version"] == 4
        assert "generation" in body
        for name in database.table_names:
            assert body["row_ids"][name] == database.table(name).row_ids()
        assert body["next_row_id"]["screening"] == (
            database.table("screening").next_row_id
        )

    def test_v4_roundtrip_preserves_exact_row_ids(self, movie_db):
        database, __ = movie_db
        # Punch holes so ids and positions diverge.
        for rid in database.table("reservation").row_ids()[2:5]:
            database.delete("reservation", rid)
        restored = loads_database(dumps_database(database, version=4))
        for name in database.table_names:
            assert restored.table(name).row_ids() == (
                database.table(name).row_ids()
            )
            assert restored.rows(name) == database.rows(name)
        # The id counter survives: the next insert allocates the same
        # internal row id on both sides.
        values = {
            "reservation_id": 90001,
            "customer_id": 1,
            "screening_id": 1,
            "no_tickets": 2,
        }
        assert restored.insert("reservation", dict(values)) == (
            database.insert("reservation", dict(values))
        )

    def test_unknown_dump_version_rejected(self, movie_db):
        database, __ = movie_db
        with pytest.raises(DatabaseError):
            dumps_database(database, version=9)


class TestIncrementalRoundtrip:
    def test_base_plus_log_matches_live(self, tmp_path, closing_log):
        database = closing_log(_make_db())
        directory = str(tmp_path / "snap")
        dump_incremental(database, directory)
        assert os.path.exists(os.path.join(directory, BASE_SNAPSHOT_NAME))
        assert os.path.exists(os.path.join(directory, DELTA_LOG_NAME))
        database.insert(
            "item", {"item_id": 11, "bucket": "b1", "qty": 4}
        )
        row_id = database.table("item").lookup("item_id", 3)[0]
        database.update("item", row_id, {"qty": 99})
        database.delete(
            "item", database.table("item").lookup("item_id", 7)[0]
        )
        restored = load_incremental(directory)
        assert _rows(restored) == _rows(database)
        assert restored.table("item").row_ids() == (
            database.table("item").row_ids()
        )

    def test_only_committed_state_reaches_the_log(self, tmp_path,
                                                  closing_log):
        database = closing_log(_make_db())
        directory = str(tmp_path / "snap")
        dump_incremental(database, directory)
        database.transactions.begin()
        database.insert("item", {"item_id": 20, "bucket": "b0", "qty": 1})
        database.transactions.commit()
        # A rolled-back transaction leaves no trace at all.
        database.transactions.begin()
        database.insert("item", {"item_id": 22, "bucket": "b2", "qty": 5})
        database.transactions.rollback()
        restored = load_incremental(directory)
        assert _rows(restored) == _rows(database)
        ids = [row["item_id"] for row in restored.rows("item")]
        assert 20 in ids and 22 not in ids

    def test_empty_log_restores_the_base(self, tmp_path, closing_log):
        database = closing_log(_make_db())
        directory = str(tmp_path / "snap")
        dump_incremental(database, directory)
        restored = load_incremental(directory)
        assert _rows(restored) == _rows(database)

    def test_restore_movie_database_accepts_directories(
        self, movie_db, tmp_path, closing_log
    ):
        from repro.datasets import restore_movie_database

        database = closing_log(movie_db[0])
        directory = str(tmp_path / "snap")
        dump_incremental(database, directory)
        database.insert(
            "reservation",
            {
                "reservation_id": 90002,
                "customer_id": 1,
                "screening_id": 1,
                "no_tickets": 1,
            },
        )
        restored, annotations = restore_movie_database(directory)
        assert restored.count("reservation") == database.count("reservation")
        assert annotations is not None
        # The registered procedures came back with the database.
        assert "ticket_reservation" in restored.procedures.names()


class TestDeltaLogClose:
    def test_close_stops_logging_and_is_idempotent(self, tmp_path):
        database = _make_db()
        directory = str(tmp_path / "snap")
        dump_incremental(database, directory)
        database.insert("item", {"item_id": 11, "bucket": "b1", "qty": 4})
        log = database.delta_log
        log.close()
        log.close()
        database.insert("item", {"item_id": 12, "bucket": "b2", "qty": 5})
        ids = [row["item_id"] for row in load_incremental(directory).rows(
            "item")]
        assert 11 in ids and 12 not in ids


class TestCrashRecovery:
    def _states(self, tmp_path, closing_log):
        """Dump a base, apply N commits, record the state after each."""
        database = closing_log(_make_db())
        directory = str(tmp_path / "snap")
        dump_incremental(database, directory)
        states = [_rows(database)]
        for step in range(6):
            if step % 3 == 2:
                database.delete(
                    "item",
                    database.table("item").lookup("item_id", step)[0],
                )
            else:
                database.insert(
                    "item",
                    {"item_id": 30 + step, "bucket": "b1", "qty": step},
                )
            states.append(_rows(database))
        return directory, states

    def test_truncation_at_any_offset_recovers_a_prefix(self, tmp_path,
                                                        closing_log):
        directory, states = self._states(tmp_path, closing_log)
        log_path = os.path.join(directory, DELTA_LOG_NAME)
        with open(log_path, "rb") as handle:
            payload = handle.read()
        for cut in (len(payload) - 1, len(payload) // 2,
                    len(payload) // 3, 3, 0):
            with open(log_path, "wb") as handle:
                handle.write(payload[:cut])
            restored = load_incremental(directory)
            assert _rows(restored) in states
        # The intact log restores the final committed state exactly.
        with open(log_path, "wb") as handle:
            handle.write(payload)
        assert _rows(load_incremental(directory)) == states[-1]

    def test_truncation_at_every_offset_of_the_last_record(self, tmp_path,
                                                           closing_log):
        """A crash can cut the tail record at *any* byte: every prefix
        must restore the state before that record — never raise."""
        directory, states = self._states(tmp_path, closing_log)
        log_path = os.path.join(directory, DELTA_LOG_NAME)
        with open(log_path, "rb") as handle:
            payload = handle.read()
        start = payload.rstrip(b"\n").rfind(b"\n") + 1
        for cut in range(start, len(payload)):
            with open(log_path, "wb") as handle:
                handle.write(payload[:cut])
            restored = load_incremental(directory)
            assert _rows(restored) == states[-2], f"cut at byte {cut}"
        with open(log_path, "wb") as handle:
            handle.write(payload)
        assert _rows(load_incremental(directory)) == states[-1]

    def test_multibyte_record_truncation_cuts_cleanly(self, tmp_path,
                                                      closing_log):
        """Truncation inside a multi-byte UTF-8 sequence is a torn
        record like any other (the text-mode reader used to raise
        UnicodeDecodeError before the line split ever happened)."""
        database = closing_log(_make_db())
        directory = str(tmp_path / "snap")
        dump_incremental(database, directory)
        before = _rows(database)
        database.insert(
            "item", {"item_id": 99, "bucket": "ß🎬é", "qty": 1}
        )
        after = _rows(database)
        log_path = os.path.join(directory, DELTA_LOG_NAME)
        # The writer escapes to ASCII; an external producer is allowed
        # raw UTF-8 (the CRC covers the decoded content, not the line
        # bytes).  Re-encode the record so the file genuinely contains
        # multi-byte sequences a cut can land inside.
        with open(log_path, encoding="utf-8") as handle:
            record = json.loads(handle.read())
        payload = (
            json.dumps(record, separators=(",", ":"), ensure_ascii=False)
            + "\n"
        ).encode("utf-8")
        assert "ß🎬é".encode("utf-8") in payload
        for cut in range(len(payload)):
            with open(log_path, "wb") as handle:
                handle.write(payload[:cut])
            restored = load_incremental(directory)
            assert _rows(restored) == before, f"cut at byte {cut}"
        with open(log_path, "wb") as handle:
            handle.write(payload)
        assert _rows(load_incremental(directory)) == after

    def test_corrupt_record_cuts_the_tail(self, tmp_path, closing_log):
        directory, states = self._states(tmp_path, closing_log)
        log_path = os.path.join(directory, DELTA_LOG_NAME)
        with open(log_path) as handle:
            lines = handle.readlines()
        # Corrupt the third record's content without touching its CRC.
        lines[2] = lines[2].replace('"ops"', '"opz"', 1)
        with open(log_path, "w") as handle:
            handle.writelines(lines)
        restored = load_incremental(directory)
        assert _rows(restored) == states[2]

    def test_non_monotonic_generation_cuts_the_tail(self, tmp_path,
                                                    closing_log):
        directory, states = self._states(tmp_path, closing_log)
        log_path = os.path.join(directory, DELTA_LOG_NAME)
        with open(log_path) as handle:
            lines = handle.readlines()
        lines.insert(2, lines[1])  # replayed generation
        with open(log_path, "w") as handle:
            handle.writelines(lines)
        restored = load_incremental(directory)
        assert _rows(restored) == states[2]

    @staticmethod
    def _dump_crashing_before_truncation(database, directory, monkeypatch):
        """``dump_incremental`` cut by a crash after it replaced the base
        image and before it truncated the delta log."""
        def crash(self, path):
            raise OSError("crash before the delta log is truncated")

        with monkeypatch.context() as patch:
            patch.setattr(DeltaLog, "attach", crash)
            with pytest.raises(OSError):
                dump_incremental(database, directory)

    def _commit_after_dump(self, tmp_path, closing_log):
        database = closing_log(_make_db())
        directory = str(tmp_path / "snap")
        dump_incremental(database, directory)
        for step in range(4):
            database.insert(
                "item", {"item_id": 40 + step, "bucket": "b2", "qty": step}
            )
        database.delete(
            "item", database.table("item").lookup("item_id", 2)[0]
        )
        return database, directory

    def test_crash_between_base_replace_and_log_truncation(
        self, tmp_path, monkeypatch, closing_log
    ):
        """The old log's records are already in the new base: replaying
        them again would re-insert rows the base holds."""
        database, directory = self._commit_after_dump(tmp_path, closing_log)
        self._dump_crashing_before_truncation(database, directory,
                                              monkeypatch)
        assert _rows(load_incremental(directory)) == _rows(database)

    def test_crash_window_after_a_restore(self, tmp_path, monkeypatch,
                                          closing_log):
        """A restored database's clock resumes past the log it replayed,
        so its own base image outranks that log's records."""
        database, directory = self._commit_after_dump(tmp_path, closing_log)
        restored = load_incremental(directory)
        assert restored.data_version >= database.data_version
        self._dump_crashing_before_truncation(restored, directory,
                                              monkeypatch)
        assert _rows(load_incremental(directory)) == _rows(database)

    def test_mismatched_log_rejected(self, tmp_path, closing_log):
        """A log whose insert ids disagree with the base is an error,
        not silent corruption."""
        database = closing_log(_make_db())
        directory = str(tmp_path / "snap")
        dump_incremental(database, directory)
        ops = [["insert", "item", 999,
                {"item_id": 50, "bucket": "b0", "qty": 1}]]
        record = {"generation": 10_000, "ops": ops,
                  "crc": _record_crc(10_000, ops)}
        with open(os.path.join(directory, DELTA_LOG_NAME), "a") as handle:
            handle.write(json.dumps(record, separators=(",", ":")) + "\n")
        with pytest.raises(DatabaseError):
            load_incremental(directory)

    def test_missing_base_rejected(self, tmp_path):
        with pytest.raises(DatabaseError):
            load_incremental(str(tmp_path / "nowhere"))


class TestOldFormatsStillLoad:
    """v3 snapshots stay loadable next to v4 (the v1/v2 row formats are
    rejected, see test_persistence; this is the incremental feature's
    guard)."""

    @pytest.mark.parametrize("version", [3])
    def test_downlevel_bodies_load(self, movie_db, version):
        database, __ = movie_db
        body = json.loads(dumps_database(database))
        assert body["format_version"] == version
        restored = loads_database(json.dumps(body))
        assert restored.count("movie") == database.count("movie")
