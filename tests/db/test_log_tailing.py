"""Concurrent delta-log tailing: a committing writer, a racing reader.

However the reader's polling interleaves with the writer's commits,
:func:`read_delta_records` observes a clean committed prefix of the
on-disk log, possibly cut at the record the writer is mid-append —
never a torn record, never a reordered or repeated generation.
"""

import os
import threading

from repro.db import (
    Column,
    Database,
    DatabaseSchema,
    DataType,
    TableSchema,
    dump_incremental,
)
from repro.db.persistence import DELTA_LOG_NAME, read_delta_records


def _make_db() -> Database:
    schema = DatabaseSchema(
        [
            TableSchema(
                "event",
                [
                    Column("event_id", DataType.INTEGER),
                    Column("payload", DataType.TEXT),
                ],
                primary_key="event_id",
            )
        ]
    )
    return Database(schema)


class _Writer(threading.Thread):
    """Commits single-insert transactions as fast as it can."""

    def __init__(self, database: Database, count: int) -> None:
        super().__init__(name="tailing-writer", daemon=True)
        self._database = database
        self.count = count

    def run(self) -> None:
        for i in range(1, self.count + 1):
            self._database.insert(
                "event", {"event_id": i, "payload": f"p{i}"}
            )


def test_raw_disk_tail_reads_stay_clean_under_append(tmp_path, closing_log):
    """read_delta_records racing the appender: a clean committed prefix
    (or a cut flagged not-clean), never an exception, never disorder."""
    database = closing_log(_make_db())
    directory = str(tmp_path / "snap")
    dump_incremental(database, directory)
    log_path = os.path.join(directory, DELTA_LOG_NAME)
    writer = _Writer(database, count=300)
    writer.start()
    reads = 0
    while writer.is_alive() or reads == 0:
        records, clean = read_delta_records(log_path)
        reads += 1
        generations = [r["generation"] for r in records]
        assert generations == sorted(generations)
        assert len(generations) == len(set(generations))
        ids = [op[3]["event_id"] for r in records for op in r["ops"]]
        assert ids == list(range(1, len(ids) + 1))
    writer.join()
    records, clean = read_delta_records(log_path)
    assert clean
    assert len(records) == writer.count
