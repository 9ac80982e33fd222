"""Database snapshots: dump/load the schema, contents and index DDL as JSON.

Format version 3 serialises table contents *column-oriented*, mirroring
the columnar bank storage: one value list per column, parallel by row
(in row-id order).  That keeps the snapshot a straight dump of the
banks — no per-row dict is built on the way out — and typically smaller
(column names appear once per table instead of once per row).

Secondary hash-index DDL is part of the snapshot, so a loaded database
presents the query planner with exactly the access paths the dumped one
had and plans identically.  Snapshots written before ordered indexes
were removed also list ``"ordered"`` columns per table; loading ignores
that list.

Stored procedures are Python callables and cannot be serialised; a
loaded database starts with an empty procedure registry and the caller
re-registers its workload (exactly like restoring a SQL dump and
re-applying the function definitions).

Snapshot files are replaced atomically (see :func:`_replace_file`), so
a failed or interrupted dump leaves the previous snapshot loadable.

An *incremental* snapshot (format v4) is a directory holding a base
image plus a :class:`DeltaLog` of committed logical mutations, one
CRC-protected JSON line per commit.  :func:`load_incremental` restores
the base and replays the log; :func:`read_delta_records` cuts a torn or
corrupt tail, so a crash mid-append recovers to the last fully
committed generation instead of failing the restore.
"""

from __future__ import annotations

import datetime as _dt
import json
import os
import threading
import zlib
from typing import Any, Callable

from repro.db.database import Database
from repro.db.schema import Column, DatabaseSchema, ForeignKey, TableSchema
from repro.db.types import DataType
from repro.errors import DatabaseError

__all__ = [
    "dump_database",
    "load_database",
    "dumps_database",
    "loads_database",
    "dump_incremental",
    "load_incremental",
    "BASE_SNAPSHOT_NAME",
    "DELTA_LOG_NAME",
]

_FORMAT_VERSION = 3
_READABLE_VERSIONS = (3, 4)

#: File names inside an incremental snapshot directory.
BASE_SNAPSHOT_NAME = "base.json"
DELTA_LOG_NAME = "delta.log"


def _encode_value(value: Any) -> Any:
    if isinstance(value, _dt.datetime):  # pragma: no cover - not a col type
        return {"$type": "datetime", "value": value.isoformat()}
    if isinstance(value, _dt.date):
        return {"$type": "date", "value": value.isoformat()}
    if isinstance(value, _dt.time):
        return {"$type": "time", "value": value.isoformat()}
    return value


def _decode_value(value: Any) -> Any:
    if isinstance(value, dict) and "$type" in value:
        kind = value["$type"]
        if kind == "date":
            return _dt.date.fromisoformat(value["value"])
        if kind == "time":
            return _dt.time.fromisoformat(value["value"])
        if kind == "datetime":  # pragma: no cover - not a col type
            return _dt.datetime.fromisoformat(value["value"])
        raise DatabaseError(f"unknown encoded type {kind!r}")
    return value


def _schema_payload(schema: DatabaseSchema) -> list[dict[str, Any]]:
    tables = []
    for table in schema:
        tables.append(
            {
                "name": table.name,
                "primary_key": table.primary_key,
                "columns": [
                    {
                        "name": column.name,
                        "dtype": column.dtype.value,
                        "nullable": column.nullable,
                        "unique": column.unique,
                    }
                    for column in table.columns
                ],
                "foreign_keys": [
                    {
                        "column": fk.column,
                        "target_table": fk.target_table,
                        "target_column": fk.target_column,
                    }
                    for fk in table.foreign_keys
                ],
            }
        )
    return tables


def _schema_from_payload(payload: list[dict[str, Any]]) -> DatabaseSchema:
    tables = []
    for body in payload:
        tables.append(
            TableSchema(
                body["name"],
                [
                    Column(
                        column["name"],
                        DataType(column["dtype"]),
                        nullable=column["nullable"],
                        unique=column["unique"],
                    )
                    for column in body["columns"]
                ],
                primary_key=body.get("primary_key"),
                foreign_keys=[
                    ForeignKey(fk["column"], fk["target_table"],
                               fk["target_column"])
                    for fk in body.get("foreign_keys", ())
                ],
            )
        )
    return DatabaseSchema(tables)


def _index_payload(database: Database) -> dict[str, dict[str, list[str]]]:
    """Secondary hash-index DDL per table.

    Hash indexes implied by the schema (primary key, unique columns)
    are rebuilt by table construction and excluded here; everything
    else — FK probe indexes, categorical group-by keys — must be
    recorded or a loaded database silently plans worse.
    """
    payload: dict[str, dict[str, list[str]]] = {}
    for name in database.table_names:
        table = database.table(name)
        implied = {c.name for c in table.schema.columns if c.unique}
        if table.schema.primary_key:
            implied.add(table.schema.primary_key)
        hash_columns = [
            c for c in table.hash_index_columns() if c not in implied
        ]
        if hash_columns:
            payload[name] = {"hash": hash_columns}
    return payload


def _column_payload(database: Database) -> dict[str, dict[str, list]]:
    """Per-table column banks (v3): ``column -> values`` in row-id order.

    Each bank is read straight off the table's columnar storage; all
    banks of one table have equal length (the row count).
    """
    payload: dict[str, dict[str, list]] = {}
    for name in database.table_names:
        table = database.table(name)
        payload[name] = {
            column: [_encode_value(value) for value in values]
            for column, values in table.column_arrays().items()
        }
    return payload


def dumps_database(database: Database, version: int = _FORMAT_VERSION) -> str:
    """Serialise schema + column banks + secondary-index DDL to JSON.

    ``version=4`` additionally records each table's row ids (parallel
    to the banks) and id counter, so a load restores rows under their
    *original* ids — the property a delta-log replay depends on (its
    ops address rows by id).  Version 3 stays the default standalone
    format; v4 is the base image of an incremental snapshot.
    """
    if version not in (3, 4):
        raise DatabaseError(f"cannot write snapshot version {version!r}")
    payload: dict[str, Any] = {
        "format_version": version,
        "schema": _schema_payload(database.schema),
        "columns": _column_payload(database),
        "indexes": _index_payload(database),
    }
    if version >= 4:
        payload["generation"] = database.data_version
        payload["row_ids"] = {
            name: database.table(name).row_ids()
            for name in database.table_names
        }
        payload["next_row_id"] = {
            name: database.table(name).next_row_id
            for name in database.table_names
        }
    return json.dumps(payload, indent=2)


def _content_section(body: dict[str, Any], key: str) -> dict[str, Any]:
    """The mandatory content section, failing loudly when absent.

    A snapshot whose version mandates a section but lacks it (truncated
    write, hand-edited file) must not load as an empty database.
    """
    try:
        return body[key]
    except KeyError:
        raise DatabaseError(
            f"snapshot (version {body.get('format_version')!r}) is missing "
            f"its {key!r} section"
        ) from None


def _rows_from_v3(body: dict[str, Any]) -> dict[str, list[dict[str, Any]]]:
    """Decode a v3 ``columns`` section into per-table row dicts."""
    out: dict[str, list[dict[str, Any]]] = {}
    for name, banks in _content_section(body, "columns").items():
        columns = list(banks)
        decoded = [
            [_decode_value(value) for value in banks[column]]
            for column in columns
        ]
        lengths = {len(bank) for bank in decoded}
        if len(lengths) > 1:
            raise DatabaseError(
                f"snapshot table {name!r}: ragged column banks "
                f"(lengths {sorted(lengths)})"
            )
        out[name] = [
            dict(zip(columns, values)) for values in zip(*decoded)
        ]
    return out


def _load_v4_rows(database: Database, body: dict[str, Any]) -> None:
    """Restore a v4 snapshot's rows under their original row ids.

    Rows re-enter through ``Table.restore`` (values were coerced and
    FK-checked before the dump), so any table order works and the id
    counters advance to exactly the dumped state — replaying a delta
    log's inserts then re-takes the ids it recorded.  One commit point
    at the end publishes everything.
    """
    row_ids = _content_section(body, "row_ids")
    next_ids = body.get("next_row_id", {})
    for name, rows in _rows_from_v3(body).items():
        table = database.table(name)
        ids = row_ids.get(name, [])
        if len(ids) != len(rows):
            raise DatabaseError(
                f"snapshot table {name!r}: {len(ids)} row ids for "
                f"{len(rows)} rows"
            )
        for rid, row in zip(ids, rows):
            table.restore(rid, row)
        counter = next_ids.get(name)
        if counter is not None:
            table.advance_row_counter(counter)
    database.notify_data_changed()


def _insert_v3_rows(database: Database, body: dict[str, Any]) -> None:
    """Insert a v3 snapshot's rows in FK-dependency order: repeatedly
    insert whichever tables reference only tables already loaded."""
    remaining = _rows_from_v3(body)
    loaded: set[str] = set()
    while remaining:
        progressed = False
        for name in list(remaining):
            schema = database.schema.table(name)
            depends = {fk.target_table for fk in schema.foreign_keys} - {name}
            if depends <= loaded:
                for row in remaining.pop(name):
                    database.insert(name, row)
                loaded.add(name)
                progressed = True
        if not progressed:
            raise DatabaseError(
                f"circular foreign-key dependency among {sorted(remaining)}"
            )


def loads_database(payload: str) -> Database:
    """Rebuild a database from :func:`dumps_database` output."""
    return _database_from_body(json.loads(payload))


def _database_from_body(body: dict[str, Any]) -> Database:
    version = body.get("format_version")
    if version not in _READABLE_VERSIONS:
        raise DatabaseError(f"unsupported snapshot version {version!r}")
    database = Database(_schema_from_payload(body["schema"]))
    if version >= 4:
        _load_v4_rows(database, body)
    else:
        _insert_v3_rows(database, body)
    for name, indexes in body.get("indexes", {}).items():
        if name not in database:
            raise DatabaseError(
                f"snapshot indexes reference unknown table {name!r}"
            )
        # An "ordered" list (written before ordered indexes were
        # removed) names range indexes no plan uses; it is ignored.
        for column in indexes.get("hash", ()):
            database.create_index(name, column)
    return database


def _replace_file(path: str, text: str) -> None:
    """Write ``text`` to ``path`` all or nothing.

    The text lands in a temp file beside ``path``, which is flushed,
    fsynced and then renamed over ``path``; on any failure the temp
    file is removed and the previous ``path`` is left as it was.  The
    temp name is unique per process and thread, and plain ``open``
    gives the file the same umask-derived mode a direct write would.
    """
    temp_path = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
    handle = open(temp_path, "w")
    try:
        with handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_path, path)
    except BaseException:
        os.unlink(temp_path)
        raise


def dump_database(database: Database, path: str) -> None:
    """Write a JSON snapshot to ``path``, replacing it atomically."""
    _replace_file(path, dumps_database(database))


def load_database(path: str) -> Database:
    """Load a JSON snapshot from ``path``."""
    with open(path) as handle:
        return loads_database(handle.read())


# ---------------------------------------------------------------------------
# Incremental snapshots (format v4 base image + delta log)
# ---------------------------------------------------------------------------

def _record_crc(generation: int, ops: list) -> int:
    """CRC32 over the canonical encoding of one record's content."""
    canonical = json.dumps(
        [generation, ops], separators=(",", ":"), sort_keys=True
    )
    return zlib.crc32(canonical.encode("utf-8"))


def _identity(value: Any) -> Any:
    return value


class DeltaLog:
    """Append-only log of committed logical mutations.

    One op is ``[kind, table, row_id, payload]``: ``kind`` is "insert"
    (payload: the full coerced row), "update" (payload: the new values
    of the changed columns) or "delete" (payload: None).  The database
    records each statement's op into a pending buffer;
    :meth:`commit` flushes the buffer as one atomic record tagged with
    the committed generation.  Savepoints mirror the transaction
    manager's: :meth:`rollback_to` truncates the pending tail exactly
    like the undo log replays its inverse tail, and :meth:`discard`
    drops a rolled-back transaction's ops entirely — only committed
    state ever reaches the log.

    When attached to a file each record is one JSON line carrying a
    CRC32 of its content, flushed at the commit point, so a reader can
    always cut a torn tail back to the last fully committed record.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._pending: list[list] = []
        self._marks: dict[str, int] = {}
        self._handle = None

    # ------------------------------------------------------------------
    # Recording (called under the database's commit latch)
    # ------------------------------------------------------------------
    def record(
        self, kind: str, table: str, row_id: int, payload: Any = None
    ) -> None:
        """Buffer one logical op until the owning commit point."""
        self._pending.append([kind, table, row_id, payload])

    def savepoint(self, name: str) -> None:
        self._marks[name] = len(self._pending)

    def rollback_to(self, name: str) -> None:
        mark = self._marks.get(name)
        if mark is not None:
            del self._pending[mark:]

    def discard(self) -> None:
        """Drop the pending buffer (transaction rollback)."""
        self._pending.clear()
        self._marks.clear()

    def commit(self, generation: int) -> None:
        """Flush pending ops as one record tagged with ``generation``."""
        ops = self._pending
        self._pending = []
        self._marks.clear()
        if ops:
            with self._lock:
                if self._handle is not None:
                    self._write_locked(generation, ops)

    def _write_locked(self, generation: int, ops: list[list]) -> None:
        ops = [
            [kind, table, row_id,
             None if payload is None else {
                 column: _encode_value(value)
                 for column, value in payload.items()
             }]
            for kind, table, row_id, payload in ops
        ]
        line = json.dumps(
            {
                "generation": generation,
                "ops": ops,
                "crc": _record_crc(generation, ops),
            },
            separators=(",", ":"),
        )
        self._handle.write(line + "\n")
        self._handle.flush()

    def attach(self, path: str) -> None:
        """Start a fresh log file at ``path`` (one JSON line per commit).

        The caller just wrote a base image that already contains
        everything committed so far, so the file starts empty.
        """
        with self._lock:
            if self._handle is not None:
                self._handle.close()
            self._handle = open(path, "w")

    def close(self) -> None:
        """Close the attached file, if any; later commits write nothing.
        Closing twice is harmless."""
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None


def read_delta_records(
    path: str, decoder: Callable[[Any], Any] | None = None
) -> tuple[list[dict[str, Any]], bool]:
    """Read a delta-log file tolerantly: ``(records, clean)``.

    Stops at the first torn or corrupt line — a truncated JSON tail, a
    CRC mismatch, a malformed record or a non-monotonic generation —
    and returns everything before it.  ``clean`` is False when such a
    tail was cut, which is exactly the crash-mid-append case: the
    records returned are the last fully committed state.
    """
    decode = decoder if decoder is not None else _identity
    records: list[dict[str, Any]] = []
    clean = True
    last_generation = None
    # Frame in binary: a crash (or a copy taken mid-append) can cut the
    # file at *any* byte offset, including inside a multi-byte UTF-8
    # sequence — text-mode iteration would raise UnicodeDecodeError on
    # such a tail instead of cutting it.  Split on the newline framing
    # first, decode each complete line on its own, and treat any decode
    # failure like every other torn-tail symptom.
    with open(path, "rb") as handle:
        raw = handle.read()
    chunks = raw.split(b"\n")
    if chunks[-1] != b"":
        # No trailing newline: the final chunk is a torn append (the
        # writer emits record+terminator in one write), however far it
        # got — zero bytes of payload or all of them.
        clean = False
    chunks = chunks[:-1]
    for chunk in chunks:
        try:
            line = chunk.decode("utf-8")
            body = json.loads(line)
            generation = body["generation"]
            ops = body["ops"]
            crc = body["crc"]
        except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError):
            clean = False
            break
        if not isinstance(generation, int) or not isinstance(ops, list):
            clean = False
            break
        if crc != _record_crc(generation, ops):
            clean = False
            break
        if last_generation is not None and generation <= last_generation:
            clean = False
            break
        try:
            decoded_ops = [
                (
                    kind,
                    table,
                    row_id,
                    None if payload is None else {
                        column: decode(value)
                        for column, value in payload.items()
                    },
                )
                for kind, table, row_id, payload in ops
            ]
        except (TypeError, ValueError, AttributeError, DatabaseError):
            clean = False
            break
        last_generation = generation
        records.append({"generation": generation, "ops": decoded_ops})
    return records, clean



def dump_incremental(database: Database, directory: str) -> str:
    """Write a v4 base image to ``directory`` and start its delta log.

    After this returns, every committed mutation appends to
    ``delta.log`` (one CRC-protected JSON line per commit, flushed at
    the commit point), so ``directory`` is a continuously-current
    snapshot: :func:`load_incremental` restores base + replay at any
    moment, including after a crash mid-append.  Taking the commit
    latch for the base write guarantees no commit falls between the
    image and the first logged record.
    """
    os.makedirs(directory, exist_ok=True)
    base_path = os.path.join(directory, BASE_SNAPSHOT_NAME)
    log_path = os.path.join(directory, DELTA_LOG_NAME)
    with database.write_locked():
        _replace_file(base_path, dumps_database(database, version=4))
        log = database.delta_log
        if log is None:
            log = DeltaLog()
        log.attach(log_path)
        database.delta_log = log
    return directory


def load_incremental(directory: str) -> Database:
    """Restore a database from an incremental snapshot directory.

    Loads the v4 base image, then replays every fully committed
    delta-log record newer than the image (the tolerant reader cuts a
    torn or corrupt tail, recovering to the last complete commit).

    Records at or below the image's ``generation`` are already in it:
    a crash between :func:`dump_incremental`'s base replace and its log
    truncation leaves the previous log beside the new image.  The
    restored database's generation clock resumes at the newest
    generation restored, so a later :func:`dump_incremental` of it
    stamps its image above every record of the log it replaces.
    """
    base_path = os.path.join(directory, BASE_SNAPSHOT_NAME)
    if not os.path.exists(base_path):
        raise DatabaseError(
            f"no incremental snapshot at {directory!r}: "
            f"missing {BASE_SNAPSHOT_NAME}"
        )
    with open(base_path) as handle:
        body = json.load(handle)
    database = _database_from_body(body)
    # A base without a generation (format v3) predates every record.
    generation = body.get("generation", 0)
    if not isinstance(generation, int):
        raise DatabaseError(
            f"incremental snapshot base: generation {generation!r} "
            "is not an integer"
        )
    log_path = os.path.join(directory, DELTA_LOG_NAME)
    if os.path.exists(log_path):
        records, __ = read_delta_records(log_path, decoder=_decode_value)
        records = [r for r in records if r["generation"] > generation]
        _replay_records(database, records)
        if records:
            generation = records[-1]["generation"]
    database.clock.advance_to(generation)
    return database


def _replay_records(database: Database, records: list[dict[str, Any]]) -> None:
    """Re-apply committed delta-log records in order.

    Ops go through the normal ``Database`` mutation surface (same FK
    checks, same commit points), so a replayed database is
    indistinguishable from one that executed the workload live.  The
    id counters restored by the v4 base make each replayed insert
    re-take the id the log recorded; a mismatch means the log does not
    belong to this base image.
    """
    for record in records:
        for kind, table_name, row_id, payload in record["ops"]:
            if kind == "insert":
                assigned = database.insert(table_name, dict(payload))
                if assigned != row_id:
                    raise DatabaseError(
                        f"delta-log replay: insert into {table_name!r} "
                        f"took id {assigned}, log recorded {row_id} — "
                        "log does not match this base snapshot"
                    )
            elif kind == "update":
                database.update(table_name, row_id, dict(payload))
            elif kind == "delete":
                database.delete(table_name, row_id)
            else:
                raise DatabaseError(
                    f"delta-log replay: unknown op kind {kind!r}"
                )
