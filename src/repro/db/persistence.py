"""Database snapshots: dump/load the schema, contents and index DDL as JSON.

Format version 3 serialises table contents *column-oriented*, mirroring
the columnar bank storage: one value list per column, parallel by row
(in row-id order).  That keeps the snapshot a straight dump of the
banks — no per-row dict is built on the way out — and typically smaller
(column names appear once per table instead of once per row).

Secondary-index DDL (hash and ordered indexes) is part of the snapshot,
so a loaded database presents the query planner with exactly the
access paths the dumped one had and plans identically.

Stored procedures are Python callables and cannot be serialised; a
loaded database starts with an empty procedure registry and the caller
re-registers its workload (exactly like restoring a SQL dump and
re-applying the function definitions).
"""

from __future__ import annotations

import datetime as _dt
import json
import os
from typing import Any

from repro.db.database import Database
from repro.db.schema import Column, DatabaseSchema, ForeignKey, TableSchema
from repro.db.segments import DeltaLog, read_delta_records
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
    """Secondary-index DDL per table.

    Hash indexes implied by the schema (primary key, unique columns)
    are rebuilt by table construction and excluded here; everything
    else — FK probe indexes, ordered range/ORDER BY indexes — must be
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
        ordered_columns = table.ordered_index_columns()
        if hash_columns or ordered_columns:
            payload[name] = {
                "hash": hash_columns,
                "ordered": ordered_columns,
            }
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
    body = json.loads(payload)
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
        for column in indexes.get("hash", ()):
            database.create_index(name, column)
        for column in indexes.get("ordered", ()):
            database.create_ordered_index(name, column)
    return database


def dump_database(database: Database, path: str) -> None:
    """Write a JSON snapshot to ``path``."""
    with open(path, "w") as handle:
        handle.write(dumps_database(database))


def load_database(path: str) -> Database:
    """Load a JSON snapshot from ``path``."""
    with open(path) as handle:
        return loads_database(handle.read())


# ---------------------------------------------------------------------------
# Incremental snapshots (format v4 base image + delta log)
# ---------------------------------------------------------------------------

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
        with open(base_path, "w") as handle:
            handle.write(dumps_database(database, version=4))
        log = database.delta_log
        if log is None:
            log = DeltaLog()
        log.attach(log_path, encoder=_encode_value, truncate=True)
        database.delta_log = log
    return directory


def load_incremental(directory: str) -> Database:
    """Restore a database from an incremental snapshot directory.

    Loads the v4 base image, then replays every fully committed
    delta-log record (the tolerant reader cuts a torn or corrupt tail,
    recovering to the last complete commit), and finally compacts so
    the restored database starts sealed — restart lands directly in
    the cache-retentive storage mode.
    """
    base_path = os.path.join(directory, BASE_SNAPSHOT_NAME)
    if not os.path.exists(base_path):
        raise DatabaseError(
            f"no incremental snapshot at {directory!r}: "
            f"missing {BASE_SNAPSHOT_NAME}"
        )
    database = load_database(base_path)
    log_path = os.path.join(directory, DELTA_LOG_NAME)
    if os.path.exists(log_path):
        records, __ = read_delta_records(log_path, decoder=_decode_value)
        _replay_records(database, records)
    database.compact()
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
