"""Schema objects: columns, foreign keys, table schemas and database schemas.

A :class:`TableSchema` declares the columns of one relation together with
its primary key, uniqueness constraints and outgoing foreign keys.  A
:class:`DatabaseSchema` is the collection of table schemas and validates
cross-table references (foreign keys must point at existing primary keys).

Schemas are deliberately plain, declarative objects: the live data and
its hash indexes live in :mod:`repro.db.table`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.db.types import DataType
from repro.errors import SchemaError, UnknownColumnError, UnknownTableError

__all__ = ["Column", "ForeignKey", "TableSchema", "DatabaseSchema"]

_NAME_RE = re.compile(r"^[a-z_][a-z0-9_]*$")


def _check_name(name: str, kind: str) -> str:
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise SchemaError(
            f"invalid {kind} name {name!r}: must match [a-z_][a-z0-9_]*"
        )
    return name


@dataclass(frozen=True)
class Column:
    """One column of a table.

    Parameters
    ----------
    name:
        Lower-case identifier.
    dtype:
        Declared :class:`~repro.db.types.DataType`.
    nullable:
        Whether NULL values are allowed (primary-key columns never are).
    unique:
        Whether values must be unique across the table.
    """

    name: str
    dtype: DataType
    nullable: bool = True
    unique: bool = False

    def __post_init__(self) -> None:
        _check_name(self.name, "column")
        if not isinstance(self.dtype, DataType):
            raise SchemaError(f"column {self.name!r}: dtype must be a DataType")


@dataclass(frozen=True)
class ForeignKey:
    """A foreign-key edge ``source_table.column -> target_table.target_column``."""

    column: str
    target_table: str
    target_column: str

    def __post_init__(self) -> None:
        _check_name(self.column, "column")
        _check_name(self.target_table, "table")
        _check_name(self.target_column, "column")


class TableSchema:
    """Declarative schema of one relation."""

    def __init__(
        self,
        name: str,
        columns: list[Column],
        primary_key: str | None = None,
        foreign_keys: list[ForeignKey] | None = None,
    ) -> None:
        self.name = _check_name(name, "table")
        if not columns:
            raise SchemaError(f"table {name!r} must have at least one column")
        seen: set[str] = set()
        for column in columns:
            if column.name in seen:
                raise SchemaError(f"table {name!r}: duplicate column {column.name!r}")
            seen.add(column.name)
        self.columns: tuple[Column, ...] = tuple(columns)
        self._by_name: dict[str, Column] = {c.name: c for c in columns}

        if primary_key is not None and primary_key not in self._by_name:
            raise SchemaError(
                f"table {name!r}: primary key {primary_key!r} is not a column"
            )
        self.primary_key = primary_key

        self.foreign_keys: tuple[ForeignKey, ...] = tuple(foreign_keys or ())
        fk_columns: set[str] = set()
        for fk in self.foreign_keys:
            if fk.column not in self._by_name:
                raise SchemaError(
                    f"table {name!r}: foreign key on unknown column {fk.column!r}"
                )
            if fk.column in fk_columns:
                raise SchemaError(
                    f"table {name!r}: duplicate foreign key on column {fk.column!r}"
                )
            fk_columns.add(fk.column)

    # ------------------------------------------------------------------
    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    def has_column(self, name: str) -> bool:
        return name in self._by_name

    def column(self, name: str) -> Column:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownColumnError(
                f"table {self.name!r} has no column {name!r}"
            ) from None

    def foreign_key_for(self, column: str) -> ForeignKey | None:
        """The outgoing foreign key on ``column``, or ``None``."""
        for fk in self.foreign_keys:
            if fk.column == column:
                return fk
        return None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        cols = ", ".join(f"{c.name}:{c.dtype}" for c in self.columns)
        return f"TableSchema({self.name!r}, [{cols}])"


class DatabaseSchema:
    """The set of table schemas making up one database, with FK validation."""

    def __init__(self, tables: list[TableSchema] | None = None) -> None:
        self._tables: dict[str, TableSchema] = {}
        for table in tables or ():
            self.add_table(table)
        if tables:
            self.validate()

    # ------------------------------------------------------------------
    def add_table(self, table: TableSchema) -> None:
        if table.name in self._tables:
            raise SchemaError(f"duplicate table {table.name!r}")
        self._tables[table.name] = table

    @property
    def table_names(self) -> tuple[str, ...]:
        return tuple(self._tables)

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def __iter__(self):
        return iter(self._tables.values())

    def table(self, name: str) -> TableSchema:
        try:
            return self._tables[name]
        except KeyError:
            raise UnknownTableError(f"no table named {name!r}") from None

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check all foreign keys point at existing unique/PK columns."""
        for table in self:
            for fk in table.foreign_keys:
                if fk.target_table not in self._tables:
                    raise SchemaError(
                        f"table {table.name!r}: foreign key {fk.column!r} "
                        f"references unknown table {fk.target_table!r}"
                    )
                target = self._tables[fk.target_table]
                if not target.has_column(fk.target_column):
                    raise SchemaError(
                        f"table {table.name!r}: foreign key {fk.column!r} "
                        f"references unknown column "
                        f"{fk.target_table}.{fk.target_column}"
                    )
                target_col = target.column(fk.target_column)
                is_key = (
                    target.primary_key == fk.target_column or target_col.unique
                )
                if not is_key:
                    raise SchemaError(
                        f"table {table.name!r}: foreign key {fk.column!r} must "
                        f"reference a primary-key or unique column, but "
                        f"{fk.target_table}.{fk.target_column} is neither"
                    )
                source_col = table.column(fk.column)
                if source_col.dtype is not target_col.dtype:
                    raise SchemaError(
                        f"foreign key {table.name}.{fk.column} "
                        f"({source_col.dtype}) does not match type of "
                        f"{fk.target_table}.{fk.target_column} ({target_col.dtype})"
                    )

    def referencing_tables(self, target: str) -> list[tuple[str, ForeignKey]]:
        """All ``(table_name, fk)`` pairs whose foreign key points at ``target``."""
        result: list[tuple[str, ForeignKey]] = []
        for table in self:
            for fk in table.foreign_keys:
                if fk.target_table == target:
                    result.append((table.name, fk))
        return result

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DatabaseSchema({sorted(self._tables)})"
