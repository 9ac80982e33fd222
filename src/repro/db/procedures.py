"""Stored procedures (the paper's "transactions with user-defined functions").

A :class:`Procedure` declares a name, typed IN parameters and a Python
body that mutates the database.  Parameters may *reference* a table's key
column (``references=("customer", "customer_id")``): those are exactly the
parameters for which the runtime must uniquely identify an entity through
dialogue, which is what CAT's task extraction keys on (Section 2 of the
paper: "all this information is typically already available in the given
database and the set of its transactions").

Procedures run atomically: the registry wraps every call in a transaction
and rolls back if the body raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.db.locks import LockUpgradeError
from repro.db.types import DataType, coerce
from repro.errors import ProcedureError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.db.database import Database

__all__ = ["Parameter", "Procedure", "ProcedureRegistry", "ProcedureResult"]


@dataclass(frozen=True)
class Parameter:
    """A typed IN parameter of a stored procedure.

    Parameters
    ----------
    name:
        Identifier used for binding (and as the dialogue slot name).
    dtype:
        Declared data type.
    references:
        Optional ``(table, column)`` pair when the parameter is the key of
        an entity the user must identify (e.g. ``("customer",
        "customer_id")``).  ``None`` for plain values such as a ticket
        count.
    optional:
        Whether the parameter may be omitted (bound to NULL).
    """

    name: str
    dtype: DataType
    references: tuple[str, str] | None = None
    optional: bool = False

    @property
    def is_entity_reference(self) -> bool:
        return self.references is not None


@dataclass(frozen=True)
class ProcedureResult:
    """Outcome of a procedure call: the procedure, its bound arguments
    and the value its body returned."""

    procedure: str
    arguments: dict[str, Any]
    value: Any


class Procedure:
    """A named transaction with typed parameters and a Python body."""

    def __init__(
        self,
        name: str,
        parameters: list[Parameter],
        body: Callable[..., Any],
        description: str = "",
        reads: tuple[str, ...] = (),
        writes: tuple[str, ...] = (),
    ) -> None:
        if not name or not name.replace("_", "").isalnum():
            raise ProcedureError(f"invalid procedure name {name!r}")
        seen: set[str] = set()
        for parameter in parameters:
            if parameter.name in seen:
                raise ProcedureError(
                    f"procedure {name!r}: duplicate parameter {parameter.name!r}"
                )
            seen.add(parameter.name)
        self.name = name
        self.parameters: tuple[Parameter, ...] = tuple(parameters)
        self.body = body
        self.description = description or name.replace("_", " ")
        self.reads = reads
        self.writes = writes

    @property
    def parameter_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.parameters)

    def parameter(self, name: str) -> Parameter:
        for parameter in self.parameters:
            if parameter.name == name:
                return parameter
        raise ProcedureError(f"procedure {self.name!r} has no parameter {name!r}")

    def bind(self, arguments: dict[str, Any]) -> dict[str, Any]:
        """Coerce and validate ``arguments`` against the declared parameters."""
        unknown = set(arguments) - set(self.parameter_names)
        if unknown:
            raise ProcedureError(
                f"procedure {self.name!r}: unknown arguments {sorted(unknown)}"
            )
        bound: dict[str, Any] = {}
        for parameter in self.parameters:
            if parameter.name in arguments and arguments[parameter.name] is not None:
                bound[parameter.name] = coerce(
                    arguments[parameter.name], parameter.dtype
                )
            elif parameter.optional:
                bound[parameter.name] = None
            else:
                raise ProcedureError(
                    f"procedure {self.name!r}: missing argument {parameter.name!r}"
                )
        return bound

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        params = ", ".join(f"{p.name}:{p.dtype}" for p in self.parameters)
        return f"Procedure({self.name!r}, [{params}])"


class ProcedureRegistry:
    """Registry and atomic executor for a database's stored procedures."""

    def __init__(self, database: "Database") -> None:
        self._database = database
        self._procedures: dict[str, Procedure] = {}

    def register(self, procedure: Procedure) -> Procedure:
        if procedure.name in self._procedures:
            raise ProcedureError(f"duplicate procedure {procedure.name!r}")
        for parameter in procedure.parameters:
            if parameter.references is not None:
                table, column = parameter.references
                self._database.schema.table(table).column(column)
        self._procedures[procedure.name] = procedure
        return procedure

    def names(self) -> tuple[str, ...]:
        return tuple(self._procedures)

    def __contains__(self, name: str) -> bool:
        return name in self._procedures

    def __iter__(self):
        return iter(self._procedures.values())

    def get(self, name: str) -> Procedure:
        try:
            return self._procedures[name]
        except KeyError:
            raise ProcedureError(f"no procedure named {name!r}") from None

    def call(self, name: str, **arguments: Any) -> ProcedureResult:
        """Run a procedure atomically; rolls back and re-raises on failure.

        Writing procedures run in one :meth:`Database.transaction
        <repro.db.database.Database.transaction>` scope, holding the
        commit latch for the whole call, so concurrent readers never
        observe a half-applied transaction, concurrent calls serialise
        cleanly, and a body that raises anything, an interrupt
        included, leaves no write behind.
        Procedures declared read-only (``writes`` empty) run under the
        shared read lock instead — concurrently with each other and
        with read-only dialogue turns — and skip the transaction
        entirely, so they neither queue behind the write lock nor bump
        the data version.
        """
        procedure = self.get(name)
        bound = procedure.bind(arguments)
        if not procedure.writes:
            with self._database.read_locked(read_only=True):
                try:
                    value = procedure.body(self._database, **bound)
                except LockUpgradeError as exc:
                    # A declared-read-only body that mutates trips the
                    # snapshot pin's write refusal; name the real culprit.
                    raise ProcedureError(
                        f"procedure {name!r} is declared read-only but "
                        f"attempted to write: {exc}"
                    ) from exc
            return ProcedureResult(procedure=name, arguments=bound, value=value)
        with self._database.transaction():
            value = procedure.body(self._database, **bound)
        return ProcedureResult(procedure=name, arguments=bound, value=value)
