"""Transaction execution: the out-of-the-box database integration.

"The agent and the database are tightly integrated ... the agent can
directly execute the desired transactions without any manual overhead"
(Section 2).  The executor binds the collected slot values to the stored
procedure's parameters and runs it atomically, translating failures into
dialogue-friendly error messages instead of exceptions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.annotation import Task
from repro.db.database import Database
from repro.db.procedures import ProcedureResult
from repro.errors import DatabaseError

__all__ = ["ExecutionOutcome", "TransactionExecutor"]


@dataclass(frozen=True)
class ExecutionOutcome:
    """Result of attempting a transaction."""

    success: bool
    result: ProcedureResult | None = None
    error: str | None = None


class TransactionExecutor:
    """Runs a task's stored procedure with collected slot values."""

    def __init__(self, database: Database) -> None:
        self._database = database

    def execute(self, task: Task, collected: dict[str, Any]) -> ExecutionOutcome:
        arguments = {
            slot.name: collected.get(slot.name)
            for slot in task.slots
            if collected.get(slot.name) is not None or not slot.optional
        }
        connection = self._database.default_connection
        try:
            result = connection.call(task.name, **arguments)
        except DatabaseError as exc:
            return ExecutionOutcome(success=False, error=str(exc))
        return ExecutionOutcome(success=True, result=result)

    def requires_confirmation(self, task: Task) -> bool:
        """Read-only procedures run immediately; writes are confirmed."""
        procedure = self._database.procedures.get(task.name)
        return bool(procedure.writes)
