#!/usr/bin/env python3
"""Lint: the tables' MVCC version stamps and hash indexes stay private
to the storage layer, transactions have one scope, and every table is a
database's table.

Only ``repro/db/table.py`` may touch a table's per-slot version stamps
(``_created``, ``_deleted``), its write generation
(``_write_generation``, which the shared caches trust to cover every
write), its rewrite generation (``_rewrite_generation``, which the value
cache trusts to cover every write that gives an existing row id new
cells) and its hash-index internals (``_indexes``, ``_buckets``);
everyone else reads through the public Table surface (``scan_slots``,
``column_values``, ``grouped_layout``, ``write_generation``,
``rewrite_generation``, ``has_index``, ``hash_index_columns``,
``distinct_count``, ...), which
keeps the MVCC slot layout and the index structure implementation
details the storage layer can evolve.

Only ``repro/db/database.py`` and ``repro/db/transactions.py`` may call
``.begin()``, ``.commit()`` or ``.rollback()``: every other writer
opens ``Database.transaction()``, the one scope that commits on normal
exit and rolls back on any exception, interrupts included.

Only ``repro/db/database.py`` may construct a ``Table(``: a table shares
its database's generation clock, snapshot pins and commit points, so a
table built anywhere else would have none.  ``repro/db/table.py`` is
exempt because ``Table.__repr__`` writes ``Table(``.

Run from the repository root (CI does)::

    python tools/check_execution_api.py
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

STORAGE_RULE = (
    # The only file allowed to touch a table's per-slot version stamps
    # and its hash indexes: the bank store itself.
    {"db/table.py"},
    (
        # ``self.`` receivers stay clean: an object's own
        # ``_created``-style attribute is its own state, not a reach
        # into a table's banks.
        re.compile(
            r"(?<!self)\.(_created|_deleted|_write_generation"
            r"|_rewrite_generation)\b"
        ),
        # Index internals are flagged on any receiver.
        re.compile(r"\.(_indexes|_buckets)\b"),
    ),
    "table version stamps (_created/_deleted/"
    "_write_generation/_rewrite_generation) or index internals "
    "(_indexes/_buckets) touched outside repro/db/table.py (use "
    "the public Table surface — scan_slots, column_values, "
    "grouped_layout, write_generation, rewrite_generation, "
    "has_index, hash_index_columns, distinct_count — instead):",
)

TRANSACTION_RULE = (
    {"db/database.py", "db/transactions.py"},
    (re.compile(r"\.(begin|commit|rollback)\("),),
    "transactions begun, committed or rolled back outside "
    "repro/db/database.py and repro/db/transactions.py (open "
    "Database.transaction() instead):",
)

TABLE_RULE = (
    {"db/database.py", "db/table.py"},
    (re.compile(r"\bTable\("),),
    "tables constructed outside repro/db/database.py (build a "
    "Database and read its tables with database.table(name)):",
)


def _violations(allowed: set[str], patterns) -> list[str]:
    violations: list[str] = []
    for path in sorted(SRC.rglob("*.py")):
        if path.relative_to(SRC).as_posix() in allowed:
            continue
        for lineno, line in enumerate(
            path.read_text().splitlines(), start=1
        ):
            stripped = line.strip()
            if stripped.startswith("#"):
                continue
            if any(pattern.search(line) for pattern in patterns):
                rel = path.relative_to(SRC.parent.parent)
                violations.append(f"{rel}:{lineno}: {stripped}")
    return violations


def main() -> int:
    failed = False
    for allowed, patterns, message in (
        STORAGE_RULE, TRANSACTION_RULE, TABLE_RULE
    ):
        violations = _violations(allowed, patterns)
        if violations:
            failed = True
            print(message, file=sys.stderr)
            for violation in violations:
                print(f"  {violation}", file=sys.stderr)
    if failed:
        return 1
    print(f"storage lint ok ({SRC})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
