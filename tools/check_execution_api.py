#!/usr/bin/env python3
"""Lint: internal callers must execute through the unified Connection API.

``Query.run(db)`` / ``Query.count(db)`` / ``aggregate_query(...)`` are
deprecated shims kept for external callers and the existing test suite;
code *inside* ``src/repro`` (outside the shim modules themselves) must
go through ``database.connect()`` / ``Connection.prepare`` /
``Connection.execute`` so per-connection stats, the index advisor and
prepared-statement amortisation actually see the traffic.

A second rule keeps the tables' MVCC version stamps private to the
storage layer.

Run from the repository root (CI does)::

    python tools/check_execution_api.py
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

# The shim modules themselves (and the API that implements them).
ALLOWED = {
    SRC / "db" / "query.py",
    SRC / "db" / "aggregation.py",
    SRC / "db" / "api.py",
}

# Direct executions of the legacy surface: Query(...).run(...) chains,
# run/count against a database handle, and the aggregate_query shim.
FORBIDDEN = (
    re.compile(r"Query\([^)]*\)(\.\w+\([^)]*\))*\.(run|count)\("),
    re.compile(r"\.(run|count)\(\s*(database|db|self\._database)\b"),
    re.compile(r"\baggregate_query\("),
)

# The only file allowed to touch a table's per-slot version stamps: the
# bank store itself.  Everyone else reads through the public Table
# surface (scan_slots, slot_buckets, grouped_layout, ...), which keeps
# the MVCC slot layout an implementation detail the storage layer can
# evolve.
STORAGE_ALLOWED = {SRC / "db" / "table.py"}

# ``self.`` receivers stay clean: an object's own ``_created``-style
# attribute is its own state, not a reach into a table's banks.
STORAGE_FORBIDDEN = (
    re.compile(r"(?<!self)\.(_created|_deleted|_max_stamp)\b"),
)


def main() -> int:
    violations: list[str] = []
    storage_violations: list[str] = []
    for path in sorted(SRC.rglob("*.py")):
        for lineno, line in enumerate(
            path.read_text().splitlines(), start=1
        ):
            stripped = line.strip()
            if stripped.startswith("#"):
                continue
            rel = path.relative_to(SRC.parent.parent)
            if path not in ALLOWED:
                for pattern in FORBIDDEN:
                    if pattern.search(line):
                        violations.append(f"{rel}:{lineno}: {stripped}")
                        break
            if path not in STORAGE_ALLOWED:
                for pattern in STORAGE_FORBIDDEN:
                    if pattern.search(line):
                        storage_violations.append(
                            f"{rel}:{lineno}: {stripped}"
                        )
                        break
    if violations:
        print(
            "direct legacy-surface executions found in src/repro "
            "(use the Connection API from repro.db.api instead):",
            file=sys.stderr,
        )
        for violation in violations:
            print(f"  {violation}", file=sys.stderr)
    if storage_violations:
        print(
            "table version stamps (_created/_deleted/_max_stamp) touched "
            "outside repro/db/table.py (use the public Table surface — "
            "scan_slots, slot_buckets, grouped_layout — instead):",
            file=sys.stderr,
        )
        for violation in storage_violations:
            print(f"  {violation}", file=sys.stderr)
    if violations or storage_violations:
        return 1
    print(f"execution-API lint ok ({SRC})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
