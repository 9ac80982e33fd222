#!/usr/bin/env python3
"""Lint: the tables' MVCC version stamps stay private to the storage layer.

Only ``repro/db/table.py`` may touch a table's per-slot version stamps
(``_created``, ``_deleted``, ``_max_stamp``); everyone else reads
through the public Table surface (``scan_slots``, ``slot_buckets``,
``grouped_layout``, ...), which keeps the MVCC slot layout an
implementation detail the storage layer can evolve.

Run from the repository root (CI does)::

    python tools/check_execution_api.py
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

# The only file allowed to touch a table's per-slot version stamps: the
# bank store itself.
STORAGE_ALLOWED = {SRC / "db" / "table.py"}

# ``self.`` receivers stay clean: an object's own ``_created``-style
# attribute is its own state, not a reach into a table's banks.
STORAGE_FORBIDDEN = (
    re.compile(r"(?<!self)\.(_created|_deleted|_max_stamp)\b"),
)


def main() -> int:
    violations: list[str] = []
    for path in sorted(SRC.rglob("*.py")):
        if path in STORAGE_ALLOWED:
            continue
        for lineno, line in enumerate(
            path.read_text().splitlines(), start=1
        ):
            stripped = line.strip()
            if stripped.startswith("#"):
                continue
            if any(pattern.search(line) for pattern in STORAGE_FORBIDDEN):
                rel = path.relative_to(SRC.parent.parent)
                violations.append(f"{rel}:{lineno}: {stripped}")
    if violations:
        print(
            "table version stamps (_created/_deleted/_max_stamp) touched "
            "outside repro/db/table.py (use the public Table surface — "
            "scan_slots, slot_buckets, grouped_layout — instead):",
            file=sys.stderr,
        )
        for violation in violations:
            print(f"  {violation}", file=sys.stderr)
        return 1
    print(f"storage-stamp lint ok ({SRC})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
