"""The package imports no third-party module but numpy, its one declared
runtime dependency (``pyproject.toml``), and no process machinery:
serving runs on threads over one database.

The check runs in a fresh interpreter and diffs ``sys.modules`` around
the imports, so modules a site hook loads at start-up do not count.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src"

_PROBE = """
import importlib, json, pkgutil, sys
before = set(sys.modules)
import repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    if not info.name.endswith(".__main__"):
        importlib.import_module(info.name)
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_only_numpy_is_imported_from_outside_the_standard_library():
    result = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True,
        text=True,
        check=True,
        cwd=_SRC,
    )
    added = json.loads(result.stdout.splitlines()[-1])
    assert {"repro.cli", "repro.serving.runtime"} <= set(added)
    assert "multiprocessing" not in added
    top_level = {name.partition(".")[0] for name in added}
    third_party = top_level - set(sys.stdlib_module_names) - {"repro"}
    assert third_party <= {"numpy"}, sorted(third_party)
