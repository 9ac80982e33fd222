#!/usr/bin/env python3
"""Check: the paper's tables print exactly as recorded.

Runs the E1 NLU bench, the E2 policy sweep, the distribution-shift
bench and both ablations (``benchmarks/bench_*.py`` under pytest with
``-s --benchmark-disable``, about 17 s in total), takes every table they
print and compares it with ``benchmarks/golden/<bench>.txt``.  A change
that moves a single question the data-aware policy asks, or a single
intent or slot prediction of the E1 models, moves these tables.

Run from the repository root (CI does)::

    python tools/check_paper_tables.py            # compare
    python tools/check_paper_tables.py --update   # re-record the goldens

The goldens were recorded on Python 3.11, so only a 3.11 run fails on a
difference or a failing bench; other versions print what they got.
"""

from __future__ import annotations

import argparse
import difflib
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "benchmarks" / "golden"
BENCHES = (
    "bench_nlu_atis",
    "bench_policy_turns",
    "bench_distribution_shift",
    "bench_ablation_awareness",
    "bench_ablation_scoring",
)
# The dashed rule under a ResultTable header.
RULE = re.compile(r"^-+(  -+)*\s*$")


def tables(output: str) -> str:
    """Every printed table: caption, header, rule and rows.

    pytest's progress dots can run into a caption (``.E3b: ...``); they
    are dropped, and so is the cells' trailing padding.
    """
    lines = output.splitlines()
    found = []
    for i, line in enumerate(lines):
        if i < 3 or lines[i - 2] or not RULE.match(line):
            continue
        block = [lines[i - 3].lstrip("."), lines[i - 1], line]
        for row in lines[i + 1:]:
            if not row.strip():
                break
            block.append(row)
        found.append("\n".join(text.rstrip() for text in block))
    return "\n\n".join(found) + "\n"


def run(bench: str) -> tuple[int, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-m", "pytest", f"benchmarks/{bench}.py", "-q",
         "-s", "--benchmark-disable", "-p", "no:cacheprovider"],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    return done.returncode, done.stdout


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update", action="store_true",
        help="write the printed tables as the new goldens",
    )
    args = parser.parse_args()
    problems = []
    for bench in BENCHES:
        code, output = run(bench)
        if code != 0:
            print(output)
            problems.append(f"{bench}: pytest exited with {code}")
            continue
        got = tables(output)
        golden = GOLDEN / f"{bench}.txt"
        if args.update:
            GOLDEN.mkdir(exist_ok=True)
            golden.write_text(got, encoding="utf-8")
            print(f"{bench}: recorded {golden.relative_to(ROOT)}")
            continue
        want = golden.read_text(encoding="utf-8")
        if got == want:
            print(f"{bench}: tables match {golden.relative_to(ROOT)}")
            continue
        sys.stdout.writelines(difflib.unified_diff(
            want.splitlines(keepends=True), got.splitlines(keepends=True),
            f"{golden.relative_to(ROOT)} (golden)", f"{bench} (this run)",
        ))
        problems.append(f"{bench}: tables differ from the golden")
    for problem in problems:
        print(problem)
    if problems and sys.version_info[:2] == (3, 11):
        return 1
    if problems:
        print("(the goldens are for Python 3.11; not failing on "
              f"{sys.version_info.major}.{sys.version_info.minor})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
