"""Entity-linker benchmark: FuzzyIndex lookups vs the brute-force scan.

The linker fuzzy-matches each text slot value against the distinct
values of its source column.  The largest such pool is the customer
email column, which grows with the data, so this benchmark builds
synthetic email pools of 500, 5,000 and 50,000 entries in the
``datasets/movies.py`` format (``first.last.id@domain``) and looks up a
fixed needle mix, one quarter each:

* ``exact``  - an entry as stored (answered by the hash probe);
* ``typo``   - an entry with one letter of its local part replaced;
* ``first``  - a first name alone, as users say it ("Alice");
* ``fragment`` - the fragment ``"10."``.

Every indexed lookup is checked against the brute-force reference scan
(``tests/nlu/reference_textmatch.py``), whose own time per lookup is
the baseline.  The record holds, per pool size, indexed and brute-force
p50/p95, the index's build time and size (tracemalloc), and the
machine's ``cpu_count``.

Run standalone (CI runs the smoke profile and archives the JSON):

    PYTHONPATH=src python benchmarks/bench_linker.py --smoke \\
        --output BENCH_linker.json

``--require-speedup X`` fails unless the indexed p95 at 5,000 entries
is at least ``X`` times below the brute-force p50 there.  Any lookup
that differs from the reference fails the run.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.dirname(HERE))

from helpers import percentile  # noqa: E402
from repro.datasets import lexicons  # noqa: E402
from repro.textutil import FuzzyIndex  # noqa: E402
from tests.nlu.reference_textmatch import reference_best_match  # noqa: E402

#: The entity linker's default threshold.
THRESHOLD = 0.72
SIZES = (500, 5_000, 50_000)
KINDS = ("exact", "typo", "first", "fragment")
#: Needles of each kind per pool size.  The brute-force reference takes
#: seconds per lookup at 50,000 entries, and every needle runs it once.
NEEDLES = {
    "smoke": {500: 8, 5_000: 4, 50_000: 1},
    "full": {500: 25, 5_000: 10, 50_000: 3},
}
#: Timed repeats of each indexed lookup.
REPEATS = 20
#: The size whose speedup ``--require-speedup`` gates.
GATED_SIZE = 5_000


def email_pool(size: int, rng: random.Random) -> list[str]:
    """Distinct customer emails, sorted like the linker's pools."""
    return sorted(
        f"{rng.choice(lexicons.FIRST_NAMES).lower()}."
        f"{rng.choice(lexicons.LAST_NAMES).lower()}.{customer_id}"
        f"@{rng.choice(lexicons.EMAIL_DOMAINS)}"
        for customer_id in range(1, size + 1)
    )


def one_typo(email: str, rng: random.Random) -> str:
    local = email.index(".")
    position = rng.randrange(local)
    letter = rng.choice(
        [c for c in "abcdefghijklmnopqrstuvwxyz" if c != email[position]]
    )
    return email[:position] + letter + email[position + 1:]


def needles(pool: list[str], count: int, rng: random.Random):
    for __ in range(count):
        yield "exact", rng.choice(pool)
        yield "typo", one_typo(rng.choice(pool), rng)
        yield "first", rng.choice(lexicons.FIRST_NAMES)
        yield "fragment", "10."


def percentiles(seconds: list[float]) -> dict[str, float]:
    return {
        "p50_ms": round(percentile(seconds, 50) * 1000.0, 4),
        "p95_ms": round(percentile(seconds, 95) * 1000.0, 4),
        "n": len(seconds),
    }


def index_bytes(pool: list[str]) -> int:
    """Memory held by a built index (probe and postings), measured on a
    second build: tracemalloc slows allocation, so builds are timed
    without it."""
    tracemalloc.start()
    try:
        index = FuzzyIndex(pool)
        index.lookup("\x00", THRESHOLD)
        held, __ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return held


def measure_size(size: int, count: int, seed: int) -> dict:
    rng = random.Random(seed * 1_000_003 + size)
    pool = email_pool(size, rng)

    started = time.perf_counter()
    index = FuzzyIndex(pool)
    probe_built = time.perf_counter()
    # The first lookup that misses the probe builds the trigram postings.
    index.lookup("\x00", THRESHOLD)
    postings_built = time.perf_counter()

    indexed: dict[str, list[float]] = {kind: [] for kind in KINDS}
    brute: dict[str, list[float]] = {kind: [] for kind in KINDS}
    mismatches = []
    lookups = 0
    for kind, needle in needles(pool, count, rng):
        started_brute = time.perf_counter()
        reference = reference_best_match(needle, pool, THRESHOLD)
        brute[kind].append(time.perf_counter() - started_brute)
        for __ in range(REPEATS):
            started_lookup = time.perf_counter()
            result = index.lookup(needle, THRESHOLD)
            indexed[kind].append(time.perf_counter() - started_lookup)
        lookups += 1
        if result != reference:
            mismatches.append(
                {"needle": needle, "indexed": result, "reference": reference}
            )

    def summary(samples: dict[str, list[float]]) -> dict:
        merged = [s for kind in KINDS for s in samples[kind]]
        return {
            **percentiles(merged),
            "by_kind": {kind: percentiles(samples[kind]) for kind in KINDS},
        }

    return {
        "entries": size,
        "lookups_checked": lookups,
        "mismatches": mismatches,
        "probe_build_ms": round((probe_built - started) * 1000.0, 3),
        "postings_build_ms": round((postings_built - probe_built) * 1000.0, 3),
        "index_mb": round(index_bytes(pool) / 1e6, 3),
        "indexed": summary(indexed),
        "brute_force": summary(brute),
    }


def run_benchmark(smoke: bool, seed: int) -> dict:
    profile = "smoke" if smoke else "full"
    sizes = {
        str(size): measure_size(size, NEEDLES[profile][size], seed)
        for size in SIZES
    }
    small = sizes[str(SIZES[0])]["indexed"]["p95_ms"]
    large = sizes[str(SIZES[-1])]["indexed"]["p95_ms"]
    gated = sizes[str(GATED_SIZE)]
    return {
        "benchmark": "linker",
        "profile": profile,
        "seed": seed,
        "threshold": THRESHOLD,
        "repeats": REPEATS,
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "sizes": sizes,
        "mismatches": sum(len(s["mismatches"]) for s in sizes.values()),
        # ROADMAP's scaling goal: p95 within 2x from 500 to 50,000.
        "indexed_p95_growth_500_to_50k": round(large / small, 2),
        "gated_speedup": round(
            gated["brute_force"]["p50_ms"] / gated["indexed"]["p95_ms"], 1
        ),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="fewer needles per pool (CI-sized)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--output", default="BENCH_linker.json",
                        metavar="PATH", help="where to write the JSON record")
    parser.add_argument(
        "--require-speedup", type=float, default=None, metavar="X",
        help=f"fail unless the indexed p95 at {GATED_SIZE} entries is at "
        "least X times below the brute-force p50",
    )
    args = parser.parse_args(argv)

    results = run_benchmark(smoke=args.smoke, seed=args.seed)
    print(f"linker benchmark ({results['profile']}, threshold "
          f"{THRESHOLD}, cpu_count {results['cpu_count']}):")
    for size, row in results["sizes"].items():
        print(
            f"  {int(size):>6} entries  indexed p50 "
            f"{row['indexed']['p50_ms']:8.3f} p95 "
            f"{row['indexed']['p95_ms']:8.3f} ms   brute force p50 "
            f"{row['brute_force']['p50_ms']:10.1f} p95 "
            f"{row['brute_force']['p95_ms']:10.1f} ms   build "
            f"{row['probe_build_ms'] + row['postings_build_ms']:7.1f} ms "
            f"  {row['index_mb']:6.2f} MB   "
            f"{row['lookups_checked']} checked"
        )
    print(f"  indexed p95 growth 500 -> 50k: "
          f"{results['indexed_p95_growth_500_to_50k']}x;  "
          f"speedup at {GATED_SIZE}: {results['gated_speedup']}x")
    with open(args.output, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")

    failed = False
    if results["mismatches"]:
        print(f"FAIL: {results['mismatches']} lookups differ from the "
              "brute-force reference", file=sys.stderr)
        failed = True
    if (args.require_speedup is not None
            and results["gated_speedup"] < args.require_speedup):
        print(f"FAIL: speedup at {GATED_SIZE} entries is "
              f"{results['gated_speedup']}x, below the required "
              f"{args.require_speedup}x", file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
