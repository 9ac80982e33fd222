"""Columnar execution benchmark: the engine vs the row-at-a-time oracle.

The engine executes every plan columnwise: predicates narrow slot lists
over the table's column banks, aggregates reduce column lists per
group, and only surviving rows are materialised.  The baseline is the
row-at-a-time reference executor the differential tests hold the
engine to (``tests/db/reference_executor.py``): it streams one row view
at a time through the same plan and aggregates over that stream, with
one-pass accumulator folds for a grouped single aggregate.

Before timing anything the two are differential-checked on a randomised
workload (>= 500 statements over random predicates — including ORs,
IN-lists, negations, substring matches and mixed-type comparisons —
and grouped or global aggregates): every statement must produce
byte-identical results in both.

The timed section replays scan-heavy filter and grouped-aggregate
workloads in both; each gated workload carries a per-workload speedup
floor (``GATED_WORKLOADS``), and ``--require-speedup X`` raises every
floor to at least ``X``.

Run from the repository root (CI runs the smoke profile and archives the
JSON; the script puts the repository root on ``sys.path`` itself, for
the ``tests.`` import):

    PYTHONPATH=src python benchmarks/bench_columnar.py --smoke \
        --output BENCH_columnar.json
"""

from __future__ import annotations

import argparse
import datetime as dt
import json
import os
import random
import statistics as stats
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from repro.datasets import MovieConfig, build_movie_database  # noqa: E402
from repro.db import (  # noqa: E402
    Query,
    and_,
    api,
    contains,
    eq,
    ge,
    in_,
    le,
    ne,
    not_,
    or_,
)
from repro.db.aggregation import (  # noqa: E402
    avg,
    count,
    count_distinct,
    max_,
    min_,
    sum_,
)
from repro.errors import DatabaseError  # noqa: E402
from tests.db import reference_executor as reference  # noqa: E402

# Workloads the CI gate applies to, with per-workload speedup floors:
# scan-heavy selective filters and grouped aggregates — the shapes
# columnar execution accelerates.  ``grouped_sum`` carries a higher
# floor because the memoised grouped layout answers it with segment
# arithmetic rather than a per-row accumulator pass.
# Materialisation-bound shapes (a wide filter that keeps most rows) are
# reported but ungated — their columnar win is real yet bounded by the
# per-output-row dict construction both executors share.
GATED_WORKLOADS = {
    "scan_filter_narrow": 3.0,
    "count_filter": 3.0,
    "grouped_sum": 4.0,
    "grouped_count": 3.0,
    "grouped_multi": 3.0,
}


# ---------------------------------------------------------------------------
# Differential check: engine vs reference, byte-identical
# ---------------------------------------------------------------------------

_ROOMS = tuple(f"room {chr(ord('A') + i)}" for i in range(5))


def _random_predicate(rng: random.Random, config: MovieConfig, table: str):
    """One random predicate part over ``table``'s columns."""
    day = config.start_date + dt.timedelta(days=rng.randrange(config.n_days))
    choices = {
        "screening": [
            lambda: eq("room", rng.choice(_ROOMS)),
            lambda: ne("room", rng.choice(_ROOMS)),
            lambda: ge("capacity", rng.choice((40, 60, 80, 120))),
            lambda: and_(ge("date", day),
                         le("date", day + dt.timedelta(days=2))),
            lambda: in_("movie_id", tuple(
                rng.randrange(1, config.n_movies + 1)
                for __ in range(rng.randrange(1, 5))
            )),
            lambda: or_(eq("room", rng.choice(_ROOMS)),
                        eq("movie_id", rng.randrange(1, config.n_movies + 1))),
            lambda: not_(eq("room", rng.choice(_ROOMS))),
            lambda: le("price", 8.0 + rng.randrange(0, 5)),
        ],
        "reservation": [
            lambda: eq("screening_id",
                       rng.randrange(1, config.n_screenings + 1)),
            lambda: ge("no_tickets", rng.randrange(1, 6)),
            lambda: or_(
                eq("screening_id",
                   rng.randrange(1, config.n_screenings + 1)),
                eq("customer_id", rng.randrange(1, config.n_customers + 1)),
            ),
        ],
        "movie": [
            lambda: ge("year", rng.randrange(1960, 2022)),
            lambda: contains("title", rng.choice(
                ("the", "of", "on", "a", "er")
            )),
            lambda: in_("genre", ("drama", "comedy", "action")),
            lambda: ne("genre", "drama"),
            # Mixed-type comparison: exercises the TypeError-means-False
            # fallback in the columnwise evaluator.
            lambda: ge("year", "not-a-year"),
        ],
    }
    return rng.choice(choices[table])()


def _random_statement(rng: random.Random, config: MovieConfig):
    """A random row or aggregate statement over one movie table."""
    table = rng.choice(("screening", "reservation", "movie"))
    predicates = [
        _random_predicate(rng, config, table)
        for __ in range(rng.randrange(0, 3))
    ]
    if table == "movie" or rng.random() < 0.6:
        return Query(table).where(and_(*predicates))
    numeric = {
        "screening": ("price", "capacity"),
        "reservation": ("no_tickets",),
    }[table]
    categorical = {
        "screening": ["room", "movie_id"],
        "reservation": ["screening_id", "customer_id"],
    }[table]
    aggregates = {"n": count()}
    for i in range(rng.randrange(0, 3)):
        kind = rng.choice((sum_, avg, min_, max_, count_distinct))
        aggregates[f"a{i}"] = kind(rng.choice(numeric))
    statement = api.aggregate(table, aggregates).where(and_(*predicates))
    if rng.random() < 0.8:
        statement.group_by(*rng.sample(categorical, rng.randrange(1, 3)))
    return statement


def _outcome(fn):
    try:
        return fn()
    except DatabaseError as exc:
        return ("error", type(exc).__name__, str(exc))


def run_differential(database, config: MovieConfig, n_queries: int,
                     seed: int = 61) -> int:
    """Engine vs reference on ``n_queries`` random statements; returns
    the number checked (raises on the first mismatch)."""
    rng = random.Random(seed)
    conn = database.connect()
    for i in range(n_queries):
        statement = _random_statement(rng, config)
        result = conn.execute(statement)
        expected = _outcome(
            lambda: reference.execute_rows(database, result.plan)
        )
        if _outcome(result.all) != expected:
            raise AssertionError(
                f"differential statement {i}: engine result differs from "
                f"the reference (table={statement.table})"
            )
    return n_queries


# ---------------------------------------------------------------------------
# Timed workloads
# ---------------------------------------------------------------------------

def make_workloads():
    """``name -> statement``: one query shape per workload."""
    return {
        # Unindexable inequality: SeqScan + Filter keeping most rows —
        # the materialisation-heavy shape.
        "scan_filter_wide": Query("screening").where(ne("room", "room A")),
        # Conjunctive scan keeping few rows: the filter dominates.  No
        # predicate is index-serviceable (substring + unindexed column),
        # so this stays a full SeqScan.
        "scan_filter_narrow": Query("screening").where(
            and_(contains("room", "b"), ge("capacity", 120))
        ),
        "count_filter": api.aggregate("screening", n=count()).where(
            ne("room", "room A")
        ),
        "grouped_sum": api.aggregate(
            "reservation", booked=sum_("no_tickets")
        ).group_by("screening_id"),
        "grouped_count": api.aggregate(
            "screening", n=count()
        ).group_by("movie_id"),
        "grouped_multi": api.aggregate(
            "screening", n=count(), lo=min_("price"), hi=max_("price")
        ).group_by("room"),
    }


def _time(fn, min_seconds: float, max_iterations: int) -> float:
    """Median wall-clock seconds per call."""
    fn()  # warm the plan cache
    samples: list[float] = []
    budget_start = time.perf_counter()
    while (
        len(samples) < 5
        or (
            time.perf_counter() - budget_start < min_seconds
            and len(samples) < max_iterations
        )
    ):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return stats.median(samples)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def run_benchmark(smoke: bool) -> dict:
    config = MovieConfig(
        n_screenings=3000 if smoke else 12000,
        n_movies=150 if smoke else 400,
        n_customers=400 if smoke else 1000,
        n_reservations=4000 if smoke else 16000,
        n_actors=80,
        n_days=30 if smoke else 60,
    )
    database, __ = build_movie_database(config)
    min_seconds = 0.1 if smoke else 0.4
    max_iterations = 50 if smoke else 200

    checked = run_differential(
        database, config, n_queries=500 if smoke else 1000
    )

    results: dict = {
        "benchmark": "columnar",
        "profile": "smoke" if smoke else "full",
        "config": {
            "n_screenings": config.n_screenings,
            "n_movies": config.n_movies,
            "n_reservations": config.n_reservations,
        },
        "differential_queries": checked,
        "workloads": {},
    }
    conn = database.connect()
    for name, statement in make_workloads().items():
        prepared = conn.prepare(statement)

        def engine(prepared=prepared):
            return prepared.execute().all()

        def row(prepared=prepared):
            return reference.execute_rows(database, prepared.plan())

        engine_result = engine()
        row_result = row()
        if row_result != engine_result:
            raise AssertionError(
                f"workload {name!r}: engine result differs from reference"
            )
        row_s = _time(row, min_seconds, max_iterations)
        batch_s = _time(engine, min_seconds, max_iterations)
        results["workloads"][name] = {
            "row_ms": round(row_s * 1000, 4),
            "batch_ms": round(batch_s * 1000, 4),
            "speedup": round(row_s / batch_s, 2) if batch_s > 0 else None,
            "rows": len(row_result),
            "gated": name in GATED_WORKLOADS,
            "floor": GATED_WORKLOADS.get(name),
        }
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small, CI-sized database and time budget")
    parser.add_argument("--output", default="BENCH_columnar.json",
                        metavar="PATH", help="where to write the JSON record")
    parser.add_argument(
        "--require-speedup", type=float, nargs="?", const=3.0, default=None,
        metavar="X",
        help="fail unless every gated workload (scan filters, grouped "
        "aggregates) beats the row-at-a-time reference by its "
        "per-workload floor, raised to at least this factor (default 3)",
    )
    args = parser.parse_args(argv)

    results = run_benchmark(smoke=args.smoke)
    width = max(len(n) for n in results["workloads"])
    print(f"columnar execution benchmark ({results['profile']}, "
          f"{results['differential_queries']} differential statements ok):")
    for name, row in results["workloads"].items():
        gate = "*" if row["gated"] else " "
        print(
            f" {gate} {name:<{width}}  row {row['row_ms']:9.3f} ms   "
            f"columnar {row['batch_ms']:9.3f} ms   {row['speedup']:8.1f}x"
        )
    with open(args.output, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")

    if args.require_speedup is not None:
        failing = []
        for name, base_floor in GATED_WORKLOADS.items():
            floor = max(base_floor, args.require_speedup)
            speedup = results["workloads"][name]["speedup"]
            if speedup < floor:
                failing.append(f"{name} ({speedup}x < {floor}x)")
        if failing:
            print(f"FAIL: {failing} below floor", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
