"""Aggregate benchmark: engine aggregation vs materialise-then-reduce.

Replays representative aggregate workloads (grouped SUM/COUNT/AVG,
multi-aggregate grouping, whole-table MIN/MAX and COUNT DISTINCT,
filtered grouping) against the cinema database, comparing an aggregate
statement executed by the engine (HashAggregate or the bucket-walking
IndexGroupedAggScan) with the baseline
defined here, :func:`materialise_then_reduce`, which fetches every
qualifying row and reduces in Python.

Before timing anything the two paths are differential-checked on a
randomised workload (>= 1000 statements over random predicates,
group-bys and aggregate sets) — the speedups are for identical output.

A second section replays a repeated-turn serving workload (the same
pooled prepared statements with fresh named-parameter values every
turn, as the cinema procedures run them) and reports how often an
execution reused its statement's plan template, plus the per-plan cost
of a kept template vs a cold planning pass for a statement with only
literal constants, whose template is static.

Run standalone (CI runs the smoke profile and archives the JSON):

    PYTHONPATH=src python benchmarks/bench_aggregates.py --smoke \
        --output BENCH_aggregates.json
"""

from __future__ import annotations

import argparse
import datetime as dt
import json
import random
import statistics as stats
import sys
import time

from repro.datasets import MovieConfig, build_movie_database
from repro.db import Param, Query, and_, api, eq, ge, in_, le, select
from repro.db.aggregation import (
    avg,
    count,
    count_distinct,
    max_,
    min_,
    sum_,
)
from repro.errors import QueryError

# Workloads whose speedup the CI gate applies to: whole-table grouped
# aggregates, the engine's bucket-walking and hash-grouping paths.  No
# turn runs a grouped aggregate: a turn issues a filtered global SUM per
# booking attempt (the booked-seats check), and the entity linker reads
# its value pools straight from the columns.
GATED_WORKLOADS = ("grouped_sum", "grouped_count")


# ---------------------------------------------------------------------------
# Baseline: materialise then reduce
# ---------------------------------------------------------------------------

_REDUCERS = {
    "count": len,
    "sum": lambda vs: sum(vs) if vs else 0,
    "avg": lambda vs: sum(vs) / len(vs) if vs else None,
    "min": lambda vs: min(vs) if vs else None,
    "max": lambda vs: max(vs) if vs else None,
    "count_distinct": lambda vs: len(set(vs)),
}


def materialise_then_reduce(database, query, aggregates, group_by=None):
    """Fetch ``query``'s rows, then group and reduce them in Python.

    Groups come out in first-appearance order; NULL values never reach
    a column reduction and COUNT(*) counts every row — the contract the
    engine's aggregates keep.
    """
    rows = database.default_connection.execute(query).all()
    keys = group_by or []
    groups: dict[tuple, list] = {}
    for row in rows:
        try:
            key = tuple(row[k] for k in keys)
        except KeyError as exc:
            raise QueryError(
                f"unknown group-by column {exc.args[0]!r}"
            ) from None
        groups.setdefault(key, []).append(row)
    if not keys and not rows:
        groups[()] = []
    result = []
    for key, members in groups.items():
        out = dict(zip(keys, key))
        for name, agg in aggregates.items():
            values = members if agg.column is None else [
                row[agg.column] for row in members
                if row.get(agg.column) is not None
            ]
            out[name] = _REDUCERS[agg.name](values)
        result.append(out)
    return result


def engine_aggregate(database, query, aggregates, group_by=None):
    """The same aggregate as one statement executed by the engine."""
    statement = api.aggregate(query.table, aggregates)
    statement.where(query.compile().predicate)
    if group_by:
        statement.group_by(*group_by)
    return database.default_connection.execute(statement).all()


# ---------------------------------------------------------------------------
# Differential check
# ---------------------------------------------------------------------------

def _random_query(rng: random.Random, config: MovieConfig):
    """A random aggregate query over the cinema schema."""
    table = rng.choice(("screening", "reservation", "movie"))
    query = Query(table)
    group_by: list[str] = []
    numeric = {
        "screening": ["price", "capacity", "movie_id"],
        "reservation": ["no_tickets", "screening_id", "customer_id"],
        "movie": ["year", "duration_minutes"],
    }[table]
    categorical = {
        "screening": ["room", "movie_id"],
        "reservation": ["screening_id", "customer_id"],
        "movie": ["genre", "year"],
    }[table]

    # Optional predicate: none / equality / range / IN-list.
    shape = rng.randrange(4)
    if table == "screening":
        day = config.start_date + dt.timedelta(days=rng.randrange(config.n_days))
        if shape == 1:
            query.where(eq("room", f"room {chr(ord('A') + rng.randrange(5))}"))
        elif shape == 2:
            query.where(and_(ge("date", day),
                             le("date", day + dt.timedelta(days=2))))
        elif shape == 3:
            ids = tuple(rng.randrange(1, config.n_movies + 1)
                        for __ in range(rng.randrange(1, 6)))
            query.where(in_("movie_id", ids))
    elif table == "reservation":
        if shape == 1:
            query.where(eq("screening_id",
                           rng.randrange(1, config.n_screenings + 1)))
        elif shape == 2:
            query.where(ge("no_tickets", rng.randrange(1, 6)))
        elif shape == 3:
            ids = tuple(rng.randrange(1, config.n_screenings + 1)
                        for __ in range(rng.randrange(1, 8)))
            query.where(in_("screening_id", ids))
    else:  # movie
        if shape == 1:
            query.where(ge("year", rng.randrange(1960, 2022)))
        elif shape == 2:
            query.where(le("duration_minutes", rng.randrange(90, 180)))
        elif shape == 3:
            query.where(in_("genre", ("drama", "comedy", "action")))

    if rng.random() < 0.6:
        group_by = rng.sample(categorical, rng.randrange(1, 3))

    aggregates = {"n": count()}
    for i in range(rng.randrange(0, 3)):
        column = rng.choice(numeric)
        kind = rng.choice((sum_, avg, min_, max_, count_distinct))
        aggregates[f"a{i}"] = kind(column)
    if rng.random() < 0.1:
        del aggregates["n"]
        if not aggregates:
            aggregates = {"m": max_(rng.choice(numeric))}
    return query, aggregates, (group_by or None)


def run_differential(database, config: MovieConfig, n_queries: int, seed: int = 23) -> int:
    """Engine vs baseline on ``n_queries`` random aggregates; returns the
    number checked (raises on the first mismatch)."""
    rng = random.Random(seed)
    for i in range(n_queries):
        query, aggregates, group_by = _random_query(rng, config)
        try:
            expected = materialise_then_reduce(
                database, query, aggregates, group_by
            )
        except QueryError:
            try:
                engine_aggregate(database, query, aggregates, group_by)
            except QueryError:
                continue
            raise AssertionError(
                f"differential query {i}: baseline raised, engine did not"
            )
        actual = engine_aggregate(database, query, aggregates, group_by)
        if actual != expected:
            raise AssertionError(
                f"differential query {i}: engine result differs "
                f"(query={query.table}, group_by={group_by}, "
                f"aggregates={list(aggregates)})"
            )
    return n_queries


# ---------------------------------------------------------------------------
# Timed workloads
# ---------------------------------------------------------------------------

def make_workloads(config: MovieConfig):
    day = config.start_date + dt.timedelta(days=config.n_days // 2)

    return {
        "grouped_sum": (
            Query("reservation"),
            {"booked": sum_("no_tickets")},
            ["screening_id"],
        ),
        "grouped_count": (
            Query("screening"),
            {"n": count()},
            ["movie_id"],
        ),
        "grouped_avg": (
            Query("screening"),
            {"mean_price": avg("price")},
            ["room"],
        ),
        "grouped_multi": (
            Query("screening"),
            {"n": count(), "lo": min_("price"), "hi": max_("price")},
            ["room"],
        ),
        "min_max": (
            Query("screening"),
            {"lo": min_("price"), "hi": max_("price")},
            None,
        ),
        "count_distinct": (
            Query("screening"),
            {"movies": count_distinct("movie_id")},
            None,
        ),
        "filtered_grouped": (
            Query("screening").where(
                and_(ge("date", day), le("date", day + dt.timedelta(days=3)))
            ),
            {"n": count(), "lo": min_("start_time")},
            ["movie_id"],
        ),
    }


def _time(fn, min_seconds: float, max_iterations: int) -> float:
    """Median wall-clock seconds per call."""
    fn()  # warm up (a prepared statement plans on its first call)
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
# Repeated-turn plan-template benchmark
# ---------------------------------------------------------------------------

def run_plan_cache_benchmark(database, config: MovieConfig, turns: int) -> dict:
    """Replay the serving runtime's statements with fresh constants.

    Every simulated turn issues a statement mix — a screening select by
    movie, a count check and the booked-seats aggregate — through
    pooled ``prepare_cached`` statements, as the cinema procedures do,
    with turn-specific parameter values.  Each statement plans once;
    every later turn binds its values into the statement's kept
    template.  The
    hit and miss counts are the connection's.
    """
    conn = database.connect()
    statements = {
        "refine": lambda: select("screening").where(
            eq("movie_id", Param("movie"))),
        "count": lambda: api.aggregate("screening", n=count()).where(
            eq("movie_id", Param("movie"))),
        "booked": lambda: api.aggregate(
            "reservation", booked=sum_("no_tickets")
        ).where(eq("screening_id", Param("screening"))),
    }

    def one_turn(turn: int) -> None:
        movie_id = 1 + turn % config.n_movies
        screening_id = 1 + turn % config.n_screenings
        conn.prepare_cached("refine", statements["refine"]).execute(
            movie=movie_id).all()
        conn.prepare_cached("count", statements["count"]).execute(
            movie=movie_id).scalar()
        conn.prepare_cached("booked", statements["booked"]).execute(
            screening=screening_id).scalar()

    started = time.perf_counter()
    for turn in range(turns):
        one_turn(turn)
    elapsed = time.perf_counter() - started

    counts = conn.stats()
    hits, misses = counts.plan_cache_hits, counts.plan_cache_misses
    lookups = hits + misses

    # Plan-acquisition cost: a prepared statement binding into its kept
    # template vs a cold planning pass.
    from repro.db.engine import plan_query

    query = Query("screening").where(eq("movie_id", 1))
    prepared = conn.prepare(query)
    spec = query.compile()
    cached_s = _time(prepared.plan, 0.05, 2000)
    direct_s = _time(lambda: plan_query(database, spec), 0.05, 2000)

    return {
        "turns": turns,
        "queries": turns * 3,
        "lookups": lookups,
        "hits": hits,
        "misses": misses,
        "hit_rate": round(hits / lookups, 4) if lookups else None,
        "turn_us": round(elapsed / turns * 1e6, 2),
        "cached_plan_us": round(cached_s * 1e6, 2),
        "direct_plan_us": round(direct_s * 1e6, 2),
    }


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
        database, config, n_queries=1000 if smoke else 1500
    )

    results: dict = {
        "benchmark": "aggregates",
        "profile": "smoke" if smoke else "full",
        "config": {
            "n_screenings": config.n_screenings,
            "n_movies": config.n_movies,
            "n_reservations": config.n_reservations,
        },
        "differential_queries": checked,
        "workloads": {},
    }
    for name, (query, aggregates, group_by) in make_workloads(config).items():
        baseline_result = materialise_then_reduce(
            database, query, aggregates, group_by
        )
        engine_result = engine_aggregate(database, query, aggregates, group_by)
        if baseline_result != engine_result:
            raise AssertionError(
                f"workload {name!r}: engine result differs from baseline"
            )
        baseline_s = _time(
            lambda: materialise_then_reduce(
                database, query, aggregates, group_by
            ),
            min_seconds, max_iterations,
        )
        engine_s = _time(
            lambda: engine_aggregate(database, query, aggregates, group_by),
            min_seconds, max_iterations,
        )
        results["workloads"][name] = {
            "baseline_ms": round(baseline_s * 1000, 4),
            "engine_ms": round(engine_s * 1000, 4),
            "speedup": round(baseline_s / engine_s, 2) if engine_s > 0 else None,
            "groups": len(baseline_result),
            "gated": name in GATED_WORKLOADS,
        }

    results["plan_cache"] = run_plan_cache_benchmark(
        database, config, turns=300 if smoke else 1000
    )
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small, CI-sized database and time budget")
    parser.add_argument("--output", default="BENCH_aggregates.json",
                        metavar="PATH", help="where to write the JSON record")
    parser.add_argument(
        "--require-speedup", type=float, default=None, metavar="X",
        help="fail unless every gated workload (grouped aggregates) beats "
        "the materialise-then-reduce baseline by at least this factor",
    )
    parser.add_argument(
        "--require-hit-rate", type=float, default=None, metavar="R",
        help="fail unless the repeated-turn statements reuse their plan "
        "templates on at least this share of executions",
    )
    args = parser.parse_args(argv)

    results = run_benchmark(smoke=args.smoke)
    width = max(len(n) for n in results["workloads"])
    print(f"aggregate benchmark ({results['profile']}, "
          f"{results['differential_queries']} differential queries ok):")
    for name, row in results["workloads"].items():
        gate = "*" if row["gated"] else " "
        print(
            f" {gate} {name:<{width}}  baseline {row['baseline_ms']:9.3f} ms   "
            f"engine {row['engine_ms']:9.3f} ms   {row['speedup']:8.1f}x"
        )
    pc = results["plan_cache"]
    print(
        f"  plan templates: {pc['hits']}/{pc['lookups']} executions "
        f"reused one ({pc['hit_rate']:.1%}) over {pc['turns']} turns; "
        f"bound plan {pc['cached_plan_us']:.1f}us vs "
        f"cold plan {pc['direct_plan_us']:.1f}us"
    )
    with open(args.output, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")

    status = 0
    if args.require_speedup is not None:
        failing = [
            name
            for name in GATED_WORKLOADS
            if results["workloads"][name]["speedup"] < args.require_speedup
        ]
        if failing:
            print(
                f"FAIL: {failing} below required {args.require_speedup}x",
                file=sys.stderr,
            )
            status = 1
    if args.require_hit_rate is not None:
        if pc["hit_rate"] is None or pc["hit_rate"] < args.require_hit_rate:
            print(
                f"FAIL: plan-template hit rate {pc['hit_rate']} below "
                f"required {args.require_hit_rate}",
                file=sys.stderr,
            )
            status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
