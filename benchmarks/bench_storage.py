"""Sealed-segment storage benchmark: analytic caches surviving writes.

Each table splits into an immutable *sealed segment* plus a small
mutable *delta* once compacted (``database.compact()``): writes land in
the delta only, so the expensive batch surfaces — grouped-aggregate
layouts, join bucket builds, per-column tallies — are memoised against
the sealed prefix and survive every commit, with only the delta merged
per query.  A flat (never-compacted) database drops those memos on each
write and rebuilds them from scratch on the next analytic query.

Before timing anything the two storage arms are differential-checked on
a randomised workload (>= 500 queries reusing the columnar bench's
generators — filters, ORs, IN-lists, joins, orderings, limits, grouped
aggregates, HAVING) with writer commits interleaved: every query must
produce byte-identical results on the sealed and the flat arm.

The timed section replays write-then-query *turns* (one committed
writer mutation, then one analytic query — the conversational-agent
shape this storage design exists for) against both arms; gated
workloads carry per-workload speedup floors and ``--require-speedup X``
raises every floor to at least ``X``.  A final restart section times
``load_incremental`` (sealed base image + delta-log replay) against a
full dataset synthesis and a format-v3 JSON load.

Run standalone (CI runs the smoke profile and archives the JSON):

    PYTHONPATH=src python benchmarks/bench_storage.py --smoke \
        --output BENCH_storage.json
"""

from __future__ import annotations

import argparse
import datetime as dt
import json
import os
import random
import statistics as stats
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from bench_columnar import _random_aggregate, _random_query  # noqa: E402

from repro.datasets import MovieConfig, build_movie_database  # noqa: E402
from repro.db import (  # noqa: E402
    Query,
    and_,
    dump_database,
    dump_incremental,
    ge,
    le,
    load_database,
    load_incremental,
)
from repro.db.aggregation import aggregate_query, count, sum_  # noqa: E402
from repro.errors import DatabaseError  # noqa: E402

# Write-then-query turn workloads the CI gate applies to.  The win is
# cache *retention*: the flat arm re-groups / re-buckets the whole
# reservation table after every commit, the sealed arm merges a
# bounded delta into memos keyed to the sealed epoch.  Shapes whose
# per-query cost is dominated by shared output materialisation (a
# group per screening) are reported but ungated.  join_turns gates at
# 1.5x, not 3x: per-column statistics caching sped up its flat arm far
# more than its sealed arm, so the smoke now measures 2.1-2.4x on a
# shared 2-core VM.  1.5x clears that with margin and still fails a
# fall back to rebuild-per-write (1x).
GATED_WORKLOADS = {
    "grouped_sum_turns": 3.0,
    "grouped_count_turns": 3.0,
    "join_turns": 1.5,
}

# Delta rows on the hot table before the sealed arm re-compacts mid-
# run — the same fold the serving tier's idle hook applies.
_RESEAL_THRESHOLD = 256


# ---------------------------------------------------------------------------
# Interleaved writer: identical committed mutations on every arm
# ---------------------------------------------------------------------------

class InterleavedWriter:
    """Deterministic FK-valid reservation mutations, applied to each
    arm in lockstep so their visible states never diverge."""

    def __init__(self, config: MovieConfig, seed: int = 97) -> None:
        self._rng = random.Random(seed)
        self._config = config
        self._next_id = config.n_reservations + 1
        self._live = set(range(1, config.n_reservations + 1))

    def _pick_live(self) -> int | None:
        rng = self._rng
        for __ in range(6):
            candidate = rng.randrange(1, self._next_id)
            if candidate in self._live:
                return candidate
        return None

    def apply(self, databases) -> str:
        """One committed mutation on every database; returns its kind."""
        rng = self._rng
        roll = rng.random()
        if roll < 0.6:
            reservation_id = self._next_id
            self._next_id += 1
            values = {
                "reservation_id": reservation_id,
                "customer_id": rng.randint(1, self._config.n_customers),
                "screening_id": rng.randint(1, self._config.n_screenings),
                "no_tickets": rng.randint(1, 6),
            }
            for database in databases:
                database.insert("reservation", dict(values))
            self._live.add(reservation_id)
            return "insert"
        target = self._pick_live()
        if target is None:
            return "noop"
        if roll < 0.85:
            tickets = rng.randint(1, 6)
            for database in databases:
                row_id = database.table("reservation").lookup(
                    "reservation_id", target
                )[0]
                database.update(
                    "reservation", row_id, {"no_tickets": tickets}
                )
            return "update"
        for database in databases:
            row_id = database.table("reservation").lookup(
                "reservation_id", target
            )[0]
            database.delete("reservation", row_id)
        self._live.discard(target)
        return "delete"


# ---------------------------------------------------------------------------
# Differential check: sealed arm vs flat arm, byte-identical
# ---------------------------------------------------------------------------

def _canonical(value) -> str:
    return json.dumps(value, default=str, sort_keys=True)


def run_differential(sealed_db, flat_db, config: MovieConfig,
                     n_queries: int, seed: int = 83) -> int:
    """Sealed vs flat storage on ``n_queries`` random queries with
    writer commits interleaved; returns the number checked (raises on
    the first mismatch)."""
    rng = random.Random(seed)
    writer = InterleavedWriter(config, seed=seed + 1)
    for i in range(n_queries):
        if rng.random() < 0.4:
            writer.apply((sealed_db, flat_db))
        if rng.random() < 0.05:
            sealed_db.compact()
        if rng.random() < 0.25:
            query, aggregates, group_by, having = _random_aggregate(
                rng, config
            )
            run = lambda database: aggregate_query(  # noqa: E731
                database, query, aggregates, group_by, having
            )
        else:
            query, kind = _random_query(rng, config)
            if kind == "count":
                run = lambda database: query.count(database)  # noqa: E731
            else:
                run = lambda database: query.run(database)  # noqa: E731
        results = []
        for database in (sealed_db, flat_db):
            try:
                results.append(run(database))
            except DatabaseError as exc:
                results.append(("error", type(exc).__name__, str(exc)))
        if (results[0] != results[1]
                or _canonical(results[0]) != _canonical(results[1])):
            raise AssertionError(
                f"differential query {i}: sealed result differs from "
                f"flat result (table={query.table})"
            )
    return n_queries


# ---------------------------------------------------------------------------
# Timed write-then-query turns
# ---------------------------------------------------------------------------

def make_workloads(config: MovieConfig):
    """``name -> turn callable``; one committed write + one query."""
    day = config.start_date + dt.timedelta(days=config.n_days // 2)
    week_end = day + dt.timedelta(days=6)

    def grouped_sum_turns(database, writer):
        # Low-cardinality grouping: the flat arm re-groups every
        # reservation per turn, both arms share only the small output.
        writer.apply((database,))
        return aggregate_query(
            database,
            Query("reservation"),
            {"booked": sum_("no_tickets")},
            ["customer_id"],
        )

    def grouped_count_turns(database, writer):
        writer.apply((database,))
        return aggregate_query(
            database, Query("reservation"), {"n": count()}, ["customer_id"]
        )

    def grouped_wide_turns(database, writer):
        # One group per screening: output materialisation (shared by
        # both arms) bounds the win — reported, not gated.
        writer.apply((database,))
        return aggregate_query(
            database,
            Query("reservation"),
            {"booked": sum_("no_tickets")},
            ["screening_id"],
        )

    def join_turns(database, writer):
        # A narrow screening window probing INTO the written-to
        # reservation table: the flat arm rebuilds the full bucket
        # index of reservation.screening_id each turn.
        writer.apply((database,))
        return (
            Query("screening")
            .where(and_(ge("date", day), le("date", week_end)))
            .join("screening_id", "reservation", "screening_id")
            .run(database)
        )

    return {
        "grouped_sum_turns": grouped_sum_turns,
        "grouped_count_turns": grouped_count_turns,
        "grouped_wide_turns": grouped_wide_turns,
        "join_turns": join_turns,
    }


def _quantiles(samples: list[float]) -> tuple[float, float]:
    ordered = sorted(samples)
    p50 = stats.median(ordered)
    p95 = ordered[min(len(ordered) - 1, int(round(0.95 * len(ordered))))]
    return p50, p95


def _time_turns(fn, database, writer, min_seconds: float,
                max_iterations: int) -> list[float]:
    """Per-turn wall-clock samples; reseals the sealed arm the way the
    serving tier's idle hook would once the delta grows."""
    fn(database, writer)  # warm caches (statistics, plan cache, memos)
    reservation = database.table("reservation")
    samples: list[float] = []
    budget_start = time.perf_counter()
    while (
        len(samples) < 9
        or (
            time.perf_counter() - budget_start < min_seconds
            and len(samples) < max_iterations
        )
    ):
        if (reservation.is_sealed
                and reservation.delta_rows >= _RESEAL_THRESHOLD):
            database.compact()
        start = time.perf_counter()
        fn(database, writer)
        samples.append(time.perf_counter() - start)
    return samples


# ---------------------------------------------------------------------------
# Restart latency: incremental restore vs synthesize vs v3 load
# ---------------------------------------------------------------------------

def measure_restart(config: MovieConfig, smoke: bool) -> dict:
    synth_start = time.perf_counter()
    database, __ = build_movie_database(config)
    synthesize_s = time.perf_counter() - synth_start
    database.compact()

    writer = InterleavedWriter(config, seed=211)
    with tempfile.TemporaryDirectory(prefix="repro-bench-storage-") as tmp:
        directory = os.path.join(tmp, "snapshot")
        dump_incremental(database, directory)
        delta_ops = 120 if smoke else 400
        for __ in range(delta_ops):
            writer.apply((database,))
        v3_path = os.path.join(tmp, "snapshot.json")
        dump_database(database, v3_path)

        iterations = 3 if smoke else 5
        incremental_samples = []
        for __ in range(iterations):
            start = time.perf_counter()
            restored = load_incremental(directory)
            incremental_samples.append(time.perf_counter() - start)
        v3_samples = []
        for __ in range(iterations):
            start = time.perf_counter()
            load_database(v3_path)
            v3_samples.append(time.perf_counter() - start)

    expected = len(database.table("reservation").row_ids())
    actual = len(restored.table("reservation").row_ids())
    if actual != expected:
        raise AssertionError(
            f"incremental restore lost rows: {actual} != {expected}"
        )
    incremental_s = stats.median(incremental_samples)
    v3_s = stats.median(v3_samples)
    return {
        "synthesize_ms": round(synthesize_s * 1000, 2),
        "load_incremental_ms": round(incremental_s * 1000, 2),
        "load_v3_ms": round(v3_s * 1000, 2),
        "delta_ops_replayed": delta_ops,
        "speedup_vs_synthesize": round(synthesize_s / incremental_s, 2),
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _make_config(smoke: bool) -> MovieConfig:
    # Few customers relative to reservations: grouped turns rebuild a
    # large table into a small output, isolating the retention cost.
    return MovieConfig(
        n_screenings=1500 if smoke else 6000,
        n_movies=150 if smoke else 400,
        n_customers=250 if smoke else 600,
        n_reservations=6000 if smoke else 24000,
        n_actors=80,
        n_days=30 if smoke else 60,
    )


def run_benchmark(smoke: bool) -> dict:
    config = _make_config(smoke)

    sealed_db, __ = build_movie_database(config)
    sealed_db.compact()
    flat_db, __ = build_movie_database(config)
    checked = run_differential(
        sealed_db, flat_db, config, n_queries=500 if smoke else 1000
    )

    min_seconds = 0.1 if smoke else 0.4
    max_iterations = 60 if smoke else 240
    results: dict = {
        "benchmark": "storage",
        "profile": "smoke" if smoke else "full",
        "config": {
            "n_screenings": config.n_screenings,
            "n_customers": config.n_customers,
            "n_reservations": config.n_reservations,
        },
        "differential_queries": checked,
        "workloads": {},
    }
    for name, fn in make_workloads(config).items():
        # Fresh arms per workload: each measures retention from the
        # same initial state, writer streams kept independent.
        sealed_db, __ = build_movie_database(config)
        sealed_db.compact()
        flat_db, __ = build_movie_database(config)
        sealed_samples = _time_turns(
            fn, sealed_db, InterleavedWriter(config, seed=7),
            min_seconds, max_iterations,
        )
        flat_samples = _time_turns(
            fn, flat_db, InterleavedWriter(config, seed=7),
            min_seconds, max_iterations,
        )
        sealed_p50, sealed_p95 = _quantiles(sealed_samples)
        flat_p50, flat_p95 = _quantiles(flat_samples)
        results["workloads"][name] = {
            "flat_p50_ms": round(flat_p50 * 1000, 4),
            "flat_p95_ms": round(flat_p95 * 1000, 4),
            "sealed_p50_ms": round(sealed_p50 * 1000, 4),
            "sealed_p95_ms": round(sealed_p95 * 1000, 4),
            "speedup": (
                round(flat_p50 / sealed_p50, 2) if sealed_p50 > 0 else None
            ),
            "turns": len(sealed_samples),
            "gated": name in GATED_WORKLOADS,
            "floor": GATED_WORKLOADS.get(name),
        }

    results["restart"] = measure_restart(config, smoke)
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small, CI-sized database and time budget")
    parser.add_argument("--output", default="BENCH_storage.json",
                        metavar="PATH", help="where to write the JSON record")
    parser.add_argument(
        "--require-speedup", type=float, nargs="?", const=3.0, default=None,
        metavar="X",
        help="fail unless every gated write-then-query workload beats "
        "the flat arm by its per-workload floor, raised to at least "
        "this factor (default 3)",
    )
    args = parser.parse_args(argv)

    results = run_benchmark(smoke=args.smoke)
    width = max(len(n) for n in results["workloads"])
    print(f"sealed-segment storage benchmark ({results['profile']}, "
          f"{results['differential_queries']} differential queries ok):")
    for name, row in results["workloads"].items():
        gate = "*" if row["gated"] else " "
        print(
            f" {gate} {name:<{width}}  "
            f"flat {row['flat_p50_ms']:9.3f} ms   "
            f"sealed {row['sealed_p50_ms']:9.3f} ms   "
            f"{row['speedup']:8.1f}x   "
            f"(p95 {row['flat_p95_ms']:.3f} / {row['sealed_p95_ms']:.3f} ms)"
        )
    restart = results["restart"]
    print(
        f"   restart: load_incremental {restart['load_incremental_ms']:.1f} ms"
        f"   v3 load {restart['load_v3_ms']:.1f} ms"
        f"   synthesize {restart['synthesize_ms']:.1f} ms"
        f"   ({restart['speedup_vs_synthesize']:.1f}x vs synthesize, "
        f"{restart['delta_ops_replayed']} delta ops replayed)"
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
