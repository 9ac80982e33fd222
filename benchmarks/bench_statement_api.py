"""Statement-API benchmark: prepare/execute vs one-shot execution.

The unified execution API's claim is that ``conn.prepare(...)`` +
``stmt.execute(**binds)`` amortises everything a one-shot
``conn.execute(statement)`` with inlined constants pays per call: the
one-shot path re-builds the statement and plans it on every execution
(a one-shot statement is executed once, so it never reuses its plan
template), while the prepared statement planned once and binds each
call's constants into the template it keeps.  This benchmark replays
repeated-turn serving shapes — point probes, counts, the booked-seats
aggregate, a date-range scan — with fresh constants every turn through
both paths and gates the prepared path's speedup.

Before timing anything the two paths are differential-checked on a
randomised workload (>= 500 statements over random predicates, counts
and grouped aggregates): ``PreparedStatement.execute`` must be
byte-identical to the one-shot execution of the same statement with
its constants inlined.

Run standalone (CI runs the smoke profile and archives the JSON):

    PYTHONPATH=src python benchmarks/bench_statement_api.py --smoke \
        --output BENCH_statement_api.json
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
from repro.db import Param, api, select
from repro.db.aggregation import avg, count, max_, min_, sum_
from repro.db.query import and_, eq, ge, gt, le, lt

# Workloads whose speedup the CI gate applies to: the plan-acquisition-
# bound shapes a serving turn issues (selective probes and aggregates,
# where per-call planning is a visible fraction of the latency).
GATED_WORKLOADS = ("point_unique", "point_count", "booked_sum")


# ---------------------------------------------------------------------------
# Differential check
# ---------------------------------------------------------------------------

def _random_case(rng: random.Random, config: MovieConfig):
    """One random ``(mode, statement_factory, binds)`` triple.

    ``statement_factory(inline)`` builds the statement with
    :class:`Param` placeholders (bound by ``binds``) or, with
    ``inline=True``, with the constants written in — both must produce
    identical rows.
    """
    table = rng.choice(("screening", "reservation", "movie"))
    mode = rng.choice(("rows", "rows", "rows", "count", "aggregate"))
    binds: dict = {}
    aggregate = rng.choice(
        {
            "screening": (sum_("price"), min_("capacity"), avg("price")),
            "reservation": (sum_("no_tickets"), max_("no_tickets")),
            "movie": (min_("year"), avg("duration_minutes")),
        }[table]
    )
    group_key = {
        "screening": "room",
        "reservation": "screening_id",
        "movie": "genre",
    }[table] if mode == "aggregate" and rng.random() < 0.6 else None
    predicates = []

    def bind(name, value):
        binds[name] = value
        return Param(name)

    if table == "screening":
        shape = rng.randrange(4)
        if shape == 0:
            value = rng.randrange(1, config.n_movies + 1)
            predicates.append(("movie_id", "==", value, bind("m", value)))
        elif shape == 1:
            day = config.start_date + dt.timedelta(
                days=rng.randrange(config.n_days)
            )
            hi = day + dt.timedelta(days=rng.randrange(1, 4))
            predicates.append(("date", ">=", day, bind("lo", day)))
            predicates.append(("date", "<=", hi, bind("hi", hi)))
        elif shape == 2:
            room = f"room {chr(ord('A') + rng.randrange(5))}"
            predicates.append(("room", "==", room, bind("room", room)))
    elif table == "reservation":
        if rng.random() < 0.7:
            value = rng.randrange(1, config.n_screenings + 1)
            predicates.append(("screening_id", "==", value, bind("s", value)))
        if rng.random() < 0.3:
            n = rng.randrange(1, 6)
            predicates.append(("no_tickets", ">", n, bind("n", n)))
    else:
        if rng.random() < 0.8:
            year = rng.randrange(1960, 2022)
            predicates.append(("year", ">=", year, bind("y", year)))

    ops = {"==": eq, ">=": ge, "<=": le, ">": gt, "<": lt}

    def statement_factory(inline: bool = False):
        if mode == "count":
            statement = api.aggregate(table, n=count())
        elif mode == "aggregate":
            statement = api.aggregate(table, n=count(), a=aggregate)
            if group_key is not None:
                statement.group_by(group_key)
        else:
            statement = select(table)
        for column, op, value, param in predicates:
            statement.where(ops[op](column, value if inline else param))
        return statement

    return mode, statement_factory, binds


def run_differential(
    database, config: MovieConfig, n_queries: int, seed: int = 71
) -> int:
    """Prepared vs one-shot on ``n_queries`` random statements; returns
    the number checked (raises on the first mismatch)."""
    rng = random.Random(seed)
    connection = database.connect(name="differential")
    for i in range(n_queries):
        mode, statement_factory, binds = _random_case(rng, config)
        prepared = connection.prepare(statement_factory())
        expected = connection.execute(statement_factory(inline=True)).all()
        actual = prepared.execute(**binds).all()
        if actual != expected:
            raise AssertionError(
                f"differential case {i}: prepared result differs "
                f"(mode={mode}, table={prepared.statement.table}, "
                f"binds={binds})"
            )
        # Re-execute the SAME prepared statement: bindings must not
        # leak between executions of one compiled template.
        if prepared.execute(**binds).all() != expected:
            raise AssertionError(
                f"differential case {i}: repeated execute diverged"
            )
    return n_queries


# ---------------------------------------------------------------------------
# Timed workloads
# ---------------------------------------------------------------------------

def make_workloads(database, config: MovieConfig):
    """name -> (implicit_fn(turn), prepared_fn(turn)) pairs.

    Both sides receive the turn number and derive the same constants
    from it; the implicit side builds its statement with the constants
    inlined and executes it one-shot each call, the prepared side binds
    into the statement compiled once up front.
    """
    connection = database.connect(name="bench")
    day0 = config.start_date

    point_unique = connection.prepare(
        select("screening").where(eq("screening_id", Param("s")))
    )
    point_eq = connection.prepare(
        select("screening").where(eq("movie_id", Param("m")))
    )
    point_count = connection.prepare(
        api.aggregate("screening", n=count()).where(
            eq("movie_id", Param("m"))
        )
    )
    booked = connection.prepare(
        api.aggregate("reservation", booked=sum_("no_tickets")).where(
            eq("screening_id", Param("s"))
        )
    )
    date_range = connection.prepare(
        select("screening").where(
            and_(ge("date", Param("lo")), le("date", Param("hi")))
        )
    )

    def movie_id(turn):
        return 1 + turn % config.n_movies

    def screening_id(turn):
        return 1 + turn % config.n_screenings

    def day(turn):
        return day0 + dt.timedelta(days=turn % config.n_days)

    return {
        "point_unique": (
            lambda t: connection.execute(
                select("screening").where(eq("screening_id", screening_id(t)))
            ).all(),
            lambda t: point_unique.execute(s=screening_id(t)).all(),
        ),
        "point_eq": (
            lambda t: connection.execute(
                select("screening").where(eq("movie_id", movie_id(t)))
            ).all(),
            lambda t: point_eq.execute(m=movie_id(t)).all(),
        ),
        "point_count": (
            lambda t: connection.execute(
                api.aggregate("screening", n=count())
                .where(eq("movie_id", movie_id(t)))
            ).scalar(),
            lambda t: point_count.execute(m=movie_id(t)).scalar(),
        ),
        "booked_sum": (
            lambda t: connection.execute(
                api.aggregate("reservation", booked=sum_("no_tickets"))
                .where(eq("screening_id", screening_id(t)))
            ).scalar(),
            lambda t: booked.execute(s=screening_id(t)).scalar(),
        ),
        "date_range": (
            lambda t: connection.execute(
                select("screening").where(
                    and_(
                        ge("date", day(t)),
                        le("date", day(t) + dt.timedelta(days=1)),
                    )
                )
            ).all(),
            lambda t: date_range.execute(
                lo=day(t), hi=day(t) + dt.timedelta(days=1)
            ).all(),
        ),
    }


def _time_turns(fn, min_seconds: float, max_turns: int) -> float:
    """Median wall-clock seconds per turn over repeated sweeps."""
    for turn in range(50):
        fn(turn)  # warm plan templates
    samples: list[float] = []
    budget_start = time.perf_counter()
    turn = 0
    while (
        len(samples) < 200
        or (
            time.perf_counter() - budget_start < min_seconds
            and len(samples) < max_turns
        )
    ):
        start = time.perf_counter()
        fn(turn)
        samples.append(time.perf_counter() - start)
        turn += 1
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
    min_seconds = 0.15 if smoke else 0.5
    max_turns = 20000 if smoke else 100000

    checked = run_differential(
        database, config, n_queries=500 if smoke else 800
    )

    results: dict = {
        "benchmark": "statement_api",
        "profile": "smoke" if smoke else "full",
        "config": {
            "n_screenings": config.n_screenings,
            "n_movies": config.n_movies,
            "n_reservations": config.n_reservations,
        },
        "differential_queries": checked,
        "workloads": {},
    }
    for name, (implicit_fn, prepared_fn) in make_workloads(
        database, config
    ).items():
        implicit_s = _time_turns(implicit_fn, min_seconds, max_turns)
        prepared_s = _time_turns(prepared_fn, min_seconds, max_turns)
        results["workloads"][name] = {
            "implicit_us": round(implicit_s * 1e6, 3),
            "prepared_us": round(prepared_s * 1e6, 3),
            "speedup": round(implicit_s / prepared_s, 3)
            if prepared_s > 0 else None,
            "gated": name in GATED_WORKLOADS,
        }
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small, CI-sized database and time budget")
    parser.add_argument("--output", default="BENCH_statement_api.json",
                        metavar="PATH", help="where to write the JSON record")
    parser.add_argument(
        "--require-speedup", type=float, default=None, metavar="X",
        help="fail unless every gated workload's prepared path beats "
        "one-shot execution with inlined constants by at least this factor",
    )
    args = parser.parse_args(argv)

    results = run_benchmark(smoke=args.smoke)
    width = max(len(n) for n in results["workloads"])
    print(f"statement API benchmark ({results['profile']}, "
          f"{results['differential_queries']} differential queries ok):")
    for name, row in results["workloads"].items():
        gate = "*" if row["gated"] else " "
        print(
            f" {gate} {name:<{width}}  implicit {row['implicit_us']:9.2f} us"
            f"   prepared {row['prepared_us']:9.2f} us"
            f"   {row['speedup']:6.2f}x"
        )
    with open(args.output, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")

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
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
