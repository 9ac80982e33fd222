"""E3 — Adapting to data-distribution change at runtime (Section 4 eval).

Paper claim: the static strategy "will not adapt to data distribution
changes at runtime.  Additionally, it cannot react to systematic
problems in uniquely identifying entries of some tables (caused by data
characteristics like almost identical entries)."

Two shift scenarios:

1. **Date collapse** — the static policy is trained while screenings are
   spread over 45 days (date is the best discriminator).  Then a
   festival week is loaded: hundreds of new screenings on one single
   date, in the same rooms, at the same times.  The frozen static order
   keeps asking for the now-uninformative attributes; the data-aware
   policy recomputes entropy over the live candidates and re-routes.
2. **Near-duplicate customers** — family clusters sharing last name,
   city and street are inserted, degrading name-based identification.
"""

from __future__ import annotations

import datetime as dt
import random

from repro.annotation import TaskExtractor
from repro.dataaware import (
    DataAwarePolicy,
    StaticPolicy,
    UserAwarenessModel,
)
from repro.datasets import MovieConfig, build_movie_database, lexicons
from repro.db import Catalog
from repro.eval import PolicyExperiment, ResultTable


def _lookup(database, annotations, slot):
    catalog = Catalog(database)
    task = TaskExtractor(catalog, annotations).extract(
        database.procedures.get("ticket_reservation")
    )
    return catalog, task.lookup_for(slot)


def _inject_festival(database, n_screenings: int, seed: int = 5) -> None:
    """One festival date: many screenings, identical date/room/time."""
    rng = random.Random(seed)
    next_id = max(database.table("screening").column_values("screening_id")) + 1
    n_movies = database.count("movie")
    festival_date = dt.date(2022, 7, 1)
    for __ in range(n_screenings):
        database.insert(
            "screening",
            {
                "screening_id": next_id,
                "movie_id": rng.randint(1, n_movies),
                "date": festival_date,
                "start_time": dt.time(20, 0),
                "room": "festival tent",
                "price": 12.0,
                "capacity": 200,
            },
        )
        next_id += 1


def _inject_near_duplicates(database, n_families: int, seed: int = 5) -> None:
    rng = random.Random(seed)
    next_id = max(database.table("customer").column_values("customer_id")) + 1
    for __ in range(n_families):
        last = rng.choice(lexicons.LAST_NAMES)
        city = rng.choice(lexicons.CITIES)
        street = rng.choice(lexicons.STREETS)
        for __member in range(4):
            first = rng.choice(lexicons.FIRST_NAMES)
            database.insert(
                "customer",
                {
                    "customer_id": next_id,
                    "first_name": first,
                    "last_name": last,
                    "city": city,
                    "street": street,
                    "email": f"{first.lower()}.{last.lower()}.{next_id}"
                    f"@{rng.choice(lexicons.EMAIL_DOMAINS)}",
                    "birth_year": rng.randint(1950, 2004),
                },
            )
            next_id += 1


def _compare(database, catalog, annotations, lookup, static, episodes=30):
    experiment = PolicyExperiment(
        database, catalog, annotations, lookup, seed=23
    )
    data_aware = DataAwarePolicy(lookup, UserAwarenessModel(annotations))
    aware_summary, __ = experiment.run(data_aware, n_episodes=episodes)
    static_summary, __ = experiment.run(static, n_episodes=episodes)
    return aware_summary, static_summary


def test_distribution_shift_screenings(benchmark):
    config = MovieConfig(seed=9, n_customers=80, n_movies=40,
                         n_screenings=150, n_reservations=40, n_days=45)
    database, annotations = build_movie_database(config)
    catalog, lookup = _lookup(database, annotations, "screening_id")

    static = StaticPolicy.train(lookup, database, catalog, annotations)
    before_aware, before_static = _compare(
        database, catalog, annotations, lookup, static
    )
    _inject_festival(database, n_screenings=450)
    after_aware, after_static = _compare(
        database, catalog, annotations, lookup, static
    )

    table = ResultTable(
        "E3a: mean turns to identify a screening, before/after a festival "
        "loads 450 same-date screenings (static trained before the shift)",
        ["phase", "data_aware", "static", "static_penalty"],
    )
    before_gap = before_static.mean_turns - before_aware.mean_turns
    after_gap = after_static.mean_turns - after_aware.mean_turns
    table.add_row("before shift", before_aware.mean_turns,
                  before_static.mean_turns, f"{before_gap:+.2f}")
    table.add_row("after shift", after_aware.mean_turns,
                  after_static.mean_turns, f"{after_gap:+.2f}")
    table.show()

    assert before_gap <= 1.0, "static should match data-aware pre-shift"
    assert after_gap > before_gap, (
        f"static should degrade after the shift (gap {before_gap:.2f} -> "
        f"{after_gap:.2f})"
    )
    assert after_aware.success_rate >= 0.9
    benchmark.extra_info["gaps"] = {"before": before_gap, "after": after_gap}
    benchmark(lambda: _compare(database, catalog, annotations, lookup,
                               static, episodes=3))


def test_distribution_shift_customers(benchmark):
    config = MovieConfig(seed=9, n_customers=150, n_movies=30,
                         n_screenings=80, n_reservations=40)
    database, annotations = build_movie_database(config)
    catalog, lookup = _lookup(database, annotations, "customer_id")

    static = StaticPolicy.train(lookup, database, catalog, annotations)
    before_aware, before_static = _compare(
        database, catalog, annotations, lookup, static
    )
    _inject_near_duplicates(database, n_families=120)
    after_aware, after_static = _compare(
        database, catalog, annotations, lookup, static
    )

    table = ResultTable(
        "E3b: mean turns to identify a customer, before/after near-"
        "duplicate families reach ~75% of the table",
        ["phase", "data_aware", "static", "static_penalty"],
    )
    before_gap = before_static.mean_turns - before_aware.mean_turns
    after_gap = after_static.mean_turns - after_aware.mean_turns
    table.add_row("before shift", before_aware.mean_turns,
                  before_static.mean_turns, f"{before_gap:+.2f}")
    table.add_row("after shift", after_aware.mean_turns,
                  after_static.mean_turns, f"{after_gap:+.2f}")
    table.show()

    assert before_gap <= 1.0
    assert after_gap >= before_gap - 0.05
    assert after_aware.success_rate >= 0.9
    benchmark.extra_info["gaps"] = {"before": before_gap, "after": after_gap}
    benchmark(lambda: _compare(database, catalog, annotations, lookup,
                               static, episodes=3))