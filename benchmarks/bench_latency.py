"""E4 — Response latency with the integrated caching strategy.

Paper claim: "An integrated caching strategy leads to an average
response latency of only a few milliseconds."

We measure the latency of one complete policy step — scoring every
candidate attribute over the live candidate set and choosing the next
question — on a large database, with and without the attribute-value
cache.  The cached path must stay in single-digit milliseconds.
"""

from __future__ import annotations

from repro.dataaware import (
    AttributeValueCache,
    CandidateSet,
    DataAwarePolicy,
    UserAwarenessModel,
)
from repro.datasets import MovieConfig, build_movie_database
from repro.eval import ResultTable

import sys

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from helpers import screening_lookup  # noqa: E402

LARGE = MovieConfig(
    seed=5,
    n_customers=300,
    n_movies=150,
    n_screenings=1500,
    n_reservations=200,
    n_actors=120,
    extra_dimensions=6,
    n_days=45,
)


def _policy_step(database, catalog, annotations, lookup, cache):
    candidates = CandidateSet.initial(
        database, catalog, lookup.table, shared_cache=cache
    )
    policy = DataAwarePolicy(lookup, UserAwarenessModel(annotations))
    return policy.next_attribute(candidates, set())


def test_policy_step_latency_cached(benchmark):
    database, annotations = build_movie_database(LARGE)
    catalog, lookup = screening_lookup(database, annotations)
    cache = AttributeValueCache(database, catalog)
    # Warm the cache once (first conversation of the day).
    _policy_step(database, catalog, annotations, lookup, cache)

    result = benchmark(
        _policy_step, database, catalog, annotations, lookup, cache
    )
    assert result is not None
    mean_ms = benchmark.stats["mean"] * 1000.0
    table = ResultTable(
        "E4: data-aware policy step latency (1500 screenings, 6 joined "
        "dimensions)",
        ["variant", "mean_ms"],
    )
    table.add_row("cached", mean_ms)
    table.show()
    benchmark.extra_info["mean_ms"] = mean_ms
    # "average response latency of only a few milliseconds"
    assert mean_ms < 50.0, f"cached policy step took {mean_ms:.1f} ms"


def test_policy_step_latency_uncached(benchmark):
    database, annotations = build_movie_database(LARGE)
    catalog, lookup = screening_lookup(database, annotations)

    benchmark(_policy_step, database, catalog, annotations, lookup, None)
    mean_ms = benchmark.stats["mean"] * 1000.0
    benchmark.extra_info["mean_ms"] = mean_ms


def test_cache_speedup_report(benchmark):
    """Summarise the cached vs uncached difference in one table."""
    import time

    database, annotations = build_movie_database(LARGE)
    catalog, lookup = screening_lookup(database, annotations)
    cache = AttributeValueCache(database, catalog)
    _policy_step(database, catalog, annotations, lookup, cache)  # warm

    def timed(repeats, cache_arg):
        start = time.perf_counter()
        for __ in range(repeats):
            _policy_step(database, catalog, annotations, lookup, cache_arg)
        return (time.perf_counter() - start) / repeats * 1000.0

    cached_ms = timed(20, cache)
    uncached_ms = timed(3, None)
    table = ResultTable(
        "E4: cached vs uncached policy step",
        ["variant", "mean_ms"],
    )
    table.add_row("cached", cached_ms)
    table.add_row("uncached", uncached_ms)
    table.show()
    assert cached_ms < uncached_ms
    benchmark.extra_info["cached_ms"] = cached_ms
    benchmark.extra_info["uncached_ms"] = uncached_ms
    benchmark(lambda: _policy_step(database, catalog, annotations, lookup,
                                   cache))
