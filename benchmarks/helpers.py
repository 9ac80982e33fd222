"""Shared helpers for the experiment benchmarks.

Every bench prints a paper-style result table (run pytest with ``-s`` to
see it live) and stores the headline numbers in ``benchmark.extra_info``
so they survive in the pytest-benchmark JSON output.
"""

from __future__ import annotations

import math
import statistics

from repro.annotation import EntityLookup, SchemaAnnotations, TaskExtractor
from repro.dataaware import (
    DataAwarePolicy,
    RandomPolicy,
    StaticPolicy,
    UserAwarenessModel,
)
from repro.db import Catalog, Database
from repro.eval import PolicyExperiment


def percentile(samples: list[float], q: float) -> float | None:
    """The ``q``-th percentile (0..100) by nearest rank.

    Degenerate samples degrade instead of raising: an empty sample has
    no percentile (``None``), a singleton *is* its every percentile.
    """
    if not samples:
        return None
    ordered = sorted(samples)
    rank = math.ceil(q / 100.0 * len(ordered)) - 1
    return ordered[max(0, min(len(ordered) - 1, rank))]


def latency_summary(samples: list[float]) -> dict[str, float | None]:
    """p50/p95/p99/mean of per-turn latencies, seconds in, ms out.

    Tolerates empty samples (a bench arm that recorded nothing): every
    figure comes back ``None`` rather than raising mid-report.
    """

    def _ms(seconds: float | None) -> float | None:
        return None if seconds is None else round(seconds * 1000.0, 3)

    return {
        "p50_ms": _ms(percentile(samples, 50)),
        "p95_ms": _ms(percentile(samples, 95)),
        "p99_ms": _ms(percentile(samples, 99)),
        "mean_ms": _ms(statistics.fmean(samples) if samples else None),
    }


def screening_lookup(database: Database, annotations: SchemaAnnotations):
    """The ticket_reservation screening lookup plus its catalog."""
    catalog = Catalog(database)
    extractor = TaskExtractor(catalog, annotations)
    task = extractor.extract(database.procedures.get("ticket_reservation"))
    return catalog, task.lookup_for("screening_id")


def make_policies(
    database: Database,
    catalog: Catalog,
    annotations: SchemaAnnotations,
    lookup: EntityLookup,
    seed: int = 11,
):
    """The three policies of the Section 4 comparison."""
    awareness = UserAwarenessModel(annotations)
    return {
        "data_aware": DataAwarePolicy(lookup, awareness),
        "static": StaticPolicy.train(lookup, database, catalog, annotations),
        "random": RandomPolicy(lookup, seed=seed),
    }


def run_policy_comparison(
    database: Database,
    annotations: SchemaAnnotations,
    n_episodes: int = 25,
    seed: int = 17,
):
    """Mean turns for the three policies on screening identification."""
    catalog, lookup = screening_lookup(database, annotations)
    experiment = PolicyExperiment(
        database, catalog, annotations, lookup, seed=seed
    )
    policies = make_policies(database, catalog, annotations, lookup)
    summaries = {}
    for name, policy in policies.items():
        summary, __ = experiment.run(policy, n_episodes=n_episodes)
        summaries[name] = summary
    return summaries
