"""Ablation — informativeness measure and join-expansion depth.

It varies two data-aware design choices:

* the informativeness measure (entropy, as in the paper, vs distinct
  count vs Gini impurity), and
* the iterative join expansion depth (0 hops reproduces the
  single-table assumption of prior work the paper criticises; 1-2 hops
  unlock joined attributes like the movie title for a screening).
"""

from __future__ import annotations

import sys

from repro.dataaware import (
    DataAwarePolicy,
    InformativenessMeasure,
    UserAwarenessModel,
)
from repro.datasets import MovieConfig, build_movie_database
from repro.eval import PolicyExperiment, ResultTable

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from helpers import screening_lookup  # noqa: E402

CONFIG = MovieConfig(
    seed=3, n_customers=100, n_movies=80, n_screenings=500,
    n_reservations=60, n_actors=80, extra_dimensions=4, n_days=30,
)

EPISODES = 30


def test_ablation_informativeness_measure(benchmark):
    database, annotations = build_movie_database(CONFIG)
    catalog, lookup = screening_lookup(database, annotations)
    experiment = PolicyExperiment(database, catalog, annotations, lookup,
                                  seed=29)
    table = ResultTable(
        "Ablation: informativeness measure (screening identification)",
        ["measure", "mean_turns", "success"],
    )
    means = {}
    for measure in InformativenessMeasure:
        policy = DataAwarePolicy(
            lookup, UserAwarenessModel(annotations), measure=measure,
        )
        summary, __ = experiment.run(policy, n_episodes=EPISODES)
        table.add_row(measure.value, summary.mean_turns,
                      summary.success_rate)
        means[measure.value] = summary.mean_turns
    table.show()
    # Entropy must be competitive with the alternatives (within a turn).
    assert means["entropy"] <= min(means.values()) + 1.0
    benchmark.extra_info["means"] = means
    benchmark(lambda: experiment.run(
        DataAwarePolicy(lookup, UserAwarenessModel(annotations)),
        n_episodes=3,
    ))


def test_ablation_join_depth(benchmark):
    database, annotations = build_movie_database(CONFIG)
    catalog, lookup = screening_lookup(database, annotations)
    experiment = PolicyExperiment(database, catalog, annotations, lookup,
                                  seed=31)
    table = ResultTable(
        "Ablation: join-expansion depth (0 = single-table assumption of "
        "prior work)",
        ["max_hops", "mean_turns", "success"],
    )
    means = {}
    for hops in (0, 1, 2):
        policy = DataAwarePolicy(
            lookup, UserAwarenessModel(annotations), max_hops=hops,
        )
        summary, __ = experiment.run(policy, n_episodes=EPISODES)
        table.add_row(hops, summary.mean_turns, summary.success_rate)
        means[hops] = summary.mean_turns
    table.show()
    # Joined attributes must help: depth >= 1 beats the single-table
    # assumption on this workload.
    assert min(means[1], means[2]) <= means[0] + 0.25
    benchmark.extra_info["means"] = {str(k): v for k, v in means.items()}
    benchmark(lambda: experiment.run(
        DataAwarePolicy(lookup, UserAwarenessModel(annotations),
                        max_hops=2),
        n_episodes=3,
    ))
