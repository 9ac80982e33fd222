"""Ablation — the user-awareness factor of the attribute score.

The paper scores attributes by informativeness x awareness.  This bench
removes the awareness factor (pure entropy) and compares against the
full score, on a population of users who genuinely do not know the
technical attributes.  It also shows the *learning* effect: starting
from deliberately wrong priors, online observations recover most of the
lost efficiency.
"""

from __future__ import annotations

import sys

from repro.dataaware import DataAwarePolicy, UserAwarenessModel
from repro.datasets import MovieConfig, build_movie_database
from repro.db import ColumnRef
from repro.eval import PolicyExperiment, ResultTable

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from helpers import screening_lookup  # noqa: E402

CONFIG = MovieConfig(
    seed=13, n_customers=80, n_movies=60, n_screenings=400,
    n_reservations=50, n_actors=60, extra_dimensions=4, n_days=30,
)

EPISODES = 30


def _ground_truth_awareness(lookup):
    """What the simulated users actually know: titles and dates, not
    technical dimension values."""
    truth = {}
    for attribute in lookup.all_attributes():
        if attribute.column in ("title", "date", "start_time", "genre"):
            truth[attribute] = 0.9
        else:
            truth[attribute] = 0.1
    return truth


def test_ablation_awareness_factor(benchmark):
    database, annotations = build_movie_database(CONFIG)
    catalog, lookup = screening_lookup(database, annotations)
    truth = _ground_truth_awareness(lookup)
    experiment = PolicyExperiment(
        database, catalog, annotations, lookup, seed=37, awareness=truth
    )

    with_awareness = DataAwarePolicy(
        lookup, UserAwarenessModel(annotations), use_awareness=True,
    )
    without_awareness = DataAwarePolicy(
        lookup, UserAwarenessModel(annotations), use_awareness=False,
    )
    summary_with, __ = experiment.run(with_awareness, n_episodes=EPISODES)
    summary_without, __ = experiment.run(without_awareness,
                                         n_episodes=EPISODES)

    table = ResultTable(
        "Ablation: awareness factor (users know titles/dates, not "
        "technical attributes)",
        ["variant", "mean_turns", "success"],
    )
    table.add_row("entropy x awareness", summary_with.mean_turns,
                  summary_with.success_rate)
    table.add_row("entropy only", summary_without.mean_turns,
                  summary_without.success_rate)
    table.show()

    assert summary_with.mean_turns <= summary_without.mean_turns + 0.2
    benchmark.extra_info["with"] = summary_with.mean_turns
    benchmark.extra_info["without"] = summary_without.mean_turns
    benchmark(lambda: experiment.run(with_awareness, n_episodes=3))


def test_ablation_awareness_learning(benchmark):
    """Wrong priors + online learning: the Beta-Bernoulli updates recover."""
    database, annotations = build_movie_database(CONFIG)
    catalog, lookup = screening_lookup(database, annotations)
    truth = _ground_truth_awareness(lookup)

    # Invert the developer's priors: claim users know the dimensions but
    # not the titles (the worst-case annotation mistake).
    for attribute in lookup.all_attributes():
        annotations.annotate(
            attribute.table, attribute.column,
            awareness_prior=1.0 - truth[attribute],
        )

    experiment = PolicyExperiment(
        database, catalog, annotations, lookup, seed=41, awareness=truth
    )
    awareness = UserAwarenessModel(annotations, prior_strength=4.0)
    policy = DataAwarePolicy(lookup, awareness)
    cold, __ = experiment.run(policy, n_episodes=15)
    # Keep playing: the same model accumulates observations.
    for __round in range(3):
        experiment.run(policy, n_episodes=15)
    warm, __ = experiment.run(policy, n_episodes=15)

    table = ResultTable(
        "Ablation: awareness learning with inverted priors",
        ["phase", "mean_turns"],
    )
    table.add_row("cold (wrong priors)", cold.mean_turns)
    table.add_row("after ~60 dialogues", warm.mean_turns)
    table.show()

    assert warm.mean_turns <= cold.mean_turns + 0.1
    benchmark.extra_info["cold"] = cold.mean_turns
    benchmark.extra_info["warm"] = warm.mean_turns
    benchmark(lambda: experiment.run(policy, n_episodes=3))
