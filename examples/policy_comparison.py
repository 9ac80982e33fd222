"""Compare the data-aware policy against the static and random baselines.

A compact version of the Section 4 evaluation (see
``benchmarks/bench_policy_turns.py`` for the full sweep): simulated
users identify screenings under each slot-selection strategy and we
report the interaction-turn statistics.

Run with::

    python examples/policy_comparison.py
"""

from repro.annotation import TaskExtractor
from repro.dataaware import (
    DataAwarePolicy,
    RandomPolicy,
    StaticPolicy,
    UserAwarenessModel,
)
from repro.datasets import MovieConfig, build_movie_database
from repro.db import Catalog
from repro.eval import PolicyExperiment, ResultTable


def main() -> None:
    config = MovieConfig(
        n_customers=100, n_movies=80, n_screenings=600,
        n_reservations=60, n_actors=80, extra_dimensions=6, n_days=30,
    )
    database, annotations = build_movie_database(config)
    catalog = Catalog(database)
    task = TaskExtractor(catalog, annotations).extract(
        database.procedures.get("ticket_reservation")
    )
    lookup = task.lookup_for("screening_id")

    experiment = PolicyExperiment(database, catalog, annotations, lookup)
    policies = {
        "data_aware": DataAwarePolicy(
            lookup, UserAwarenessModel(annotations)
        ),
        "static": StaticPolicy.train(lookup, database, catalog, annotations),
        "random": RandomPolicy(lookup, seed=7),
    }

    table = ResultTable(
        f"Identifying one of {database.count('screening')} screenings "
        f"({config.extra_dimensions} joinable dimensions), 40 episodes",
        ["policy", "mean_turns", "median", "p90", "success"],
    )
    summaries = {}
    for name, policy in policies.items():
        summary, __ = experiment.run(policy, n_episodes=40)
        summaries[name] = summary
        table.add_row(name, summary.mean_turns, summary.median_turns,
                      summary.p90_turns, summary.success_rate)
    table.show()

    speedup = summaries["data_aware"].speedup_vs(summaries["random"])
    print(f"data-aware speedup over random: {speedup:.0%} fewer turns")


if __name__ == "__main__":
    main()
