"""Turn benchmark: goal-driven simulated conversations through AgentRuntime.

Run from the repository root::

    python3 turnbench/run.py --workload book_default --seed 1 \\
        --seconds 10 --trace 0

Each run builds the cinema database at the workload's scale, synthesizes
the agent (``CAT.synthesize_runtime()`` with the default generation
config) and plays a fixed warm-up set of conversations; that whole
set-up is ``setup_s``.  It then drives seeded simulated users (see
``simulator.py``) through the runtime in a closed loop of eight
round-robin sessions for ``--seconds`` seconds, and at least until
``MIN_TURNS`` turns and the workload's corpus of goals have been played.

``--trace 0`` reports the end-to-end metrics, with every timing brought
to nominal host speed by the reference samples of ``hostspeed.py``,
taken between turns and, from a timer signal, during set-up; the
record line keeps the wall-clock figures and the turns' median.  The
typical turn is reported as the geometric mean, not the median: on
``browse_large`` about half the turns take under 3.5 ms and the rest
over 6 ms, so the median jumps between the two with the seed.
``--trace 1`` splits the
time into quarters, alternately untraced and with the layer spans of
``tracing.py`` installed, and reports the per-layer metrics, the set-up
breakdown and the tracing overhead.  Either way the run checks
what the agent committed, and the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it is a record with the behaviour digest and metadata.
Spans of a traced run are written to ``.turnbench/`` under the current
directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".turnbench"

#: Fewest measured turns per run, so the 99th percentile has at least
#: ten samples beyond it.
MIN_TURNS = 1000

#: A traced run alternates this many untraced and traced chunks.
TRACE_CHUNKS = 4

#: Goals of the fixed warm-up set, played with ``WARMUP_SEED`` whatever
#: the run's seed, so every run pays the same warm-up.
WARMUP_GOALS = 8
WARMUP_SEED = 20220326

BOOK_MIX = (("book", 0.7), ("cancel", 0.2), ("list", 0.1))
BROWSE_MIX = (("list", 0.5), ("decline", 0.5))
LARGE = {"n_customers": 3000, "n_screenings": 4000, "n_movies": 200,
         "n_reservations": 800}


@dataclass(frozen=True)
class Workload:
    database: dict          # MovieConfig overrides
    mix: tuple              # (goal kind, weight) pairs
    corpus_goals: int       # goals behind goal_completion and the digest


WORKLOADS = {
    # Small candidate sets and linker pools: per-utterance NLU dominates,
    # and every commit rebuilds the version-stamped caches.
    "book_default": Workload({}, BOOK_MIX, corpus_goals=400),
    # Read-only at scale: scoring, refinement and linking grow with the
    # data, while the data version never moves and caches stay warm.
    "browse_large": Workload(LARGE, BROWSE_MIX, corpus_goals=240),
    # Commits at scale.  Not in BENCHMARK.json: at about 35 turns/s its
    # 1,000 turns take 25-35 s, more than the benchmark's total time
    # budget leaves per run with three workloads on a 2-core machine.
    "book_large": Workload(LARGE, BOOK_MIX, corpus_goals=100),
}

END_TO_END_UNITS = {
    "turn_gmean_ms": "ms",
    "turn_p99_ms": "ms",
    "turns_per_s": "turns/s",
    "goal_completion": "ratio",
    "turns_per_goal": "turns",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _src_lines(src: str) -> int:
    total = 0
    for folder, __, files in os.walk(src):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as handle:
                    total += handle.read().count(b"\n")
    return total


def setup(workload: Workload):
    """Build, synthesize and warm up; returns the runtime, the schema
    annotations, the warm-up's check violations and seconds per step."""
    from repro import CAT
    from repro.datasets import MovieConfig, build_movie_database, movie_templates

    from driver import ConversationDriver

    steps = {}
    begun = time.perf_counter()
    config = MovieConfig(**workload.database)
    database, annotations = build_movie_database(config)
    steps["datasets.build_s"] = time.perf_counter() - begun
    # A fixed "today", so relative dates resolve the same on every run.
    cat = CAT(database, annotations, reference_date=config.start_date)
    cat.add_template_catalog(movie_templates())
    runtime = cat.synthesize_runtime()
    warm = time.perf_counter()
    warmup = ConversationDriver(runtime, annotations, workload.mix, WARMUP_SEED)
    warmup.run(0.0, max_goals=WARMUP_GOALS)
    done = time.perf_counter()
    steps["warmup_s"] = done - warm
    steps["setup_s"] = done - begun
    steps["window"] = (begun, done)
    return runtime, annotations, warmup.violations, steps


def run(args) -> tuple[dict, dict]:
    from driver import ConversationDriver, PhaseStats
    from hostspeed import HostSpeed
    from tracing import SetupTimer, Tracer

    workload = WORKLOADS[args.workload]
    timer = SetupTimer()
    if args.trace:
        host = None
        timer.install()
        runtime, annotations, violations, steps = setup(workload)
        timer.uninstall()
    else:
        host = HostSpeed()
        with host.sampling():
            runtime, annotations, violations, steps = setup(workload)
    driver = ConversationDriver(runtime, annotations, workload.mix, args.seed,
                                host)
    violations = list(violations)

    if not args.trace:
        phase = driver.run(args.seconds, corpus_goals=workload.corpus_goals,
                           min_turns=MIN_TURNS)
        phases = [phase]
    else:
        # Untraced and traced chunks alternate, so drift in the data or
        # the machine does not bias the tracing overhead.
        tracer = Tracer()
        plain, traced = PhaseStats(), PhaseStats()
        counters = Counter()
        for chunk in range(TRACE_CHUNKS):
            seconds = args.seconds / TRACE_CHUNKS
            min_turns = MIN_TURNS // TRACE_CHUNKS
            if chunk % 2 == 0:
                plain.merge(driver.run(seconds, min_turns=min_turns))
                continue
            before = _counters(runtime)
            tracer.install()
            try:
                traced.merge(driver.run(seconds, min_turns=min_turns))
            finally:
                tracer.uninstall()
            counters.update(_counters(runtime))
            counters.subtract(before)
        phases = [plain, traced]
    driver.abandon()
    driver.check_final_state()
    violations += driver.violations

    attempted = sum(len(p.latencies) for p in phases)
    errors = sum(p.errors for p in phases)
    correct = not violations and errors == 0
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "src_lines": _src_lines(os.path.join(os.getcwd(), "src")),
        "goals_ended": len(driver.records),
        "bookings": driver.bookings,
        "cancellations": driver.cancellations,
        "violations": violations[:10],
    }
    if not args.trace:
        wall = phase.latencies
        latencies = [host.span(begun, begun + seconds)
                     for begun, seconds in zip(phase.starts, wall)]
        corpus = driver.corpus_records()
        completed = [r for r in corpus if r.completed]
        record["digest"] = driver.digest
        record["measured_seconds"] = phase.wall
        record["host_scale"] = host.median_scale()
        record["wall"] = {
            "turn_p50_ms": statistics.median(wall) * 1000.0,
            "turn_gmean_ms": statistics.geometric_mean(wall) * 1000.0,
            "turn_p99_ms": statistics.quantiles(wall, n=100)[98] * 1000.0,
            "turns_per_s": len(wall) / phase.wall,
            "setup_s": steps["setup_s"],
        }
        metrics = {
            "turn_gmean_ms": statistics.geometric_mean(latencies) * 1000.0,
            "turn_p99_ms": statistics.quantiles(latencies, n=100)[98] * 1000.0,
            "turns_per_s": len(latencies) / host.span(phase.begun,
                                                      phase.ended),
            "goal_completion": len(completed) / len(corpus),
            "turns_per_goal": statistics.mean(r.turns for r in completed),
            "setup_s": host.span(*steps["window"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
        }
        units = END_TO_END_UNITS
    else:
        metrics, units = _layer_metrics(
            tracer, plain, traced, runtime, steps, timer.seconds, counters,
            errors / attempted,
        )
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(
            OUT_DIR, f"spans-{args.workload}-{args.seed}.tsv"))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": errors,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    return record, result


def _counters(runtime) -> Counter:
    """Program counters the traced chunks report deltas of."""
    stats = runtime.stats()
    cache = runtime.artifacts.value_cache
    return Counter({
        "plan_hits": stats.plan_cache_hits,
        "plan_misses": stats.plan_cache_misses,
        "commits": stats.transactions_committed,
        "value_hits": cache.hits,
        "value_misses": cache.misses,
    })


def _layer_metrics(tracer, plain, traced, runtime, steps, setup_seconds,
                   counters, error_rate):
    from tracing import SETUP_LAYERS, TURN_LAYERS

    metrics: dict[str, float] = {}
    units: dict[str, str] = {}

    def put(name, value, unit):
        metrics[name] = value
        units[name] = unit

    self_time, calls, turn_time = tracer.layer_totals()
    turns = tracer.turns
    for layer in TURN_LAYERS:
        put(f"{layer}.calls_per_turn", calls[layer] / turns, "count")
        put(f"{layer}.self_ms_per_turn",
            self_time[layer] * 1000.0 / turns, "ms")
        put(f"{layer}.share", self_time[layer] / turn_time, "ratio")
    put("nlu.entity_linking.pool_entries",
        _pool_entries(runtime, tracer.linked_slots), "count")
    put("dataaware.policies.candidates_in",
        tracer.candidates_in / max(tracer.policy_calls, 1), "count")
    put("dataaware.scoring.attributes_per_call",
        tracer.attributes_ranked / max(calls["dataaware.scoring"], 1),
        "count")
    put("dataaware.caching.hit_rate",
        _rate(counters["value_hits"], counters["value_misses"]), "ratio")
    put("db.plan_cache.hit_rate",
        _rate(counters["plan_hits"], counters["plan_misses"]), "ratio")
    put("agent.executor.commits_per_goal",
        counters["commits"] / max(traced.goals_ended, 1), "count")
    put("bench.simulator.share",
        (plain.wall - plain.respond_time) / plain.wall, "ratio")
    put("tracing.overhead",
        statistics.geometric_mean(traced.latencies)
        / statistics.geometric_mean(plain.latencies) - 1.0, "ratio")
    put("turn_error_rate", error_rate, "ratio")
    put("datasets.build_s", steps["datasets.build_s"], "s")
    for name in SETUP_LAYERS:
        put(name, setup_seconds[name], "s")
    put("warmup_s", steps["warmup_s"], "s")
    return metrics, units


def _rate(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def _pool_entries(runtime, linked_slots: dict[str, int]) -> float:
    """Call-weighted mean of distinct values in each linked slot's
    source column (slots without a source column are skipped)."""
    from repro.db import api
    from repro.db.aggregation import count_distinct

    vocabulary = runtime.artifacts.vocabulary
    connection = runtime.database.connect(name="turnbench")
    weighted = 0
    n = 0
    for slot, times in sorted(linked_slots.items()):
        attribute = vocabulary.source(slot).attribute
        if attribute is None:
            continue
        distinct = connection.execute(
            api.aggregate(attribute.table,
                          n=count_distinct(attribute.column))
        ).scalar()
        weighted += distinct * times
        n += times
    return weighted / n if n else 0.0


def main(argv=None) -> int:
    args = _parse(argv)
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("turnbench: run from the repository root (no src/repro here)",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("turnbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    record, result = run(args)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
