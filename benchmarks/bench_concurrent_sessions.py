"""E6 — Multi-session serving throughput on one AgentRuntime.

The MVCC claim: one synthesized artifacts bundle serves many concurrent
conversations over one database, and readers never queue behind a lock.
Run as a script this file sweeps three profiles and writes a JSON
artifact (percentile latencies, cpu count, gate results):

* ``threads_mvcc`` — N interleaved sessions on one runtime, the MVCC
  snapshot read path (no serving-tier lock at all);
* ``serialized_baseline`` — the same sweep with a bench-local global
  lock around every turn, i.e. the pre-MVCC single-writer discipline;
* ``writer_interference`` — reader latency percentiles while a writer
  thread holds multi-statement transactions: under MVCC readers sail
  through on pinned snapshots, under the single lock they queue.

Each simulated client waits ``THINK_TIME_S`` between turns — the
network/typing gap every real deployment has; it is what concurrency
overlaps.  Zero-think-time sweeps are GIL-bound on one core, so the
reader-scaling gate measures the think-time sweep, and the artifact
records ``cpu_count`` so readers can judge the numbers honestly.

The three pytest entry points at the bottom keep the original
tier-2 assertions runnable under plain pytest.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time

from repro import CAT
from repro.datasets import MovieConfig, build_movie_database, movie_templates
from repro.eval import ResultTable
from repro.serving import AgentRuntime
from repro.synthesis import GenerationConfig, SelfPlayConfig

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from helpers import latency_summary, percentile  # noqa: E402

THINK_TIME_S = 0.005
TURNS_PER_SESSION = 40
SESSION_SWEEP = (1, 4, 16)
WRITER_HOLD_S = 0.003

BENCH_CONFIG = MovieConfig(
    seed=13,
    n_customers=150,
    n_movies=60,
    n_screenings=400,
    n_reservations=80,
    n_actors=60,
    extra_dimensions=3,
    n_days=30,
)

_runtime_cache: dict[str, AgentRuntime] = {}


def shared_runtime() -> AgentRuntime:
    """Synthesize once; every sweep point and pytest entry point
    reuses the same runtime."""
    runtime = _runtime_cache.get("runtime")
    if runtime is None:
        database, annotations = build_movie_database(BENCH_CONFIG)
        cat = CAT(
            database,
            annotations,
            generation=GenerationConfig(
                samples_per_template=4,
                selfplay=SelfPlayConfig(n_flows=150),
            ),
        )
        cat.add_template_catalog(movie_templates())
        print("synthesizing the benchmark agent ...", file=sys.stderr)
        runtime = cat.synthesize_runtime()
        _runtime_cache["runtime"] = runtime
    return runtime


class SerializedFacade:
    """The pre-MVCC discipline: one global lock around every turn."""

    def __init__(self, runtime: AgentRuntime) -> None:
        self._runtime = runtime
        self.lock = threading.Lock()

    def create_session(self, session_id: str | None = None) -> str:
        return self._runtime.create_session(session_id)

    def respond(self, session_id: str, text: str):
        with self.lock:
            return self._runtime.respond(session_id, text)

    def end_session(self, session_id: str) -> None:
        self._runtime.end_session(session_id)


def _client_script(index: int) -> list[str]:
    """A short, non-transactional episode (steady-state serving load)."""
    amount = (index % 7) + 1
    return [
        "hello",
        f"i want to buy {amount} tickets",
        "my name is smith",
        "never mind, forget it",
    ]


def _run_sessions(
    server,
    n_sessions: int,
    think_time: float,
    turns: int = TURNS_PER_SESSION,
) -> tuple[float, list[float]]:
    """Drive ``n_sessions`` concurrent clients; returns (wall_s, latencies).

    ``server`` is anything with the create_session/respond/end_session
    trio: an AgentRuntime or a SerializedFacade.
    """
    latencies: list[list[float]] = [[] for __ in range(n_sessions)]
    barrier = threading.Barrier(n_sessions + 1)
    errors: list[Exception] = []

    def client(index: int) -> None:
        sid = server.create_session()
        script = _client_script(index)
        try:
            barrier.wait(timeout=60)
            for turn in range(turns):
                if think_time:
                    time.sleep(think_time)
                start = time.perf_counter()
                server.respond(sid, script[turn % len(script)])
                latencies[index].append(time.perf_counter() - start)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)
        finally:
            server.end_session(sid)

    threads = [
        threading.Thread(target=client, args=(i,)) for i in range(n_sessions)
    ]
    for thread in threads:
        thread.start()
    barrier.wait(timeout=60)
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    if errors:
        raise errors[0]
    return wall, [sample for per in latencies for sample in per]


def _p95(samples: list[float]) -> float:
    return percentile(samples, 95)


def _sweep(runtime, think_time: float, title: str, sessions=SESSION_SWEEP,
           turns: int = TURNS_PER_SESSION):
    table = ResultTable(
        title,
        ["sessions", "turns_per_sec", "p95_ms", "mean_ms"],
    )
    throughput: dict[int, float] = {}
    rows = []
    for n_sessions in sessions:
        # Warm-up pass so cache rebuilds don't skew the first sweep point.
        if n_sessions == sessions[0]:
            _run_sessions(runtime, 1, 0.0, turns=min(turns, 10))
        wall, latencies = _run_sessions(
            runtime, n_sessions, think_time, turns=turns
        )
        total = n_sessions * turns
        throughput[n_sessions] = total / wall
        summary = latency_summary(latencies)
        rows.append(
            {
                "sessions": n_sessions,
                "turns_per_sec": round(total / wall, 2),
                "latency_ms": summary,
            }
        )
        table.add_row(
            n_sessions,
            round(total / wall, 1),
            summary["p95_ms"],
            summary["mean_ms"],
        )
    table.show()
    return throughput, rows


# ----------------------------------------------------------------------
# Script-mode profiles
# ----------------------------------------------------------------------
def _profile_threads(runtime, sessions, turns) -> dict:
    throughput, rows = _sweep(
        runtime,
        THINK_TIME_S,
        f"E6: MVCC threads ({THINK_TIME_S * 1000:.0f} ms think time)",
        sessions=sessions,
        turns=turns,
    )
    return {"think_time_s": THINK_TIME_S, "sweep": rows}


def _profile_serialized(runtime, sessions, turns) -> dict:
    facade = SerializedFacade(runtime)
    __, rows = _sweep(
        facade,
        THINK_TIME_S,
        "E6: serialized baseline (one lock around every turn)",
        sessions=sessions,
        turns=turns,
    )
    return {"think_time_s": THINK_TIME_S, "sweep": rows}


def _writer_loop(runtime, lock, stop: threading.Event, counters: dict):
    """Commit short transactions until told to stop.

    ``lock`` is the serialized baseline's global lock (None under MVCC):
    the pre-MVCC tier held its writer lock for the whole transaction,
    so the baseline writer does too.
    """
    database = runtime.database
    table = database.table("movie")
    rid = table.row_ids()[0]
    title = table.get(rid)["title"]
    while not stop.is_set():
        acquired = False
        if lock is not None:
            lock.acquire()
            acquired = True
        try:
            with database.transaction():
                database.update("movie", rid, {"title": title})
                time.sleep(WRITER_HOLD_S)  # slow commit (I/O, fsync, ...)
        finally:
            if acquired:
                lock.release()
        counters["commits"] += 1
        time.sleep(WRITER_HOLD_S)


def _readers_under_writer(server, runtime, lock, sessions, turns):
    stop = threading.Event()
    counters = {"commits": 0}
    writer = threading.Thread(
        target=_writer_loop, args=(runtime, lock, stop, counters)
    )
    writer.start()
    try:
        wall, latencies = _run_sessions(server, sessions, 0.0, turns)
    finally:
        stop.set()
        writer.join(timeout=30)
    return wall, latencies, counters["commits"]


def _profile_writer_interference(runtime, sessions: int, turns: int) -> dict:
    """Reader percentiles with a transaction-committing writer running."""
    facade = SerializedFacade(runtime)
    wall_ser, lat_ser, commits_ser = _readers_under_writer(
        facade, runtime, facade.lock, sessions, turns
    )
    wall_mvcc, lat_mvcc, commits_mvcc = _readers_under_writer(
        runtime, runtime, None, sessions, turns
    )
    table = ResultTable(
        "E6: reader latency under writer interference "
        f"({sessions} readers, {WRITER_HOLD_S * 1000:.0f} ms commit hold)",
        ["mode", "turns_per_sec", "p50_ms", "p99_ms", "writer_commits"],
    )
    out = {}
    for mode, wall, lats, commits in (
        ("serialized", wall_ser, lat_ser, commits_ser),
        ("mvcc", wall_mvcc, lat_mvcc, commits_mvcc),
    ):
        summary = latency_summary(lats)
        out[mode] = {
            "turns_per_sec": round(sessions * turns / wall, 2),
            "latency_ms": summary,
            "writer_commits": commits,
        }
        table.add_row(
            mode,
            round(sessions * turns / wall, 1),
            summary["p50_ms"],
            summary["p99_ms"],
            commits,
        )
    table.show()
    p99_ser = out["serialized"]["latency_ms"]["p99_ms"]
    p99_mvcc = out["mvcc"]["latency_ms"]["p99_ms"]
    out["reader_p99_speedup"] = round(p99_ser / max(p99_mvcc, 1e-9), 2)
    return out


def run_bench(args) -> dict:
    smoke = args.smoke and not args.full
    turns = 12 if smoke else TURNS_PER_SESSION
    max_sessions = args.sessions or (8 if smoke else 16)
    session_sweep = tuple(
        sorted({1, min(4, max_sessions), max_sessions})
    )
    runtime = shared_runtime()

    artifact: dict = {
        "bench": "concurrent_sessions",
        "mode": "smoke" if smoke else "full",
        "cpu_count": os.cpu_count(),
        "turns_per_session": turns,
        "profiles": {},
        "gates": {},
    }
    artifact["profiles"]["threads_mvcc"] = _profile_threads(
        runtime, session_sweep, turns
    )
    artifact["profiles"]["serialized_baseline"] = _profile_serialized(
        runtime, session_sweep, turns
    )
    artifact["profiles"]["writer_interference"] = (
        _profile_writer_interference(
            runtime, min(4, max_sessions), turns
        )
    )

    failures = []
    if args.require_reader_scaling is not None:
        sweep = artifact["profiles"]["threads_mvcc"]["sweep"]
        base = sweep[0]["turns_per_sec"]
        peak = sweep[-1]["turns_per_sec"]
        ratio = round(peak / base, 2)
        passed = ratio >= args.require_reader_scaling
        artifact["gates"]["reader_scaling"] = {
            "required": args.require_reader_scaling,
            "observed": ratio,
            "passed": passed,
        }
        if not passed:
            failures.append(
                f"reader scaling {ratio}x < "
                f"required {args.require_reader_scaling}x"
            )
    artifact["failures"] = failures
    return artifact


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Concurrent-session serving benchmark (E6)"
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="small sweeps for CI (12 turns, 8 sessions)",
    )
    parser.add_argument(
        "--full", action="store_true",
        help="full sweeps (overrides --smoke)",
    )
    parser.add_argument(
        "--sessions", type=int, default=None,
        help="max concurrent sessions (default 8 smoke / 16 full)",
    )
    parser.add_argument(
        "--require-reader-scaling", type=float, default=None,
        help="fail unless peak/single-session turns/s >= this ratio",
    )
    parser.add_argument(
        "--output", default=None,
        help="write the JSON artifact to this path",
    )
    args = parser.parse_args(argv)
    artifact = run_bench(args)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(artifact, handle, indent=2)
        print(f"wrote {args.output}", file=sys.stderr)
    if artifact["failures"]:
        for failure in artifact["failures"]:
            print(f"GATE FAILED: {failure}", file=sys.stderr)
        return 1
    return 0


# ----------------------------------------------------------------------
# Pytest entry points (tier-2)
# ----------------------------------------------------------------------
def test_concurrent_throughput_scales_with_sessions():
    """Aggregate turns/sec at 16 sessions beats the 1-session baseline."""
    runtime = shared_runtime()
    throughput, __ = _sweep(
        runtime,
        THINK_TIME_S,
        f"E6: concurrent sessions ({THINK_TIME_S * 1000:.0f} ms client "
        f"think time, {TURNS_PER_SESSION} turns/session)",
    )
    baseline = throughput[SESSION_SWEEP[0]]
    peak = throughput[SESSION_SWEEP[-1]]
    assert peak > baseline * 1.5, (
        f"16 sessions served {peak:.1f} turns/s, baseline {baseline:.1f}"
    )


def test_turn_latency_stays_flat_without_think_time():
    """Pure-CPU sweep: more sessions must not collapse per-turn latency."""
    runtime = shared_runtime()
    wall_1, lat_1 = _run_sessions(runtime, 1, 0.0)
    wall_16, lat_16 = _run_sessions(runtime, 16, 0.0)
    table = ResultTable(
        "E6b: zero think time (GIL-bound, contention check)",
        ["sessions", "turns_per_sec", "p95_ms"],
    )
    table.add_row(1, round(TURNS_PER_SESSION / wall_1, 1),
                  round(_p95(lat_1) * 1000.0, 2))
    table.add_row(16, round(16 * TURNS_PER_SESSION / wall_16, 1),
                  round(_p95(lat_16) * 1000.0, 2))
    table.show()
    # Aggregate throughput must not collapse under lock contention: 16
    # CPU-bound sessions should still push at least half the single
    # session rate through the shared runtime.
    assert (16 * TURNS_PER_SESSION / wall_16) > \
        (TURNS_PER_SESSION / wall_1) * 0.5


def test_isolation_under_load():
    """Every concurrent client sees exactly its own slots."""
    runtime = shared_runtime()
    results: dict[int, int] = {}
    errors: list[Exception] = []

    def client(index: int) -> None:
        try:
            sid = runtime.create_session()
            amount = (index % 9) + 1
            runtime.respond(sid, f"i want to buy {amount} tickets")
            state = runtime.session(sid).context.state
            results[index] = state.collected.get("ticket_amount")
            runtime.end_session(sid)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [
        threading.Thread(target=client, args=(i,)) for i in range(16)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    for index, amount in results.items():
        assert amount == (index % 9) + 1


if __name__ == "__main__":  # pragma: no cover - manual / CI run
    sys.exit(main())
