"""Multi-session serving: one synthesized agent, many concurrent users.

Synthesizes the cinema agent once, then serves 8 interleaved
conversations from worker threads through a single
:class:`~repro.serving.AgentRuntime` — each session keeps its own
dialogue state and awareness model while sharing the trained models
and caches.

Run with::

    python examples/multi_session_serving.py
"""

import threading

from repro import CAT
from repro.datasets import build_movie_database, movie_templates

N_USERS = 8


def main() -> None:
    database, annotations = build_movie_database()
    cat = CAT(database, annotations)
    cat.add_template_catalog(movie_templates())

    # Sessions idle for over an hour are reclaimed; beyond 10k live
    # sessions the least recently used one is evicted.
    runtime = cat.synthesize_runtime(session_ttl=3600.0, max_sessions=10_000)

    def user(index: int) -> None:
        sid = runtime.create_session(f"user-{index}")
        amount = index + 1
        runtime.respond(sid, "hello")
        runtime.respond(sid, f"i want to buy {amount} tickets")
        runtime.respond(sid, "my name is smith")
        runtime.respond(sid, "never mind, forget it")

    threads = [
        threading.Thread(target=user, args=(i,)) for i in range(N_USERS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    for index in range(N_USERS):
        sid = f"user-{index}"
        print(f"--- {sid} " + "-" * 40)
        for turn in runtime.transcript(sid):
            print(f"USER : {turn.user}")
            for part in turn.agent.split("\n"):
                print(f"AGENT: {part}")

    stats = runtime.stats()
    print(
        f"\nserved {stats.turns_served} turns across "
        f"{stats.sessions_created} sessions "
        f"({stats.live_sessions} still live)"
    )


if __name__ == "__main__":
    main()
