"""Command-line interface: ``python -m repro <command>``.

Commands mirror the demo workflow of Section 5:

* ``demo``      — synthesize the cinema agent and run a scripted booking.
* ``serve``     — the interactive REPL: sessions on the concurrent agent
  runtime.
* ``report``    — print the synthesis report (tasks, data, actions).
* ``policies``  — compare data-aware / static / random slot selection.
* ``snapshot``  — dump the cinema database to a JSON file.
"""

from __future__ import annotations

import argparse
import sys

__all__ = ["main"]

_DEMO_SCRIPT = [
    "hello",
    "i want to buy 2 tickets",
    "my name is alice",
    "my last name is quandt",
    "i want to watch forest gump",
    "the first one",
    "yes please",
    "thanks, goodbye",
]


def _build_cat():
    from repro import CAT
    from repro.datasets import build_movie_database, movie_templates

    database, annotations = build_movie_database()
    cat = CAT(database, annotations)
    cat.add_template_catalog(movie_templates())
    print("synthesizing the cinema agent (trains NLU + DM) ...",
          file=sys.stderr)
    return cat, cat.synthesize()


def _cmd_demo() -> int:
    from repro import ConversationSession

    __, agent = _build_cat()
    session = ConversationSession(agent)
    for utterance in _DEMO_SCRIPT:
        session.say(utterance)
    print(session.format_transcript())
    executed = session.executed_results()
    if executed:
        print(f"\nexecuted transactions: {[r.procedure for r in executed]}")
    return 0


_SERVE_HELP = """\
Multi-session mode. One synthesized agent serves every session; each
session has its own dialogue state and awareness model.

  :new [id]     open a session (and switch to it)
  :use <id>     switch the active session
  :sessions     list live sessions
  :close <id>   end a session
  :stats        runtime + per-session turn counters
  :help         this text
  :quit         leave
Anything else is sent to the active session."""


def _cmd_serve(session_ttl: float | None) -> int:
    from repro.errors import ServingError, UnknownSessionError
    from repro.serving import AgentRuntime

    cat, agent = _build_cat()
    runtime = AgentRuntime.for_agent(agent, session_ttl=session_ttl)
    active = runtime.create_session()
    print(_SERVE_HELP)
    print(f"[{active}] session opened")
    while True:
        try:
            text = input(f"{active}> ").strip()
        except EOFError:
            return 0
        if not text:
            continue
        if text in (":quit", ":q", "quit", "exit"):
            return 0
        try:
            if text == ":help":
                print(_SERVE_HELP)
            elif text.startswith(":new"):
                parts = text.split(maxsplit=1)
                active = runtime.create_session(
                    parts[1] if len(parts) > 1 else None
                )
                print(f"[{active}] session opened")
            elif text.startswith(":use"):
                parts = text.split(maxsplit=1)
                if len(parts) < 2:
                    print("usage: :use <id>")
                    continue
                runtime.session(parts[1])  # validates id and TTL
                active = parts[1]
                print(f"[{active}] active")
            elif text == ":sessions":
                # peek, not get: listing must not refresh TTL/LRU.
                for sid in runtime.session_ids():
                    session = runtime.peek_session(sid)
                    marker = "*" if sid == active else " "
                    print(f" {marker} {sid}  turns={session.turn_count}")
            elif text.startswith(":close"):
                parts = text.split(maxsplit=1)
                target = parts[1] if len(parts) > 1 else active
                runtime.end_session(target)
                print(f"[{target}] closed")
                if target == active:
                    remaining = runtime.session_ids()
                    active = remaining[-1] if remaining else \
                        runtime.create_session()
                    print(f"[{active}] active")
            elif text == ":stats":
                stats = runtime.stats()
                for key, value in vars(stats).items():
                    print(f"  {key:24s} {value}")
                session_ids = runtime.session_ids()
                if session_ids:
                    print("  per-session (turns + turn latency):")
                for sid in session_ids:
                    s = runtime.session_stats(sid)
                    print(
                        f"    {sid}  turns={s.turns}  "
                        f"mean_turn={s.mean_turn_ms:.2f}ms  "
                        f"last_turn={s.last_turn_ms:.2f}ms  "
                        f"snapshot=v{s.snapshot_version}"
                    )
            elif text.startswith(":"):
                print(f"unknown command {text!r} (:help for help)")
            else:
                reply = runtime.respond(active, text)
                for line in reply.text.split("\n"):
                    print(f"bot> {line}")
        except (ServingError, UnknownSessionError) as exc:
            print(f"error: {exc}")


def _cmd_report() -> int:
    cat, __ = _build_cat()
    report = cat.report()
    print(f"tasks          : {report.n_tasks}")
    print(f"templates      : {report.n_templates}")
    print(f"NLU examples   : {report.n_nlu_examples}")
    print(f"dialogue flows : {report.n_flows}")
    print(f"intents        : {', '.join(report.intents)}")
    print(f"agent actions  : {', '.join(report.agent_actions)}")
    return 0


def _cmd_policies() -> int:
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

    config = MovieConfig(n_screenings=600, n_movies=80, extra_dimensions=6,
                         n_actors=80, n_days=30)
    database, annotations = build_movie_database(config)
    catalog = Catalog(database)
    task = TaskExtractor(catalog, annotations).extract(
        database.procedures.get("ticket_reservation")
    )
    lookup = task.lookup_for("screening_id")
    experiment = PolicyExperiment(database, catalog, annotations, lookup)
    table = ResultTable(
        "policy comparison (screening identification)",
        ["policy", "mean_turns", "success"],
    )
    policies = [
        DataAwarePolicy(lookup, UserAwarenessModel(annotations)),
        StaticPolicy.train(lookup, database, catalog, annotations),
        RandomPolicy(lookup, seed=7),
    ]
    for policy in policies:
        summary, __ = experiment.run(policy, n_episodes=40)
        table.add_row(summary.policy, summary.mean_turns,
                      summary.success_rate)
    table.show()
    return 0


def _cmd_snapshot(path: str, incremental: bool = False) -> int:
    from repro.datasets import build_movie_database
    from repro.db import dump_database, dump_incremental

    database, __ = build_movie_database()
    if incremental:
        dump_incremental(database, path)
        database.delta_log.close()
        print(f"wrote {path}/ (base image + delta log)")
    else:
        dump_database(database, path)
        print(f"wrote {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CAT reproduction: synthesize data-aware conversational "
        "agents for transactional databases",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("demo", help="run a scripted Section 5 booking")
    serve = sub.add_parser(
        "serve", help="interactive REPL: one or more sessions on the "
        "concurrent runtime"
    )
    serve.add_argument(
        "--session-ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help="expire sessions idle for this long (default: never)",
    )
    sub.add_parser("report", help="print the synthesis report")
    sub.add_parser("policies", help="compare slot-selection policies")
    snapshot = sub.add_parser("snapshot", help="dump the cinema database")
    snapshot.add_argument("path", help="output JSON file (or directory "
                          "with --incremental)")
    snapshot.add_argument(
        "--incremental",
        action="store_true",
        help="write a format-v4 snapshot directory (base image "
        "+ append-only delta log) instead of one JSON file",
    )
    args = parser.parse_args(argv)
    if args.command == "demo":
        return _cmd_demo()
    if args.command == "serve":
        return _cmd_serve(args.session_ttl)
    if args.command == "report":
        return _cmd_report()
    if args.command == "policies":
        return _cmd_policies()
    if args.command == "snapshot":
        return _cmd_snapshot(args.path, incremental=args.incremental)
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
