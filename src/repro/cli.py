"""Command-line interface: ``python -m repro <command>``.

Commands mirror the demo workflow of Section 5:

* ``demo``      — synthesize the cinema agent and run a scripted booking.
* ``chat``      — synthesize the cinema agent and chat interactively.
* ``serve``     — multi-session REPL on the concurrent agent runtime.
* ``report``    — print the synthesis report (tasks, data, actions).
* ``policies``  — compare data-aware / static / random slot selection.
* ``snapshot``  — dump the cinema database to a JSON file.
* ``explain``   — show the cost-based plan the query engine picks.
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


def _cmd_chat() -> int:
    from repro import ConversationSession

    __, agent = _build_cat()
    session = ConversationSession(agent)
    print("Chat with the cinema agent (ctrl-d or 'quit' to leave).")
    while True:
        try:
            text = input("you> ").strip()
        except EOFError:
            return 0
        if not text or text.lower() in ("quit", "exit"):
            return 0
        reply = session.say(text)
        for line in reply.text.split("\n"):
            print(f"bot> {line}")


_SERVE_HELP = """\
Multi-session mode. One synthesized agent serves every session; each
session has its own dialogue state and awareness model.

  :new [id]     open a session (and switch to it)
  :use <id>     switch the active session
  :sessions     list live sessions
  :close <id>   end a session
  :stats        runtime + per-session connection counters
  :advisor      ranked CREATE INDEX suggestions from observed scans
  :help         this text
  :quit         leave
Anything else is sent to the active session."""

_SHARD_HELP = """\
Sharded mode: session ids hash across worker processes, each hosting
its own runtime over a database replica (affinity: a session's turns
all land on its worker).

  :new [id]     open a session (and switch to it)
  :use <id>     switch the active session
  :sessions     list live sessions (all workers)
  :close <id>   end a session
  :stats        per-worker turn counts, commit waits
  :help         this text
  :quit         leave
Anything else is sent to the active session."""


def _shard_worker_runtime(snapshot_path):
    """Spawn-safe shard bootstrap: replica from snapshot + synthesis.

    Fork-style workers never call this — they inherit the parent's
    already-synthesized agent; spawn-style workers rebuild from the
    incremental snapshot directory (base image + delta log) the
    parent wrote, restoring without a full re-synthesis pass.
    """
    from repro import CAT
    from repro.datasets import movie_templates, restore_movie_database

    database, annotations = restore_movie_database(snapshot_path)
    cat = CAT(database, annotations)
    cat.add_template_catalog(movie_templates())
    return cat.synthesize_runtime()


def _cmd_serve_sharded(session_ttl: float | None, workers: int) -> int:
    import multiprocessing
    import tempfile

    from repro.errors import ServingError, UnknownSessionError
    from repro.serving import AgentRuntime, ShardRouter

    cat, agent = _build_cat()

    if "fork" in multiprocessing.get_all_start_methods():
        # Fork workers inherit the synthesized agent (copy-on-write
        # replica) — worker start is effectively free.
        def bootstrap():
            return AgentRuntime.for_agent(agent, session_ttl=session_ttl)

        router = ShardRouter(workers, bootstrap, start_method="fork")
    else:  # pragma: no cover - non-fork platforms
        # Incremental (v4) snapshot directory: workers restore the
        # base image and replay the delta log instead of
        # re-synthesizing, so spawn start stays fast.
        directory = tempfile.mkdtemp(prefix="repro-shard-")
        from repro.db import dump_incremental

        dump_incremental(agent._database, directory)
        router = ShardRouter(
            workers,
            "repro.cli:_shard_worker_runtime",
            bootstrap_arg=directory,
            start_method="spawn",
        )

    with router:
        active = router.create_session()
        print(_SHARD_HELP)
        print(f"{workers} workers up")
        print(f"[{active}] session opened (worker {router.shard_of(active)})")
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
                    print(_SHARD_HELP)
                elif text.startswith(":new"):
                    parts = text.split(maxsplit=1)
                    active = router.create_session(
                        parts[1] if len(parts) > 1 else None
                    )
                    print(
                        f"[{active}] session opened "
                        f"(worker {router.shard_of(active)})"
                    )
                elif text.startswith(":use"):
                    parts = text.split(maxsplit=1)
                    if len(parts) < 2:
                        print("usage: :use <id>")
                        continue
                    active = parts[1]
                    print(f"[{active}] active")
                elif text == ":sessions":
                    for sid in router.session_ids():
                        marker = "*" if sid == active else " "
                        print(
                            f" {marker} {sid}  "
                            f"worker={router.shard_of(sid)}"
                        )
                elif text.startswith(":close"):
                    parts = text.split(maxsplit=1)
                    target = parts[1] if len(parts) > 1 else active
                    router.end_session(target)
                    print(f"[{target}] closed")
                elif text == ":stats":
                    stats = router.stats()
                    print(
                        f"  turns_served             {stats.turns_served}"
                    )
                    print(
                        f"  live_sessions            {stats.live_sessions}"
                    )
                    for w in stats.workers:
                        print(
                            f"    worker {w.worker}: turns={w.turns_served}  "
                            f"sessions={w.live_sessions}  "
                            f"snapshot_version={w.snapshot_version}  "
                            f"commit_waits={w.commit_waits}  "
                            f"txns={w.transactions_committed}"
                            f"/{w.transactions_aborted} aborted"
                        )
                elif text.startswith(":"):
                    print(f"unknown command {text!r} (:help for help)")
                else:
                    reply = router.respond(active, text)
                    for line in reply.text.split("\n"):
                        print(f"bot> {line}")
            except (ServingError, UnknownSessionError) as exc:
                print(f"error: {exc}")


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
                    print("  per-session (connection stats + turn latency):")
                for sid in session_ids:
                    s = runtime.session_stats(sid)
                    lookups = s.plan_cache_hits + s.plan_cache_misses
                    print(
                        f"    {sid}  turns={s.turns}  "
                        f"plan_cache={s.plan_cache_hits}/{lookups} hits "
                        f"({s.plan_cache_hit_rate:.0%})  "
                        f"statements={s.executions}  "
                        f"mean_turn={s.mean_turn_ms:.2f}ms  "
                        f"last_turn={s.last_turn_ms:.2f}ms  "
                        f"snapshot=v{s.snapshot_version}"
                    )
            elif text == ":advisor":
                suggestions = runtime.advisor()
                if not suggestions:
                    print("  no index suggestions (no advisable scans seen)")
                for s in suggestions:
                    print(
                        f"  {s.statement}  "
                        f"[{s.misses} scans, ~{s.rows_scanned} rows walked]"
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
    from repro.db import Catalog, StatisticsCatalog
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
        DataAwarePolicy(lookup, UserAwarenessModel(annotations),
                        StatisticsCatalog(database)),
        StaticPolicy.train(lookup, database, catalog, annotations),
        RandomPolicy(lookup, seed=7),
    ]
    for policy in policies:
        summary, __ = experiment.run(policy, n_episodes=40)
        table.add_row(summary.policy, summary.mean_turns,
                      summary.success_rate)
    table.show()
    return 0


_EXPLAIN_OPS = (">=", "<=", "!=", "==", "~", ">", "<", "=")

_EXPLAIN_DEMOS = [
    "screening --where date>=2022-03-27 --where date<=2022-03-30",
    "screening --where screening_id=5",
    "screening --join movie_id:movie:movie_id --where movie.year>1990 "
    "--order-by date --limit 5",
    "screening --where room='room A' --count",
    "movie --order-by year --desc --limit 3 --select title,year",
    # Aggregate pushdown: bucket-walking group-by and index-only MIN/MAX.
    "reservation --agg booked=sum:no_tickets --group-by screening_id",
    "screening --agg lo=min:price --agg hi=max:price --agg n=count",
    # A filtered group-by streams through the group-hash aggregate.
    "reservation --where no_tickets>=2 --agg booked=sum:no_tickets "
    "--group-by screening_id",
    # Aggregate pushdown below joins: a NOT NULL FK join is elided, a
    # group-keyed join onto a unique column becomes a per-group semi
    # probe above the aggregate.
    "reservation --join screening_id:screening:screening_id "
    "--agg booked=sum:no_tickets --group-by screening_id",
    "movie --join language_id:language:language_id "
    "--agg n=count --group-by language_id",
    # HAVING: a post-aggregate Filter selecting on the aggregate output.
    "reservation --agg booked=sum:no_tickets --group-by screening_id "
    "--having booked>=10",
    # OR of indexable equalities: a union of hash-index probes.
    "screening --where \"room='room A'|movie_id=3\"",
    # Three joins: the planner orders them by estimated cardinality.
    "screening --join screening_id:reservation:screening_id "
    "--join movie_id:movie:movie_id "
    "--join movie.language_id:language:language_id",
]

_AGG_KINDS = ("count", "sum", "avg", "min", "max", "count_distinct")


def _parse_explain_value(text: str):
    from repro.db import DataType, coerce
    from repro.errors import TypeMismatchError

    text = text.strip().strip("'\"")
    for dtype in (DataType.INTEGER, DataType.FLOAT, DataType.DATE,
                  DataType.TIME):
        try:
            return coerce(text, dtype)
        except TypeMismatchError:
            continue
    return text


def _split_disjuncts(text: str) -> list[str]:
    """Split on ``|`` outside quotes, so quoted values may contain pipes."""
    parts: list[str] = []
    buf: list[str] = []
    quote = None
    for ch in text:
        if quote is not None:
            buf.append(ch)
            if ch == quote:
                quote = None
        elif ch in "'\"":
            quote = ch
            buf.append(ch)
        elif ch == "|":
            parts.append("".join(buf))
            buf = []
        else:
            buf.append(ch)
    parts.append("".join(buf))
    return parts


def _parse_explain_condition(text: str):
    from repro.db import query as q
    from repro.errors import QueryError

    disjuncts = _split_disjuncts(text)
    if len(disjuncts) > 1:
        # A disjunction: cond|cond|...  (e.g. "room='room A'|movie_id=3")
        return q.or_(
            *[_parse_explain_condition(part) for part in disjuncts]
        )
    for op in _EXPLAIN_OPS:
        if op in text:
            column, __, value = text.partition(op)
            column = column.strip()
            parsed = _parse_explain_value(value)
            if op == "~":
                return q.contains(column, str(parsed))
            op = "==" if op == "=" else op
            return q.Comparison(column, op, parsed)
    raise QueryError(
        f"cannot parse condition {text!r} (use column<op>value with one of "
        f"{', '.join(_EXPLAIN_OPS)})"
    )


def _parse_aggregates(specs):
    """``name=kind[:column]`` strings into an Aggregate dict (or an error)."""
    from repro.db import aggregation

    factories = {
        "count": lambda column: aggregation.count(),
        "sum": aggregation.sum_,
        "avg": aggregation.avg,
        "min": aggregation.min_,
        "max": aggregation.max_,
        "count_distinct": aggregation.count_distinct,
    }
    aggregates = {}
    for item in specs:
        name, sep, rest = item.partition("=")
        kind, __, column = rest.partition(":")
        name, kind, column = name.strip(), kind.strip(), column.strip()
        if not sep or not name or kind not in _AGG_KINDS:
            return None, (
                f"bad --agg {item!r} (expected name=kind[:column] with "
                f"kind one of {', '.join(_AGG_KINDS)})"
            )
        if kind == "count":
            if column:
                return None, f"bad --agg {item!r} (count takes no column)"
            aggregates[name] = factories[kind](None)
        else:
            if not column:
                return None, f"bad --agg {item!r} ({kind} needs a column)"
            aggregates[name] = factories[kind](column)
    return aggregates, None


def _explain_one(database, args) -> int:
    from repro.db import api
    from repro.errors import DatabaseError

    if args.group_by and not args.agg:
        print("--group-by requires at least one --agg")
        return 2
    if args.having and not args.agg:
        print("--having requires at least one --agg")
        return 2
    if args.agg and args.count:
        print("--count cannot be combined with --agg "
              "(use --agg n=count instead)")
        return 2
    try:
        if args.agg:
            aggregates, error = _parse_aggregates(args.agg)
            if aggregates is None:
                print(error)
                return 2
            statement = api.aggregate(args.table, aggregates)
        else:
            statement = api.select(args.table)
        for condition in args.where or ():
            statement.where(_parse_explain_condition(condition))
        for join in args.join or ():
            parts = join.split(":")
            if len(parts) != 3:
                print(f"bad --join {join!r} (expected column:table:target)")
                return 2
            statement.join(*parts)
        if args.order_by:
            statement.order_by(args.order_by, descending=args.desc)
        if args.limit is not None:
            statement.limit(args.limit)
        if args.select:
            statement.project(*[c.strip() for c in args.select.split(",")])
        if args.count:
            statement.count()
        if args.group_by:
            statement.group_by(
                *[c.strip() for c in args.group_by.split(",")]
            )
        if args.having:
            from repro.db.query import and_

            statement.having(
                and_(*[_parse_explain_condition(c) for c in args.having])
            )
        # The unified path: compile + fingerprint once, explain the
        # plan the statement would execute.
        print(database.default_connection.prepare(statement).explain())
    except DatabaseError as exc:
        print(f"error: {exc}")
        return 2
    return 0


def _cmd_explain(args) -> int:
    import shlex

    from repro.datasets import build_movie_database

    database, __ = build_movie_database()
    if args.table is not None:
        return _explain_one(database, args)
    # No table given: walk the showcase queries.
    parser = _make_explain_parser(argparse.ArgumentParser(prog="explain"))
    for demo in _EXPLAIN_DEMOS:
        print(f"$ python -m repro explain {demo}")
        status = _explain_one(database, parser.parse_args(shlex.split(demo)))
        if status != 0:
            return status
        print()
    return 0


def _make_explain_parser(parser):
    parser.add_argument("table", nargs="?", default=None,
                        help="root table (omit to show showcase plans)")
    parser.add_argument("--where", action="append", metavar="COND",
                        help="condition, e.g. date>=2022-03-27 or title~gump")
    parser.add_argument("--join", action="append", metavar="COL:TABLE:TARGET",
                        help="equi-join root.COL = TABLE.TARGET")
    parser.add_argument("--order-by", metavar="COLUMN")
    parser.add_argument("--desc", action="store_true")
    parser.add_argument("--limit", type=int, metavar="N")
    parser.add_argument("--select", metavar="COL,COL")
    parser.add_argument("--count", action="store_true",
                        help="plan COUNT(*) instead of row retrieval")
    parser.add_argument("--agg", action="append", metavar="NAME=KIND[:COL]",
                        help="aggregate, e.g. booked=sum:no_tickets or "
                        "n=count (repeatable)")
    parser.add_argument("--group-by", metavar="COL,COL",
                        help="group the aggregates by these columns")
    parser.add_argument("--having", action="append", metavar="COND",
                        help="post-aggregate condition over the aggregate "
                        "output, e.g. booked>=10 (repeatable)")
    return parser


def _cmd_snapshot(path: str, incremental: bool = False) -> int:
    from repro.datasets import build_movie_database
    from repro.db import dump_database, dump_incremental

    database, __ = build_movie_database()
    if incremental:
        dump_incremental(database, path)
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
    sub.add_parser("chat", help="chat with the cinema agent")
    serve = sub.add_parser(
        "serve", help="multi-session REPL on the concurrent runtime"
    )
    serve.add_argument(
        "--session-ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help="expire sessions idle for this long (default: never)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help="shard sessions across N worker processes "
        "(default: 0 = single-process threaded runtime)",
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
    _make_explain_parser(
        sub.add_parser(
            "explain",
            help="show the cost-based query plan on the cinema database",
        )
    )

    args = parser.parse_args(argv)
    if args.command == "demo":
        return _cmd_demo()
    if args.command == "chat":
        return _cmd_chat()
    if args.command == "serve":
        if args.workers > 0:
            return _cmd_serve_sharded(args.session_ttl, args.workers)
        return _cmd_serve(args.session_ttl)
    if args.command == "report":
        return _cmd_report()
    if args.command == "policies":
        return _cmd_policies()
    if args.command == "snapshot":
        return _cmd_snapshot(args.path, incremental=args.incremental)
    if args.command == "explain":
        return _cmd_explain(args)
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
