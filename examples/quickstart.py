"""Quickstart: synthesize an agent and hold the Figure 1 conversation.

Run with::

    python examples/quickstart.py
"""

from repro import CAT, ConversationSession
from repro.datasets import build_movie_database, movie_templates
from repro.db import Param, api, select
from repro.db.aggregation import sum_
from repro.db.query import eq


def main() -> None:
    # 1. An OLTP database with stored procedures (the cinema of Figure 3).
    database, annotations = build_movie_database()

    # 2. Synthesize the agent: the only manual inputs are the schema
    #    annotations (already bundled with the dataset) and a handful of
    #    NL templates per intent.
    cat = CAT(database, annotations)
    cat.add_template_catalog(movie_templates())
    agent = cat.synthesize()
    report = cat.report()
    print(
        f"synthesized agent: {report.n_tasks} tasks, "
        f"{report.n_nlu_examples} NLU examples, {report.n_flows} dialogue "
        f"flows\n"
    )

    # 3. Talk to it (the exemplary dialogue of Figure 1).
    session = ConversationSession(agent)
    for utterance in [
        "hello",
        "I want to buy 4 tickets for today",
        "my name is alice",
        "my last name is quandt",
        "i want to watch forest gump",   # misspelled on purpose
        "the first one",
        "yes please",
        "thanks, goodbye",
    ]:
        session.say(utterance)
    print(session.format_transcript())

    executed = session.executed_results()
    if executed:
        print(f"\nexecuted transactions: {[r.procedure for r in executed]}")

    # 4. Inspect the database through the unified execution API:
    #    connect -> prepare -> execute -> stream.  The statement is
    #    compiled once; each execute just binds its parameters.
    conn = database.connect()
    reservations = conn.prepare(
        select("reservation").where(eq("screening_id", Param("s")))
    )
    booked = conn.prepare(
        api.aggregate("reservation", seats=sum_("no_tickets")).where(
            eq("screening_id", Param("s"))
        )
    )
    for screening in conn.execute(select("screening")).fetchmany(3):
        sid = screening["screening_id"]
        rows = reservations.execute(s=sid).all()
        seats = booked.execute(s=sid).scalar()
        print(
            f"screening {sid}: {len(rows)} reservations, {seats} seats booked"
        )
    stats = conn.stats()
    print(
        f"connection stats: {stats.executions} statements executed, "
        f"{stats.plan_cache_hits} of them reused their statement's plan"
    )


if __name__ == "__main__":
    main()
