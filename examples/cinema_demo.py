"""The full demonstration scenario of Section 5.

Synthesizes the cinema agent and exercises all three transactions —
reserving tickets, cancelling a reservation and listing screenings —
plus the demo-video behaviours: misspelling correction, choice lists and
abort handling.  For an interactive REPL, run ``python -m repro serve``.

Run with::

    python examples/cinema_demo.py
"""

from repro import CAT, ConversationSession
from repro.datasets import build_movie_database, movie_templates
from repro.db import Param, select
from repro.db.query import eq


def build_agent():
    database, annotations = build_movie_database()
    cat = CAT(database, annotations)
    cat.add_template_catalog(movie_templates())
    agent = cat.synthesize()
    return database, agent


def scripted_demo(database, agent) -> None:
    def scenario(title, utterances):
        agent.reset()
        session = ConversationSession(agent)
        print(f"\n===== {title} =====")
        for utterance in utterances:
            session.say(utterance)
        print(session.format_transcript())
        executed = session.executed_results()
        if executed:
            print(f"-> executed: {[r.procedure for r in executed]}")

    scenario(
        "Scenario 1: reserve tickets (with misspelling correction)",
        [
            "hello",
            "i want to buy 2 tickets",
            "my name is alice",
            "my last name is quandt",
            "i want to watch forest gump",
            "the first one",
            "yes please",
        ],
    )

    # Read through the execution API: one connection, prepared
    # statements with named parameters, results read row by row.
    conn = database.connect()
    reservation = conn.execute(select("reservation")).fetchone()
    customer = conn.prepare(
        select("customer").where(eq("customer_id", Param("c")))
    ).execute(c=reservation["customer_id"]).fetchone()
    scenario(
        "Scenario 2: cancel a reservation",
        [
            "i need to cancel my reservation",
            f"my email is {customer['email']}",
            "1",
            "yes",
        ],
    )

    title = conn.execute(select("movie")).fetchmany(3)[2]["title"]
    scenario(
        "Scenario 3: list screenings (read-only, no confirmation)",
        [f"when is {title} playing"],
    )

    scenario(
        "Scenario 4: abort mid-task",
        [
            "i want to buy 5 tickets",
            "actually forget it",
            "goodbye",
        ],
    )


def main() -> None:
    print("synthesizing the cinema agent (trains NLU + DM) ...")
    database, agent = build_agent()
    scripted_demo(database, agent)


if __name__ == "__main__":
    main()
