"""Integration tests: full conversations with the synthesized agent.

These exercise the demo scenario of Section 5 (Figure 1): bookings,
cancellations, listings, aborts, corrections and misspellings.
"""

import pytest

from repro.agent import ConversationSession
from repro.dialogue import Phase


@pytest.fixture()
def session(trained_agent):
    __, agent = trained_agent
    agent.reset()
    return ConversationSession(agent)


def pick_customer(agent):
    return agent._database.rows("customer")[0]


def unique_screening_date(agent):
    """A (movie title, date) pair identifying exactly one screening."""
    from collections import Counter

    database = agent._database
    counts = Counter()
    for row in database.rows("screening"):
        movie = database.find_one("movie", "movie_id", row["movie_id"])
        counts[(movie["title"], row["date"], row["start_time"])] += 1
    for (title, date, time), count in counts.items():
        if count == 1:
            return title, date, time
    pytest.fail("no unique screening in fixture")


class TestGreetingsAndChitchat:
    def test_greet(self, session):
        reply = session.say("hello")
        assert "Hello" in reply.text

    def test_goodbye(self, session):
        reply = session.say("goodbye")
        assert "Goodbye" in reply.text

    def test_thanks(self, session):
        reply = session.say("thank you")
        assert "welcome" in reply.text.lower()

    def test_gibberish_asks_rephrase(self, session):
        reply = session.say("qwe rty uio zxcvb")
        assert "rephrase" in reply.text.lower() or reply.text


class TestBookingFlow:
    def test_full_booking(self, session, trained_agent):
        __, agent = trained_agent
        customer = pick_customer(agent)
        title, date, time = unique_screening_date(agent)

        session.say("hello")
        session.say("i want to buy 2 tickets")
        # Provide full identification for the customer.
        session.say(f"my email is {customer['email']}")
        session.say(f"i want to watch {title}")
        reply = session.say(f"on {date.isoformat()} at {time.strftime('%H:%M')}")
        # Might already be confirmed or need a choice; drive to execution.
        if agent.state.phase is Phase.CHOOSING:
            reply = session.say("the first one")
        if agent.state.phase is Phase.CONFIRMING:
            reply = session.say("yes please")
        executed = session.executed_results()
        assert executed, session.format_transcript()
        assert executed[0].procedure == "ticket_reservation"
        assert executed[0].arguments["ticket_amount"] == 2
        assert executed[0].arguments["customer_id"] == customer["customer_id"]

    def test_booking_writes_to_database(self, session, trained_agent):
        __, agent = trained_agent
        database = agent._database
        before = database.count("reservation")
        customer = pick_customer(agent)
        title, date, time = unique_screening_date(agent)
        session.say("i want to buy 1 ticket")
        session.say(f"my email is {customer['email']}")
        session.say(f"the movie title is {title}")
        session.say(f"on {date.isoformat()} at {time.strftime('%H:%M')}")
        if agent.state.phase is Phase.CHOOSING:
            session.say("1")
        if agent.state.phase is Phase.CONFIRMING:
            session.say("yes")
        assert database.count("reservation") == before + 1

    def test_misspelled_title_corrected(self, session, trained_agent):
        __, agent = trained_agent
        session.say("i want to buy 2 tickets")
        reply = session.say("i want to watch forest gump")
        assert "Forrest Gump" in reply.text

    def test_deny_at_confirm_restarts(self, session, trained_agent):
        __, agent = trained_agent
        customer = pick_customer(agent)
        title, date, time = unique_screening_date(agent)
        session.say("i want to buy 2 tickets")
        session.say(f"my email is {customer['email']}")
        session.say(f"the movie title is {title}")
        session.say(f"on {date.isoformat()} at {time.strftime('%H:%M')}")
        if agent.state.phase is Phase.CHOOSING:
            session.say("1")
        if agent.state.phase is Phase.CONFIRMING:
            reply = session.say("no that is wrong")
            assert agent.state.phase in (Phase.GATHERING, Phase.CHOOSING)
            assert not session.executed_results()


class TestAbort:
    def test_abort_clears_task(self, session, trained_agent):
        __, agent = trained_agent
        session.say("i want to buy 3 tickets")
        reply = session.say("forget it")
        assert agent.state.task is None
        assert not session.executed_results()

    def test_abort_then_new_task(self, session, trained_agent):
        __, agent = trained_agent
        session.say("i want to buy 3 tickets")
        session.say("never mind")
        session.say("i want to buy 2 tickets")
        assert agent.state.task is not None
        assert agent.state.collected.get("ticket_amount") == 2


class TestListScreenings:
    def test_listing_executes_without_confirmation(self, session, trained_agent):
        __, agent = trained_agent
        database = agent._database
        title = database.rows("movie")[0]["title"]
        session.say(f"when is {title} playing")
        # Read-only task: executes as soon as the movie is identified.
        transcript = session.format_transcript()
        executed = session.executed_results()
        if not executed:
            # The movie may still need narrowing; answer one question.
            session.say(title)
            executed = session.executed_results()
        assert executed, transcript
        assert executed[0].procedure == "list_screenings"


class TestCancellation:
    def test_cancel_flow(self, session, trained_agent):
        __, agent = trained_agent
        database = agent._database
        reservation = database.rows("reservation")[0]
        customer = database.find_one(
            "customer", "customer_id", reservation["customer_id"]
        )
        before = database.count("reservation")
        session.say("i want to cancel my reservation")
        session.say(f"my email is {customer['email']}")
        for __ in range(6):
            if agent.state.phase is Phase.CHOOSING:
                session.say("the first one")
            elif agent.state.phase is Phase.CONFIRMING:
                session.say("yes")
            elif agent.state.task is None:
                break
            else:
                session.say("i do not know")
        if session.executed_results():
            assert database.count("reservation") == before - 1


class TestVolunteeredInformation:
    def test_info_before_task_is_buffered(self, session, trained_agent):
        __, agent = trained_agent
        database = agent._database
        title = database.rows("movie")[0]["title"]
        session.say(f"the movie title is {title}")
        session.say("i want to buy 2 tickets")
        # The buffered title must be applied once screening
        # identification starts; we simply require the conversation to
        # progress without re-asking for the title.
        transcript = session.format_transcript().lower()
        assert "rephrase" not in transcript.split("\n")[-1]

    def test_awareness_learns_from_dont_know(self, session, trained_agent):
        __, agent = trained_agent
        session.say("i want to buy 2 tickets")
        reply_text = session.transcript[-1].agent
        # Answer don't-know to whatever was asked; awareness must update.
        observed_before = len(agent.awareness.observed_attributes())
        session.say("i do not know")
        assert len(agent.awareness.observed_attributes()) >= observed_before


class TestBlankReply:
    """A blank utterance answers nothing: the open question is asked
    again, and neither the candidates nor the awareness model move."""

    def test_blank_reply_repeats_the_open_question(self, session, trained_agent):
        __, agent = trained_agent
        customer = pick_customer(agent)
        session.say("I want to book tickets")
        reply = session.say(customer["email"])
        identification = agent.state.identification
        question = identification.pending_question
        assert question is not None and question.table != "customer"
        asked = set(identification.asked)
        candidates = identification.candidates
        observations = agent.awareness.estimate(question).observations
        for blank in ("   ", ""):
            repeated = session.say(blank)
            assert repeated.text.splitlines()[-1] == reply.text.splitlines()[-1]
            identification = agent.state.identification
            assert identification.pending_question == question
            assert identification.asked == asked
            assert identification.candidates is candidates
            assert agent.awareness.estimate(question).observations == observations
