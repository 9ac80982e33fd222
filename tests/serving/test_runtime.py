"""Integration tests for the concurrent multi-session AgentRuntime.

Session isolation is the acceptance bar: interleaved cinema dialogues in
different sessions must never see each other's slots, choices or
awareness updates, and ≥16 sessions must be servable concurrently.
"""

import threading
from collections import Counter

import pytest

from repro.dialogue import Phase
from repro.errors import UnknownSessionError
from repro.serving import AgentRuntime


@pytest.fixture()
def runtime(trained_agent):
    __, agent = trained_agent
    return AgentRuntime.for_agent(agent)


def unique_screenings(database, limit):
    """Up to ``limit`` (title, date, time) triples naming one screening."""
    counts = Counter()
    for row in database.rows("screening"):
        movie = database.find_one("movie", "movie_id", row["movie_id"])
        counts[(movie["title"], row["date"], row["start_time"])] += 1
    return [key for key, count in counts.items() if count == 1][:limit]


def drive_to_completion(runtime, sid, max_turns=8):
    """Answer choice lists / confirmations until the task finishes."""
    for __ in range(max_turns):
        state = runtime.session(sid).context.state
        if state.task is None:
            return
        if state.phase is Phase.CHOOSING:
            runtime.respond(sid, "the first one")
        elif state.phase is Phase.CONFIRMING:
            runtime.respond(sid, "yes please")
        else:
            return


class TestSessionIsolation:
    def test_interleaved_slots_do_not_leak(self, runtime):
        a = runtime.create_session()
        b = runtime.create_session()

        runtime.respond(a, "i want to buy 2 tickets")
        runtime.respond(b, "i want to buy 5 tickets")
        runtime.respond(a, "my name is alice")
        runtime.respond(b, "my name is bob")

        state_a = runtime.session(a).context.state
        state_b = runtime.session(b).context.state
        assert state_a.collected["ticket_amount"] == 2
        assert state_b.collected["ticket_amount"] == 5
        assert state_a is not state_b
        assert state_a.identification is not state_b.identification

    def test_abort_in_one_session_keeps_the_other(self, runtime):
        a = runtime.create_session()
        b = runtime.create_session()
        runtime.respond(a, "i want to buy 2 tickets")
        runtime.respond(b, "i want to buy 3 tickets")
        runtime.respond(a, "never mind, forget it")
        assert runtime.session(a).context.state.task is None
        state_b = runtime.session(b).context.state
        assert state_b.task is not None
        assert state_b.collected["ticket_amount"] == 3

    def test_choice_phase_does_not_leak(self, runtime, trained_agent):
        """One session in CHOOSING must not trap the other session."""
        __, agent = trained_agent
        title = agent._database.rows("movie")[0]["title"]
        a = runtime.create_session()
        b = runtime.create_session()
        runtime.respond(a, "i want to buy 2 tickets")
        runtime.respond(a, f"i want to watch {title}")
        phase_a = runtime.session(a).context.state.phase
        reply = runtime.respond(b, "hello")
        assert "Hello" in reply.text
        assert runtime.session(b).context.state.phase is not Phase.CHOOSING
        assert runtime.session(a).context.state.phase is phase_a

    def test_awareness_updates_stay_per_session(self, runtime):
        a = runtime.create_session()
        b = runtime.create_session()
        runtime.respond(a, "i want to buy 2 tickets")
        runtime.respond(b, "i want to buy 2 tickets")
        runtime.respond(a, "i do not know")

        awareness_a = runtime.session(a).context.awareness
        awareness_b = runtime.session(b).context.awareness
        assert awareness_a is not awareness_b
        assert len(awareness_a.observed_attributes()) >= 1
        assert awareness_b.observed_attributes() == []

    def test_full_interleaved_bookings(self, runtime, trained_agent):
        __, agent = trained_agent
        database = agent._database
        screenings = unique_screenings(database, 2)
        if len(screenings) < 2:
            pytest.skip("fixture database lacks two unique screenings")
        customers = database.rows("customer")[:2]
        sessions = [runtime.create_session() for __ in range(2)]

        # Interleave the two bookings turn by turn.
        amounts = [2, 3]
        for turn in range(4):
            for i, sid in enumerate(sessions):
                title, date, time = screenings[i]
                script = [
                    f"i want to buy {amounts[i]} tickets",
                    f"my email is {customers[i]['email']}",
                    f"the movie title is {title}",
                    f"on {date.isoformat()} at {time.strftime('%H:%M')}",
                ]
                runtime.respond(sid, script[turn])
        for sid in sessions:
            drive_to_completion(runtime, sid)

        for i, sid in enumerate(sessions):
            executed = [
                turn.executed
                for turn in runtime.transcript(sid)
                if turn.executed is not None
            ]
            assert executed, f"session {i} booked nothing"
            assert executed[0].procedure == "ticket_reservation"
            assert executed[0].arguments["ticket_amount"] == amounts[i]
            assert (
                executed[0].arguments["customer_id"]
                == customers[i]["customer_id"]
            )


class TestConcurrentServing:
    N_SESSIONS = 16

    def test_concurrent_sessions_serve_and_isolate(self, runtime):
        """16 threads, one session each, fully concurrent turns."""
        sids = [runtime.create_session() for __ in range(self.N_SESSIONS)]
        errors = []
        barrier = threading.Barrier(self.N_SESSIONS)

        def converse(index, sid):
            try:
                barrier.wait(timeout=30)
                amount = (index % 7) + 1
                runtime.respond(sid, "hello")
                runtime.respond(sid, f"i want to buy {amount} tickets")
                state = runtime.session(sid).context.state
                assert state.collected["ticket_amount"] == amount, (
                    f"session {sid} saw {state.collected}"
                )
                runtime.respond(sid, "never mind, forget it")
                assert runtime.session(sid).context.state.task is None
            except Exception as exc:  # pragma: no cover - failure path
                errors.append((sid, exc))

        threads = [
            threading.Thread(target=converse, args=(i, sid))
            for i, sid in enumerate(sids)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors, errors
        assert runtime.session_count == self.N_SESSIONS
        stats = runtime.stats()
        assert stats.turns_served >= 3 * self.N_SESSIONS
        for sid in sids:
            assert all(
                turn.agent.strip() for turn in runtime.transcript(sid)
            ), f"silent reply in session {sid}"

    def test_concurrent_bookings_serialize_transactions(
        self, runtime, trained_agent
    ):
        """Parallel sessions executing real transactions stay correct."""
        __, agent = trained_agent
        database = agent._database
        screenings = unique_screenings(database, 4)
        customers = database.rows("customer")[:len(screenings)]
        if len(screenings) < 2:
            pytest.skip("fixture database lacks unique screenings")
        before = database.count("reservation")
        errors = []

        def book(i):
            try:
                title, date, time = screenings[i]
                sid = runtime.create_session()
                runtime.respond(sid, "i want to buy 1 ticket")
                runtime.respond(sid, f"my email is {customers[i]['email']}")
                runtime.respond(sid, f"the movie title is {title}")
                runtime.respond(
                    sid,
                    f"on {date.isoformat()} at {time.strftime('%H:%M')}",
                )
                drive_to_completion(runtime, sid)
                return
            except Exception as exc:  # pragma: no cover - failure path
                errors.append((i, exc))

        threads = [
            threading.Thread(target=book, args=(i,))
            for i in range(len(screenings))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors, errors
        booked = database.count("reservation") - before
        assert booked == len(screenings)


class TestStaleCandidates:
    def test_concurrent_delete_does_not_crash_other_session(
        self, runtime, trained_agent
    ):
        """A row deleted by one session between another session's turns
        must not crash the surviving session's next turn."""
        __, agent = trained_agent
        database = agent._database
        # Find a customer with at least two reservations so that session
        # A is mid-identification (not yet unique) when B deletes one.
        from collections import Counter

        per_customer = Counter(
            row["customer_id"] for row in database.rows("reservation")
        )
        customer_id, count = per_customer.most_common(1)[0]
        if count < 2:
            pytest.skip("fixture lacks a customer with two reservations")
        customer = database.find_one("customer", "customer_id", customer_id)

        a = runtime.create_session()
        runtime.respond(a, "i want to cancel my reservation")
        runtime.respond(a, f"my email is {customer['email']}")
        session_a = runtime.peek_session(a)
        identification = session_a.context.state.identification
        if identification is None or identification.candidates.table != (
            "reservation"
        ):
            pytest.skip("dialogue did not reach reservation identification")
        stale_rid = identification.candidates.row_ids[0]

        # "Session B": a committed cancel of one of A's candidates.
        reservation_id = database.table("reservation").get(stale_rid)[
            "reservation_id"
        ]
        database.procedures.call(
            "cancel_reservation", reservation_id=reservation_id
        )
        assert not database.table("reservation").has_row(stale_rid)

        # A's next turn must survive and move on without the stale row.
        reply = runtime.respond(a, "the first one")
        assert reply.text.strip()
        state = runtime.peek_session(a).context.state
        if state.identification is not None:
            assert stale_rid not in state.identification.candidates.row_ids


class TestRuntimeSessionManagement:
    def test_respond_on_unknown_session_raises(self, runtime):
        with pytest.raises(UnknownSessionError):
            runtime.respond("ghost", "hello")

    def test_end_session_frees_it(self, runtime):
        sid = runtime.create_session()
        runtime.respond(sid, "hello")
        runtime.end_session(sid)
        with pytest.raises(UnknownSessionError):
            runtime.respond(sid, "hello again")

    def test_stats_counts_turns(self, runtime):
        sid = runtime.create_session()
        runtime.respond(sid, "hello")
        runtime.respond(sid, "goodbye")
        stats = runtime.stats()
        assert stats.turns_served >= 2
        assert stats.live_sessions >= 1
        assert stats.sessions_created >= 1

    def test_transcripts_recorded_per_session(self, runtime):
        a = runtime.create_session()
        b = runtime.create_session()
        runtime.respond(a, "hello")
        runtime.respond(b, "goodbye")
        assert [t.user for t in runtime.transcript(a)] == ["hello"]
        assert [t.user for t in runtime.transcript(b)] == ["goodbye"]

    def _book(self, runtime, trained_agent, sid, triple):
        """Drive one complete ticket booking in ``sid``."""
        __, agent = trained_agent
        customer = agent._database.rows("customer")[0]
        title, date, start_time = triple
        runtime.respond(sid, "i want to buy 2 tickets")
        runtime.respond(sid, f"my email is {customer['email']}")
        runtime.respond(sid, f"the movie title is {title}")
        runtime.respond(
            sid, f"on {date.isoformat()} at {start_time.strftime('%H:%M')}"
        )
        drive_to_completion(runtime, sid)
        executed = [
            turn.executed
            for turn in runtime.transcript(sid)
            if turn.executed is not None
        ]
        assert executed and executed[0].procedure == "ticket_reservation"

    def test_stats_expose_plan_cache_counters(
        self, runtime, trained_agent
    ):
        # Executing the reservation runs the booked-seats aggregate, a
        # prepared statement on the default connection, whatever other
        # caches absorb.
        __, agent = trained_agent
        triples = unique_screenings(agent._database, 1)
        sid = runtime.create_session()
        before = runtime.stats()
        self._book(runtime, trained_agent, sid, triples[0])
        stats = runtime.stats()
        assert stats.plan_cache_hits > before.plan_cache_hits
        default = runtime.database.default_connection.stats()
        assert (stats.plan_cache_hits, stats.plan_cache_misses) == (
            default.plan_cache_hits, default.plan_cache_misses)

    def test_second_booking_compiles_no_template(
        self, runtime, trained_agent
    ):
        # Templates read index DDL, not rows: the first booking's commit
        # to reservation keeps the template of every statement the next
        # booking runs, the booked-seats aggregate planned in its
        # transaction too.
        __, agent = trained_agent
        triples = unique_screenings(agent._database, 2)
        if len(triples) < 2:
            pytest.skip("fixture database lacks two unique screenings")
        self._book(runtime, trained_agent, runtime.create_session(),
                   triples[0])
        misses = runtime.stats().plan_cache_misses
        self._book(runtime, trained_agent, runtime.create_session(),
                   triples[1])
        assert runtime.stats().plan_cache_misses == misses

    def test_session_stats_count_turns_and_latency(
        self, runtime, trained_agent
    ):
        __, agent = trained_agent
        triples = unique_screenings(agent._database, 1)
        a = runtime.create_session()
        b = runtime.create_session()
        self._book(runtime, trained_agent, a, triples[0])
        stats_a = runtime.session_stats(a)
        stats_b = runtime.session_stats(b)
        assert stats_a.turns >= 4
        assert stats_a.mean_turn_ms > 0.0
        assert stats_a.last_turn_ms > 0.0
        # The idle session accrued no turns and no latency.
        assert stats_b.turns == 0
        assert stats_b.mean_turn_ms == 0.0
        assert stats_b.last_turn_ms == 0.0

    def test_compat_single_session_api_still_works(self, trained_agent):
        """The classic CAT.synthesize() -> agent.respond() path."""
        __, agent = trained_agent
        agent.reset()
        reply = agent.respond("hello")
        assert "Hello" in reply.text
        agent.respond("i want to buy 2 tickets")
        assert agent.state.collected["ticket_amount"] == 2
        agent.reset()
        assert agent.state.task is None


class TestSessionConnections:
    """Sessions hold Connections: the unified execution API threaded
    through the serving runtime."""

    def test_sessions_hold_distinct_connections(self, runtime):
        a = runtime.create_session()
        b = runtime.create_session()
        conn_a = runtime.session_connection(a)
        conn_b = runtime.session_connection(b)
        assert conn_a is not conn_b
        assert conn_a.name == a
        assert conn_a.database is runtime.database

    def test_turn_traffic_lands_on_the_default_connection(self, runtime):
        # Commit a write to customer (a first name rewritten to itself):
        # linking "alice" must then rebuild the customer-name pool inside
        # the turn, and the pool's pooled statement runs on the default
        # connection, which every session shares.
        database = runtime.database
        rid = database.table("customer").row_ids()[0]
        first_name = database.table("customer").get(rid)["first_name"]
        database.update("customer", rid, {"first_name": first_name})
        sid = runtime.create_session()
        runtime.respond(sid, "i want to buy 2 tickets")
        before = database.default_connection.stats().executions
        runtime.respond(sid, "my name is alice")
        assert database.default_connection.stats().executions > before
        assert runtime.session_connection(sid).stats().executions == 0

    def test_client_statements_counted_per_session(self, runtime):
        from repro.db import api, count

        sid = runtime.create_session()
        conn = runtime.session_connection(sid)
        conn.execute(api.aggregate("movie", n=count())).scalar()
        stats = runtime.session_stats(sid)
        assert stats.executions == 1
        assert stats.statements_prepared == 1

    def test_store_created_sessions_get_connection_lazily(self, runtime):
        session = runtime.sessions.create("direct")
        assert session.connection is None
        runtime.respond("direct", "hello")
        assert runtime.session_connection("direct") is not None
