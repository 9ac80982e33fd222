"""Tests for the interactive identification session."""

import pytest

from repro.dataaware import (
    CandidateSet,
    DataAwarePolicy,
    IdentificationSession,
    IdentificationStatus,
    UserAwarenessModel,
)
from repro.db import Catalog, ColumnRef
from repro.errors import DialogueError


@pytest.fixture()
def env(movie_tasks):
    database, annotations, catalog, tasks = movie_tasks
    task = next(t for t in tasks if t.name == "ticket_reservation")
    lookup = task.lookup_for("customer_id")
    policy = DataAwarePolicy(lookup, UserAwarenessModel(annotations))
    candidates = CandidateSet.initial(database, catalog, "customer")
    session = IdentificationSession(candidates, policy, "customer_id")
    return database, session


class TestSessionFlow:
    def test_initial_state(self, env):
        __, session = env
        assert session.status is IdentificationStatus.IN_PROGRESS
        assert not session.finished
        assert session.turns == 0

    def test_question_increments_turns(self, env):
        __, session = env
        attribute = session.next_question()
        assert attribute is not None
        assert session.turns == 1
        assert session.pending_question == attribute

    def test_repeated_next_question_is_stable(self, env):
        __, session = env
        first = session.next_question()
        again = session.next_question()
        assert first == again
        assert session.turns == 1  # not double counted

    def test_answer_refines(self, env):
        database, session = env
        attribute = session.next_question()
        target = database.rows("customer")[0]
        base = CandidateSet.initial(
            database, Catalog(database), "customer"
        )
        value = next(iter(base.values_for(attribute)[1]))
        before = len(session.candidates)
        session.answer(value)
        assert len(session.candidates) <= before

    def test_answer_without_question_rejected(self, env):
        __, session = env
        with pytest.raises(DialogueError):
            session.answer("x")

    def test_dont_know_moves_on(self, env):
        __, session = env
        first = session.next_question()
        session.dont_know()
        second = session.next_question()
        assert second != first

    def test_contradictory_answer_keeps_candidates(self, env):
        __, session = env
        session.next_question()
        before = len(session.candidates)
        session.answer("value-that-matches-nothing-qqq")
        assert len(session.candidates) == before
        assert not session.finished or before <= 3

    def test_volunteer_narrows_without_turn(self, env):
        database, session = env
        city = database.rows("customer")[0]["city"]
        turns_before = session.turns
        assert session.volunteer(ColumnRef("customer", "city"), city)
        assert session.turns == turns_before
        assert len(session.candidates) < 60

    def test_volunteer_contradiction_returns_false(self, env):
        __, session = env
        assert not session.volunteer(
            ColumnRef("customer", "city"), "Atlantis-Does-Not-Exist"
        )

    def test_volunteer_withdraws_stale_question(self, env):
        database, session = env
        first = session.next_question()
        other = ColumnRef("customer", "email")
        if first == other:
            other = ColumnRef("customer", "city")
        value = database.rows("customer")[0][other.column]
        session.volunteer(other, value)
        assert session.pending_question is None


class TestTermination:
    def test_unique_via_email(self, env):
        database, session = env
        email = database.rows("customer")[0]["email"]
        session.volunteer(ColumnRef("customer", "email"), email)
        assert session.status is IdentificationStatus.UNIQUE
        outcome = session.outcome()
        assert outcome.entity_key == database.rows("customer")[0]["customer_id"]

    def test_choice_list_when_few(self, env):
        database, session = env
        # Narrow to one family: same last name.
        row = database.rows("customer")[0]
        session.volunteer(ColumnRef("customer", "last_name"), row["last_name"])
        session.volunteer(ColumnRef("customer", "city"), row["city"])
        if session.status is IdentificationStatus.CHOICE_LIST:
            rows = session.choice_list()
            assert 1 < len(rows) <= 3
            session.choose(rows[0]["customer_id"])
            assert session.status is IdentificationStatus.UNIQUE

    def test_choose_outside_list_rejected(self, env):
        database, session = env
        row = database.rows("customer")[0]
        session.volunteer(ColumnRef("customer", "last_name"), row["last_name"])
        if session.status is IdentificationStatus.CHOICE_LIST:
            with pytest.raises(DialogueError):
                session.choose(-999)

    def test_choose_without_list_rejected(self, env):
        __, session = env
        with pytest.raises(DialogueError):
            session.choose(1)

    def test_max_questions_exhausts(self, movie_tasks):
        database, annotations, catalog, tasks = movie_tasks
        task = next(t for t in tasks if t.name == "ticket_reservation")
        lookup = task.lookup_for("customer_id")
        policy = DataAwarePolicy(lookup, UserAwarenessModel(annotations))
        candidates = CandidateSet.initial(database, catalog, "customer")
        session = IdentificationSession(
            candidates, policy, "customer_id", max_questions=1
        )
        session.next_question()
        session.dont_know()
        # After exhausting the question budget the session must not be
        # IN_PROGRESS once the policy runs dry or the bound is hit.
        session.next_question()
        assert session.status in (
            IdentificationStatus.EXHAUSTED,
            IdentificationStatus.CHOICE_LIST,
            IdentificationStatus.IN_PROGRESS,  # one pending question allowed
        )

    def test_bad_choice_list_size(self, env):
        database, session = env
        with pytest.raises(DialogueError):
            IdentificationSession(
                session.candidates, session.policy, "customer_id",
                choice_list_size=0,
            )
