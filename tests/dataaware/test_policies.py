"""Tests for the three slot-selection policies."""

import pytest

from repro.annotation import TaskExtractor
from repro.dataaware import (
    CandidateSet,
    DataAwarePolicy,
    InformativenessMeasure,
    RandomPolicy,
    StaticPolicy,
    UserAwarenessModel,
)
from repro.db import Catalog, ColumnRef
from repro.errors import PolicyError


@pytest.fixture()
def env(movie_tasks):
    database, annotations, catalog, tasks = movie_tasks
    task = next(t for t in tasks if t.name == "ticket_reservation")
    lookup = task.lookup_for("screening_id")
    return database, catalog, annotations, lookup


class TestDataAwarePolicy:
    def make(self, env, **kwargs):
        database, catalog, annotations, lookup = env
        return DataAwarePolicy(
            lookup,
            UserAwarenessModel(annotations),
            **kwargs,
        )

    def test_returns_askable_attribute(self, env):
        database, catalog, annotations, lookup = env
        policy = self.make(env)
        candidates = CandidateSet.initial(database, catalog, "screening")
        attribute = policy.next_attribute(candidates, set())
        assert attribute in set(lookup.all_attributes())

    def test_none_when_unique(self, env):
        database, catalog, annotations, lookup = env
        policy = self.make(env)
        candidates = CandidateSet.initial(database, catalog, "screening")
        lone = candidates.refine(
            ColumnRef("screening", "screening_id"),
            database.rows("screening")[0]["screening_id"],
        )
        assert policy.next_attribute(lone, set()) is None

    def test_asked_attributes_skipped(self, env):
        database, catalog, annotations, lookup = env
        policy = self.make(env)
        candidates = CandidateSet.initial(database, catalog, "screening")
        first = policy.next_attribute(candidates, set())
        second = policy.next_attribute(candidates, {first})
        assert second != first

    def test_exhausts_eventually(self, env):
        database, catalog, annotations, lookup = env
        policy = self.make(env)
        candidates = CandidateSet.initial(database, catalog, "screening")
        asked = set()
        for __ in range(50):
            attribute = policy.next_attribute(candidates, asked)
            if attribute is None:
                break
            asked.add(attribute)
        else:
            pytest.fail("policy never exhausted")

    def test_observe_updates_awareness(self, env):
        database, catalog, annotations, lookup = env
        awareness = UserAwarenessModel(annotations)
        policy = DataAwarePolicy(lookup, awareness)
        attribute = ColumnRef("screening", "room")
        before = awareness.probability(attribute)
        for __ in range(10):
            policy.observe(attribute, user_knew=False)
        assert awareness.probability(attribute) < before

    def test_max_hops_limits_choices(self, env):
        database, catalog, annotations, lookup = env
        policy = self.make(env, max_hops=0)
        candidates = CandidateSet.initial(database, catalog, "screening")
        asked = set()
        chosen = []
        for __ in range(20):
            attribute = policy.next_attribute(candidates, asked)
            if attribute is None:
                break
            chosen.append(attribute)
            asked.add(attribute)
        assert all(a.table == "screening" for a in chosen)

    def test_awareness_steers_selection(self, env):
        database, catalog, annotations, lookup = env
        awareness = UserAwarenessModel(annotations, prior_strength=5)
        policy = DataAwarePolicy(
            lookup, awareness,
            expansion_threshold=2.0,  # always consider every hop
        )
        candidates = CandidateSet.initial(database, catalog, "screening")
        first = policy.next_attribute(candidates, set())
        # Make that attribute look unknown to users; it should stop winning.
        for __ in range(200):
            awareness.observe(first, user_knew=False)
        second = policy.next_attribute(candidates, set())
        assert second != first

    def test_measure_variants_work(self, env):
        database, catalog, annotations, lookup = env
        candidates = CandidateSet.initial(database, catalog, "screening")
        for measure in InformativenessMeasure:
            policy = self.make(env, measure=measure)
            assert policy.next_attribute(candidates, set()) is not None


class TestStaticPolicy:
    def test_trained_order_is_fixed(self, env):
        database, catalog, annotations, lookup = env
        policy = StaticPolicy.train(lookup, database, catalog, annotations)
        candidates = CandidateSet.initial(database, catalog, "screening")
        first = policy.next_attribute(candidates, set())
        refined = candidates.refine(first, "whatever")
        # Static ignores candidates: same answer regardless of data state.
        assert policy.next_attribute(candidates, set()) == first
        assert policy.order[0] == first

    def test_respects_asked(self, env):
        database, catalog, annotations, lookup = env
        policy = StaticPolicy.train(lookup, database, catalog, annotations)
        candidates = CandidateSet.initial(database, catalog, "screening")
        order = policy.order
        assert policy.next_attribute(candidates, {order[0]}) == order[1]

    def test_none_when_exhausted(self, env):
        database, catalog, annotations, lookup = env
        policy = StaticPolicy.train(lookup, database, catalog, annotations)
        candidates = CandidateSet.initial(database, catalog, "screening")
        assert policy.next_attribute(candidates, set(policy.order)) is None

    def test_empty_order_rejected(self):
        with pytest.raises(PolicyError):
            StaticPolicy([])


class TestRandomPolicy:
    def test_choices_within_lookup(self, env):
        database, catalog, annotations, lookup = env
        policy = RandomPolicy(lookup, seed=1)
        candidates = CandidateSet.initial(database, catalog, "screening")
        allowed = set(lookup.all_attributes())
        for __ in range(10):
            assert policy.next_attribute(candidates, set()) in allowed

    def test_deterministic_under_seed(self, env):
        database, catalog, annotations, lookup = env
        candidates = CandidateSet.initial(database, catalog, "screening")
        a = [RandomPolicy(lookup, seed=7).next_attribute(candidates, set())
             for __ in range(3)]
        b = [RandomPolicy(lookup, seed=7).next_attribute(candidates, set())
             for __ in range(3)]
        # Fresh policies with the same seed produce the same first draw.
        assert a[0] == b[0]

    def test_respects_asked(self, env):
        database, catalog, annotations, lookup = env
        policy = RandomPolicy(lookup, seed=3)
        candidates = CandidateSet.initial(database, catalog, "screening")
        allowed = set(lookup.all_attributes())
        asked = set(list(allowed)[:-1])
        remaining = allowed - asked
        assert policy.next_attribute(candidates, asked) in remaining

    def test_none_when_all_asked(self, env):
        database, catalog, annotations, lookup = env
        policy = RandomPolicy(lookup, seed=3)
        candidates = CandidateSet.initial(database, catalog, "screening")
        assert policy.next_attribute(
            candidates, set(lookup.all_attributes())
        ) is None
