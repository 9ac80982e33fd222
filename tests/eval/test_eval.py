"""Tests for metrics, the dialogue evaluation harness and result tables."""

import pytest

from repro.annotation import TaskExtractor
from repro.dataaware import (
    DataAwarePolicy,
    RandomPolicy,
    StaticPolicy,
    UserAwarenessModel,
)
from repro.db import Catalog
from repro.errors import ReproError
from repro.eval import (
    PRF,
    PolicyExperiment,
    ResultTable,
    intent_accuracy,
    intent_confusion,
    macro_f1,
    run_episode,
    slot_prf,
)
from repro.eval.dialogue_eval import SimulatedUser
from repro.synthesis import SlotSpan


class TestPRF:
    def test_perfect(self):
        prf = PRF(10, 0, 0)
        assert prf.precision == 1.0 and prf.recall == 1.0 and prf.f1 == 1.0

    def test_zero_everything(self):
        prf = PRF(0, 0, 0)
        assert prf.f1 == 0.0

    def test_addition(self):
        total = PRF(1, 2, 3) + PRF(4, 5, 6)
        assert (total.true_positives, total.false_positives,
                total.false_negatives) == (5, 7, 9)

    def test_asymmetric(self):
        prf = PRF(5, 5, 0)
        assert prf.precision == 0.5
        assert prf.recall == 1.0


class TestSlotPRF:
    def gold(self):
        return [
            (SlotSpan("a", "x", 0, 1),),
            (SlotSpan("b", "y", 0, 1), SlotSpan("a", "z", 2, 3)),
        ]

    def test_exact_match(self):
        predicted = [[SlotSpan("a", "x", 0, 1)],
                     [SlotSpan("b", "y", 0, 1), SlotSpan("a", "z", 2, 3)]]
        assert slot_prf(self.gold(), predicted).f1 == 1.0

    def test_wrong_label_penalised(self):
        predicted = [[SlotSpan("b", "x", 0, 1)], []]
        prf = slot_prf(self.gold(), predicted)
        assert prf.true_positives == 0
        assert prf.false_positives == 1
        assert prf.false_negatives == 3

    def test_value_compared_case_insensitively(self):
        predicted = [[SlotSpan("a", "X", 0, 1)], []]
        prf = slot_prf(self.gold(), predicted)
        assert prf.true_positives == 1

    def test_length_mismatch_rejected(self):
        with pytest.raises(ReproError):
            slot_prf(self.gold(), [[]])


class TestIntentMetrics:
    def test_accuracy(self):
        assert intent_accuracy(["a", "b"], ["a", "c"]) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ReproError):
            intent_accuracy([], [])

    def test_confusion(self):
        confusion = intent_confusion(["a", "a", "b"], ["a", "b", "b"])
        assert confusion[("a", "a")] == 1
        assert confusion[("a", "b")] == 1
        assert confusion[("b", "b")] == 1

    def test_macro_f1_perfect(self):
        assert macro_f1(["a", "b"], ["a", "b"]) == 1.0

    def test_macro_f1_weights_classes_equally(self):
        gold = ["a"] * 9 + ["b"]
        perfect_majority = ["a"] * 10
        assert macro_f1(gold, perfect_majority) < 0.7


class TestResultTable:
    def test_add_and_format(self):
        table = ResultTable("caption", ["x", "y"])
        table.add_row("a", 1.23456)
        text = table.formatted()
        assert "caption" in text
        assert "1.235" in text

    def test_wrong_arity_rejected(self):
        table = ResultTable("c", ["x"])
        with pytest.raises(ValueError):
            table.add_row(1, 2)


@pytest.fixture()
def policy_env(movie_tasks):
    database, annotations, catalog, tasks = movie_tasks
    task = next(t for t in tasks if t.name == "ticket_reservation")
    lookup = task.lookup_for("screening_id")
    return database, catalog, annotations, lookup


class TestSimulatedUser:
    def test_value_of_target(self, policy_env):
        database, catalog, annotations, lookup = policy_env
        rid = database.table("screening").row_ids()[0]
        user = SimulatedUser(database, catalog, annotations, lookup, rid)
        from repro.db import ColumnRef

        value = user.value_of(ColumnRef("screening", "date"))
        assert value == database.table("screening").get(rid)["date"]

    def test_awareness_override(self, policy_env):
        database, catalog, annotations, lookup = policy_env
        from repro.db import ColumnRef

        rid = database.table("screening").row_ids()[0]
        attribute = ColumnRef("screening", "date")
        always = SimulatedUser(database, catalog, annotations, lookup, rid,
                               awareness={attribute: 1.0})
        never = SimulatedUser(database, catalog, annotations, lookup, rid,
                              awareness={attribute: 0.0})
        assert all(always.knows(attribute) for __ in range(20))
        assert not any(never.knows(attribute) for __ in range(20))


class TestPolicyExperiment:
    def test_episode_succeeds(self, policy_env):
        database, catalog, annotations, lookup = policy_env
        policy = DataAwarePolicy(lookup, UserAwarenessModel(annotations))
        rid = database.table("screening").row_ids()[0]
        user = SimulatedUser(database, catalog, annotations, lookup, rid,
                             seed=3)
        result = run_episode(database, catalog, lookup, policy, user)
        assert result.success
        assert result.turns >= 1

    def test_experiment_summary(self, policy_env):
        database, catalog, annotations, lookup = policy_env
        experiment = PolicyExperiment(database, catalog, annotations, lookup)
        policy = DataAwarePolicy(lookup, UserAwarenessModel(annotations))
        summary, results = experiment.run(policy, n_episodes=15)
        assert summary.episodes == 15
        assert summary.mean_turns > 0
        assert summary.success_rate > 0.8

    def test_policy_ordering_holds(self, policy_env):
        database, catalog, annotations, lookup = policy_env
        experiment = PolicyExperiment(database, catalog, annotations, lookup)
        data_aware, __ = experiment.run(
            DataAwarePolicy(lookup, UserAwarenessModel(annotations)),
            n_episodes=25,
        )
        random_policy, __ = experiment.run(
            RandomPolicy(lookup, seed=11), n_episodes=25
        )
        assert data_aware.mean_turns <= random_policy.mean_turns
        assert data_aware.speedup_vs(random_policy) >= 0.0

    def test_static_policy_runs(self, policy_env):
        database, catalog, annotations, lookup = policy_env
        experiment = PolicyExperiment(database, catalog, annotations, lookup)
        static = StaticPolicy.train(lookup, database, catalog, annotations)
        summary, __ = experiment.run(static, n_episodes=15)
        assert summary.success_rate > 0.5
