"""Tests for the awareness model and attribute scoring."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataaware import (
    AttributeScorer,
    CandidateSet,
    InformativenessMeasure,
    UserAwarenessModel,
    weighted_entropy,
)
from repro.db import Catalog, ColumnRef
from repro.errors import PolicyError


@pytest.fixture()
def env(movie_db):
    database, annotations = movie_db
    return database, Catalog(database), annotations


class TestAwarenessModel:
    def test_prior_without_observations(self, env):
        database, catalog, annotations = env
        model = UserAwarenessModel(annotations)
        attribute = ColumnRef("movie", "title")
        prior = annotations.awareness_prior("movie", "title")
        assert model.probability(attribute) == pytest.approx(prior)

    def test_positive_observations_raise_probability(self, env):
        __, __, annotations = env
        model = UserAwarenessModel(annotations)
        attribute = ColumnRef("screening", "room")
        before = model.probability(attribute)
        for __ in range(20):
            model.observe(attribute, user_knew=True)
        assert model.probability(attribute) > before

    def test_negative_observations_lower_probability(self, env):
        __, __, annotations = env
        model = UserAwarenessModel(annotations)
        attribute = ColumnRef("movie", "title")
        before = model.probability(attribute)
        for __ in range(20):
            model.observe(attribute, user_knew=False)
        assert model.probability(attribute) < before

    def test_estimate_counts_observations(self, env):
        __, __, annotations = env
        model = UserAwarenessModel(annotations)
        attribute = ColumnRef("movie", "genre")
        model.observe(attribute, True)
        model.observe(attribute, False)
        estimate = model.estimate(attribute)
        assert estimate.observations == 2
        assert 0.0 < estimate.probability < 1.0

    def test_reset_forgets(self, env):
        __, __, annotations = env
        model = UserAwarenessModel(annotations)
        attribute = ColumnRef("movie", "genre")
        model.observe(attribute, False)
        model.reset()
        assert model.estimate(attribute).observations == 0

    def test_bad_prior_strength(self, env):
        __, __, annotations = env
        with pytest.raises(PolicyError):
            UserAwarenessModel(annotations, prior_strength=0)

    def test_probability_stays_in_unit_interval(self, env):
        __, __, annotations = env
        model = UserAwarenessModel(annotations)
        attribute = ColumnRef("customer", "city")
        for __ in range(100):
            model.observe(attribute, True)
        assert 0.0 < model.probability(attribute) < 1.0


class TestWeightedEntropy:
    def test_empty(self):
        assert weighted_entropy({}) == 0.0

    def test_uniform(self):
        assert weighted_entropy({"a": 1.0, "b": 1.0}) == pytest.approx(1.0)

    def test_matches_unweighted(self):
        values = ["a", "a", "b", "c"]
        weights = {"a": 2.0, "b": 1.0, "c": 1.0}
        # Shannon entropy of the value multiset, counted directly.
        shares = [values.count(v) / len(values) for v in set(values)]
        expected = -sum(p * math.log2(p) for p in shares)
        assert weighted_entropy(weights) == pytest.approx(expected)

    @given(st.dictionaries(st.text("ab", min_size=1, max_size=3),
                           st.floats(0.01, 10), max_size=6, min_size=1))
    @settings(max_examples=50)
    def test_bounded_by_log_n(self, weights):
        assert weighted_entropy(weights) <= math.log2(len(weights)) + 1e-9


class TestScorer:
    def test_informativeness_in_unit_interval(self, env):
        database, catalog, annotations = env
        scorer = AttributeScorer(UserAwarenessModel(annotations))
        candidates = CandidateSet.initial(database, catalog, "screening")
        for column in ("date", "room", "price"):
            value = scorer.informativeness(
                candidates, ColumnRef("screening", column)
            )
            assert 0.0 <= value <= 1.0

    def test_unique_column_maximises_informativeness(self, env):
        database, catalog, annotations = env
        scorer = AttributeScorer(UserAwarenessModel(annotations))
        candidates = CandidateSet.initial(database, catalog, "customer")
        email = scorer.informativeness(candidates, ColumnRef("customer", "email"))
        city = scorer.informativeness(candidates, ColumnRef("customer", "city"))
        assert email > city
        assert email == pytest.approx(1.0)

    def test_constant_column_scores_zero(self, env):
        database, catalog, annotations = env
        # Make a constant column: all rooms identical.
        table = database.table("screening")
        for rid in table.row_ids():
            table.update(rid, {"room": "room X"})
        scorer = AttributeScorer(UserAwarenessModel(annotations))
        candidates = CandidateSet.initial(database, catalog, "screening")
        assert scorer.informativeness(
            candidates, ColumnRef("screening", "room")
        ) == pytest.approx(0.0)

    def test_single_candidate_scores_zero(self, env):
        database, catalog, annotations = env
        candidates = CandidateSet.initial(database, catalog, "screening")
        lone = candidates.refine(
            ColumnRef("screening", "screening_id"),
            database.rows("screening")[0]["screening_id"],
        )
        scorer = AttributeScorer(UserAwarenessModel(annotations))
        assert scorer.informativeness(
            lone, ColumnRef("screening", "date")
        ) == 0.0

    def test_score_multiplies_awareness(self, env):
        database, catalog, annotations = env
        awareness = UserAwarenessModel(annotations)
        scorer = AttributeScorer(awareness)
        candidates = CandidateSet.initial(database, catalog, "screening")
        attribute = ColumnRef("screening", "date")
        score = scorer.score(candidates, attribute)
        assert score.score == pytest.approx(
            score.informativeness * score.awareness
        )

    def test_use_awareness_false_ignores_it(self, env):
        database, catalog, annotations = env
        scorer = AttributeScorer(
            UserAwarenessModel(annotations), use_awareness=False
        )
        candidates = CandidateSet.initial(database, catalog, "screening")
        score = scorer.score(candidates, ColumnRef("screening", "date"))
        assert score.awareness == 1.0

    def test_rank_sorted_descending(self, env):
        database, catalog, annotations = env
        scorer = AttributeScorer(UserAwarenessModel(annotations))
        candidates = CandidateSet.initial(database, catalog, "screening")
        attributes = [
            ColumnRef("screening", "date"),
            ColumnRef("screening", "room"),
            ColumnRef("movie", "title"),
        ]
        ranked = scorer.rank(candidates, attributes)
        scores = [r.score for r in ranked]
        assert scores == sorted(scores, reverse=True)

    def test_measures_differ_but_agree_on_extremes(self, env):
        database, catalog, annotations = env
        candidates = CandidateSet.initial(database, catalog, "customer")
        awareness = UserAwarenessModel(annotations)
        email = ColumnRef("customer", "email")
        for measure in InformativenessMeasure:
            scorer = AttributeScorer(awareness, measure)
            assert scorer.informativeness(candidates, email) == pytest.approx(
                1.0, abs=0.01
            )

    def test_expected_candidates_after(self, env):
        database, catalog, annotations = env
        scorer = AttributeScorer(UserAwarenessModel(annotations))
        candidates = CandidateSet.initial(database, catalog, "customer")
        expected = scorer.expected_candidates_after(
            candidates, ColumnRef("customer", "email")
        )
        # A unique attribute identifies in one step.
        assert expected == pytest.approx(1.0)
        expected_city = scorer.expected_candidates_after(
            candidates, ColumnRef("customer", "city")
        )
        assert expected_city > expected
