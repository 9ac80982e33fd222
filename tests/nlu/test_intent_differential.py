"""Differential tests: sparse intent training against the dense reference.

Feature rows must equal the reference's dense non-zeros exactly (``==``):
the counts are small integers, so every norm is exact in any summation
order.  Trained weights and biases may differ from the reference only by
the summation order inside a batch's touched block, so they must agree
within ``TOLERANCE`` and rank the intents of every training text in the
same order.  Prediction scores each sparse row against the weight rows of
its columns; against the dense row times the whole weight matrix only
the summation order of the logits differs, so probabilities must agree
within ``TOLERANCE`` and rankings exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nlu import IntentClassifier, NGramFeaturizer, tokenize
from repro.synthesis import NLUDataset, NLUExample

from tests.nlu.reference_intent import (
    ReferenceIntentClassifier,
    dense_predict_proba,
    dense_transform,
    fit_vocabulary,
)
from tests.nlu.test_intent_and_slots import toy_intent_dataset

#: Largest weight or bias difference allowed: the sparse loop sums each
#: batch's logits and gradient over its touched columns only, which moved
#: the weights trained on the movie corpora by at most 1.8e-15.
TOLERANCE = 1e-12

NO_KNOWN_FEATURE = "☃☃☃ ☃"
EDGE_TEXTS = {
    "empty": "",
    "whitespace": "  \t ",
    "no-known-feature": NO_KNOWN_FEATURE,
    "repeated": "tickets tickets tickets tickets tickets",
    "dotted-capital-i": "İ",
    "long": ("book two tickets for forrest gump tonight " * 125)[:5000],
}


def assert_same_rows(featurizer: NGramFeaturizer, texts: list[str]):
    """``rows`` and each text's ``row`` hold the dense row's non-zeros."""
    dense = dense_transform(featurizer, featurizer._vocabulary, texts)
    rows = featurizer.rows(texts)
    assert len(rows.indptr) == len(texts) + 1 and rows.indptr[0] == 0
    for i, (text, row) in enumerate(zip(texts, dense)):
        nonzero = np.flatnonzero(row)
        own = slice(rows.indptr[i], rows.indptr[i + 1])
        assert np.array_equal(rows.indices[own], nonzero)
        assert np.array_equal(rows.values[own], row[nonzero])
        for columns, values in (featurizer.row(text),
                                featurizer.row(text, tokenize(text))):
            assert np.array_equal(columns, nonzero)
            assert np.array_equal(values, row[nonzero])
    assert rows.indptr[-1] == len(rows.indices) == len(rows.values)
    assert np.array_equal(featurizer.transform(texts), dense)


def train_pair(dataset: NLUDataset, char_trigrams: bool = True, **options):
    reference = ReferenceIntentClassifier(
        featurizer=NGramFeaturizer(use_char_trigrams=char_trigrams), **options)
    model = IntentClassifier(
        featurizer=NGramFeaturizer(use_char_trigrams=char_trigrams), **options)
    return reference.fit(dataset), model.fit(dataset)


def assert_same_training(reference: ReferenceIntentClassifier,
                         model: IntentClassifier, texts: list[str]):
    assert model.labels == reference.labels
    assert model.featurizer._vocabulary == reference.vocabulary
    assert model._weights.shape == reference.weights.shape
    weights_drift = np.abs(model._weights - reference.weights)
    assert weights_drift.max(initial=0.0) <= TOLERANCE
    assert np.abs(model._bias - reference.bias).max() <= TOLERANCE
    ours = model.predict_proba(texts)
    theirs = reference.predict_proba(texts)
    assert np.array_equal(ours.argmax(axis=1), theirs.argmax(axis=1))
    assert np.array_equal(np.argsort(-ours, axis=1),
                          np.argsort(-theirs, axis=1))


def assert_predict_matches_dense(model: IntentClassifier, texts: list[str]):
    dense = dense_predict_proba(model.featurizer, model.featurizer._vocabulary,
                                model._weights, model._bias, texts)
    labels = model.labels
    for text, expected in zip(texts, dense):
        ranking = model.predict(text).ranking
        order = np.argsort(-expected)
        assert [label for label, __ in ranking] == [labels[i] for i in order]
        probabilities = np.array([probability for __, probability in ranking])
        assert np.abs(probabilities - expected[order]).max() <= TOLERANCE


def assert_predict_is_predict_proba(model: IntentClassifier,
                                    texts: list[str]):
    """Equal floats, whatever the batch a text is scored in."""
    labels = model.labels
    for text, row in zip(texts, model.predict_proba(texts)):
        assert model.predict_proba([text])[0].tolist() == row.tolist()
        for prediction in (model.predict(text),
                           model.predict(text, tokenize(text))):
            by_label = dict(prediction.ranking)
            assert [by_label[label] for label in labels] == row.tolist()


@pytest.fixture(scope="module")
def movie_texts(trained_agent):
    cat, __ = trained_agent
    return [example.text for example in cat.nlu_data]


@pytest.fixture(scope="module")
def movie_featurizer(trained_agent):
    __, agent = trained_agent
    return agent.artifacts.nlu.intent.featurizer


class TestRows:
    def test_fitted_vocabulary_matches(self, movie_featurizer, movie_texts):
        assert movie_featurizer._vocabulary == fit_vocabulary(
            movie_featurizer, movie_texts)

    def test_movie_corpus_rows(self, movie_featurizer, movie_texts):
        assert_same_rows(movie_featurizer, movie_texts)

    @pytest.mark.parametrize("text", EDGE_TEXTS.values(), ids=EDGE_TEXTS)
    def test_edge_texts(self, movie_featurizer, text):
        assert_same_rows(movie_featurizer, [text])

    def test_unknown_text_is_an_empty_row(self, movie_featurizer):
        rows = movie_featurizer.rows(["hello", NO_KNOWN_FEATURE])
        assert rows.indptr[2] == rows.indptr[1] > 0

    def test_all_edge_texts_in_one_call(self, movie_featurizer):
        assert_same_rows(movie_featurizer, list(EDGE_TEXTS.values()))

    def test_empty_vocabulary(self):
        featurizer = NGramFeaturizer(use_char_trigrams=False).fit(["", " "])
        assert featurizer.n_features == 0
        assert_same_rows(featurizer, ["hello there", ""])
        assert featurizer.transform(["hello there", ""]).shape == (2, 0)

    def test_fit_rows_is_fit_then_rows(self, movie_texts):
        texts = movie_texts[:200]
        fitted = NGramFeaturizer()
        rows = fitted.fit_rows(texts)
        again = NGramFeaturizer().fit(texts)
        assert fitted._vocabulary == again._vocabulary
        for ours, theirs in zip(rows, again.rows(texts)):
            assert np.array_equal(ours, theirs)


class TestTraining:
    def test_movie_corpus(self, trained_agent, movie_texts):
        cat, agent = trained_agent
        reference = ReferenceIntentClassifier().fit(cat.nlu_data)
        assert_same_training(reference, agent.artifacts.nlu.intent,
                             movie_texts)

    @pytest.mark.parametrize("options", [
        {"epochs": 30},
        {"epochs": 12, "batch_size": 5, "l2": 0.05, "seed": 2},
        {"epochs": 12, "char_trigrams": False},
    ], ids=["defaults", "partial-batches-strong-l2", "words-only"])
    def test_toy_dataset(self, options):
        dataset = toy_intent_dataset()
        texts = [example.text for example in dataset]
        assert_same_training(*train_pair(dataset, **options),
                             texts + list(EDGE_TEXTS.values()))

    def test_empty_vocabulary(self):
        dataset = NLUDataset([NLUExample("", "a"), NLUExample("  ", "b"),
                              NLUExample(" ", "a")])
        reference, model = train_pair(dataset, char_trigrams=False, epochs=5,
                                      batch_size=2)
        assert model._weights.shape == (0, 2)
        assert_same_training(reference, model, ["", "hello"])


class TestPredict:
    """``predict`` and ``predict_proba`` score sparse rows with one
    kernel; the reference scores dense rows with the same weights."""

    @pytest.fixture(scope="class")
    def model(self, trained_agent):
        __, agent = trained_agent
        return agent.artifacts.nlu.intent

    def test_movie_corpus_matches_dense(self, model, movie_texts):
        assert_predict_matches_dense(model, movie_texts)

    @pytest.mark.parametrize("text", EDGE_TEXTS.values(), ids=EDGE_TEXTS)
    def test_edge_texts_match_dense(self, model, text):
        assert_predict_matches_dense(model, [text])

    def test_predict_is_predict_proba(self, model, movie_texts):
        assert_predict_is_predict_proba(
            model, movie_texts + list(EDGE_TEXTS.values()))

    def test_predict_proba_of_no_texts(self, model):
        assert model.predict_proba([]).shape == (0, len(model.labels))

    def test_toy_model_matches_dense(self):
        __, model = train_pair(toy_intent_dataset(), epochs=12)
        texts = [example.text for example in toy_intent_dataset()]
        texts += list(EDGE_TEXTS.values())
        assert_predict_matches_dense(model, texts)
        assert_predict_is_predict_proba(model, texts)
