"""Tests for the intent classifier, slot tagger and featurizer."""

import numpy as np
import pytest

from repro.errors import NLUError, NotFittedError
from repro.nlu import IntentClassifier, NGramFeaturizer, SlotTagger
from repro.synthesis import NLUDataset, NLUExample, SlotSpan


def toy_intent_dataset():
    examples = []
    for i in range(12):
        examples.append(NLUExample(f"book a table number {i}", "book"))
        examples.append(NLUExample(f"cancel my booking {i}", "cancel"))
        examples.append(NLUExample(f"hello there friend {i}", "greet"))
    return NLUDataset(examples)


def toy_slot_dataset():
    examples = []
    cities = ["boston", "denver", "atlanta", "dallas", "memphis", "seattle"]
    for a in cities:
        for b in cities:
            if a == b:
                continue
            text = f"fly from {a} to {b}"
            examples.append(
                NLUExample(
                    text,
                    "flight",
                    (
                        SlotSpan("src", a, 9, 9 + len(a)),
                        SlotSpan("dst", b, 13 + len(a), 13 + len(a) + len(b)),
                    ),
                )
            )
    return NLUDataset(examples)


class TestFeaturizer:
    def test_fit_transform_shape(self):
        featurizer = NGramFeaturizer()
        matrix = featurizer.fit_transform(["a b c", "b c d"])
        assert matrix.shape[0] == 2
        assert matrix.shape[1] == featurizer.n_features

    def test_rows_l2_normalised(self):
        matrix = NGramFeaturizer().fit_transform(["hello world", "bye"])
        norms = np.linalg.norm(matrix, axis=1)
        assert np.allclose(norms[norms > 0], 1.0)

    def test_unseen_tokens_ignored(self):
        featurizer = NGramFeaturizer(use_char_trigrams=False)
        featurizer.fit(["aaa bbb"])
        matrix = featurizer.transform(["zzz qqq"])
        assert matrix.sum() == 0.0

    def test_not_fitted_raises(self):
        with pytest.raises(NotFittedError):
            NGramFeaturizer().transform(["x"])

    def test_max_features_respected(self):
        featurizer = NGramFeaturizer(max_features=5)
        featurizer.fit(["a b c d e f g h i j k"])
        assert featurizer.n_features <= 5


class TestIntentClassifier:
    def test_learns_separable_intents(self):
        dataset = toy_intent_dataset()
        model = IntentClassifier(epochs=30).fit(dataset)
        assert model.accuracy(dataset) == 1.0

    def test_prediction_ranking(self):
        model = IntentClassifier(epochs=30).fit(toy_intent_dataset())
        prediction = model.predict("please book a table")
        assert prediction.intent == "book"
        assert 0.0 < prediction.confidence <= 1.0
        labels = [label for label, __ in prediction.ranking]
        assert sorted(labels) == ["book", "cancel", "greet"]

    def test_probabilities_sum_to_one(self):
        model = IntentClassifier(epochs=10).fit(toy_intent_dataset())
        probabilities = model.predict_proba(["hello", "cancel it"])
        assert np.allclose(probabilities.sum(axis=1), 1.0)

    def test_empty_dataset_rejected(self):
        with pytest.raises(NLUError):
            IntentClassifier().fit(NLUDataset())

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            IntentClassifier().predict("x")

    def test_labels_sorted(self):
        model = IntentClassifier(epochs=5).fit(toy_intent_dataset())
        assert model.labels == ["book", "cancel", "greet"]

    def test_deterministic_training(self):
        data = toy_intent_dataset()
        a = IntentClassifier(epochs=10, seed=3).fit(data)
        b = IntentClassifier(epochs=10, seed=3).fit(data)
        assert np.array_equal(a.predict_proba(["hello"]),
                              b.predict_proba(["hello"]))


class TestSlotTagger:
    def test_learns_positional_slots(self):
        dataset = toy_slot_dataset()
        tagger = SlotTagger(epochs=5).fit(dataset)
        spans = tagger.tag("fly from boston to dallas")
        values = {s.name: s.value for s in spans}
        assert values == {"src": "boston", "dst": "dallas"}

    def test_generalises_to_unseen_value_in_context(self):
        dataset = toy_slot_dataset()
        tagger = SlotTagger(epochs=5).fit(dataset)
        spans = tagger.tag("fly from boston to phoenix")
        assert any(s.name == "src" and s.value == "boston" for s in spans)

    def test_gazetteer_feature_helps_unseen_casing(self):
        dataset = toy_slot_dataset()
        gazetteers = {"src": frozenset({"boston", "phoenix"}),
                      "dst": frozenset({"dallas", "phoenix"})}
        tagger = SlotTagger(epochs=5, gazetteers=gazetteers).fit(dataset)
        spans = tagger.tag("fly from boston to dallas")
        assert {s.name for s in spans} == {"src", "dst"}

    def test_empty_text(self):
        tagger = SlotTagger(epochs=2).fit(toy_slot_dataset())
        assert tagger.tag("") == []

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            SlotTagger().tag("x")

    def test_empty_dataset_rejected(self):
        with pytest.raises(NLUError):
            SlotTagger().fit(NLUDataset())

    def test_labels_include_bio_variants(self):
        tagger = SlotTagger(epochs=2).fit(toy_slot_dataset())
        assert "B-src" in tagger.labels
        assert "O" in tagger.labels

    def test_predicted_spans_match_text(self):
        tagger = SlotTagger(epochs=5).fit(toy_slot_dataset())
        text = "fly from memphis to seattle"
        for span in tagger.tag(text):
            assert text[span.start:span.end] == span.value
