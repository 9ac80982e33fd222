"""Differential tests: the array-backed SlotTagger against the dict reference.

Scores must be float-identical (``==``, never approx): the tagger sums
each label's weights with the built-in ``sum()`` in feature order, like
the reference, and Python 3.12+ compensates rounding inside ``sum()``,
so any other summation would drift there.  The reference builds each
token's features on its own (``_token_features``), so the tagger's
per-sentence builder must also reproduce them, in order.
"""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import AtisConfig, build_flight_database, generate_cat_corpus
from repro.nlu import SlotTagger, bio_to_spans, tokenize
from repro.nlu.slots import _gazetteer_features, _sentence_features, _viterbi
from repro.synthesis import NLUDataset, NLUExample, SlotSpan

from tests.nlu.reference_slots import (
    START,
    ReferenceSlotTagger,
    _token_features,
)
from tests.nlu.test_intent_and_slots import toy_slot_dataset

#: Epochs for the corpus-sized pairs: the reference trains about ten
#: times slower than the tagger, and every epoch exercises the same code.
CORPUS_EPOCHS = 2


def train_pair(dataset, **options):
    reference = ReferenceSlotTagger(**options).fit(dataset)
    tagger = SlotTagger(**options).fit(dataset)
    return reference, tagger


def flat_weights(tagger: SlotTagger) -> dict[tuple[str, str], float]:
    labels = tagger.labels
    return {
        (feature, labels[j]): weight
        for feature, row in tagger._weights.items()
        for j, weight in enumerate(row)
        if weight
    }


def flat_transitions(tagger: SlotTagger) -> dict[tuple[str, str], float]:
    labels = tagger.labels
    previous = labels + [START]
    matrix = tagger._transitions.tolist()
    return {
        (previous[p], labels[j]): weight
        for p, row in enumerate(matrix)
        for j, weight in enumerate(row)
        if weight
    }


def assert_same_model(reference: ReferenceSlotTagger, tagger: SlotTagger):
    assert tagger.labels == reference.labels
    assert flat_weights(tagger) == reference.weights
    assert flat_transitions(tagger) == reference.transitions
    # Exact Python floats: sum() over numpy scalars takes its plain,
    # uncompensated path and would round differently on Python 3.12+.
    assert all(
        type(weight) is float
        for row in tagger._weights.values()
        for weight in row
    )


def assert_same_features(gazetteers: dict[str, frozenset[str]], text: str):
    tokens = tokenize(text)
    assert _sentence_features(tokens, _gazetteer_features(gazetteers)) == [
        _token_features(tokens, i, gazetteers) for i in range(len(tokens))
    ]


def assert_same_decode(reference: ReferenceSlotTagger, tagger: SlotTagger,
                       text: str):
    labels, scores = reference.decode(text)
    tokens = tokenize(text)
    assert tagger.tag(text) == bio_to_spans(text, tokens, labels)
    if not tokens:
        return
    path, array_scores = tagger._decode(tokens)
    assert [tagger.labels[j] for j in path] == labels
    assert [score.tolist() for score in array_scores] == [
        [by_label[label] for label in reference.labels] for by_label in scores
    ]


@pytest.fixture(scope="module")
def movie_pair(trained_agent):
    """Both taggers trained on the synthesized movie corpus, with the
    agent's database-derived gazetteers."""
    cat, agent = trained_agent
    gazetteers = agent.artifacts.nlu.tagger.gazetteers
    return train_pair(cat.nlu_data, epochs=CORPUS_EPOCHS,
                      gazetteers=gazetteers)


@pytest.fixture(scope="module")
def atis_examples():
    config = AtisConfig()
    return generate_cat_corpus(build_flight_database(config), config).examples


@pytest.fixture(scope="module")
def movie_texts(trained_agent):
    cat, __ = trained_agent
    return [example.text for example in cat.nlu_data]


@pytest.fixture(scope="module")
def known_words(movie_texts):
    return sorted({token.text for text in movie_texts
                   for token in tokenize(text)})


#: "phoenix" is in both lexicons, which are not in sorted order, and
#: "i\u0307" is the lower-cased token "İ".
TOY_GAZETTEERS = {
    "src": frozenset({"boston", "phoenix", "i\u0307"}),
    "dst": frozenset({"dallas", "phoenix"}),
}

#: Texts at the feature builder's edges: one to three tokens (``bos``,
#: ``eos`` and the two-word window), mixed case (``shape=`` reads the
#: text, every other feature the lower-cased word) and "İ", whose
#: lower-case form is two characters long.
EDGE_TEXTS = {
    "empty": "",
    "one-token": "phoenix",
    "two-tokens": "phoenix boston",
    "three-tokens": "to phoenix ?",
    "mixed-case": "Fly From PHOENIX to BoStOn",
    "dotted-capital-i": "İ",
    "dotted-capital-i-word": "fly from İstanbul to phoenix",
}


class TestFeatures:
    @pytest.mark.parametrize("text", EDGE_TEXTS.values(), ids=EDGE_TEXTS)
    @pytest.mark.parametrize("gazetteers", [{}, TOY_GAZETTEERS],
                             ids=["no-gazetteers", "toy-gazetteers"])
    def test_edge_texts(self, gazetteers, text):
        assert_same_features(gazetteers, text)

    def test_word_in_two_lexicons_keeps_lexicon_order(self):
        features = _sentence_features(tokenize("Phoenix"),
                                      _gazetteer_features(TOY_GAZETTEERS))
        assert features[0][-2:] == ["gaz=src", "gaz=dst"]
        assert_same_features(TOY_GAZETTEERS, "Phoenix")

    def test_movie_corpus(self, trained_agent, movie_texts):
        __, agent = trained_agent
        gazetteers = agent.artifacts.nlu.tagger.gazetteers
        for text in movie_texts:
            assert_same_features(gazetteers, text)


class TestToyDatasets:
    @pytest.mark.parametrize("gazetteers", [None, TOY_GAZETTEERS])
    def test_identical_model_and_decodes(self, gazetteers):
        dataset = toy_slot_dataset()
        reference, tagger = train_pair(dataset, epochs=5, gazetteers=gazetteers)
        assert_same_model(reference, tagger)
        texts = [example.text for example in dataset] + [
            "fly from phoenix to boston", "boston", "?!", "Fly From X",
        ] + list(EDGE_TEXTS.values())
        for text in texts:
            assert_same_decode(reference, tagger, text)

    def test_nothing_to_learn_from(self):
        dataset = NLUDataset([NLUExample("   ", "x"), NLUExample("", "x")])
        reference, tagger = train_pair(dataset)
        assert_same_model(reference, tagger)
        assert_same_decode(reference, tagger, "fly to boston")


class TestMovieCorpus:
    def test_identical_model(self, movie_pair):
        assert_same_model(*movie_pair)

    def test_identical_decodes(self, movie_pair, movie_texts):
        reference, tagger = movie_pair
        for text in movie_texts:
            assert_same_decode(reference, tagger, text)


class TestAtisCorpus:
    def test_identical_model_and_decodes(self, atis_examples):
        sample = NLUDataset(atis_examples[::8])
        reference, tagger = train_pair(sample, epochs=CORPUS_EPOCHS)
        assert_same_model(reference, tagger)
        for example in atis_examples[1::16]:
            assert_same_decode(reference, tagger, example.text)


class TestEarlyStop:
    """``epochs`` is a maximum: the tagger stops after the first epoch
    without a mistake and must still equal the reference, which runs
    every epoch."""

    EPOCHS = 8

    @pytest.fixture()
    def decodes(self, monkeypatch):
        """Counts the sequences the tagger decodes."""
        counter = {"calls": 0}

        def counting(token_rows, transitions):
            counter["calls"] += 1
            return _viterbi(token_rows, transitions)

        monkeypatch.setattr("repro.nlu.slots._viterbi", counting)
        return counter

    @pytest.mark.parametrize("corpus", ["toy", "atis"])
    def test_converged_run_stops_early(self, corpus, atis_examples, decodes):
        dataset = (toy_slot_dataset() if corpus == "toy"
                   else NLUDataset(atis_examples[::16]))
        reference, tagger = train_pair(dataset, epochs=self.EPOCHS)
        assert 0 < decodes["calls"] < self.EPOCHS * len(dataset)
        assert_same_model(reference, tagger)

    def test_run_that_never_converges(self, decodes):
        # One text tagged two ways: each epoch gets one of them wrong.
        dataset = NLUDataset(list(toy_slot_dataset())[:6] + [
            NLUExample("fly to boston", "flight",
                       (SlotSpan(name, "boston", 7, 13),))
            for name in ("src", "dst")
        ])
        reference, tagger = train_pair(dataset, epochs=self.EPOCHS)
        assert decodes["calls"] == self.EPOCHS * len(dataset)
        assert_same_model(reference, tagger)


_PUNCTUATION = "!?.,;:-()'\"/&"
_unseen_word = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789",
    min_size=1, max_size=12,
)


@st.composite
def utterances(draw, known_words):
    word = st.one_of(
        st.sampled_from(known_words), _unseen_word,
        st.sampled_from(_PUNCTUATION),
    )
    shape = draw(st.sampled_from(["short", "one token", "punctuation", "long"]))
    if shape == "one token":
        return draw(word)
    if shape == "punctuation":
        return draw(st.text(alphabet=_PUNCTUATION + " ", min_size=1,
                            max_size=10))
    size = (1, 12) if shape == "short" else (40, 60)
    return " ".join(draw(st.lists(word, min_size=size[0], max_size=size[1])))


class TestGeneratedUtterances:
    @pytest.mark.parametrize("text", [
        "", "?", "...!", "zzqx", "forrest", "2",
        "forrest gump", "2 ?", "book forrest gump",
        "I Want 2 TICKETS For Forrest GUMP", "İ", "İ want İ tickets",
        " ".join(["tickets"] * 45),
        " ".join(f"qq{i}" for i in range(41)),
    ], ids=["empty", "question-mark", "punctuation", "unseen-word",
            "known-word", "digit", "two-known", "two-short", "three-known",
            "mixed-case", "dotted-capital-i", "dotted-capital-i-words",
            "45-known", "41-unseen"])
    def test_edge_shapes(self, movie_pair, text):
        assert_same_decode(*movie_pair, text)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_identical_decodes(self, movie_pair, known_words, data):
        text = data.draw(utterances(known_words))
        assert_same_features(movie_pair[1].gazetteers, text)
        assert_same_decode(*movie_pair, text)


class TestSharedTagger:
    def test_threads_tag_like_one_thread(self, trained_agent, movie_texts):
        __, agent = trained_agent
        tagger = agent.artifacts.nlu.tagger
        texts = movie_texts[:120] + ["", "?!", " ".join(["row"] * 45)]
        expected = [tagger.tag(text) for text in texts]
        results: list[list | None] = [None] * 8

        def work(slot: int) -> None:
            results[slot] = [tagger.tag(text) for text in texts]

        threads = [threading.Thread(target=work, args=(slot,))
                   for slot in range(len(results))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(result == expected for result in results)
