"""Tests for the combined NLU pipeline (uses the session-scoped agent)."""

import sys

import pytest

from repro.nlu import FALLBACK_INTENT, NGramFeaturizer, build_gazetteers
from repro.nlu import tokenizer
from repro.synthesis import SlotVocabulary

PARSED_TEXTS = [
    "i want to buy 3 tickets", "hello", "", "  ", "İ",
    "i want to watch forest gump",
]


@pytest.fixture(scope="module")
def nlu(trained_agent):
    cat, agent = trained_agent
    return agent.artifacts.nlu


class TestParsing:
    def test_request_intent(self, nlu):
        result = nlu.parse("i want to buy 3 tickets")
        assert result.intent == "request_ticket_reservation"
        assert result.confidence > 0.3

    def test_generic_intents(self, nlu):
        assert nlu.parse("hello").intent == "greet"
        assert nlu.parse("yes please").intent == "affirm"
        assert nlu.parse("no that is wrong").intent == "deny"
        assert nlu.parse("i cannot remember").intent == "dont_know"

    def test_slot_extraction_and_linking(self, nlu):
        result = nlu.parse("i need 5 tickets")
        linked = result.linked_value("ticket_amount")
        assert linked is not None and linked.value == 5

    def test_fallback_on_gibberish(self, nlu):
        result = nlu.parse("qzx vbn mlk jhg")
        # Either a low-confidence fallback or some intent with low confidence;
        # the pipeline must never crash.
        assert result.intent == FALLBACK_INTENT or result.confidence < 0.9

    def test_linked_value_missing_slot(self, nlu):
        result = nlu.parse("hello")
        assert result.linked_value("movie_title") is None

    def test_misspelling_corrected_via_linker(self, nlu):
        result = nlu.parse("i want to watch forest gump")
        linked = result.linked_value("movie_title")
        assert linked is not None
        assert linked.value == "Forrest Gump"
        assert linked.corrected


class TestWorkPerParse:
    """``parse`` tokenises once, hands the tokens to both models, and
    scores the intent on the sparse row."""

    def test_tokenizes_once(self, nlu, monkeypatch):
        calls = []
        tokenize = tokenizer.tokenize

        def counting(text):
            calls.append(text)
            return tokenize(text)

        # Every module that imported the function by name.
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("repro.")
                    and getattr(module, "tokenize", None) is tokenize):
                monkeypatch.setattr(module, "tokenize", counting)
        for text in PARSED_TEXTS:
            calls.clear()
            nlu.parse(text)
            assert calls == [text]

    def test_builds_no_dense_row(self, nlu, monkeypatch):
        def dense(self, rows):
            raise AssertionError("parse scattered a dense feature row")

        monkeypatch.setattr(NGramFeaturizer, "_dense", dense)
        for text in PARSED_TEXTS:
            nlu.parse(text)


class TestGazetteers:
    def test_built_from_text_columns(self, trained_agent):
        cat, agent = trained_agent
        gazetteers = build_gazetteers(cat.database, cat.generator.vocabulary)
        assert "movie_title" in gazetteers
        assert "forrest" in gazetteers["movie_title"]

    def test_non_text_slots_excluded(self, trained_agent):
        cat, agent = trained_agent
        gazetteers = build_gazetteers(cat.database, cat.generator.vocabulary)
        assert "ticket_amount" not in gazetteers
