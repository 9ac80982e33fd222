"""Tests for the tokenizer and BIO span conversion."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nlu import Token, bio_to_spans, spans_to_bio, tokenize
from repro.synthesis import SlotSpan


class TestTokenize:
    def test_words_and_offsets(self):
        tokens = tokenize("i want 4 tickets")
        assert [t.text for t in tokens] == ["i", "want", "4", "tickets"]
        assert tokens[2].start == 7 and tokens[2].end == 8

    def test_punctuation_separated(self):
        tokens = tokenize("hello, world!")
        assert [t.text for t in tokens] == ["hello", ",", "world", "!"]

    def test_apostrophes_kept(self):
        tokens = tokenize("i don't know")
        assert "don't" in [t.text for t in tokens]

    def test_empty(self):
        assert tokenize("") == []

    def test_tokens_are_values(self):
        tokens = tokenize("Forrest Gump")
        assert tokens == [Token("Forrest", 0, 7), Token("Gump", 8, 12)]
        assert all(type(token) is Token for token in tokens)
        assert (tokens[0].text, tokens[0].start, tokens[0].end) == \
            ("Forrest", 0, 7)
        assert tokens[0].lower == "forrest"

    def test_offsets_reconstruct_tokens(self):
        text = "The Forrest Gump screening, at 20:30!"
        for token in tokenize(text):
            assert text[token.start:token.end] == token.text


class TestSpansToBio:
    def test_single_token_span(self):
        text = "see Heat now"
        tokens = tokenize(text)
        labels = spans_to_bio(tokens, (SlotSpan("title", "Heat", 4, 8),))
        assert labels == ["O", "B-title", "O"]

    def test_multi_token_span(self):
        text = "see Forrest Gump now"
        tokens = tokenize(text)
        labels = spans_to_bio(tokens, (SlotSpan("title", "Forrest Gump", 4, 16),))
        assert labels == ["O", "B-title", "I-title", "O"]

    def test_multiple_spans(self):
        text = "4 tickets for Heat"
        tokens = tokenize(text)
        spans = (SlotSpan("n", "4", 0, 1), SlotSpan("title", "Heat", 14, 18))
        labels = spans_to_bio(tokens, spans)
        assert labels == ["B-n", "O", "O", "B-title"]

    def test_no_spans_all_outside(self):
        labels = spans_to_bio(tokenize("hello there"), ())
        assert labels == ["O", "O"]


class TestBioToSpans:
    def test_roundtrip_simple(self):
        text = "book Forrest Gump for monday"
        tokens = tokenize(text)
        spans = (
            SlotSpan("title", "Forrest Gump", 5, 17),
            SlotSpan("day", "monday", 22, 28),
        )
        labels = spans_to_bio(tokens, spans)
        recovered = bio_to_spans(text, tokens, labels)
        assert tuple(recovered) == spans

    def test_orphan_i_tag_starts_span(self):
        text = "a b"
        tokens = tokenize(text)
        recovered = bio_to_spans(text, tokens, ["O", "I-x"])
        assert len(recovered) == 1
        assert recovered[0].name == "x"

    def test_adjacent_different_slots(self):
        text = "alice gruber"
        tokens = tokenize(text)
        labels = ["B-first", "B-last"]
        recovered = bio_to_spans(text, tokens, labels)
        assert [s.name for s in recovered] == ["first", "last"]

    def test_span_at_end_closed(self):
        text = "see Heat"
        tokens = tokenize(text)
        recovered = bio_to_spans(text, tokens, ["O", "B-title"])
        assert recovered[0].value == "Heat"


@st.composite
def labelled_texts(draw):
    """Random word sequences with random non-overlapping slot words."""
    n = draw(st.integers(1, 8))
    words = [draw(st.sampled_from(["alpha", "beta", "gamma", "delta", "x1"]))
             for __ in range(n)]
    text = " ".join(words)
    tokens = tokenize(text)
    labels = []
    previous_slot = None
    for __ in tokens:
        choice = draw(st.sampled_from(["O", "B-a", "B-b", "I"]))
        if choice == "I" and previous_slot:
            labels.append(f"I-{previous_slot}")
        elif choice.startswith("B-"):
            labels.append(choice)
            previous_slot = choice[2:]
            continue
        else:
            labels.append("O" if choice == "I" else choice)
        previous_slot = labels[-1][2:] if labels[-1] != "O" else None
    return text, tokens, labels


class TestRoundtripProperties:
    @given(labelled_texts())
    @settings(max_examples=60)
    def test_bio_to_spans_to_bio_is_stable(self, case):
        text, tokens, labels = case
        spans = bio_to_spans(text, tokens, labels)
        relabelled = spans_to_bio(tokens, tuple(spans))
        respanned = bio_to_spans(text, tokens, relabelled)
        assert [(s.name, s.start, s.end) for s in spans] == [
            (s.name, s.start, s.end) for s in respanned
        ]

    @given(labelled_texts())
    @settings(max_examples=60)
    def test_spans_lie_within_text(self, case):
        text, tokens, labels = case
        for span in bio_to_spans(text, tokens, labels):
            assert 0 <= span.start < span.end <= len(text)
            assert text[span.start:span.end] == span.value
