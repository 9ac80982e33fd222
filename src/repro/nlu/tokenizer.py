"""Offset-preserving tokenizer and BIO span conversion.

The slot tagger is trained on token-level BIO labels, but the synthesized
corpus annotates character spans.  The tokenizer keeps exact character
offsets so the two views convert losslessly in both directions.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from repro.synthesis.corpus import SlotSpan

__all__ = ["Token", "tokenize", "spans_to_bio", "bio_to_spans"]

_TOKEN_RE = re.compile(r"[A-Za-z0-9']+|[^\sA-Za-z0-9]")

OUTSIDE = "O"


class Token(NamedTuple):
    """One token with its exact character span in the source text."""

    text: str
    start: int
    end: int

    @property
    def lower(self) -> str:
        return self.text.lower()


# Token's generated __new__ is a Python frame around exactly this call;
# tokenize builds one token per word of every parsed utterance.
_new_tuple = tuple.__new__


def tokenize(text: str) -> list[Token]:
    """Split ``text`` into word/punctuation tokens with offsets."""
    return [
        _new_tuple(Token, (m.group(), *m.span()))
        for m in _TOKEN_RE.finditer(text)
    ]


def spans_to_bio(tokens: list[Token], spans: tuple[SlotSpan, ...]) -> list[str]:
    """Project character-span slot annotations onto BIO token labels.

    A token belongs to a span when their character ranges overlap.  Spans
    that do not align with any token are ignored (they cannot be learned
    or predicted at token level anyway).
    """
    labels = [OUTSIDE] * len(tokens)
    for span in spans:
        inside = False
        for i, token in enumerate(tokens):
            overlaps = token.start < span.end and token.end > span.start
            if overlaps:
                labels[i] = f"{'I' if inside else 'B'}-{span.name}"
                inside = True
            elif inside and token.start >= span.end:
                break
    return labels


def bio_to_spans(text: str, tokens: list[Token], labels: list[str]) -> list[SlotSpan]:
    """Convert predicted BIO labels back into character-span slots."""
    spans: list[SlotSpan] = []
    current_name: str | None = None
    current_start = 0
    current_end = 0
    for token, label in zip(tokens, labels):
        if label.startswith("B-"):
            if current_name is not None:
                spans.append(_make_span(text, current_name, current_start, current_end))
            current_name = label[2:]
            current_start = token.start
            current_end = token.end
        elif label.startswith("I-") and current_name == label[2:]:
            current_end = token.end
        else:
            if current_name is not None:
                spans.append(_make_span(text, current_name, current_start, current_end))
                current_name = None
            if label.startswith("I-"):
                # Orphan I- tag: treat as a new span (robust decoding).
                current_name = label[2:]
                current_start = token.start
                current_end = token.end
    if current_name is not None:
        spans.append(_make_span(text, current_name, current_start, current_end))
    return spans


def _make_span(text: str, name: str, start: int, end: int) -> SlotSpan:
    return SlotSpan(name=name, value=text[start:end], start=start, end=end)
