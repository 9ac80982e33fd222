"""The NLU pipeline: text -> intent + linked slot values.

Chains the intent classifier, the BIO slot tagger and the entity linker
into the single ``parse`` entry point the agent runtime uses.  ``parse``
tokenises the utterance once and hands the tokens to both models.  Low-
confidence intent predictions fall back to a dedicated ``fallback``
intent so the dialogue manager can ask the user to rephrase.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.db.database import Database
from repro.nlu.entity_linking import EntityLinker, LinkedValue
from repro.nlu.intent import IntentClassifier
from repro.nlu.slots import SlotTagger
from repro.nlu.tokenizer import tokenize
from repro.synthesis.corpus import NLUDataset, SlotSpan
from repro.synthesis.templates import SlotVocabulary

__all__ = ["NLUResult", "NLUPipeline", "FALLBACK_INTENT", "build_gazetteers"]

FALLBACK_INTENT = "fallback"


def build_gazetteers(
    database: Database, vocabulary: SlotVocabulary
) -> dict[str, frozenset[str]]:
    """Token lexicons per text slot, built from the live column values.

    Every word of every stored value of the slot's source column becomes
    a gazetteer token (the equivalent of RASA lookup tables, but derived
    from the database for free).
    """
    from repro.db.types import DataType

    gazetteers: dict[str, frozenset[str]] = {}
    for slot_name in vocabulary.names():
        source = vocabulary.source(slot_name)
        if source.attribute is None or source.dtype is not DataType.TEXT:
            continue
        table = database.table(source.attribute.table)
        words: set[str] = set()
        for value in table.column_values(source.attribute.column):
            if isinstance(value, str):
                words.update(t.lower for t in tokenize(value))
        if words:
            gazetteers[slot_name] = frozenset(words)
    return gazetteers


@dataclass(frozen=True)
class NLUResult:
    """Parsed user utterance."""

    text: str
    intent: str
    confidence: float
    slots: tuple[SlotSpan, ...] = ()
    linked: tuple[LinkedValue, ...] = ()

    def linked_value(self, slot: str) -> LinkedValue | None:
        for value in self.linked:
            if value.slot == slot:
                return value
        return None


class NLUPipeline:
    """Trainable intent + slots + linking pipeline."""

    def __init__(
        self,
        database: Database,
        vocabulary: SlotVocabulary,
        confidence_threshold: float = 0.25,
        intent: IntentClassifier | None = None,
        tagger: SlotTagger | None = None,
        linker: EntityLinker | None = None,
        reference_date=None,
    ) -> None:
        self._database = database
        self._vocabulary = vocabulary
        self.confidence_threshold = confidence_threshold
        self.intent = intent or IntentClassifier()
        self.tagger = tagger or SlotTagger(
            gazetteers=build_gazetteers(database, vocabulary)
        )
        self.linker = linker or EntityLinker(
            database, vocabulary, reference_date=reference_date
        )

    # ------------------------------------------------------------------
    def train(self, dataset: NLUDataset) -> "NLUPipeline":
        self.intent.fit(dataset)
        self.tagger.fit(dataset)
        return self

    # ------------------------------------------------------------------
    def parse(self, text: str) -> NLUResult:
        tokens = tokenize(text)
        prediction = self.intent.predict(text, tokens)
        intent = prediction.intent
        confidence = prediction.confidence
        if confidence < self.confidence_threshold:
            intent = FALLBACK_INTENT
        spans = tuple(self.tagger.tag(text, tokens))
        linked: list[LinkedValue] = []
        for span in spans:
            if span.name not in self._vocabulary:
                continue
            value = self.linker.link(span.name, span.value)
            if value is not None:
                linked.append(value)
        return NLUResult(
            text=text,
            intent=intent,
            confidence=confidence,
            slots=spans,
            linked=tuple(linked),
        )
