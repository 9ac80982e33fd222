"""Natural-language understanding: intent, slots, entity linking."""

from repro.nlu.baselines import (
    GazetteerSlotBaseline,
    KeywordIntentBaseline,
    MajorityIntentBaseline,
    NearestNeighborIntentBaseline,
)
from repro.nlu.entity_linking import EntityLinker, LinkedValue
from repro.nlu.features import NGramFeaturizer
from repro.nlu.intent import IntentClassifier, IntentPrediction
from repro.nlu.pipeline import (
    FALLBACK_INTENT,
    NLUPipeline,
    NLUResult,
    build_gazetteers,
)
from repro.nlu.slots import SlotTagger
from repro.nlu.tokenizer import Token, bio_to_spans, spans_to_bio, tokenize

__all__ = [
    "FALLBACK_INTENT",
    "EntityLinker",
    "GazetteerSlotBaseline",
    "IntentClassifier",
    "IntentPrediction",
    "KeywordIntentBaseline",
    "LinkedValue",
    "MajorityIntentBaseline",
    "NGramFeaturizer",
    "NLUPipeline",
    "NLUResult",
    "NearestNeighborIntentBaseline",
    "SlotTagger",
    "Token",
    "build_gazetteers",
    "bio_to_spans",
    "spans_to_bio",
    "tokenize",
]
