"""Slot filling: averaged structured perceptron over BIO tags.

A classic sequence labeller: hand-crafted per-token features (word
identity, shape, affixes, context window) scored against label weights
plus first-order transition weights, decoded with Viterbi and trained
with averaged perceptron updates.  This is the from-scratch equivalent
of the CRF-style slot filler RASA trains.  Features and labels are
interned to ints once, and one decoder serves training and tagging.

One function, ``_sentence_features``, builds a sentence's features for
both :meth:`SlotTagger.fit` and :meth:`SlotTagger.tag`: it lower-cases
each token once and finds a word's gazetteer hits with one probe of the
``word -> gaz= features`` map that ``fit`` builds.  ``_viterbi`` sums
each token's emissions with the built-in ``sum()`` in feature order and
puts the sentence's emissions into one array before the label steps.
"""

from __future__ import annotations

import random

import numpy as np

from repro.errors import NLUError, NotFittedError
from repro.nlu.tokenizer import Token, bio_to_spans, spans_to_bio, tokenize
from repro.synthesis.corpus import NLUDataset, SlotSpan

__all__ = ["SlotTagger"]

_OUTSIDE = "O"


def _shape(word: str) -> str:
    out = []
    for char in word:
        if char.isupper():
            out.append("X")
        elif char.islower():
            out.append("x")
        elif char.isdigit():
            out.append("d")
        else:
            out.append(char)
    # Collapse runs so shapes generalise ("Xxxxx" -> "Xx+").
    collapsed: list[str] = []
    for char in out:
        if collapsed and collapsed[-1] == char:
            continue
        collapsed.append(char)
    return "".join(collapsed)


def _gazetteer_features(
    gazetteers: dict[str, frozenset[str]]
) -> dict[str, tuple[str, ...]]:
    """Each gazetteer word's ``gaz=`` features, in lexicon order."""
    features: dict[str, tuple[str, ...]] = {}
    for slot_name, lexicon in gazetteers.items():
        # () + feature is feature itself, so the words found in this
        # lexicon only all share one tuple.
        feature = (f"gaz={slot_name}",)
        for word in lexicon:
            features[word] = features.get(word, ()) + feature
    return features


def _sentence_features(
    tokens: list[Token], gazetteer_features: dict[str, tuple[str, ...]]
) -> list[list[str]]:
    """Each token's features: word, shape, affixes, two words either side
    and gazetteer hits."""
    words = [token.text.lower() for token in tokens]
    last = len(words) - 1
    sentence = []
    for i, word in enumerate(words):
        features = [
            f"w={word}",
            f"shape={_shape(tokens[i].text)}",
            f"pre2={word[:2]}",
            f"pre3={word[:3]}",
            f"suf2={word[-2:]}",
            f"suf3={word[-3:]}",
            f"isdigit={word.isdigit()}",
            f"w-1={words[i - 1]}" if i else "bos",
            f"w+1={words[i + 1]}" if i < last else "eos",
        ]
        if i >= 2:
            features.append(f"w-2={words[i - 2]}")
        if i + 2 <= last:
            features.append(f"w+2={words[i + 2]}")
        features += gazetteer_features.get(word, ())
        sentence.append(features)
    return sentence


class SlotTagger:
    """Averaged structured perceptron BIO tagger.

    ``gazetteers`` maps slot names to lower-cased token lexicons (e.g.
    every word of every movie title); membership becomes a feature, the
    equivalent of RASA's lookup tables; :meth:`fit` turns them into one
    ``word -> gaz= features`` map, so a token costs one dict probe.
    What :meth:`tag` reads is built by :meth:`fit` and never written
    again, so threads may share it.

    ``epochs`` is a maximum: :meth:`fit` stops after the first epoch that
    decodes every sequence correctly.  Such an epoch updates nothing, so
    every later one would too; the skipped epochs' sequences still count
    in the averages' step, which leaves the weights and transitions
    bit-identical to running all ``epochs``.
    """

    def __init__(
        self,
        epochs: int = 8,
        seed: int = 11,
        gazetteers: dict[str, frozenset[str]] | None = None,
    ) -> None:
        self.epochs = epochs
        self.seed = seed
        self.gazetteers = gazetteers or {}
        self._labels: list[str] | None = None
        #: feature -> averaged weight per label id (all-zero rows left out)
        self._weights: dict[str, tuple[float, ...]] | None = None
        #: (L+1) x L averaged transition weights; row L is the start
        self._transitions: np.ndarray | None = None
        #: gazetteer word -> its gaz= features
        self._gazetteer_features: dict[str, tuple[str, ...]] = {}

    # ------------------------------------------------------------------
    @property
    def labels(self) -> list[str]:
        if self._labels is None:
            raise NotFittedError("slot tagger is not trained")
        return list(self._labels)

    def fit(self, dataset: NLUDataset) -> "SlotTagger":
        if len(dataset) == 0:
            raise NLUError("cannot train on an empty dataset")
        gazetteer_features = _gazetteer_features(self.gazetteers)
        feature_ids: dict[str, int] = {}
        examples: list[tuple[list[list[int]], list[str]]] = []
        label_set = {_OUTSIDE}
        for example in dataset:
            tokens = tokenize(example.text)
            if not tokens:
                continue
            labels = spans_to_bio(tokens, example.slots)
            label_set.update(labels)
            features = [
                [feature_ids.setdefault(f, len(feature_ids)) for f in token]
                for token in _sentence_features(tokens, gazetteer_features)
            ]
            examples.append((features, labels))
        self._labels = sorted(label_set)
        label_ids = {label: i for i, label in enumerate(self._labels)}
        n_labels = start = len(self._labels)

        weights = [[0.0] * n_labels for __ in feature_ids]
        totals_w = [[0.0] * n_labels for __ in feature_ids]
        stamps_w = [[0] * n_labels for __ in feature_ids]
        transitions = np.zeros((n_labels + 1, n_labels))
        totals_t = np.zeros((n_labels + 1, n_labels))
        stamps_t = np.zeros((n_labels + 1, n_labels), dtype=np.int64)
        # Each token's live weight rows, which the decoder reads.
        sequences = [
            (features, [[weights[f] for f in ids] for ids in features],
             [label_ids[label] for label in labels])
            for features, labels in examples
        ]
        step = 0

        rng = random.Random(self.seed)
        for epoch in range(self.epochs):
            rng.shuffle(sequences)
            mistakes = 0
            for features, rows, gold in sequences:
                step += 1
                predicted, __ = _viterbi(rows, transitions)
                if predicted == gold:
                    continue
                mistakes += 1
                previous_gold, previous_pred = start, start
                for i, (g, p) in enumerate(zip(gold, predicted)):
                    if p != g:
                        for f in features[i]:
                            _update(weights, totals_w, stamps_w, step, f, g, 1.0)
                            _update(weights, totals_w, stamps_w, step, f, p, -1.0)
                    if (previous_gold, g) != (previous_pred, p):
                        _update(transitions, totals_t, stamps_t, step,
                                previous_gold, g, 1.0)
                        _update(transitions, totals_t, stamps_t, step,
                                previous_pred, p, -1.0)
                    previous_gold, previous_pred = g, p
            if not mistakes:
                # Nothing changed, so every later epoch would decode the
                # same paths and update nothing: only the step count the
                # averages use still moves.
                step += (self.epochs - epoch - 1) * len(sequences)
                break

        # Finalise averaging.
        denominator = max(step, 1)
        self._weights = {}
        for feature, w, t, s in zip(feature_ids, weights, totals_w, stamps_w):
            row = tuple([(t[j] + (step - s[j]) * w[j]) / denominator
                         for j in range(n_labels)])
            if any(row):
                self._weights[feature] = row
        self._transitions = (
            totals_t + (step - stamps_t) * transitions) / denominator
        self._transitions.flags.writeable = False
        self._gazetteer_features = gazetteer_features
        return self

    # ------------------------------------------------------------------
    def tag(
        self, text: str, tokens: list[Token] | None = None
    ) -> list[SlotSpan]:
        """Predict character-span slots for ``text``; ``tokens``, when
        given, must be ``tokenize(text)``."""
        if self._weights is None or self._transitions is None:
            raise NotFittedError("slot tagger is not trained")
        if tokens is None:
            tokens = tokenize(text)
        if not tokens:
            return []
        path, __ = self._decode(tokens)
        return bio_to_spans(text, tokens, [self._labels[j] for j in path])

    def _decode(self, tokens: list[Token]) -> tuple[list[int], list[np.ndarray]]:
        # Features never seen in training score nothing.
        weight_row = self._weights.get
        rows = [
            [row for row in map(weight_row, features) if row is not None]
            for features in _sentence_features(tokens,
                                               self._gazetteer_features)
        ]
        return _viterbi(rows, self._transitions)


def _viterbi(
    token_rows: list[list], transitions: np.ndarray
) -> tuple[list[int], list[np.ndarray]]:
    """Best label-id path and each token's per-label scores.

    ``token_rows[i]`` holds token ``i``'s weight rows in feature order.
    A label's emission is the built-in ``sum()`` of its column, as when
    summing every ``(feature, label)`` weight: Python 3.12+ compensates
    ``sum()`` rounding, which a numpy reduction or a ``+=`` loop would
    not reproduce.  ``argmax`` keeps the first maximum, like a strict
    ``>`` scan over previous labels, and the step's score gathers that
    maximum.
    """
    n_labels = transitions.shape[1]
    emissions = np.array([
        list(map(sum, zip(*rows))) or [0.0] * n_labels for rows in token_rows
    ])
    steps = transitions[:-1]
    labels = np.arange(n_labels)
    score = transitions[-1] + emissions[0]
    scores = [score]
    back = []
    for emission in emissions[1:]:
        candidates = score[:, None] + steps
        best = candidates.argmax(axis=0)
        back.append(best)
        score = candidates[best, labels] + emission
        scores.append(score)
    label = int(score.argmax())
    path = [label]
    for best in reversed(back):
        label = int(best[label])
        path.append(label)
    path.reverse()
    return path, scores


def _update(weights, totals, stamps, step: int, row: int, label: int,
            delta: float) -> None:
    totals[row][label] += (step - stamps[row][label]) * weights[row][label]
    stamps[row][label] = step
    weights[row][label] += delta
