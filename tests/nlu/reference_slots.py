"""Reference slot tagger: the dict-keyed perceptron the array tagger replaced.

Weights and transitions live in dicts keyed by ``(feature, label)`` and
``(previous, label)``, and the decoder scores every pair through
``dict.get``.  Slow, but every step is plain: the differential tests
require :class:`repro.nlu.SlotTagger` to reproduce its averaged weights,
transitions, per-token Viterbi scores and tags exactly.
"""

from __future__ import annotations

import random
from collections import defaultdict

from repro.nlu.slots import _token_features
from repro.nlu.tokenizer import Token, spans_to_bio, tokenize
from repro.synthesis.corpus import NLUDataset

OUTSIDE = "O"
START = "<s>"


class ReferenceSlotTagger:
    def __init__(
        self,
        epochs: int = 8,
        seed: int = 11,
        gazetteers: dict[str, frozenset[str]] | None = None,
    ) -> None:
        self.epochs = epochs
        self.seed = seed
        self.gazetteers = gazetteers or {}
        self.labels: list[str] = []
        self.weights: dict[tuple[str, str], float] = {}
        self.transitions: dict[tuple[str, str], float] = {}

    def fit(self, dataset: NLUDataset) -> "ReferenceSlotTagger":
        sequences: list[tuple[list[Token], list[str]]] = []
        label_set = {OUTSIDE}
        for example in dataset:
            tokens = tokenize(example.text)
            if not tokens:
                continue
            labels = spans_to_bio(tokens, example.slots)
            label_set.update(labels)
            sequences.append((tokens, labels))
        self.labels = sorted(label_set)

        weights: dict[tuple[str, str], float] = defaultdict(float)
        transitions: dict[tuple[str, str], float] = defaultdict(float)
        totals_w: dict[tuple[str, str], float] = defaultdict(float)
        totals_t: dict[tuple[str, str], float] = defaultdict(float)
        stamps_w: dict[tuple[str, str], int] = defaultdict(int)
        stamps_t: dict[tuple[str, str], int] = defaultdict(int)
        step = 0

        rng = random.Random(self.seed)
        for __ in range(self.epochs):
            rng.shuffle(sequences)
            for tokens, gold in sequences:
                step += 1
                predicted, __ = self.viterbi(tokens, weights, transitions)
                if predicted == gold:
                    continue
                previous_gold, previous_pred = START, START
                for i in range(len(tokens)):
                    if predicted[i] != gold[i]:
                        for feature in _token_features(tokens, i, self.gazetteers):
                            _update(weights, totals_w, stamps_w, step,
                                    (feature, gold[i]), 1.0)
                            _update(weights, totals_w, stamps_w, step,
                                    (feature, predicted[i]), -1.0)
                    gold_edge = (previous_gold, gold[i])
                    pred_edge = (previous_pred, predicted[i])
                    if gold_edge != pred_edge:
                        _update(transitions, totals_t, stamps_t, step,
                                gold_edge, 1.0)
                        _update(transitions, totals_t, stamps_t, step,
                                pred_edge, -1.0)
                    previous_gold, previous_pred = gold[i], predicted[i]

        for key, weight in weights.items():
            totals_w[key] += (step - stamps_w[key]) * weight
        for key, weight in transitions.items():
            totals_t[key] += (step - stamps_t[key]) * weight
        denominator = max(step, 1)
        self.weights = {k: v / denominator for k, v in totals_w.items() if v}
        self.transitions = {k: v / denominator for k, v in totals_t.items() if v}
        return self

    def decode(self, text: str) -> tuple[list[str], list[dict[str, float]]]:
        """Labels and per-token label scores of ``text`` (no tokens: [])."""
        tokens = tokenize(text)
        if not tokens:
            return [], []
        return self.viterbi(tokens, self.weights, self.transitions)

    def viterbi(
        self,
        tokens: list[Token],
        weights: dict[tuple[str, str], float],
        transitions: dict[tuple[str, str], float],
    ) -> tuple[list[str], list[dict[str, float]]]:
        labels = self.labels
        n = len(tokens)
        scores = [dict.fromkeys(labels, float("-inf")) for __ in range(n)]
        back: list[dict[str, str]] = [{} for __ in range(n)]

        features0 = _token_features(tokens, 0, self.gazetteers)
        for label in labels:
            emission = sum(weights.get((f, label), 0.0) for f in features0)
            scores[0][label] = emission + transitions.get((START, label), 0.0)

        for i in range(1, n):
            features = _token_features(tokens, i, self.gazetteers)
            emissions = {
                label: sum(weights.get((f, label), 0.0) for f in features)
                for label in labels
            }
            for label in labels:
                best_prev, best_score = None, float("-inf")
                for previous in labels:
                    score = (
                        scores[i - 1][previous]
                        + transitions.get((previous, label), 0.0)
                    )
                    if score > best_score:
                        best_prev, best_score = previous, score
                scores[i][label] = best_score + emissions[label]
                back[i][label] = best_prev or OUTSIDE

        last = max(labels, key=lambda lb: scores[n - 1][lb])
        path = [last]
        for i in range(n - 1, 0, -1):
            path.append(back[i][path[-1]])
        path.reverse()
        return path, scores


def _update(
    weights: dict[tuple[str, str], float],
    totals: dict[tuple[str, str], float],
    stamps: dict[tuple[str, str], int],
    step: int,
    key: tuple[str, str],
    delta: float,
) -> None:
    totals[key] += (step - stamps[key]) * weights[key]
    stamps[key] = step
    weights[key] += delta
