"""Reference intent training: the dense loop the sparse one replaced.

Every text becomes a dense row over the whole vocabulary, and every SGD
step multiplies a dense batch by the weights both ways.  Slow and
memory-hungry, but every step is plain: the differential tests require
:class:`repro.nlu.NGramFeaturizer` to reproduce its rows exactly and
:class:`repro.nlu.IntentClassifier` to train to within a few rounding
errors of it.  N-grams come from the featurizer's own ``_extract``,
which both paths share.
"""

from __future__ import annotations

import numpy as np

from repro.nlu.features import NGramFeaturizer
from repro.synthesis.corpus import NLUDataset


def fit_vocabulary(
    featurizer: NGramFeaturizer, texts: list[str]
) -> dict[str, int]:
    counts: dict[str, int] = {}
    for text in texts:
        for feature in featurizer._extract(text):
            counts[feature] = counts.get(feature, 0) + 1
    kept = [f for f, c in counts.items() if c >= featurizer.min_count]
    kept.sort(key=lambda f: (-counts[f], f))
    kept = kept[: featurizer.max_features]
    return {feature: i for i, feature in enumerate(sorted(kept))}


def dense_transform(
    featurizer: NGramFeaturizer, vocabulary: dict[str, int], texts: list[str]
) -> np.ndarray:
    matrix = np.zeros((len(texts), len(vocabulary)), dtype=np.float64)
    for row, text in enumerate(texts):
        for feature in featurizer._extract(text):
            column = vocabulary.get(feature)
            if column is not None:
                matrix[row, column] += 1.0
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return matrix / norms


class ReferenceIntentClassifier:
    def __init__(
        self,
        learning_rate: float = 0.5,
        l2: float = 1e-4,
        epochs: int = 60,
        batch_size: int = 32,
        seed: int = 5,
        featurizer: NGramFeaturizer | None = None,
    ) -> None:
        self.learning_rate = learning_rate
        self.l2 = l2
        self.epochs = epochs
        self.batch_size = batch_size
        self.seed = seed
        self.featurizer = featurizer or NGramFeaturizer()
        self.labels: list[str] = []
        self.vocabulary: dict[str, int] = {}
        self.weights = np.zeros((0, 0))
        self.bias = np.zeros(0)

    def fit(self, dataset: NLUDataset) -> "ReferenceIntentClassifier":
        texts = [e.text for e in dataset]
        self.labels = sorted({e.intent for e in dataset})
        label_index = {label: i for i, label in enumerate(self.labels)}
        targets = np.array([label_index[e.intent] for e in dataset])

        self.vocabulary = fit_vocabulary(self.featurizer, texts)
        features = dense_transform(self.featurizer, self.vocabulary, texts)
        n_samples, n_features = features.shape
        n_classes = len(self.labels)
        rng = np.random.default_rng(self.seed)
        weights = np.zeros((n_features, n_classes))
        bias = np.zeros(n_classes)

        one_hot = np.zeros((n_samples, n_classes))
        one_hot[np.arange(n_samples), targets] = 1.0
        class_counts = one_hot.sum(axis=0)
        class_weights = n_samples / (n_classes * np.maximum(class_counts, 1.0))
        sample_weights = class_weights[targets]

        for __ in range(self.epochs):
            order = rng.permutation(n_samples)
            for start in range(0, n_samples, self.batch_size):
                batch = order[start : start + self.batch_size]
                x = features[batch]
                y = one_hot[batch]
                w = sample_weights[batch][:, None]
                probabilities = softmax(x @ weights + bias)
                error = (probabilities - y) * w
                gradient = x.T @ error / len(batch)
                weights -= self.learning_rate * (gradient + self.l2 * weights)
                bias -= self.learning_rate * error.mean(axis=0)
        self.weights = weights
        self.bias = bias
        return self

    def predict_proba(self, texts: list[str]) -> np.ndarray:
        features = dense_transform(self.featurizer, self.vocabulary, texts)
        return softmax(features @ self.weights + self.bias)


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)
