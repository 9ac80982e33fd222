"""Intent classification: multinomial logistic regression in numpy.

A deliberately simple but competitive model for short-utterance intent
classification: bag-of-n-grams features into a softmax layer trained
with mini-batch gradient descent and L2 regularisation for a fixed
number of epochs (``epochs``, 60 by default; there is no early
stopping), with inverse-frequency sample weights.
This stands in for the neural intent classifier RASA would train; the
paper's claim (synthesized training data suffices) is model-agnostic.

Training reads the featurizer's sparse rows and never builds the dense
corpus matrix: each batch is compacted to the feature columns its texts
touch, and its logits and gradient are computed on that small block.
The L2 step is kept as written, ``w -= lr * (g + l2 * w)`` on every
weight row at every step, so a row the batch does not touch (``g = 0``)
gets exactly the dense update's floats.  Only the summation order inside
the touched block differs from dense training, which moves the trained
weights by a few ulps (``tests/nlu/test_intent_differential.py``).

Prediction scores the same sparse rows: an utterance's logits are its
row values times the weight rows of its columns, ``values @ W[columns]
+ b``, about 22 of the default corpus's 3,899 rows instead of the whole
matrix.  :meth:`IntentClassifier.predict` (one utterance per turn) and
:meth:`IntentClassifier.predict_proba` (evaluation) share that per-row
kernel, so they agree exactly; against scoring the dense row, only the
summation order of the logits differs (probabilities within 1e-12).
"""

from __future__ import annotations

import numpy as np

from repro.errors import NLUError, NotFittedError
from repro.nlu.features import NGramFeaturizer
from repro.nlu.tokenizer import Token
from repro.synthesis.corpus import NLUDataset

__all__ = ["IntentClassifier", "IntentPrediction"]


class IntentPrediction:
    """Ranked intent hypothesis list for one utterance."""

    def __init__(self, ranking: list[tuple[str, float]]) -> None:
        if not ranking:
            raise NLUError("empty intent ranking")
        self.ranking = ranking

    @property
    def intent(self) -> str:
        return self.ranking[0][0]

    @property
    def confidence(self) -> float:
        return self.ranking[0][1]


class IntentClassifier:
    """Softmax regression over n-gram features."""

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
        self._labels: list[str] | None = None
        self._weights: np.ndarray | None = None
        self._bias: np.ndarray | None = None

    # ------------------------------------------------------------------
    @property
    def labels(self) -> list[str]:
        if self._labels is None:
            raise NotFittedError("intent classifier is not trained")
        return list(self._labels)

    def fit(self, dataset: NLUDataset) -> "IntentClassifier":
        if len(dataset) == 0:
            raise NLUError("cannot train on an empty dataset")
        texts = [e.text for e in dataset]
        self._labels = sorted({e.intent for e in dataset})
        label_index = {label: i for i, label in enumerate(self._labels)}
        targets = np.array([label_index[e.intent] for e in dataset])

        rows = self.featurizer.fit_rows(texts)
        n_samples, n_features = len(texts), self.featurizer.n_features
        n_classes = len(self._labels)
        rng = np.random.default_rng(self.seed)
        weights = np.zeros((n_features, n_classes))
        decay = np.empty_like(weights)
        bias = np.zeros(n_classes)

        one_hot = np.zeros((n_samples, n_classes))
        one_hot[np.arange(n_samples), targets] = 1.0

        # Inverse-frequency sample weights: synthesized corpora are heavily
        # skewed towards slot-rich intents (many templates x many fillings),
        # which would otherwise drown the short generic intents.
        class_counts = one_hot.sum(axis=0)
        class_weights = n_samples / (n_classes * np.maximum(class_counts, 1.0))
        sample_weights = class_weights[targets]

        lengths = np.diff(rows.indptr)
        # The i-th text an epoch visits fills row i % batch_size of its
        # batch's block, and slot maps a touched column to its block column.
        block_row = np.arange(n_samples) % self.batch_size
        slot = np.zeros(n_features, dtype=np.intp)
        for epoch in range(self.epochs):
            order = rng.permutation(n_samples)
            # The epoch's non-zeros in visiting order, so that every batch
            # is one slice [bounds[start], bounds[stop]).
            counts = lengths[order]
            bounds = np.zeros(n_samples + 1, dtype=np.intp)
            np.cumsum(counts, out=bounds[1:])
            positions = np.arange(bounds[-1]) + np.repeat(
                rows.indptr[order] - bounds[:-1], counts)
            columns = rows.indices[positions]
            values = rows.values[positions]
            owner = np.repeat(block_row, counts)
            epoch_targets = one_hot[order]
            epoch_sample_weights = sample_weights[order][:, None]
            for start in range(0, n_samples, self.batch_size):
                stop = min(start + self.batch_size, n_samples)
                low, high = bounds[start], bounds[stop]
                batch_columns = columns[low:high]
                touched = np.flatnonzero(
                    np.bincount(batch_columns, minlength=n_features))
                slot[touched] = np.arange(len(touched))
                x = np.zeros((stop - start, len(touched)))
                x[owner[low:high], slot[batch_columns]] = values[low:high]
                y = epoch_targets[start:stop]
                w = epoch_sample_weights[start:stop]
                probabilities = _softmax(x @ weights[touched] + bias)
                error = (probabilities - y) * w
                # weights -= lr * (gradient + l2 * weights), where the
                # gradient is zero outside the touched rows.
                np.multiply(weights, self.l2, out=decay)
                decay[touched] += x.T @ error / (stop - start)
                decay *= self.learning_rate
                weights -= decay
                bias -= self.learning_rate * error.mean(axis=0)
        self._weights = weights
        self._bias = bias
        return self

    # ------------------------------------------------------------------
    def predict_proba(self, texts: list[str]) -> np.ndarray:
        self._check_trained()
        indptr, indices, values = self.featurizer.rows(texts)
        probabilities = np.empty((len(texts), len(self._labels)))
        for i, (low, high) in enumerate(zip(indptr[:-1], indptr[1:])):
            probabilities[i] = self._probabilities(indices[low:high],
                                                   values[low:high])
        return probabilities

    def predict(
        self, text: str, tokens: list[Token] | None = None
    ) -> IntentPrediction:
        """Ranked intents of ``text``; ``tokens``, when given, must be
        ``tokenize(text)``."""
        self._check_trained()
        probabilities = self._probabilities(*self.featurizer.row(text, tokens))
        order = np.argsort(-probabilities).tolist()
        probabilities = probabilities.tolist()
        labels = self._labels
        return IntentPrediction([(labels[i], probabilities[i]) for i in order])

    def _probabilities(
        self, columns: np.ndarray, values: np.ndarray
    ) -> np.ndarray:
        """Class probabilities of one feature row."""
        logits = values @ self._weights.take(columns, axis=0) + self._bias
        return _softmax(logits[None])[0]

    def _check_trained(self) -> None:
        if self._weights is None or self._bias is None or self._labels is None:
            raise NotFittedError("intent classifier is not trained")

    def accuracy(self, dataset: NLUDataset) -> float:
        """Fraction of examples whose top intent is correct."""
        if len(dataset) == 0:
            raise NLUError("cannot evaluate on an empty dataset")
        probabilities = self.predict_proba([e.text for e in dataset])
        predicted = np.argmax(probabilities, axis=1)
        label_index = {label: i for i, label in enumerate(self.labels)}
        correct = sum(
            1
            for example, hypothesis in zip(dataset, predicted)
            if label_index.get(example.intent, -1) == hypothesis
        )
        return correct / len(dataset)


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)
