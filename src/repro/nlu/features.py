"""Bag-of-n-gram featurizer for the intent classifier.

Builds a vocabulary of word unigrams, bigrams and character trigrams
from the training corpus and maps utterances to L2-normalised count
vectors.  Each text becomes one sparse CSR row (:class:`SparseRows`):
about 1% of a movie-corpus vocabulary occurs in any one utterance, so
training and prediction both work on the rows directly.
:meth:`NGramFeaturizer.row` gives one utterance's columns and values,
from tokens the caller may already hold; :meth:`NGramFeaturizer.transform`
scatters rows into a dense matrix, which only the nearest-neighbour
baseline reads.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import NamedTuple

import numpy as np

from repro.errors import NotFittedError
from repro.nlu.tokenizer import Token, tokenize

__all__ = ["NGramFeaturizer", "SparseRows"]


class SparseRows(NamedTuple):
    """Feature rows in CSR form.

    Row ``i`` holds ``values[indptr[i]:indptr[i + 1]]`` at the ascending,
    distinct columns ``indices[indptr[i]:indptr[i + 1]]``.  The values are
    the row's counts divided by their L2 norm; a row with no known
    feature is empty.
    """

    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray


class NGramFeaturizer:
    """Fits an n-gram vocabulary and vectorises utterances."""

    def __init__(
        self,
        use_bigrams: bool = True,
        use_char_trigrams: bool = True,
        min_count: int = 1,
        max_features: int = 20000,
    ) -> None:
        self.use_bigrams = use_bigrams
        self.use_char_trigrams = use_char_trigrams
        self.min_count = min_count
        self.max_features = max_features
        self._vocabulary: dict[str, int] | None = None

    # ------------------------------------------------------------------
    @property
    def n_features(self) -> int:
        if self._vocabulary is None:
            raise NotFittedError("featurizer is not fitted")
        return len(self._vocabulary)

    def fit(self, texts: list[str]) -> "NGramFeaturizer":
        self._fit_vocabulary([self._extract(text) for text in texts])
        return self

    def fit_rows(self, texts: list[str]) -> SparseRows:
        """Fit the vocabulary and return the rows of ``texts``, extracting
        each text's n-grams once."""
        extracted = [self._extract(text) for text in texts]
        self._fit_vocabulary(extracted)
        return self._rows(extracted)

    def rows(self, texts: list[str]) -> SparseRows:
        """The feature rows of ``texts``; n-grams outside the vocabulary
        are dropped."""
        if self._vocabulary is None:
            raise NotFittedError("featurizer is not fitted")
        return self._rows([self._extract(text) for text in texts])

    def row(
        self, text: str, tokens: list[Token] | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """The ascending columns and values of ``text``'s feature row, as
        :meth:`rows` gives them; ``tokens``, when given, must be
        ``tokenize(text)``."""
        if self._vocabulary is None:
            raise NotFittedError("featurizer is not fitted")
        columns, values = self._row(self._extract(text, tokens))
        return (np.array(columns, dtype=np.intp),
                np.array(values, dtype=np.float64))

    def transform(self, texts: list[str]) -> np.ndarray:
        return self._dense(self.rows(texts))

    def fit_transform(self, texts: list[str]) -> np.ndarray:
        return self._dense(self.fit_rows(texts))

    # ------------------------------------------------------------------
    def _fit_vocabulary(self, extracted: list[list[str]]) -> None:
        counts: dict[str, int] = {}
        for features in extracted:
            for feature in features:
                counts[feature] = counts.get(feature, 0) + 1
        kept = [f for f, c in counts.items() if c >= self.min_count]
        kept.sort(key=lambda f: (-counts[f], f))
        kept = kept[: self.max_features]
        self._vocabulary = {feature: i for i, feature in enumerate(sorted(kept))}

    def _rows(self, extracted: list[list[str]]) -> SparseRows:
        indptr = [0]
        indices: list[int] = []
        values: list[float] = []
        for features in extracted:
            columns, row_values = self._row(features)
            indices += columns
            values += row_values
            indptr.append(len(indices))
        return SparseRows(
            np.array(indptr, dtype=np.intp),
            np.array(indices, dtype=np.intp),
            np.array(values, dtype=np.float64),
        )

    def _row(self, features: list[str]) -> tuple[list[int], list[float]]:
        tally = Counter(map(self._vocabulary.get, features))
        tally.pop(None, None)
        columns = sorted(tally)
        counts = [tally[column] for column in columns]
        # The sum of squared small counts is exact, so the norm and every
        # value equal the dense row's np.linalg.norm division.
        norm = math.sqrt(sum([count * count for count in counts]))
        return columns, [count / norm for count in counts]

    def _dense(self, rows: SparseRows) -> np.ndarray:
        indptr, indices, values = rows
        matrix = np.zeros((len(indptr) - 1, len(self._vocabulary)))
        for row, low, high in zip(matrix, indptr[:-1], indptr[1:]):
            row[indices[low:high]] = values[low:high]
        return matrix

    def _extract(
        self, text: str, tokens: list[Token] | None = None
    ) -> list[str]:
        if tokens is None:
            tokens = tokenize(text)
        words = [token.lower for token in tokens]
        features = [f"w:{word}" for word in words]
        if self.use_bigrams:
            features += [f"b:{left}_{right}"
                         for left, right in zip(words, words[1:])]
        if self.use_char_trigrams:
            padded = f"  {text.lower()} "
            features += [f"c:{padded[i:i + 3]}"
                         for i in range(len(padded) - 2)]
        return features
