"""Attribute scoring: informativeness x user awareness.

"The best information (i.e., a so-called slot) to request depends on
(i) the probability that the user knows a certain attribute and (ii) how
much this attribute narrows down the current set of candidates"
(Section 2).  The scorer multiplies the two:

``score(a) = P(user knows a) * informativeness(a | candidates)``

Informativeness defaults to the *normalised entropy* of the attribute
over the current candidates (the paper: "we choose the attribute with
the highest entropy"); distinct-count and Gini measures are provided for
the ablation benchmarks.  Multi-valued joined attributes (one screening,
several actors) contribute each of their values with fractional weight.

A single-valued attribute (its cache entry is a value column) is counted
in one C-level pass, ``Counter(map(column.get, row_ids))``.  The weights
are then integers in first-occurrence order, with valueless candidates
under one unknown key, where the per-candidate loop adds ``1.0``s into
float weights in the same order.  Integer-valued floats below 2**53 are
exact, and true division and ``log2`` are correctly rounded, so every
measure and :meth:`AttributeScorer.expected_candidates_after` come out
float-identical to the loop.  Multi-valued attributes keep the loop.

Every identification starts from all rows of its root table, and that
set's scores only change when a commit writes a table on an attribute's
path.  So informativeness over a shared cache goes through the cache's
whole-table memo: a score computed for a whole-table set is kept with
the value entry and the row ids it was computed from, and it serves any
later set that reads the same entry object over equal row ids — the
same inputs, hence the same float.  Anything else is computed as above.
"""

from __future__ import annotations

import enum
import math
from collections import Counter
from dataclasses import dataclass
from typing import Any

from repro.dataaware.awareness import UserAwarenessModel
from repro.dataaware.candidates import CandidateSet
from repro.db.catalog import ColumnRef
from repro.errors import PolicyError

__all__ = [
    "InformativenessMeasure",
    "AttributeScore",
    "AttributeScorer",
    "weighted_entropy",
]


class InformativenessMeasure(enum.Enum):
    """How to quantify an attribute's power to split the candidate set."""

    ENTROPY = "entropy"
    DISTINCT_COUNT = "distinct_count"
    GINI = "gini"


@dataclass(frozen=True)
class AttributeScore:
    """Scored attribute: final score plus its two factors."""

    attribute: ColumnRef
    score: float
    informativeness: float
    awareness: float


def weighted_entropy(weights_by_value: dict[Any, float]) -> float:
    """Shannon entropy (bits) of a weighted value distribution."""
    total = sum(weights_by_value.values())
    if total <= 0:
        return 0.0
    result = 0.0
    for weight in weights_by_value.values():
        if weight <= 0:
            continue
        p = weight / total
        result -= p * math.log2(p)
    return result


_UNKNOWN = None  # category for candidates with no value for the attribute


class AttributeScorer:
    """Scores candidate attributes for the next request."""

    def __init__(
        self,
        awareness: UserAwarenessModel,
        measure: InformativenessMeasure = InformativenessMeasure.ENTROPY,
        use_awareness: bool = True,
    ) -> None:
        self._awareness = awareness
        self._measure = measure
        self._use_awareness = use_awareness

    # ------------------------------------------------------------------
    def value_distribution(
        self, candidates: CandidateSet, attribute: ColumnRef
    ) -> dict[Any, float]:
        """Weighted value distribution of ``attribute`` over the candidates.

        Each candidate contributes total weight 1, split uniformly over
        its (possibly joined, possibly multiple) values; candidates
        without a value contribute to a dedicated *unknown* category,
        the key ``None``.
        """
        entry = candidates.attribute_values(attribute)
        values = entry.values
        if entry.single:
            return Counter(map(values.get, candidates.row_ids))
        weights: dict[Any, float] = {}
        for rid in candidates.row_ids:
            value_set = values.get(rid)
            if not value_set:
                weights[_UNKNOWN] = weights.get(_UNKNOWN, 0.0) + 1.0
                continue
            share = 1.0 / len(value_set)
            for value in value_set:
                weights[value] = weights.get(value, 0.0) + share
        return weights

    def informativeness(
        self, candidates: CandidateSet, attribute: ColumnRef
    ) -> float:
        """Normalised informativeness in [0, 1].

        With a shared cache the score goes through its whole-table memo
        (:meth:`AttributeValueCache.table_score`), keyed by the root,
        the attribute and this scorer's measure.
        """
        n = len(candidates)
        if n <= 1:
            return 0.0
        cache = candidates.shared_cache
        if cache is None:
            return self._informativeness(candidates, attribute, n)
        return cache.table_score(
            (candidates.table, attribute, self._measure),
            candidates.attribute_values(attribute),
            candidates.row_ids,
            lambda: self._informativeness(candidates, attribute, n),
            candidates.whole_table,
        )

    def _informativeness(
        self, candidates: CandidateSet, attribute: ColumnRef, n: int
    ) -> float:
        weights = self.value_distribution(candidates, attribute)
        if self._measure is InformativenessMeasure.ENTROPY:
            return weighted_entropy(weights) / math.log2(n)
        if self._measure is InformativenessMeasure.DISTINCT_COUNT:
            distinct = len([v for v in weights if v is not _UNKNOWN])
            return min(distinct, n) / n
        if self._measure is InformativenessMeasure.GINI:
            total = sum(weights.values())
            gini = 1.0 - sum((w / total) ** 2 for w in weights.values())
            max_gini = 1.0 - 1.0 / n
            return gini / max_gini if max_gini > 0 else 0.0
        raise PolicyError(f"unknown measure {self._measure!r}")  # pragma: no cover

    def score(self, candidates: CandidateSet, attribute: ColumnRef) -> AttributeScore:
        informativeness = self.informativeness(candidates, attribute)
        awareness = (
            self._awareness.probability(attribute) if self._use_awareness else 1.0
        )
        return AttributeScore(
            attribute=attribute,
            score=awareness * informativeness,
            informativeness=informativeness,
            awareness=awareness,
        )

    def rank(
        self, candidates: CandidateSet, attributes: list[ColumnRef]
    ) -> list[AttributeScore]:
        """All attributes scored, best first (ties broken by name)."""
        scores = [self.score(candidates, a) for a in attributes]
        scores.sort(key=lambda s: (-s.score, str(s.attribute)))
        return scores

    def expected_candidates_after(
        self, candidates: CandidateSet, attribute: ColumnRef
    ) -> float:
        """Expected candidate-set size after asking for ``attribute``.

        Assumes the user's value is drawn from the candidate distribution;
        used by the evaluation harness to sanity-check the entropy scores.
        """
        n = len(candidates)
        if n == 0:
            return 0.0
        weights = self.value_distribution(candidates, attribute)
        total = sum(weights.values())
        return sum(w * w for w in weights.values()) / total
