"""Slot-selection policies: data-aware CAT plus the two baselines.

The evaluation of Section 4 compares three strategies for choosing the
next attribute to request when identifying an entity:

* :class:`DataAwarePolicy` — CAT's contribution: scores attributes over
  the *live* candidate set (entropy x awareness) and expands the search
  to FK-joined tables iteratively, skipping attributes whose column
  holds fewer than two distinct values, so not every possible table is
  joined on every turn.
* :class:`StaticPolicy` — the attribute order is fixed once at "training
  time" from a database snapshot and replayed blindly at runtime.  It
  matches the data-aware policy when training data resembles production,
  but "will not adapt to data distribution changes at runtime".
* :class:`RandomPolicy` — asks for a uniformly random askable attribute;
  the weakest baseline ("speedup ... compared to a random strategy can be
  up to 80%").
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from repro.annotation import EntityLookup, SchemaAnnotations
from repro.dataaware.awareness import UserAwarenessModel
from repro.dataaware.candidates import CandidateSet
from repro.dataaware.scoring import (
    AttributeScorer,
    InformativenessMeasure,
)
from repro.db.catalog import ColumnRef
from repro.db.database import Database
from repro.errors import PolicyError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.db.catalog import Catalog

__all__ = [
    "SlotSelectionPolicy",
    "DataAwarePolicy",
    "StaticPolicy",
    "RandomPolicy",
]

_MIN_USEFUL_SCORE = 1e-9


class SlotSelectionPolicy:
    """Interface: choose the next attribute to request from the user."""

    name = "abstract"

    def next_attribute(
        self, candidates: CandidateSet, asked: set[ColumnRef]
    ) -> ColumnRef | None:
        """The attribute to ask for next, or ``None`` to give up/enumerate."""
        raise NotImplementedError

    def observe(self, attribute: ColumnRef, user_knew: bool) -> None:
        """Feedback hook after the user answered (or failed to)."""

    def reset(self) -> None:
        """Called at the start of a new identification episode."""


class DataAwarePolicy(SlotSelectionPolicy):
    """CAT's runtime policy: entropy x awareness over live candidates.

    Parameters
    ----------
    lookup:
        The entity lookup (identifying attributes grouped by hop
        distance) extracted from the transaction definition.
    awareness:
        Shared awareness model; updated online via :meth:`observe`.
    expansion_threshold:
        If the best score found within the hops considered so far reaches
        this value, deeper tables are not joined this turn.
    """

    name = "data_aware"

    def __init__(
        self,
        lookup: EntityLookup,
        awareness: UserAwarenessModel,
        measure: InformativenessMeasure = InformativenessMeasure.ENTROPY,
        use_awareness: bool = True,
        expansion_threshold: float = 0.45,
        max_hops: int | None = None,
    ) -> None:
        self._lookup = lookup
        self._awareness = awareness
        self._scorer = AttributeScorer(awareness, measure, use_awareness)
        self._expansion_threshold = expansion_threshold
        self._max_hops = max_hops

    # ------------------------------------------------------------------
    def next_attribute(
        self, candidates: CandidateSet, asked: set[ColumnRef]
    ) -> ColumnRef | None:
        if len(candidates) <= 1:
            return None
        best = None
        hops = sorted(self._lookup.identifying_attributes)
        if self._max_hops is not None:
            hops = [h for h in hops if h <= self._max_hops]
        for hop in hops:
            attributes = [
                attribute
                for attribute in self._lookup.identifying_attributes[hop]
                if attribute not in asked
                and self._worth_joining(candidates, attribute)
            ]
            if attributes:
                ranked = self._scorer.rank(candidates, attributes)
                if best is None or ranked[0].score > best.score:
                    best = ranked[0]
            # Iterative expansion: only join deeper tables when nothing
            # sufficiently informative was found closer to the entity.
            if best is not None and best.score >= self._expansion_threshold:
                break
        if best is None or best.score <= _MIN_USEFUL_SCORE:
            return None
        return best.attribute

    def observe(self, attribute: ColumnRef, user_knew: bool) -> None:
        self._awareness.observe(attribute, user_knew)

    # ------------------------------------------------------------------
    @staticmethod
    def _worth_joining(
        candidates: CandidateSet, attribute: ColumnRef
    ) -> bool:
        """Gate before joining: skip attributes whose whole column holds
        fewer than two distinct values, which cannot split anything."""
        table = candidates.database.table(attribute.table)
        return table.distinct_count(attribute.column) > 1


class StaticPolicy(SlotSelectionPolicy):
    """Fixed attribute order decided once from a training snapshot."""

    name = "static"

    def __init__(self, order: list[ColumnRef]) -> None:
        if not order:
            raise PolicyError("static policy needs a non-empty attribute order")
        self._order = list(order)

    @property
    def order(self) -> list[ColumnRef]:
        return list(self._order)

    @classmethod
    def train(
        cls,
        lookup: EntityLookup,
        database: Database,
        catalog: "Catalog",
        annotations: SchemaAnnotations,
        measure: InformativenessMeasure = InformativenessMeasure.ENTROPY,
        awareness: UserAwarenessModel | None = None,
    ) -> "StaticPolicy":
        """Fit the order by scoring attributes on the full training table.

        This mimics what a learned, non-data-aware system bakes into its
        policy: the attribute ranking implied by the *training* data.
        """
        awareness = awareness or UserAwarenessModel(annotations)
        scorer = AttributeScorer(awareness, measure)
        candidates = CandidateSet.initial(database, catalog, lookup.table)
        scores = scorer.rank(candidates, list(lookup.all_attributes()))
        order = [s.attribute for s in scores if s.score > _MIN_USEFUL_SCORE]
        if not order:
            order = [s.attribute for s in scores[:1]]
        return cls(order)

    def next_attribute(
        self, candidates: CandidateSet, asked: set[ColumnRef]
    ) -> ColumnRef | None:
        if len(candidates) <= 1:
            return None
        for attribute in self._order:
            if attribute not in asked:
                return attribute
        return None


class RandomPolicy(SlotSelectionPolicy):
    """Uniformly random choice among the askable attributes."""

    name = "random"

    def __init__(self, lookup: EntityLookup, seed: int = 0) -> None:
        self._attributes = list(lookup.all_attributes())
        if not self._attributes:
            raise PolicyError("random policy needs at least one attribute")
        self._seed = seed
        self._rng = random.Random(seed)

    def next_attribute(
        self, candidates: CandidateSet, asked: set[ColumnRef]
    ) -> ColumnRef | None:
        if len(candidates) <= 1:
            return None
        remaining = [a for a in self._attributes if a not in asked]
        if not remaining:
            return None
        return self._rng.choice(remaining)

    def reset(self) -> None:
        """Nothing to do; kept non-reseeding so episodes differ."""
