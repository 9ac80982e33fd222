"""The immutable output of agent synthesis.

``CAT.synthesize()`` is expensive: it extracts tasks, generates training
data and trains the NLU and DM models.  Everything it produces is
read-only at serving time, so it is bundled here once and shared — by
the single-session :class:`~repro.agent.agent.ConversationalAgent`, by
every session of a :class:`~repro.serving.runtime.AgentRuntime`, and by
the evaluation harness — while all per-conversation mutable state lives
in :class:`~repro.dialogue.context.ConversationContext`.

The attribute-value cache and the plan cache are part of the bundle
even though the value cache's *contents* move with the data: they are
concurrency-safe caches over the (shared) database, and sharing them
across sessions is exactly the paper's "integrated caching strategy" —
the first conversation of the day pays the rebuild, every other session
hits.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from repro.annotation import SchemaAnnotations, Task
from repro.dataaware import AttributeValueCache, UserAwarenessModel
from repro.db.catalog import Catalog
from repro.db.database import Database
from repro.db.engine.cache import PlanCache
from repro.dialogue import ConversationContext
from repro.dialogue.policy import NextActionModel
from repro.nlu.pipeline import NLUPipeline
from repro.synthesis.templates import SlotVocabulary

__all__ = ["AgentArtifacts"]


@dataclass(frozen=True)
class AgentArtifacts:
    """Everything synthesis produced, shared read-only across sessions."""

    catalog: Catalog
    annotations: SchemaAnnotations
    tasks: Mapping[str, Task]
    nlu: NLUPipeline
    dm_model: NextActionModel
    vocabulary: SlotVocabulary
    value_cache: AttributeValueCache
    plan_cache: PlanCache
    choice_list_size: int = 3

    @classmethod
    def build(
        cls,
        database: Database,
        catalog: Catalog,
        annotations: SchemaAnnotations,
        tasks: list[Task],
        nlu: NLUPipeline,
        dm_model: NextActionModel,
        vocabulary: SlotVocabulary,
        choice_list_size: int = 3,
    ) -> "AgentArtifacts":
        """Assemble a bundle, deriving the shared caches for ``database``."""
        return cls(
            catalog=catalog,
            annotations=annotations,
            tasks=MappingProxyType({task.name: task for task in tasks}),
            nlu=nlu,
            dm_model=dm_model,
            vocabulary=vocabulary,
            value_cache=AttributeValueCache(database, catalog),
            # The same prepared-plan cache every statement reads
            # through: the first session of the day compiles the
            # turn-query templates and every other session binds into
            # them.
            plan_cache=database.plan_cache,
            choice_list_size=choice_list_size,
        )

    # ------------------------------------------------------------------
    def task_names(self) -> list[str]:
        return sorted(self.tasks)

    def new_context(self) -> ConversationContext:
        """A fresh per-conversation context (own awareness model)."""
        return ConversationContext(
            awareness=UserAwarenessModel(self.annotations)
        )
