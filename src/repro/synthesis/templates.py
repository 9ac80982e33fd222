"""Natural-language templates: the developer's only manual input.

"We let the developer specify a few natural language templates (e.g.,
'I want to watch {movie_title}')" (Section 3).  A template is a string
with ``{slot}`` placeholders plus the intent it expresses.  The
:class:`SlotVocabulary` maps slot names to their source — either a task
parameter (plain value slot) or a database attribute — so templates can
be validated at registration time and filled with live values later.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.annotation import Task
from repro.db.catalog import ColumnRef
from repro.db.types import DataType
from repro.errors import TemplateError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.annotation import SchemaAnnotations

__all__ = ["SlotVocabulary", "Template", "TemplateLibrary", "slot_name_for"]

_PLACEHOLDER_RE = re.compile(r"\{([a-z_][a-z0-9_]*)\}")


def slot_name_for(attribute: ColumnRef) -> str:
    """Canonical slot name of a database attribute, e.g. ``movie_title``.

    The column name alone is used when it is already descriptive enough
    (contains the table name or an underscore); otherwise the table name
    is prefixed to disambiguate (``actor.name`` -> ``actor_name``).
    """
    if attribute.table in attribute.column:
        return attribute.column
    return f"{attribute.table}_{attribute.column}"


@dataclass(frozen=True)
class SlotSource:
    """Where a slot's values come from."""

    name: str
    dtype: DataType
    attribute: ColumnRef | None = None  # None for plain task parameters


class SlotVocabulary:
    """All slot names known for one agent, with their sources."""

    def __init__(self) -> None:
        self._sources: dict[str, SlotSource] = {}

    @classmethod
    def from_tasks(cls, tasks: list[Task], catalog) -> "SlotVocabulary":
        """Derive the vocabulary from extracted tasks.

        Value slots keep their parameter name; entity slots contribute one
        slot per identifying attribute.
        """
        vocabulary = cls()
        for task in tasks:
            for slot in task.value_slots:
                vocabulary.add(SlotSource(slot.name, slot.dtype))
            for lookup in task.lookups:
                for attribute in lookup.all_attributes():
                    dtype = catalog.column_type(attribute)
                    vocabulary.add(
                        SlotSource(slot_name_for(attribute), dtype, attribute)
                    )
        return vocabulary

    def add(self, source: SlotSource) -> None:
        existing = self._sources.get(source.name)
        if existing is not None and existing != source:
            raise TemplateError(
                f"conflicting definitions for slot {source.name!r}: "
                f"{existing} vs {source}"
            )
        self._sources[source.name] = source

    def __contains__(self, name: str) -> bool:
        return name in self._sources

    def names(self) -> list[str]:
        return sorted(self._sources)

    def source(self, name: str) -> SlotSource:
        try:
            return self._sources[name]
        except KeyError:
            raise TemplateError(f"unknown slot {name!r}") from None

    def attribute_for(self, name: str) -> ColumnRef | None:
        return self.source(name).attribute

    def slot_for_attribute(self, attribute: ColumnRef) -> str | None:
        for name, source in self._sources.items():
            if source.attribute == attribute:
                return name
        return None


@dataclass(frozen=True)
class Template:
    """One NL template: text with placeholders plus its intent."""

    text: str
    intent: str

    def __post_init__(self) -> None:
        if not self.text.strip():
            raise TemplateError("template text must not be empty")
        stripped = _PLACEHOLDER_RE.sub("", self.text)
        if "{" in stripped or "}" in stripped:
            raise TemplateError(f"malformed placeholder braces in {self.text!r}")

    @property
    def placeholders(self) -> tuple[str, ...]:
        return tuple(_PLACEHOLDER_RE.findall(self.text))

    def validate(self, vocabulary: SlotVocabulary) -> None:
        for placeholder in self.placeholders:
            if placeholder not in vocabulary:
                raise TemplateError(
                    f"template {self.text!r} references unknown slot "
                    f"{placeholder!r}"
                )


#: Generic intents every agent supports, with ready-made templates.
GENERIC_TEMPLATES: dict[str, tuple[str, ...]] = {
    "greet": (
        "hello", "hi", "hi there", "good evening", "hey", "good morning",
    ),
    "goodbye": (
        "goodbye", "bye", "see you", "that is all", "bye bye", "quit",
    ),
    "affirm": (
        "yes", "yes please", "correct", "exactly", "that is right", "sure",
        "yes that is correct", "sounds good", "go ahead",
    ),
    "deny": (
        "no", "no thanks", "that is wrong", "not quite", "nope",
        "no that is not right",
    ),
    "abort": (
        "cancel that", "stop", "never mind", "forget it", "abort",
        "i changed my mind", "please cancel the whole thing",
    ),
    "dont_know": (
        "i do not know", "no idea", "i cannot remember", "not sure",
        "i do not have that at hand", "i do not recall",
    ),
    "thank": (
        "thanks", "thank you", "thanks a lot", "great thank you",
    ),
}


class TemplateLibrary:
    """All templates of one agent, validated and grouped by intent."""

    def __init__(self, vocabulary: SlotVocabulary) -> None:
        self._vocabulary = vocabulary
        self._templates: list[Template] = []
        for intent, texts in GENERIC_TEMPLATES.items():
            for text in texts:
                self._templates.append(Template(text, intent))

    @property
    def vocabulary(self) -> SlotVocabulary:
        return self._vocabulary

    def add(self, text: str, intent: str) -> Template:
        template = Template(text, intent)
        template.validate(self._vocabulary)
        self._templates.append(template)
        return template

    def add_many(self, texts: list[str], intent: str) -> None:
        for text in texts:
            self.add(text, intent)

    def __len__(self) -> int:
        return len(self._templates)

    def __iter__(self):
        return iter(self._templates)

    def intents(self) -> list[str]:
        return sorted({t.intent for t in self._templates})

    def by_intent(self, intent: str) -> list[Template]:
        return [t for t in self._templates if t.intent == intent]
