"""Per-conversation context: everything one dialogue mutates.

The synthesized artifacts (models, vocabulary, caches) are shared and
read-only; *this* object is the complete mutable footprint of a single
conversation, threaded explicitly through
:meth:`~repro.agent.agent.ConversationalAgent.respond`:

* the :class:`~repro.dialogue.state.DialogueState` (task, slots, phase,
  history, identification session),
* linked values volunteered before they are applicable (buffered until
  the matching entity identification starts), and
* the per-user :class:`~repro.dataaware.awareness.UserAwarenessModel` —
  what the paper learns "from interactions with the conversational
  agent" is a property of the user on the other end, not of the
  synthesized agent, so it lives with the conversation.

Because a context owns all of that, any number of them can be served
concurrently from one artifacts bundle without seeing each other's
slots, choices or awareness updates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.dataaware.awareness import UserAwarenessModel
from repro.dialogue.state import DialogueState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.nlu.entity_linking import LinkedValue

__all__ = ["ConversationContext"]


@dataclass
class ConversationContext:
    """The mutable state of one conversation."""

    awareness: UserAwarenessModel
    state: DialogueState = field(default_factory=DialogueState)
    buffered: list["LinkedValue"] = field(default_factory=list)

    def reset(self) -> None:
        """Start a fresh conversation (awareness persists, as in the
        paper: what the user knows does not reset between dialogues)."""
        self.state = DialogueState()
        self.buffered.clear()

    def clear_buffered(self) -> None:
        self.buffered.clear()
