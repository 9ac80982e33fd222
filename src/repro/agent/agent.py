"""The conversational agent runtime: NLU + DM + data-aware policy + DB.

One :meth:`ConversationalAgent.respond` call processes a user utterance
end to end: parse (intent + slots + entity linking), update the dialogue
state, let the learned DM propose the next high-level action within the
legal-action guard rails, drive the data-aware identification loop for
entity slots, and finally execute the transaction against the database.

The agent itself is *stateless across conversations*: everything
synthesis produced lives in the shared, read-only
:class:`~repro.agent.artifacts.AgentArtifacts` bundle, and everything a
single conversation mutates lives in a
:class:`~repro.dialogue.context.ConversationContext` that ``respond``
threads explicitly.  One agent can therefore serve many concurrent
conversations (see :mod:`repro.serving`); for the classic single-session
API it keeps a default context, so ``agent.respond("hi")`` and
``agent.state`` keep working unchanged.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any

from repro.agent.artifacts import AgentArtifacts
from repro.agent.executor import TransactionExecutor
from repro.agent.responses import Responder
from repro.annotation import SlotSpec
from repro.dataaware import (
    CandidateSet,
    DataAwarePolicy,
    IdentificationSession,
    IdentificationStatus,
)
from repro.db.catalog import ColumnRef
from repro.db.database import Database
from repro.db.procedures import ProcedureResult
from repro.dialogue import (
    ConversationContext,
    DialogueManager,
    Phase,
    acts,
)
from repro.errors import DialogueError
from repro.nlu.entity_linking import LinkedValue
from repro.nlu.pipeline import FALLBACK_INTENT, NLUResult

__all__ = ["AgentReply", "ConversationalAgent"]

_ORDINALS = {
    "first": 1, "second": 2, "third": 3, "fourth": 4, "fifth": 5,
    "sixth": 6, "seventh": 7, "eighth": 8, "ninth": 9, "tenth": 10,
}


@dataclass(frozen=True)
class AgentReply:
    """The agent's reaction to one user utterance."""

    texts: tuple[str, ...]
    executed: ProcedureResult | None = None
    nlu: NLUResult | None = None

    @property
    def text(self) -> str:
        return "\n".join(self.texts)


class ConversationalAgent:
    """A fully synthesized, data-aware conversational agent.

    Construct with a pre-built artifacts bundle::

        agent = ConversationalAgent(database, artifacts)
    """

    def __init__(self, database: Database, artifacts: AgentArtifacts) -> None:
        self._database = database
        self.artifacts = artifacts
        self._manager = DialogueManager(
            artifacts.dm_model, list(artifacts.tasks.values())
        )
        self._responder = Responder(database, artifacts.annotations)
        self._executor = TransactionExecutor(database)
        # Default context backing the classic single-session API.
        self._context = artifacts.new_context()

    # ------------------------------------------------------------------
    # Shared, read-only collaborators
    # ------------------------------------------------------------------
    @property
    def responder(self) -> Responder:
        return self._responder

    def tasks(self) -> list[str]:
        return self.artifacts.task_names()

    # ------------------------------------------------------------------
    # The default (single-session) context
    # ------------------------------------------------------------------
    @property
    def context(self) -> ConversationContext:
        """The default context used when ``respond`` gets none."""
        return self._context

    @property
    def state(self):
        return self._context.state

    @property
    def awareness(self):
        return self._context.awareness

    def reset(self) -> None:
        """Start a fresh conversation (models and awareness persist)."""
        self._context.reset()

    def new_context(self) -> ConversationContext:
        """A fresh, independent per-conversation context."""
        return self.artifacts.new_context()

    # ------------------------------------------------------------------
    # Main entry point
    # ------------------------------------------------------------------
    def respond(
        self, text: str, context: ConversationContext | None = None
    ) -> AgentReply:
        """Process one user utterance and produce the agent's reply.

        ``context`` carries all mutable conversation state; when omitted
        the agent's default context is used (single-session API).  Turns
        on distinct contexts are independent and may run on concurrent
        threads: the whole turn pins one MVCC snapshot generation (so no
        half-applied transaction is ever observed) while writers commit
        freely alongside; executing a transaction at the end of a task
        takes only the narrow commit latch, and its commit moves this
        turn's pin forward so the reply reflects the booking.
        """
        ctx = self._context if context is None else context
        with self._database.read_locked():
            return self._respond_locked(ctx, text)

    def _respond_locked(
        self, ctx: ConversationContext, text: str
    ) -> AgentReply:
        # Between our turns another session may have committed deletes;
        # revalidate any candidate rows before using them.  Under the
        # turn's snapshot pin the result stays valid for the whole turn.
        session = ctx.state.identification
        if session is not None and session.prune_stale_candidates():
            if ctx.state.phase is Phase.CHOOSING:
                # The list the user is choosing from changed; re-present.
                ctx.state.phase = Phase.GATHERING
        parse = self.artifacts.nlu.parse(text)
        state = ctx.state
        state.turn_count += 1
        replies: list[str] = []
        executed: ProcedureResult | None = None

        if state.phase is Phase.CHOOSING and parse.intent not in (
            acts.USER_ABORT,
            acts.USER_GOODBYE,
        ):
            replies.extend(self._handle_choice(ctx, parse))
            if state.phase is not Phase.CHOOSING:
                executed = self._drive(ctx, replies)
            if not replies:
                replies.append(self._reprompt(ctx))
            return AgentReply(tuple(replies), executed, parse)

        state.record("user", parse.intent)
        handler = {
            acts.USER_GREET: self._on_greet,
            acts.USER_GOODBYE: self._on_goodbye,
            acts.USER_ABORT: self._on_abort,
            acts.USER_AFFIRM: self._on_affirm,
            acts.USER_DENY: self._on_deny,
            acts.USER_DONT_KNOW: self._on_dont_know,
            acts.USER_THANK: self._on_thank,
            acts.USER_INFORM: self._on_inform,
            FALLBACK_INTENT: self._on_fallback,
        }.get(parse.intent)

        if handler is not None:
            should_drive = handler(ctx, parse, replies)
        elif parse.intent.startswith("request_"):
            should_drive = self._on_request(ctx, parse, replies)
        else:  # unknown intent label: treat as fallback
            should_drive = self._on_fallback(ctx, parse, replies)

        if should_drive:
            executed = self._drive(ctx, replies)
        if not replies:
            replies.append(self._reprompt(ctx))
        return AgentReply(tuple(replies), executed, parse)

    def _reprompt(self, ctx: ConversationContext) -> str:
        """Contextual fallback so the agent is never silent."""
        state = ctx.state
        if state.phase is Phase.CONFIRMING and state.task is not None:
            return self._responder.confirm(state.task, self._summary(ctx))
        session = state.identification
        if session is not None and session.pending_question is not None:
            return self._responder.ask_attribute(session.pending_question)
        if state.current_slot is not None and state.task is not None:
            return self._responder.ask_slot(
                self._current_slot_spec(ctx).display_name
            )
        return self._responder.rephrase()

    # ------------------------------------------------------------------
    # Intent handlers (return True when the task loop should advance)
    # ------------------------------------------------------------------
    def _on_greet(
        self, ctx: ConversationContext, parse: NLUResult, replies: list[str]
    ) -> bool:
        if not ctx.state.greeted:
            ctx.state.greeted = True
            ctx.state.record("agent", acts.AGENT_GREET)
            replies.append(self._responder.greet())
        return ctx.state.task is not None

    def _on_goodbye(
        self, ctx: ConversationContext, parse: NLUResult, replies: list[str]
    ) -> bool:
        ctx.state.clear_task()
        ctx.state.phase = Phase.DONE
        ctx.state.record("agent", acts.AGENT_GOODBYE)
        replies.append(self._responder.goodbye())
        return False

    def _on_abort(
        self, ctx: ConversationContext, parse: NLUResult, replies: list[str]
    ) -> bool:
        ctx.state.clear_task()
        ctx.clear_buffered()
        ctx.state.record("agent", acts.AGENT_ACK_ABORT)
        replies.append(self._responder.acknowledge_abort())
        return False

    def _on_thank(
        self, ctx: ConversationContext, parse: NLUResult, replies: list[str]
    ) -> bool:
        replies.append("You're welcome!")
        return ctx.state.task is not None

    def _on_request(
        self, ctx: ConversationContext, parse: NLUResult, replies: list[str]
    ) -> bool:
        task_name = parse.intent[len("request_"):]
        task = self.artifacts.tasks.get(task_name)
        if task is None:
            replies.append(self._responder.rephrase())
            return False
        if ctx.state.task is not None and ctx.state.task.name == task_name:
            # Re-stating the current task ("i want to watch X") is extra
            # information, not a restart.
            self._apply_linked(ctx, parse.linked, replies)
            return True
        ctx.state.start_task(task)
        self._apply_linked(ctx, parse.linked, replies)
        return True

    def _on_inform(
        self, ctx: ConversationContext, parse: NLUResult, replies: list[str]
    ) -> bool:
        applied = self._apply_linked(ctx, parse.linked, replies)
        if not applied:
            applied = self._answer_pending(ctx, parse, replies)
        if ctx.state.task is None:
            if applied:
                replies.append(
                    "Noted. What would you like to do? I can "
                    + ", ".join(
                        t.replace("_", " ")
                        for t in self.artifacts.task_names()
                    )
                    + "."
                )
            else:
                replies.append(self._responder.rephrase())
            return False
        return True

    def _on_dont_know(
        self, ctx: ConversationContext, parse: NLUResult, replies: list[str]
    ) -> bool:
        session = ctx.state.identification
        if session is not None and session.pending_question is not None:
            session.dont_know()
            return True
        if ctx.state.current_slot is not None:
            slot = self._current_slot_spec(ctx)
            replies.append(
                f"I do need the {slot.display_name} to continue, sorry."
            )
            return False
        return ctx.state.task is not None

    def _on_affirm(
        self, ctx: ConversationContext, parse: NLUResult, replies: list[str]
    ) -> bool:
        if ctx.state.phase is Phase.CONFIRMING:
            ctx.state.record("agent", acts.AGENT_EXECUTE)
            return True
        return ctx.state.task is not None

    def _on_deny(
        self, ctx: ConversationContext, parse: NLUResult, replies: list[str]
    ) -> bool:
        if ctx.state.phase is Phase.CONFIRMING:
            ctx.state.record("agent", acts.AGENT_RESTART)
            replies.append(self._responder.restart())
            ctx.state.restart_task()
            return True
        return ctx.state.task is not None

    def _on_fallback(
        self, ctx: ConversationContext, parse: NLUResult, replies: list[str]
    ) -> bool:
        if self._answer_pending(ctx, parse, replies):
            return True
        ctx.state.record("agent", acts.AGENT_FALLBACK)
        replies.append(self._responder.rephrase())
        return False

    # ------------------------------------------------------------------
    # Applying parsed information
    # ------------------------------------------------------------------
    def _apply_linked(
        self,
        ctx: ConversationContext,
        linked: tuple[LinkedValue, ...],
        replies: list[str],
    ) -> bool:
        """Route linked slot values into the state; returns True if any used."""
        applied = False
        for value in linked:
            if value.corrected:
                replies.append(
                    self._responder.corrected(value.raw, str(value.value))
                )
            if ctx.state.task is None:
                ctx.buffered.append(value)
                applied = True
                continue
            applied = self._apply_one(ctx, value) or applied
        return applied

    def _apply_one(self, ctx: ConversationContext, value: LinkedValue) -> bool:
        state = ctx.state
        task = state.task
        assert task is not None
        # 1. Plain value slot of the active task.
        for slot in task.value_slots:
            if slot.name == value.slot:
                state.collected[slot.name] = value.value
                if state.current_slot == slot.name:
                    state.current_slot = None
                return True
        # 2. Identifying attribute of one of the task's entity lookups.
        attribute = self.artifacts.vocabulary.attribute_for(value.slot)
        if attribute is None:
            return False
        for lookup in task.lookups:
            if lookup.slot in state.collected:
                continue
            if attribute not in lookup.all_attributes():
                continue
            session = state.identification
            active = (
                session is not None
                and session.candidates.table == lookup.table
            )
            if active:
                return session.volunteer(attribute, value.value)
            # The entity is not being identified yet: keep the value and
            # apply it when that identification session starts.
            ctx.buffered.append(value)
            return True
        return False

    def _answer_pending(
        self, ctx: ConversationContext, parse: NLUResult, replies: list[str]
    ) -> bool:
        """Interpret a bare utterance as the answer to the open question.

        A blank utterance answers nothing: the open question stays open.
        """
        raw = parse.text.strip()
        if not raw:
            return False
        session = ctx.state.identification
        if session is not None and session.pending_question is not None:
            attribute = session.pending_question
            slot_name = self.artifacts.vocabulary.slot_for_attribute(attribute)
            value: Any = raw
            if slot_name is not None:
                linked = self.artifacts.nlu.linker.link(slot_name, raw)
                if linked is not None:
                    if linked.corrected:
                        replies.append(
                            self._responder.corrected(linked.raw,
                                                      str(linked.value))
                        )
                    value = linked.value
            session.answer(value)
            return True
        if ctx.state.current_slot is not None:
            linked = self.artifacts.nlu.linker.link(
                ctx.state.current_slot, raw
            )
            if linked is not None:
                ctx.state.collected[ctx.state.current_slot] = linked.value
                ctx.state.current_slot = None
                return True
        return False

    # ------------------------------------------------------------------
    # The task-progression loop
    # ------------------------------------------------------------------
    def _drive(
        self, ctx: ConversationContext, replies: list[str]
    ) -> ProcedureResult | None:
        """Advance the task until user input is needed or it completes."""
        state = ctx.state
        for __ in range(32):  # hard bound against pathological loops
            if state.task is None:
                return None
            if state.phase is Phase.CONFIRMING:
                if state.history and state.history[-1].endswith(acts.AGENT_EXECUTE):
                    return self._execute(ctx, replies)
                return None
            action = self._manager.propose(state)
            if action is None:
                return None
            if action == acts.AGENT_CONFIRM:
                if not self._executor.requires_confirmation(state.task):
                    state.record("agent", acts.AGENT_EXECUTE)
                    return self._execute(ctx, replies)
                state.phase = Phase.CONFIRMING
                state.record("agent", acts.AGENT_CONFIRM)
                replies.append(
                    self._responder.confirm(state.task, self._summary(ctx))
                )
                return None
            if action.startswith("identify_"):
                done = self._identification_step(ctx, action, replies)
                if not done:
                    return None
                continue
            if action.startswith("ask_slot_"):
                slot_name = action[len("ask_slot_"):]
                if state.collected.get(slot_name) is not None:
                    continue
                spec = state.task.slot(slot_name)
                state.current_slot = slot_name
                state.record("agent", action)
                replies.append(self._responder.ask_slot(spec.display_name))
                return None
            # Any other action (greet/goodbye) ends the drive loop.
            return None
        raise DialogueError("dialogue drive loop did not terminate")

    def _identification_step(
        self, ctx: ConversationContext, action: str, replies: list[str]
    ) -> bool:
        """One step of entity identification; True when the entity is done."""
        state = ctx.state
        assert state.task is not None
        entity_table = action[len("identify_"):]
        lookup = next(
            (
                lk
                for lk in state.task.lookups
                if lk.table == entity_table and lk.slot not in state.collected
            ),
            None,
        )
        if lookup is None:
            return True
        session = self._session_for(ctx, lookup.slot)
        status = session.status
        if status is IdentificationStatus.UNIQUE:
            row = session.candidates.the_row()
            state.collected[lookup.slot] = row[lookup.key_column]
            state.identification = None
            replies.append(self._responder.identified(lookup.table, row))
            return True
        if status is IdentificationStatus.NO_MATCH:
            replies.append(self._responder.no_match(lookup.table))
            state.identification = None
            return False
        if status in (
            IdentificationStatus.CHOICE_LIST,
            IdentificationStatus.EXHAUSTED,
        ):
            rows = session.choice_list()
            state.phase = Phase.CHOOSING
            replies.append(
                self._responder.propose_choices(lookup.table, rows)
            )
            return False
        question = session.next_question()
        if question is None:
            # Status changed as a side effect; handle on the next pass.
            return self._identification_step(ctx, action, replies)
        if f"agent:{action}" not in state.history[-3:]:
            state.record("agent", action)
        replies.append(self._responder.ask_attribute(question))
        return False

    def _execute(
        self, ctx: ConversationContext, replies: list[str]
    ) -> ProcedureResult | None:
        state = ctx.state
        task = state.task
        assert task is not None
        # The turn holds a snapshot pin, not a lock: the transaction
        # takes the commit latch directly (no upgrade needed), and the
        # commit refreshes this thread's pin so the rest of the turn
        # observes what it just booked.
        outcome = self._executor.execute(task, dict(state.collected))
        if outcome.success and outcome.result is not None:
            state.record("agent", acts.AGENT_SUCCESS)
            replies.append(self._responder.success(task, outcome.result.value))
            state.clear_task()
            return outcome.result
        state.record("agent", acts.AGENT_FAILURE)
        replies.append(self._responder.failure(outcome.error or "unknown error"))
        state.clear_task()
        return None

    # ------------------------------------------------------------------
    # Identification plumbing
    # ------------------------------------------------------------------
    def _session_for(
        self, ctx: ConversationContext, slot_name: str
    ) -> IdentificationSession:
        state = ctx.state
        assert state.task is not None
        session = state.identification
        if session is not None and session.candidates.table == self._lookup(
            ctx, slot_name
        ).table:
            return session
        lookup = self._lookup(ctx, slot_name)
        candidates = CandidateSet.initial(
            self._database,
            self.artifacts.catalog,
            lookup.table,
            shared_cache=self.artifacts.value_cache,
        )
        policy = DataAwarePolicy(lookup, ctx.awareness)
        session = IdentificationSession(
            candidates,
            policy,
            lookup.key_column,
            choice_list_size=self.artifacts.choice_list_size,
        )
        state.identification = session
        self._flush_buffer(ctx, session, lookup)
        return session

    def _lookup(self, ctx: ConversationContext, slot_name: str):
        assert ctx.state.task is not None
        lookup = ctx.state.task.lookup_for(slot_name)
        if lookup is None:
            raise DialogueError(f"slot {slot_name!r} is not an entity slot")
        return lookup

    def _flush_buffer(
        self,
        ctx: ConversationContext,
        session: IdentificationSession,
        lookup,
    ) -> None:
        """Apply pre-task buffered inform values that fit this entity."""
        remaining: list[LinkedValue] = []
        attributes = set(lookup.all_attributes())
        for value in ctx.buffered:
            attribute = self.artifacts.vocabulary.attribute_for(value.slot)
            if attribute is not None and attribute in attributes:
                session.volunteer(attribute, value.value)
            else:
                remaining.append(value)
        ctx.buffered[:] = remaining

    # ------------------------------------------------------------------
    # Choice lists
    # ------------------------------------------------------------------
    def _handle_choice(
        self, ctx: ConversationContext, parse: NLUResult
    ) -> list[str]:
        state = ctx.state
        session = state.identification
        if session is None:
            state.phase = Phase.GATHERING
            return []
        # First preference: the user narrowed the list with more
        # information ("my last name is gruber") rather than an index.
        replies: list[str] = []
        if self._refine_choice(ctx, parse, replies):
            state.record("user", acts.USER_INFORM)
            state.phase = Phase.GATHERING
            return replies
        rows = session.choice_list()
        index = self._parse_choice_index(parse.text, len(rows))
        if index is None:
            return [self._responder.choice_out_of_range(len(rows))]
        key_column = session.key_column
        session.choose(rows[index - 1][key_column])
        state.phase = Phase.GATHERING
        state.record("user", acts.USER_CHOOSE)
        return []

    def _refine_choice(
        self, ctx: ConversationContext, parse: NLUResult, replies: list[str]
    ) -> bool:
        """Apply linked values as extra constraints on the choice list.

        Values that belong to a *different* entity of the task (e.g. the
        room type while the guest list is shown) are buffered for the
        later identification instead of being dropped.
        """
        session = ctx.state.identification
        assert session is not None
        current_table = session.candidates.table
        applied = False
        for value in parse.linked:
            attribute = self.artifacts.vocabulary.attribute_for(value.slot)
            if attribute is None:
                continue
            if value.corrected:
                replies.append(
                    self._responder.corrected(value.raw, str(value.value))
                )
            if attribute.table == current_table or self._reaches(
                current_table, attribute
            ):
                applied = session.volunteer(attribute, value.value) or applied
            else:
                ctx.buffered.append(value)
        return applied

    def _reaches(self, root_table: str, attribute: ColumnRef) -> bool:
        return (
            self.artifacts.catalog.join_path(root_table, attribute.table)
            is not None
        )

    @staticmethod
    def _parse_choice_index(text: str, n: int) -> int | None:
        lowered = text.lower()
        match = re.search(r"\b(\d+)\b", lowered)
        if match:
            index = int(match.group(1))
            return index if 1 <= index <= n else None
        words = re.findall(r"[a-z]+", lowered)
        # Keyword selection only for short, index-like replies ("the last
        # one") — longer sentences are information, not selections.
        if len(words) <= 4:
            for word, index in _ORDINALS.items():
                if word in words and index <= n:
                    return index
            if "last" in words or "latter" in words:
                return n
        return None

    # ------------------------------------------------------------------
    def _summary(self, ctx: ConversationContext) -> dict[str, str]:
        state = ctx.state
        assert state.task is not None
        summary: dict[str, str] = {}
        for slot in state.task.slots:
            value = state.collected.get(slot.name)
            if value is None:
                continue
            summary[slot.display_name] = self._describe_slot_value(slot, value)
        return summary

    def _describe_slot_value(self, slot: SlotSpec, value: Any) -> str:
        if slot.references is None:
            return str(value)
        table, column = slot.references
        with self._database.read_locked():
            row = self._database.find_one(table, column, value)
        if row is None:
            return str(value)
        return self._responder.describe_row(table, row)

    def _current_slot_spec(self, ctx: ConversationContext) -> SlotSpec:
        assert ctx.state.task is not None and ctx.state.current_slot is not None
        return ctx.state.task.slot(ctx.state.current_slot)
