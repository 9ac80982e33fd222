"""The concurrent multi-session agent runtime.

``AgentRuntime`` owns one immutable artifacts bundle and the database,
and serves any number of named conversations against them::

    runtime = cat.synthesize_runtime(session_ttl=1800.0)
    sid = runtime.create_session()
    reply = runtime.respond(sid, "i want to buy 2 tickets")

Concurrency model (MVCC):

* turns on *different* sessions run in parallel — each turn pins one
  snapshot generation at its start and every read inside (NLU parsing,
  candidate scoring, distinct counts) resolves against it, so no
  turn ever observes a half-applied change and no turn ever waits for
  a writer;
* turns on the *same* session serialise on the session's turn lock, so
  a client double-submitting cannot corrupt its own dialogue state;
* transactions (the execute step at the end of a task) take only the
  database's narrow commit latch via the stored-procedure registry —
  writers serialise against each other, never against readers; the
  ``commit_waits`` stat counts that writer-writer contention.

Sessions expire after ``session_ttl`` seconds idle and the store evicts
least-recently-used sessions beyond ``max_sessions``, which bounds the
memory that idle or abandoned conversations hold.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable

from repro.agent.agent import AgentReply, ConversationalAgent
from repro.agent.artifacts import AgentArtifacts
from repro.agent.session import TranscriptTurn
from repro.db.database import Database
from repro.serving.sessions import Session, SessionStore

__all__ = ["AgentRuntime", "RuntimeStats", "SessionStats"]


@dataclass(frozen=True)
class RuntimeStats:
    """Aggregate counters of one runtime."""

    live_sessions: int
    sessions_created: int
    sessions_expired: int
    sessions_evicted: int
    turns_served: int
    transactions_committed: int
    transactions_aborted: int
    # Executions on the database's default connection, which runs every
    # turn statement, that reused their statement's plan or planned it.
    plan_cache_hits: int
    plan_cache_misses: int
    # MVCC observability: the committed generation new turns pin, and
    # how often a committing transaction waited behind another writer.
    snapshot_version: int = 0
    commit_waits: int = 0


@dataclass(frozen=True)
class SessionStats:
    """Per-session serving counters (observability; non-touching),
    sourced from the session's turn clock."""

    session_id: str
    turns: int
    mean_turn_ms: float
    last_turn_ms: float
    # The MVCC generation the session's latest turn pinned.
    snapshot_version: int = 0


class AgentRuntime:
    """Thread-safe serving front end for one synthesized agent."""

    def __init__(
        self,
        database: Database,
        artifacts: AgentArtifacts,
        session_ttl: float | None = None,
        max_sessions: int = 4096,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.database = database
        self.artifacts = artifacts
        # One shared engine: it holds no per-conversation state beyond
        # its (unused here) default context, so all sessions reuse it.
        self._agent = ConversationalAgent(database, artifacts)
        self.sessions = SessionStore(
            context_factory=artifacts.new_context,
            ttl=session_ttl,
            max_sessions=max_sessions,
            clock=clock,
        )
        self._stats_lock = threading.Lock()
        self._turns_served = 0

    # ------------------------------------------------------------------
    @classmethod
    def for_agent(cls, agent: ConversationalAgent, **options) -> "AgentRuntime":
        """Wrap an already-synthesized single-session agent."""
        return cls(agent._database, agent.artifacts, **options)

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------
    def create_session(self, session_id: str | None = None) -> str:
        return self.sessions.create(session_id).session_id

    def end_session(self, session_id: str) -> None:
        self.sessions.close(session_id)

    def session(self, session_id: str) -> Session:
        """The live session (touches its LRU/TTL clock)."""
        return self.sessions.get(session_id)

    def peek_session(self, session_id: str) -> Session:
        """The live session without touching TTL/LRU (observability)."""
        return self.sessions.peek(session_id)

    def session_ids(self) -> list[str]:
        return self.sessions.ids()

    @property
    def session_count(self) -> int:
        return len(self.sessions)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def respond(self, session_id: str, text: str) -> AgentReply:
        """Process one utterance in the named session."""
        session = self.sessions.get(session_id)
        with session.turn_lock:
            # The generation this turn's snapshot pin will capture.
            session.last_snapshot_version = self.database.data_version
            started = time.perf_counter()
            reply = self._agent.respond(text, context=session.context)
            elapsed = time.perf_counter() - started
            session.turn_seconds += elapsed
            session.last_turn_seconds = elapsed
            session.turn_count += 1
            session.transcript.append(
                TranscriptTurn(
                    user=text,
                    agent=reply.text,
                    intent=reply.nlu.intent if reply.nlu else None,
                    executed=reply.executed,
                )
            )
        with self._stats_lock:
            self._turns_served += 1
        return reply

    def transcript(self, session_id: str) -> list[TranscriptTurn]:
        """Recorded turns of one session."""
        return list(self.sessions.peek(session_id).transcript)

    # ------------------------------------------------------------------
    def stats(self) -> RuntimeStats:
        store = self.sessions
        statements = self.database.default_connection.stats()
        with self._stats_lock:
            turns = self._turns_served
        return RuntimeStats(
            live_sessions=len(store),
            sessions_created=store.created_count,
            sessions_expired=store.expired_count,
            sessions_evicted=store.evicted_count,
            turns_served=turns,
            transactions_committed=self.database.transactions.committed_count,
            transactions_aborted=self.database.transactions.aborted_count,
            plan_cache_hits=statements.plan_cache_hits,
            plan_cache_misses=statements.plan_cache_misses,
            snapshot_version=self.database.data_version,
            commit_waits=self.database.commit_latch.waits,
        )

    def session_stats(self, session_id: str) -> SessionStats:
        """Per-session counters (peek: does not refresh TTL/LRU)."""
        session = self.sessions.peek(session_id)
        turns = session.turn_count
        return SessionStats(
            session_id=session_id,
            turns=turns,
            mean_turn_ms=(session.turn_seconds / turns * 1000.0) if turns
            else 0.0,
            last_turn_ms=session.last_turn_seconds * 1000.0,
            snapshot_version=session.last_snapshot_version,
        )
