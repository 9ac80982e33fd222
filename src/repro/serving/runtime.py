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
from repro.db.api import Connection
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
    plan_cache_hits: int
    plan_cache_misses: int
    plan_cache_bypasses: int
    plan_cache_evictions: int
    # MVCC observability: the committed generation new turns pin, and
    # how often a committing transaction waited behind another writer.
    snapshot_version: int = 0
    commit_waits: int = 0


@dataclass(frozen=True)
class SessionStats:
    """Per-session serving counters (observability; non-touching).

    Sourced from the session's :class:`~repro.db.api.Connection` (the
    runtime charges each turn's plan-cache traffic to it) plus the
    session's turn clock.
    """

    session_id: str
    turns: int
    plan_cache_hits: int
    plan_cache_misses: int
    mean_turn_ms: float
    last_turn_ms: float
    # Statements the client issued directly through the session's
    # connection (the turn queries run through shared internal
    # connections and are attributed via the plan-cache counters).
    executions: int = 0
    statements_prepared: int = 0
    # The MVCC generation the session's latest turn pinned.
    snapshot_version: int = 0

    @property
    def plan_cache_hit_rate(self) -> float:
        total = self.plan_cache_hits + self.plan_cache_misses
        return self.plan_cache_hits / total if total else 0.0


class AgentRuntime:
    """Thread-safe serving front end for one synthesized agent."""

    def __init__(
        self,
        database: Database,
        artifacts: AgentArtifacts,
        session_ttl: float | None = None,
        max_sessions: int = 4096,
        clock: Callable[[], float] = time.monotonic,
        record_transcripts: bool = True,
    ) -> None:
        self.database = database
        self.artifacts = artifacts
        # One shared engine: it holds no per-conversation state beyond
        # its (unused here) default context, so all sessions reuse it.
        self._agent = ConversationalAgent(database, artifacts)
        # The bundle's prepared-plan cache (the same instance every
        # statement on this database reads through).
        self._plan_cache = artifacts.plan_cache
        self.sessions = SessionStore(
            context_factory=artifacts.new_context,
            ttl=session_ttl,
            max_sessions=max_sessions,
            clock=clock,
        )
        self._record_transcripts = record_transcripts
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
        session = self.sessions.create(session_id)
        # Every session holds its own connection, so per-session
        # execution stats come free.  Created through the locked lazy
        # path so a concurrent respond() on a predictable id never ends
        # up charging a connection this assignment would orphan.
        self._session_connection(session)
        return session.session_id

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
        plan_cache = self._plan_cache
        with session.turn_lock:
            connection = self._session_connection(session)
            # The turn runs on this thread, so the thread-local cache
            # counter delta is exactly this turn's plan-cache traffic —
            # charged to the session's connection.
            hits_before, misses_before = plan_cache.local_counters()
            # The generation this turn's snapshot pin will capture.
            session.last_snapshot_version = self.database.data_version
            started = time.perf_counter()
            reply = self._agent.respond(text, context=session.context)
            elapsed = time.perf_counter() - started
            hits_after, misses_after = plan_cache.local_counters()
            connection.note_plan_cache(
                hits_after - hits_before, misses_after - misses_before
            )
            session.turn_seconds += elapsed
            session.last_turn_seconds = elapsed
            session.turn_count += 1
            if self._record_transcripts:
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
        """Recorded turns of one session (empty when recording is off)."""
        return list(self.sessions.peek(session_id).transcript)

    # ------------------------------------------------------------------
    def stats(self) -> RuntimeStats:
        store = self.sessions
        plan_cache = self._plan_cache
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
            plan_cache_hits=plan_cache.hits,
            plan_cache_misses=plan_cache.misses,
            plan_cache_bypasses=plan_cache.bypasses,
            plan_cache_evictions=plan_cache.evictions,
            snapshot_version=self.database.data_version,
            commit_waits=self.database.commit_latch.waits,
        )

    def session_stats(self, session_id: str) -> SessionStats:
        """Per-session counters (peek: does not refresh TTL/LRU)."""
        session = self.sessions.peek(session_id)
        turns = session.turn_count
        connection = self._session_connection(session)
        conn_stats = connection.stats()
        return SessionStats(
            session_id=session_id,
            turns=turns,
            plan_cache_hits=conn_stats.plan_cache_hits,
            plan_cache_misses=conn_stats.plan_cache_misses,
            mean_turn_ms=(session.turn_seconds / turns * 1000.0) if turns
            else 0.0,
            last_turn_ms=session.last_turn_seconds * 1000.0,
            executions=conn_stats.executions,
            statements_prepared=conn_stats.statements_prepared,
            snapshot_version=session.last_snapshot_version,
        )

    def session_connection(self, session_id: str) -> Connection:
        """The session's database connection (peek: no TTL/LRU touch)."""
        return self._session_connection(self.sessions.peek(session_id))

    def _session_connection(self, session: Session) -> Connection:
        connection = session.connection
        if connection is None:
            # Sessions created directly on the store (tests, custom
            # integrations) get their connection on first use; the
            # double-check under the lock keeps two racing callers from
            # charging stats to an orphaned connection.
            with self._stats_lock:
                connection = session.connection
                if connection is None:
                    connection = self.database.connect(
                        name=session.session_id
                    )
                    session.connection = connection
        return connection
