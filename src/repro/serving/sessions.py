"""Named conversation sessions with TTL expiry and LRU eviction.

The store maps session ids to live :class:`Session` objects, each
owning one :class:`~repro.dialogue.context.ConversationContext` (and
therefore one dialogue state, one buffered-value list and one awareness
model).  Two policies bound memory under heavy traffic:

* **idle TTL** — a session untouched for ``ttl`` seconds is reclaimed
  lazily on the next access (no background reaper thread needed), and
* **LRU capacity** — creating a session beyond ``max_sessions`` evicts
  the least recently used one.

All operations are safe under concurrent callers; the per-session
``turn_lock`` additionally lets the runtime serialise turns *within*
one session while different sessions proceed in parallel.

Neither policy ever reclaims a session whose ``turn_lock`` is held: a
turn in flight would otherwise keep mutating a context the store no
longer owns (and a recreated id would split the dialogue state).  Busy
sessions are skipped and re-aged — they re-enter the TTL window when
their turn finishes.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable

from repro.dialogue import ConversationContext
from repro.errors import ServingError, SessionExpiredError, UnknownSessionError

__all__ = ["Session", "SessionStore"]

_session_counter = itertools.count(1)


@dataclass
class Session:
    """One live conversation being served by a runtime."""

    session_id: str
    context: ConversationContext
    created_at: float
    last_used_at: float
    turn_count: int = 0
    # Turn wall-clock counters, maintained by AgentRuntime.respond()
    # under the turn lock.
    turn_seconds: float = 0.0
    last_turn_seconds: float = 0.0
    # The MVCC generation the session's latest turn pinned (set by
    # AgentRuntime.respond(); surfaced in the serve REPL's :stats).
    last_snapshot_version: int = 0
    # TranscriptTurn entries the runtime records per turn; kept on the
    # session so TTL/LRU reclamation frees them too.
    transcript: list = field(default_factory=list)
    turn_lock: threading.Lock = field(default_factory=threading.Lock)

    def idle_for(self, now: float) -> float:
        return now - self.last_used_at


class SessionStore:
    """Thread-safe session registry with TTL and LRU eviction."""

    def __init__(
        self,
        context_factory: Callable[[], ConversationContext],
        ttl: float | None = None,
        max_sessions: int = 4096,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if ttl is not None and ttl <= 0:
            raise ServingError("ttl must be positive (or None to disable)")
        if max_sessions < 1:
            raise ServingError("max_sessions must be >= 1")
        self._factory = context_factory
        self._ttl = ttl
        self._max_sessions = max_sessions
        self._clock = clock
        self._lock = threading.RLock()
        # Ordered oldest-use first; move_to_end on every touch.
        self._sessions: OrderedDict[str, Session] = OrderedDict()
        self.created_count = 0
        self.expired_count = 0
        self.evicted_count = 0

    # ------------------------------------------------------------------
    def create(self, session_id: str | None = None) -> Session:
        """Create (and register) a fresh session.

        Generates an id when none is given; evicts the least recently
        used session if the store is at capacity.
        """
        with self._lock:
            self._reap()
            if session_id is None:
                session_id = self._generate_id()
            elif session_id in self._sessions:
                raise ServingError(f"session {session_id!r} already exists")
            while len(self._sessions) >= self._max_sessions:
                victim_id = None
                for sid, candidate in self._sessions.items():
                    if not candidate.turn_lock.locked():
                        victim_id = sid
                        break
                if victim_id is None:
                    # Every resident session is mid-turn: admit over
                    # capacity rather than tear a live turn down.
                    break
                del self._sessions[victim_id]
                self.evicted_count += 1
            now = self._clock()
            session = Session(
                session_id=session_id,
                context=self._factory(),
                created_at=now,
                last_used_at=now,
            )
            self._sessions[session_id] = session
            self.created_count += 1
            return session

    def get(self, session_id: str) -> Session:
        """Look up a live session and mark it as just used."""
        return self._lookup(session_id, touch=True)

    def peek(self, session_id: str) -> Session:
        """Look up a session *without* refreshing its TTL/LRU position.

        For observability (listing sessions, reading transcripts): a
        monitoring loop must not keep idle sessions alive or scramble
        the eviction order.  Expired sessions are still reclaimed.
        """
        return self._lookup(session_id, touch=False)

    def _lookup(self, session_id: str, touch: bool) -> Session:
        with self._lock:
            session = self._sessions.get(session_id)
            if session is None:
                raise UnknownSessionError(f"no session {session_id!r}")
            now = self._clock()
            if self._ttl is not None and session.idle_for(now) > self._ttl:
                if session.turn_lock.locked():
                    # A turn is in flight: the session only *looks* idle
                    # because respond() touches the clock before taking
                    # the turn lock.  Re-age instead of expiring.
                    session.last_used_at = now
                else:
                    del self._sessions[session_id]
                    self.expired_count += 1
                    raise SessionExpiredError(
                        f"session {session_id!r} expired after "
                        f"{session.idle_for(now):.0f}s idle"
                    )
            if touch:
                session.last_used_at = now
                self._sessions.move_to_end(session_id)
            return session

    def close(self, session_id: str) -> None:
        with self._lock:
            if self._sessions.pop(session_id, None) is None:
                raise UnknownSessionError(f"no session {session_id!r}")

    def expire(self) -> list[str]:
        """Eagerly drop all idle-expired sessions; returns their ids."""
        with self._lock:
            return self._reap()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def __contains__(self, session_id: str) -> bool:
        with self._lock:
            return session_id in self._sessions

    def ids(self) -> list[str]:
        """Live session ids, least recently used first."""
        with self._lock:
            self._reap()
            return list(self._sessions)

    # ------------------------------------------------------------------
    def _reap(self) -> list[str]:
        if self._ttl is None:
            return []
        now = self._clock()
        expired = []
        for sid, session in list(self._sessions.items()):
            if session.idle_for(now) <= self._ttl:
                continue
            if session.turn_lock.locked():
                # Mid-turn: re-age so the TTL window restarts when the
                # turn's touch is long past (e.g. a slow transaction).
                session.last_used_at = now
                continue
            expired.append(sid)
        for sid in expired:
            del self._sessions[sid]
            self.expired_count += 1
        return expired

    def _generate_id(self) -> str:
        while True:
            candidate = f"s{next(_session_counter):06d}"
            if candidate not in self._sessions:
                return candidate
