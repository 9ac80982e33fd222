"""Concurrent multi-session serving on top of one synthesized agent.

One :class:`~repro.agent.artifacts.AgentArtifacts` bundle is expensive
to synthesize but read-only to serve, so a single bundle (plus the
shared database) can back any number of simultaneous conversations.
This package provides the runtime for that:

* :class:`~repro.serving.sessions.SessionStore` — named sessions with
  idle-TTL expiry and LRU capacity eviction (never of a mid-turn
  session),
* :class:`~repro.serving.runtime.AgentRuntime` — the thread-safe entry
  point: ``runtime.respond(session_id, text)``; every turn pins one
  MVCC snapshot, so read work runs concurrently on threads and
  transactions take only the narrow commit latch of the one database.
"""

from repro.serving.runtime import AgentRuntime, RuntimeStats, SessionStats
from repro.serving.sessions import Session, SessionStore

__all__ = [
    "AgentRuntime",
    "RuntimeStats",
    "Session",
    "SessionStats",
    "SessionStore",
]
