"""Session-affinity sharding across worker processes.

One Python process can overlap read-only turn work on threads (the MVCC
snapshot layer removed the lock that used to serialise them), but the
GIL still caps CPU-bound NLU + query execution at one core.  The shard
tier scales past that the way the paper's "millions of users"
deployment would: N worker processes, each hosting its own
:class:`~repro.serving.runtime.AgentRuntime` over a *replica* of the
database (synthesized once and shipped via the format-v3 snapshot, or
inherited on fork), with a router in front that hashes session ids to
workers.  Affinity is total — a session's every turn lands on the same
worker, so dialogue state, per-session connections and transcripts
never cross process boundaries.

Replicas imply per-worker writes stay per-worker (a booking commits on
the owning session's replica only); that is the right trade for the
read-dominated conversational workload this tier exists to scale, and
it mirrors the share-nothing partitioning argument of the HTAP line of
work in PAPERS.md.

The wire protocol is deliberately tiny: one duplex pipe per worker,
``(op, payload)`` request tuples answered by ``("ok", value)`` or
``("err", kind, message)``; a per-worker mutex serialises request/reply
pairs while different workers proceed in parallel.  Replies carry plain
dicts (no agent objects cross the pipe), surfaced as
:class:`ShardReply`.

``bootstrap`` builds the worker's runtime.  Pass a callable for
fork-based starts (the child inherits it — and, typically, the already
built runtime closed over it, making worker start effectively free) or
a ``"module:attribute"`` string for spawn-safe starts; either receives
``bootstrap_arg`` (e.g. a snapshot path) when given.  ``inprocess=True``
skips processes entirely and hosts every "worker" runtime in the
calling process — the degenerate mode used by tests and single-core
machines.
"""

from __future__ import annotations

import itertools
import multiprocessing
import threading
import zlib
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import ServingError, SessionExpiredError, UnknownSessionError

__all__ = ["ShardReply", "ShardRouter", "ShardStats", "WorkerStats"]

_shard_session_counter = itertools.count(1)

_ERROR_KINDS: dict[str, type[Exception]] = {
    "unknown_session": UnknownSessionError,
    "session_expired": SessionExpiredError,
    "serving": ServingError,
}


@dataclass(frozen=True)
class ShardReply:
    """One turn's reply as it crossed the worker pipe."""

    text: str
    executed: bool
    intent: str | None


@dataclass(frozen=True)
class WorkerStats:
    """One worker's serving counters (a pipe-safe RuntimeStats cut)."""

    worker: int
    live_sessions: int
    turns_served: int
    transactions_committed: int
    transactions_aborted: int
    snapshot_version: int
    commit_waits: int


@dataclass(frozen=True)
class ShardStats:
    """Aggregate + per-worker counters of the shard tier."""

    workers: tuple[WorkerStats, ...]

    @property
    def turns_served(self) -> int:
        return sum(w.turns_served for w in self.workers)

    @property
    def live_sessions(self) -> int:
        return sum(w.live_sessions for w in self.workers)

    @property
    def per_worker_turns(self) -> tuple[int, ...]:
        return tuple(w.turns_served for w in self.workers)


def _resolve_bootstrap(spec: Any) -> Callable[..., Any]:
    """A ``"module:attribute"`` spec (or a callable, passed through)."""
    if callable(spec):
        return spec
    module_name, __, attribute = str(spec).partition(":")
    if not attribute:
        raise ServingError(
            f"bootstrap spec {spec!r} is not 'module:attribute'"
        )
    import importlib

    target: Any = importlib.import_module(module_name)
    for part in attribute.split("."):
        target = getattr(target, part)
    if not callable(target):
        raise ServingError(f"bootstrap {spec!r} resolved to a non-callable")
    return target


def _build_runtime(bootstrap: Any, bootstrap_arg: Any) -> Any:
    factory = _resolve_bootstrap(bootstrap)
    if bootstrap_arg is None:
        return factory()
    return factory(bootstrap_arg)


def _serve_request(runtime: Any, op: str, payload: Any) -> Any:
    """Dispatch one router request against the worker's runtime."""
    if op == "respond":
        session_id, text = payload
        reply = runtime.respond(session_id, text)
        return {
            "text": reply.text,
            "executed": reply.executed,
            "intent": reply.nlu.intent if reply.nlu else None,
        }
    if op == "create_session":
        return runtime.create_session(payload)
    if op == "end_session":
        runtime.end_session(payload)
        return None
    if op == "session_ids":
        return runtime.session_ids()
    if op == "stats":
        stats = runtime.stats()
        return {
            "live_sessions": stats.live_sessions,
            "turns_served": stats.turns_served,
            "transactions_committed": stats.transactions_committed,
            "transactions_aborted": stats.transactions_aborted,
            "snapshot_version": stats.snapshot_version,
            "commit_waits": stats.commit_waits,
        }
    raise ServingError(f"unknown shard op {op!r}")


def _error_kind(exc: BaseException) -> str:
    if isinstance(exc, UnknownSessionError):
        return "unknown_session"
    if isinstance(exc, SessionExpiredError):
        return "session_expired"
    if isinstance(exc, ServingError):
        return "serving"
    return "runtime"


def _worker_main(conn, bootstrap: Any, bootstrap_arg: Any) -> None:
    """Worker process entry: build the runtime, answer until shutdown."""
    try:
        runtime = _build_runtime(bootstrap, bootstrap_arg)
    except BaseException as exc:  # noqa: BLE001 - reported to the router
        conn.send(("err", _error_kind(exc), f"bootstrap failed: {exc}"))
        conn.close()
        return
    conn.send(("ok", "ready"))
    while True:
        try:
            op, payload = conn.recv()
        except EOFError:
            break
        if op == "shutdown":
            conn.send(("ok", None))
            break
        try:
            conn.send(("ok", _serve_request(runtime, op, payload)))
        except BaseException as exc:  # noqa: BLE001 - crossed back as err
            conn.send(("err", _error_kind(exc), str(exc)))
    conn.close()


class _ProcessWorker:
    """Router-side handle of one worker process."""

    def __init__(self, index: int, ctx, bootstrap: Any, bootstrap_arg: Any):
        self.index = index
        self.lock = threading.Lock()
        self._conn, child_conn = ctx.Pipe(duplex=True)
        self._process = ctx.Process(
            target=_worker_main,
            args=(child_conn, bootstrap, bootstrap_arg),
            name=f"repro-shard-{index}",
            daemon=True,
        )
        self._process.start()
        child_conn.close()
        status = self._conn.recv()
        if status[0] != "ok":
            raise ServingError(f"worker {index}: {status[2]}")

    def request(self, op: str, payload: Any) -> Any:
        with self.lock:
            self._conn.send((op, payload))
            reply = self._conn.recv()
        if reply[0] == "ok":
            return reply[1]
        __, kind, message = reply
        raise _ERROR_KINDS.get(kind, ServingError)(message)

    def close(self) -> None:
        try:
            self.request("shutdown", None)
        except (OSError, EOFError, BrokenPipeError):
            pass
        self._process.join(timeout=5.0)
        if self._process.is_alive():  # pragma: no cover - stuck worker
            self._process.terminate()
        self._conn.close()


class _InprocessWorker:
    """One "worker" hosted in the calling process (no pipe, no fork)."""

    def __init__(self, index: int, bootstrap: Any, bootstrap_arg: Any):
        self.index = index
        self.lock = threading.Lock()
        self._runtime = _build_runtime(bootstrap, bootstrap_arg)

    def request(self, op: str, payload: Any) -> Any:
        if op == "shutdown":
            return None
        return _serve_request(self._runtime, op, payload)

    def close(self) -> None:
        pass


class ShardRouter:
    """Hash session ids across N single-runtime workers.

    The router is thread-safe: callers on different sessions whose
    shards differ proceed fully in parallel (distinct pipes, distinct
    processes, distinct GILs).
    """

    def __init__(
        self,
        workers: int,
        bootstrap: Any,
        bootstrap_arg: Any = None,
        start_method: str | None = None,
        inprocess: bool = False,
    ) -> None:
        if workers < 1:
            raise ServingError("workers must be >= 1")
        self._workers: list[Any] = []
        try:
            if inprocess:
                for index in range(workers):
                    self._workers.append(
                        _InprocessWorker(index, bootstrap, bootstrap_arg)
                    )
            else:
                ctx = multiprocessing.get_context(start_method)
                for index in range(workers):
                    self._workers.append(
                        _ProcessWorker(index, ctx, bootstrap, bootstrap_arg)
                    )
        except BaseException:
            self.close()
            raise
        self._closed = False

    # ------------------------------------------------------------------
    def shard_of(self, session_id: str) -> int:
        """The worker index owning ``session_id`` (stable affinity)."""
        return zlib.crc32(session_id.encode("utf-8")) % len(self._workers)

    def _worker_for(self, session_id: str):
        return self._workers[self.shard_of(session_id)]

    # ------------------------------------------------------------------
    def create_session(self, session_id: str | None = None) -> str:
        if session_id is None:
            session_id = f"sh{next(_shard_session_counter):06d}"
        self._worker_for(session_id).request("create_session", session_id)
        return session_id

    def respond(self, session_id: str, text: str) -> ShardReply:
        reply = self._worker_for(session_id).request(
            "respond", (session_id, text)
        )
        return ShardReply(
            text=reply["text"],
            executed=reply["executed"],
            intent=reply["intent"],
        )

    def end_session(self, session_id: str) -> None:
        self._worker_for(session_id).request("end_session", session_id)

    def session_ids(self) -> list[str]:
        ids: list[str] = []
        for worker in self._workers:
            ids.extend(worker.request("session_ids", None))
        return ids

    def stats(self) -> ShardStats:
        per_worker = []
        for worker in self._workers:
            raw = worker.request("stats", None)
            per_worker.append(WorkerStats(worker=worker.index, **raw))
        return ShardStats(workers=tuple(per_worker))

    # ------------------------------------------------------------------
    def close(self) -> None:
        if getattr(self, "_closed", False):
            return
        self._closed = True
        for worker in self._workers:
            worker.close()

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
