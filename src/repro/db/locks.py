"""The MVCC writer latch (:class:`CommitLatch`) and the error a
read-only snapshot scope raises on a write (:class:`LockUpgradeError`).
"""

from __future__ import annotations

import threading

__all__ = ["CommitLatch", "LockUpgradeError"]


class LockUpgradeError(RuntimeError):
    """A read-only scope attempted a write.

    Raised by the database's write scope when entered inside a
    read-only snapshot pin.
    """


class CommitLatch:
    """A reentrant mutex serialising writer transactions.

    This is the only lock a transaction holds for its duration under
    the MVCC design; readers pin snapshots and never queue here.  The
    latch is reentrant for its owning thread (stored procedures nest
    write scopes freely) and counts contended acquisitions in
    ``waits`` — the ``commit_waits`` number the serving stats report,
    a direct measure of writer-writer interference.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._owner: int | None = None
        self._depth = 0
        self.waits = 0

    @property
    def held_by_current_thread(self) -> bool:
        return self._owner == threading.get_ident()

    def acquire(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._owner == me:
                self._depth += 1
                return
            if self._owner is not None:
                self.waits += 1
                while self._owner is not None:
                    self._cond.wait()
            self._owner = me
            self._depth = 1

    def release(self) -> None:
        with self._cond:
            if self._owner != threading.get_ident():
                raise RuntimeError("release() by a non-owning thread")
            self._depth -= 1
            if self._depth == 0:
                self._owner = None
                self._cond.notify()
