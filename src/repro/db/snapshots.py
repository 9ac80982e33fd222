"""MVCC snapshot management: the generation clock and reader pins.

This module is the concurrency heart of the database.  The storage
layer (:mod:`repro.db.table`) stamps every slot with the generation
that created it and, eventually, the generation that deleted it; this
module owns the two pieces that turn those stamps into
snapshot-isolated reads:

* :class:`GenerationClock` — the database-wide version counter.  A
  transaction's mutations are stamped with ``current + 1`` (*pending*)
  and become visible atomically when the commit advances the clock
  (one integer assignment, no reader coordination).
* :class:`SnapshotManager` — per-thread pin stacks plus a registry of
  pinned generations.  ``pinned()`` captures the current generation for
  the duration of a read scope (a serving turn, a procedure call, a
  cache rebuild); every Table read issued inside the scope resolves
  against that generation, so the whole turn observes one consistent
  database state while writers append freely.

Why this is safe without a readers–writer lock: bank cells of a
published (visible) slot are never mutated in place — every update
appends a new version slot and tombstones the old one — so a reader
holding a slot list can dereference cells lock-free, even one that
pins between a write and its commit point.  The only multi-step
structures (slot maps, index arrays, memo caches) are read and rebuilt
under each table's short structure latch, held per operation rather
than per turn.  Writers serialise whole transactions on the database's
:class:`~repro.db.locks.CommitLatch`.

Pin semantics:

* nested pins on one thread share the outermost pin's generation, so a
  turn's inner read scopes cannot drift forward mid-turn;
* a thread holding the commit latch reads *current* state regardless of
  its pins — a writing transaction sees its own uncommitted changes;
* committing refreshes the committing thread's own pins to the new
  generation, so the rest of its turn observes what it just wrote;
* ``read_only`` pins forbid writes: the database's write scope raises
  :class:`~repro.db.locks.LockUpgradeError` inside one, preserving the
  "declared read-only but attempted to write" procedure error.

The manager also answers :meth:`SnapshotManager.reclaim_bound`, the
generation at or below which the vacuum may physically reclaim
superseded versions and tombstones, and fires ``on_idle`` when the last
pin drains so garbage does not linger until the next mutation.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Iterator

from repro.db.locks import CommitLatch

__all__ = ["GenerationClock", "SnapshotManager", "SnapshotPin"]


class GenerationClock:
    """The database-wide MVCC version counter.

    ``current`` is the newest committed generation; ``pending`` is the
    stamp in-flight mutations carry (``current + 1``).  ``advance()``
    runs at commit points only — under the commit latch — so readers
    need no synchronisation beyond one atomic integer read.
    """

    __slots__ = ("current",)

    def __init__(self, start: int = 0) -> None:
        self.current = start

    @property
    def pending(self) -> int:
        """The stamp uncommitted mutations carry right now."""
        return self.current + 1

    def advance(self) -> int:
        """Publish the pending generation (commit point); returns it."""
        self.current += 1
        return self.current

    def advance_to(self, generation: int) -> None:
        """Move forward to ``generation`` if behind it (a restore resumes
        the clock of the database it restores)."""
        if generation > self.current:
            self.current = generation

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"GenerationClock(current={self.current})"


class SnapshotPin:
    """One pinned read scope on one thread."""

    __slots__ = ("generation", "read_only")

    def __init__(self, generation: int, read_only: bool) -> None:
        self.generation = generation
        self.read_only = read_only

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        ro = ", read_only" if self.read_only else ""
        return f"SnapshotPin(generation={self.generation}{ro})"


class SnapshotManager:
    """Per-thread snapshot pins over one :class:`GenerationClock`."""

    def __init__(
        self,
        clock: GenerationClock,
        latch: CommitLatch,
        on_idle: Callable[[], None] | None = None,
    ) -> None:
        self._clock = clock
        self._latch = latch
        self._on_idle = on_idle
        self._local = threading.local()
        self._mutex = threading.Lock()
        # generation -> number of live pins at it (across all threads).
        self._pinned: dict[int, int] = {}

    # ------------------------------------------------------------------
    def _stack(self) -> list[SnapshotPin]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    # ------------------------------------------------------------------
    @contextmanager
    def pinned(self, read_only: bool = False) -> Iterator[SnapshotPin]:
        """Pin the current generation for the scope's duration.

        Nested pins inherit the outer pin's generation (one turn, one
        snapshot).  The pin is registered so the vacuum keeps every
        version the scope can still see.
        """
        stack = self._stack()
        with self._mutex:
            # Read the clock and register in one step: a vacuum bound
            # taken under the same mutex then never exceeds the
            # generation of a pin registered after it.
            generation = (
                stack[-1].generation if stack else self._clock.current
            )
            pin = SnapshotPin(generation, read_only)
            self._pinned[generation] = self._pinned.get(generation, 0) + 1
        stack.append(pin)
        try:
            yield pin
        finally:
            stack.pop()
            with self._mutex:
                self._unregister_locked(pin.generation)
                idle = not self._pinned
            if idle and self._on_idle is not None:
                # Outside the mutex: the idle hook vacuums, which takes
                # table latches — never while holding the pin registry.
                self._on_idle()

    def _unregister_locked(self, generation: int) -> None:
        count = self._pinned.get(generation, 0) - 1
        if count > 0:
            self._pinned[generation] = count
        else:
            self._pinned.pop(generation, None)

    # ------------------------------------------------------------------
    def active_generation(self) -> int | None:
        """The generation this thread's reads must honour.

        ``None`` means "read current state": the thread holds no pin, or
        it holds the commit latch (a writing transaction must see its
        own uncommitted changes).
        """
        stack = getattr(self._local, "stack", None)
        if not stack or self._latch.held_by_current_thread:
            return None
        return stack[-1].generation

    def read_generation(self) -> int:
        """The generation this thread's reads observe, as a number.

        The pinned generation, or the current one when unpinned; a
        thread holding the commit latch reads every stamp up to the
        pending generation, its own uncommitted writes included.
        """
        if self._latch.held_by_current_thread:
            return self._clock.current + 1
        stack = getattr(self._local, "stack", None)
        return stack[-1].generation if stack else self._clock.current

    def writes_forbidden(self) -> bool:
        """True when any pin on this thread's stack is read-only."""
        stack = getattr(self._local, "stack", None)
        if not stack:
            return False
        return any(pin.read_only for pin in stack)

    # ------------------------------------------------------------------
    def reclaim_bound(self) -> int:
        """The generation at or below which dead versions are reclaimable.

        The oldest live pin's generation, or the current one when no pin
        is live.  Both are read under the registry mutex, so a vacuum
        pass using this bound stays safe for every pin registered while
        it runs, even across later commits.
        """
        with self._mutex:
            if self._pinned:
                return min(self._pinned)
            return self._clock.current

    # ------------------------------------------------------------------
    def refresh_current_thread(self) -> None:
        """Move this thread's pins to the current generation.

        Called after a commit advances the clock: the committing
        thread's enclosing turn pin must observe the state it just
        published, while other threads' pins stay where they are.
        """
        stack = getattr(self._local, "stack", None)
        if not stack:
            return
        current = self._clock.current
        with self._mutex:
            for pin in stack:
                if pin.generation != current:
                    self._unregister_locked(pin.generation)
                    self._pinned[current] = self._pinned.get(current, 0) + 1
                    pin.generation = current

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        with self._mutex:
            return (
                f"SnapshotManager(current={self._clock.current}, "
                f"pinned={dict(self._pinned)})"
            )
