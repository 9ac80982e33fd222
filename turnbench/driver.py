"""Closed-loop conversation driver and output checks.

One client thread drives ``SESSIONS`` simulated users round-robin
through the public :class:`repro.AgentRuntime` API: each user speaks
only after the agent answered its previous utterance, and there is no
think time.  Every user plays one goal per runtime session
(``create_session`` .. ``end_session``) and then starts the next goal.
The order of turns depends only on the seed, never on timing, so the
first goals of a run are played identically on every run with that seed.
Given a :class:`hostspeed.HostSpeed`, the loop also takes a reference
sample between two turns every ``SAMPLE_EVERY`` seconds.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

from repro.dialogue import Phase

from hostspeed import SAMPLE_EVERY
from simulator import GoalSampler, SimulatedUser

#: Users in flight at once (the closed loop's client count).
SESSIONS = 8

_WRITE_PROCEDURES = ("ticket_reservation", "cancel_reservation")


@dataclass
class GoalRecord:
    """How one goal went."""

    completed: bool
    turns: int
    transcript: list[str]


@dataclass
class PhaseStats:
    """Figures of one driving phase."""

    latencies: list[float] = field(default_factory=list)   # seconds
    starts: list[float] = field(default_factory=list)      # perf_counter
    begun: float = 0.0
    ended: float = 0.0
    wall: float = 0.0
    respond_time: float = 0.0
    errors: int = 0
    goals_ended: int = 0

    def merge(self, other: "PhaseStats") -> None:
        self.latencies += other.latencies
        self.starts += other.starts
        self.wall += other.wall
        self.respond_time += other.respond_time
        self.errors += other.errors
        self.goals_ended += other.goals_ended


class _Slot:
    def __init__(self) -> None:
        self.user: SimulatedUser | None = None
        self.session: str | None = None
        self.transcript: list[str] = []


class ConversationDriver:
    """Plays seeded goals against a runtime and checks what it commits."""

    def __init__(self, runtime, annotations, mix, seed: int,
                 host=None) -> None:
        self.runtime = runtime
        self.host = host
        self.database = runtime.database
        self._annotations = annotations
        self._sampler = GoalSampler(self.database, annotations, mix, seed)
        self._slots = [_Slot() for __ in range(SESSIONS)]
        self.records: dict[int, GoalRecord] = {}
        self.violations: list[str] = []
        self.bookings = 0
        self.cancellations = 0
        self.reservations_at_start = self.database.count("reservation")
        #: Digest of the corpus prefix; set once its goals have ended.
        self.digest: str | None = None
        self._corpus = 0
        self._corpus_ended = 0

    # ------------------------------------------------------------------
    def run(
        self,
        seconds: float,
        corpus_goals: int = 0,
        min_turns: int = 0,
        max_goals: int | None = None,
    ) -> PhaseStats:
        """Drive turns for ``seconds``, and at least until ``min_turns``
        turns were taken and the run's first ``corpus_goals`` goals
        ended.  With ``max_goals``, start exactly that many goals and
        drive until all of them ended instead."""
        self._corpus = max(self._corpus, corpus_goals)
        phase = PhaseStats()
        host = self.host
        started = time.perf_counter()
        deadline = started + seconds
        next_sample = started
        while True:
            starting = max_goals is None or self._sampler.started < max_goals
            busy = False
            for slot in self._slots:
                if slot.user is None:
                    if not starting:
                        continue
                    self._start(slot)
                busy = True
                if host is not None and time.perf_counter() >= next_sample:
                    host.sample()
                    next_sample = time.perf_counter() + SAMPLE_EVERY
                self._step(slot, phase)
            if max_goals is not None:
                if not busy:
                    break
            elif (time.perf_counter() >= deadline
                  and len(phase.latencies) >= min_turns
                  and self._corpus_ended >= self._corpus):
                break
        if host is not None:
            host.sample()
        phase.begun = started
        phase.ended = time.perf_counter()
        phase.wall = phase.ended - started
        return phase

    def abandon(self) -> None:
        """End the sessions of goals still in flight (not counted)."""
        for slot in self._slots:
            if slot.user is not None:
                self.runtime.end_session(slot.session)
                self._sampler.release(slot.user.goal)
                slot.user = None

    def check_final_state(self) -> None:
        """Reservation rows must equal start + bookings - cancellations."""
        expected = (self.reservations_at_start + self.bookings
                    - self.cancellations)
        actual = self.database.count("reservation")
        if actual != expected:
            self.violations.append(
                f"reservation rows {actual} != {expected} expected"
            )

    # ------------------------------------------------------------------
    def _start(self, slot: _Slot) -> None:
        goal = self._sampler.sample()
        slot.user = SimulatedUser(goal, self._annotations)
        slot.session = self.runtime.create_session()
        slot.transcript = []

    def _step(self, slot: _Slot, phase: PhaseStats) -> None:
        user = slot.user
        runtime = self.runtime
        state = runtime.peek_session(slot.session).context.state
        text = user.next_utterance(state)
        if text is None:
            self._end(slot, phase)
            return
        confirming = state.phase is Phase.CONFIRMING
        begun = time.perf_counter()
        try:
            reply = runtime.respond(slot.session, text)
        except Exception as exc:  # a turn must never raise: count, end goal
            elapsed = time.perf_counter() - begun
            phase.errors += 1
            phase.latencies.append(elapsed)
            phase.starts.append(begun)
            phase.respond_time += elapsed
            self.violations.append(
                f"goal {user.goal.index}: {text!r} raised {exc!r}"
            )
            self._end(slot, phase)
            return
        elapsed = time.perf_counter() - begun
        phase.latencies.append(elapsed)
        phase.starts.append(begun)
        phase.respond_time += elapsed
        if not reply.text.strip():
            phase.errors += 1
        slot.transcript.append(f"U: {text}\nA: {reply.text}")
        executed = reply.executed
        if executed is not None:
            self._check_execution(user, executed, confirming)
        user.observe(runtime.peek_session(slot.session).context.state,
                     executed)

    def _check_execution(self, user, executed, confirming: bool) -> None:
        goal = user.goal
        name = executed.procedure
        if name not in _WRITE_PROCEDURES:
            return
        if not (confirming and user.last_act == "affirm"):
            self.violations.append(
                f"goal {goal.index}: {name} ran without a confirmed affirm"
            )
        if name != goal.procedure or dict(executed.arguments) != goal.arguments:
            self.violations.append(
                f"goal {goal.index}: committed {name}{executed.arguments}, "
                f"wanted {goal.procedure}{goal.arguments}"
            )
        if name == "ticket_reservation":
            self.bookings += 1
        else:
            self.cancellations += 1

    def _end(self, slot: _Slot, phase: PhaseStats) -> None:
        user = slot.user
        self.runtime.end_session(slot.session)
        self._sampler.release(user.goal)
        self.records[user.goal.index] = GoalRecord(
            completed=user.completed,
            turns=user.turns,
            transcript=slot.transcript,
        )
        phase.goals_ended += 1
        slot.user = None
        if user.goal.index < self._corpus:
            self._corpus_ended += 1
            if self._corpus_ended == self._corpus:
                self.digest = self._digest()

    def _digest(self) -> str:
        """sha256 over the corpus transcripts and the sorted table rows."""
        sha = hashlib.sha256()
        for index in range(self._corpus):
            for line in self.records[index].transcript:
                sha.update(line.encode())
        for name in sorted(self.database.schema.table_names):
            rows = sorted(
                repr(sorted(row.items())) for row in self.database.rows(name)
            )
            sha.update(name.encode())
            for row in rows:
                sha.update(row.encode())
        return sha.hexdigest()

    # ------------------------------------------------------------------
    def corpus_records(self) -> list[GoalRecord]:
        return [self.records[i] for i in range(self._corpus)]
