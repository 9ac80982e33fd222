"""Tests for the session-affinity shard router.

The fake runtime stands in for AgentRuntime so routing, affinity and
the wire protocol are exercised without synthesizing an agent.  The
in-process mode covers the routing logic; one fork-based test proves
the real pipe protocol end to end (skipped where fork is unavailable).
"""

import itertools
import multiprocessing
import zlib

import pytest

from repro.errors import ServingError, UnknownSessionError
from repro.serving import ShardReply, ShardRouter


class _FakeNLU:
    def __init__(self, intent):
        self.intent = intent


class _FakeReply:
    def __init__(self, text, executed, intent):
        self.text = text
        self.executed = executed
        self.nlu = _FakeNLU(intent) if intent else None


class _FakeStats:
    def __init__(self, live_sessions, turns_served):
        self.live_sessions = live_sessions
        self.turns_served = turns_served
        self.transactions_committed = 2
        self.transactions_aborted = 1
        self.snapshot_version = 7
        self.commit_waits = 0


class FakeRuntime:
    """AgentRuntime-shaped stand-in tagging replies with its worker."""

    def __init__(self, tag):
        self.tag = tag
        self.sessions = {}
        self.turns = 0

    def create_session(self, session_id):
        if session_id in self.sessions:
            raise ServingError(f"session {session_id!r} already exists")
        self.sessions[session_id] = []
        return session_id

    def respond(self, session_id, text):
        if session_id not in self.sessions:
            raise UnknownSessionError(f"no session {session_id!r}")
        self.sessions[session_id].append(text)
        self.turns += 1
        return _FakeReply(f"w{self.tag}:{text}", executed=True, intent="buy")

    def end_session(self, session_id):
        if self.sessions.pop(session_id, None) is None:
            raise UnknownSessionError(f"no session {session_id!r}")

    def session_ids(self):
        return list(self.sessions)

    def stats(self):
        return _FakeStats(len(self.sessions), self.turns)


_tag_counter = itertools.count()


def make_fake_runtime():
    """Bootstrap used by both in-process and forked workers."""
    return FakeRuntime(tag=next(_tag_counter))


@pytest.fixture()
def router():
    global _tag_counter
    _tag_counter = itertools.count()  # worker tags == worker indexes
    with ShardRouter(4, make_fake_runtime, inprocess=True) as shard:
        yield shard


class TestRouting:
    def test_shard_of_is_stable_crc32(self, router):
        for sid in ("alice", "bob", "s000001", "x" * 50):
            expected = zlib.crc32(sid.encode("utf-8")) % 4
            assert router.shard_of(sid) == expected
            assert router.shard_of(sid) == router.shard_of(sid)

    def test_turns_land_on_the_owning_worker(self, router):
        for sid in ("alice", "bob", "carol", "dave"):
            router.create_session(sid)
            reply = router.respond(sid, "hello")
            assert isinstance(reply, ShardReply)
            assert reply.text == f"w{router.shard_of(sid)}:hello"
            assert reply.executed is True
            assert reply.intent == "buy"

    def test_affinity_is_total_across_turns(self, router):
        sid = router.create_session("sticky")
        owner = router.shard_of(sid)
        for turn in range(6):
            router.respond(sid, f"turn {turn}")
        stats = router.stats()
        assert stats.per_worker_turns[owner] == 6
        assert stats.turns_served == 6

    def test_generated_ids_are_unique_and_live(self, router):
        ids = [router.create_session() for __ in range(8)]
        assert len(set(ids)) == 8
        assert sorted(router.session_ids()) == sorted(ids)

    def test_end_session_removes_from_owner(self, router):
        sid = router.create_session("gone")
        router.end_session(sid)
        assert sid not in router.session_ids()
        with pytest.raises(UnknownSessionError):
            router.respond(sid, "hello?")

    def test_stats_aggregate_across_workers(self, router):
        for sid in ("alice", "bob", "carol"):
            router.create_session(sid)
            router.respond(sid, "hi")
        stats = router.stats()
        assert stats.turns_served == 3
        assert stats.live_sessions == 3
        assert sum(stats.per_worker_turns) == 3
        assert [w.worker for w in stats.workers] == [0, 1, 2, 3]
        assert all(w.snapshot_version == 7 for w in stats.workers)

    def test_unknown_session_error_crosses_the_router(self, router):
        with pytest.raises(UnknownSessionError):
            router.respond("never-created", "hello")


class TestConstruction:
    def test_zero_workers_rejected(self):
        with pytest.raises(ServingError):
            ShardRouter(0, make_fake_runtime, inprocess=True)

    def test_bad_bootstrap_spec_rejected(self):
        with pytest.raises(ServingError):
            ShardRouter(1, "not-a-module-attr-spec", inprocess=True)

    def test_dotted_path_bootstrap_resolves(self):
        with ShardRouter(
            1,
            "tests.serving.test_shard:make_fake_runtime",
            inprocess=True,
        ) as shard:
            sid = shard.create_session()
            assert shard.respond(sid, "ping").executed is True


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)
class TestProcessWorkers:
    def test_fork_workers_serve_over_the_pipe(self):
        with ShardRouter(2, make_fake_runtime, start_method="fork") as shard:
            sids = [shard.create_session() for __ in range(4)]
            for sid in sids:
                reply = shard.respond(sid, "hello")
                assert reply.text.endswith(":hello")
            stats = shard.stats()
            assert stats.turns_served == 4
            assert stats.live_sessions == 4
            assert sorted(shard.session_ids()) == sorted(sids)

    def test_errors_cross_the_pipe_typed(self):
        with ShardRouter(2, make_fake_runtime, start_method="fork") as shard:
            with pytest.raises(UnknownSessionError):
                shard.respond("ghost", "boo")
