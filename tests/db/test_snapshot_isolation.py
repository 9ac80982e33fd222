"""MVCC snapshot isolation: deterministic semantics + randomised stress.

The deterministic half pins the visibility rules one by one (pinned
readers never see uncommitted or later-committed state, writers see
their own writes, vacuum respects pins).  The stress half runs writer
threads committing multi-statement transactions against reader threads
scanning, joining and aggregating under pins — every reader result must
be internally consistent with a single generation (the per-account
balance always equals the sum of its live ledger deltas), which is
exactly what a torn read would break.
"""

import random
import threading

import pytest

from repro.dataaware import AttributeValueCache
from repro.db import (
    Catalog,
    Column,
    ColumnRef,
    Database,
    DatabaseSchema,
    DataType,
    ForeignKey,
    TableSchema,
    api,
)
from repro.db.aggregation import sum_
from repro.db.locks import LockUpgradeError
from repro.errors import ProcedureError


def _bank_schema() -> DatabaseSchema:
    return DatabaseSchema(
        [
            TableSchema(
                "account",
                [
                    Column("account_id", DataType.INTEGER),
                    Column("balance", DataType.INTEGER, nullable=False),
                    Column("group_id", DataType.TEXT),
                ],
                primary_key="account_id",
            ),
            TableSchema(
                "ledger",
                [
                    Column("entry_id", DataType.INTEGER),
                    Column("account_id", DataType.INTEGER, nullable=False),
                    Column("delta", DataType.INTEGER, nullable=False),
                ],
                primary_key="entry_id",
                foreign_keys=[
                    ForeignKey("account_id", "account", "account_id")
                ],
            ),
        ]
    )


@pytest.fixture()
def db():
    database = Database(_bank_schema())
    for account_id in range(1, 5):
        database.insert(
            "account",
            {
                "account_id": account_id,
                "balance": 0,
                "group_id": f"g{account_id % 2}",
            },
        )
    return database


def _on_thread(fn):
    """Run ``fn`` to completion on another thread (a concurrent writer:
    same-thread commits deliberately refresh the thread's own pin)."""
    box = {}

    def runner():
        try:
            box["value"] = fn()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            box["error"] = exc

    thread = threading.Thread(target=runner)
    thread.start()
    thread.join()
    if "error" in box:
        raise box["error"]
    return box.get("value")


class TestSnapshotVisibility:
    def test_pinned_reader_misses_later_commit(self, db):
        with db.read_locked():
            before = db.count("account")
            _on_thread(
                lambda: db.insert(
                    "account",
                    {"account_id": 99, "balance": 7, "group_id": "g9"},
                )
            )
            assert db.count("account") == before
            assert db.table("account").lookup("account_id", 99) == []
        # A fresh pin observes the commit.
        with db.read_locked():
            assert db.count("account") == before + 1

    def test_pinned_reader_misses_uncommitted_transaction(self, db):
        db.transactions.begin()
        db.insert(
            "account", {"account_id": 50, "balance": 1, "group_id": "gx"}
        )
        done = {}

        def read():
            with db.read_locked():
                done["count"] = db.count("account")
                done["lookup"] = db.table("account").lookup(
                    "account_id", 50
                )

        thread = threading.Thread(target=read)
        thread.start()
        thread.join()
        db.transactions.commit()
        assert done["count"] == 4
        assert done["lookup"] == []
        with db.read_locked():
            assert db.count("account") == 5

    def test_writer_sees_own_uncommitted_writes(self, db):
        with db.read_locked():
            with db.transaction():
                db.insert(
                    "account",
                    {"account_id": 60, "balance": 2, "group_id": "gy"},
                )
                # Inside the commit latch, reads resolve current state.
                assert db.count("account") == 5
                assert len(db.table("account").lookup("account_id", 60)) == 1
            # The commit refreshed this thread's pin.
            assert db.count("account") == 5

    def test_rollback_leaves_no_trace(self, db):
        account = db.table("account")
        db.transactions.begin()
        db.insert(
            "account", {"account_id": 70, "balance": 3, "group_id": "gz"}
        )
        rid = account.lookup("account_id", 1)[0]
        db.update("account", rid, {"balance": 41})
        db.transactions.rollback()

        def reads():
            return (
                db.count("account"),
                account.get(rid)["balance"],
                account.column_values("balance"),
                account.lookup("account_id", 1),
                account.lookup("account_id", 70),
                account.distinct_count("account_id"),
                account.distinct_count("group_id"),
            )

        unpinned = reads()
        assert unpinned[:2] == (4, 0)
        with db.read_locked():
            # The rolled-back writes raised the write generation past
            # the pin, so these reads take the visibility-filtered path
            # and must agree with the current-state structures.
            assert account.write_generation > db.snapshot_version()
            assert reads() == unpinned
        # Rolled-back versions are vacuumed, not leaked.
        assert account._dead == set()

    def test_autocommit_update_is_invisible_until_its_commit_point(
        self, monkeypatch
    ):
        # A reader that pins after an update outside a transaction wrote
        # its cells, but before its commit point, is pinned at the old
        # generation and must read the old cells.
        database = Database(DatabaseSchema([TableSchema(
            "movie",
            [Column("movie_id", DataType.INTEGER),
             Column("title", DataType.TEXT)],
            primary_key="movie_id",
        )]))
        database.insert("movie", {"movie_id": 1, "title": "old"})
        movie = database.table("movie")
        commit = database.notify_data_changed
        seen = {}

        def read():
            with database.read_locked():
                seen["generation"] = database.snapshot_version()
                seen["get"] = movie.get(1)["title"]
                seen["column_values"] = movie.column_values("title")

        def read_then_commit():
            _on_thread(read)
            commit()

        monkeypatch.setattr(database, "notify_data_changed", read_then_commit)
        database.update("movie", 1, {"title": "new"})
        assert seen == {
            "generation": 1, "get": "old", "column_values": ["old"],
        }
        assert movie.get(1)["title"] == "new"

    def test_pinned_reader_survives_delete_and_vacuum(self, db):
        rid = db.table("account").lookup("account_id", 4)[0]
        with db.read_locked():
            _on_thread(lambda: db.delete("account", rid))
            # Our pin predates the delete: the row is still visible.
            assert db.table("account").get(rid)["account_id"] == 4
            assert db.count("account") == 4
        # Pin released: the idle hook reclaimed the tombstone.
        assert db.table("account")._dead == set()
        with db.read_locked():
            assert db.count("account") == 3

    def test_vacuum_bound_taken_before_a_pin_spares_its_versions(
        self, db, monkeypatch
    ):
        # An idle vacuum pass takes its bound; then a reader pins and a
        # writer commits a delete before the pass reaches the table.
        # The reader's pin predates the delete, so the pass must leave
        # the version it can still see.
        table = db.table("account")
        rid = table.lookup("account_id", 4)[0]
        vacuum = table.vacuum
        pinned = threading.Event()
        release = threading.Event()
        seen = {}

        def reader():
            with db.read_locked():
                pinned.set()
                release.wait(timeout=10)
                seen["count"] = db.count("account")

        thread = threading.Thread(target=reader)

        def vacuum_after_race(bound):
            monkeypatch.setattr(table, "vacuum", vacuum)
            thread.start()
            assert pinned.wait(timeout=10)
            _on_thread(lambda: db.delete("account", rid))
            return vacuum(bound)

        monkeypatch.setattr(table, "vacuum", vacuum_after_race)
        db._vacuum_all()
        release.set()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert seen["count"] == 4

    def test_update_versions_do_not_tear_for_pinned_reader(self, db):
        rid = db.table("account").lookup("account_id", 2)[0]
        with db.read_locked():
            _on_thread(
                lambda: db.update(
                    "account", rid, {"balance": 123, "group_id": "new"}
                )
            )
            row = db.table("account").get(rid)
            # The pinned snapshot reads the whole old version.
            assert (row["balance"], row["group_id"]) == (0, "g0")
        with db.read_locked():
            row = db.table("account").get(rid)
            assert (row["balance"], row["group_id"]) == (123, "new")

    @pytest.mark.parametrize("read", ["column_values", "present"])
    def test_batch_read_not_torn_by_a_write_mid_batch(self, db, read):
        # A pinned batch read resolves its snapshot once; a writer that
        # gets in between two of its rows must not change what it reads.
        account = db.table("account")
        rids = account.row_ids()[:2]
        writer = threading.Thread(target=lambda: (
            db.update("account", rids[1], {"balance": 7}),
            db.delete("account", rids[1]),
        ))

        class WriteMidBatch(list):
            def __iter__(self):
                yield self[0]
                writer.start()
                writer.join(timeout=0.5)
                yield from self[1:]

        with db.read_locked():
            if read == "present":
                seen = account.present(WriteMidBatch(rids))
                expected = tuple(rids)
            else:
                seen = account.column_values("balance", WriteMidBatch(rids))
                expected = [0, 0]
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert seen == expected
        assert not account.has_row(rids[1])

    def test_read_only_pin_refuses_writes(self, db):
        with db.read_locked(read_only=True):
            with pytest.raises(LockUpgradeError):
                db.insert(
                    "account",
                    {"account_id": 80, "balance": 0, "group_id": "g"},
                )

    def test_read_only_procedure_refusal_still_maps_to_procedure_error(
        self, db
    ):
        from repro.db.procedures import Procedure

        def sneaky(database):
            database.insert(
                "account", {"account_id": 81, "balance": 0, "group_id": "g"}
            )

        db.procedures.register(Procedure("sneaky", [], sneaky, writes=()))
        with pytest.raises(ProcedureError, match="declared read-only"):
            db.procedures.call("sneaky")

    def test_snapshot_version_tracks_pin(self, db):
        base = db.snapshot_version()
        with db.read_locked():
            pinned = db.snapshot_version()
            _on_thread(
                lambda: db.insert(
                    "account",
                    {"account_id": 90, "balance": 0, "group_id": "g"},
                )
            )
            assert db.snapshot_version() == pinned
        assert db.snapshot_version() == base + 1

class TestPinnedCacheReads:
    """A version-stamped cache serves a pinned reader only entries built
    at the generation its pin observes."""

    TICKETS = ColumnRef("reservation", "no_tickets")

    def test_pinned_reader_never_served_a_newer_entry(self, movie_db):
        database, __ = movie_db
        table = database.table("reservation")
        values = AttributeValueCache(database, Catalog(database))

        def rows() -> int:
            return len(values.full_map("reservation", self.TICKETS).values)

        with database.read_locked():
            pinned_rows = len(table)

            def other_session():
                # Commit a delete, then rebuild the entry at the newer
                # generation, as a concurrent turn would.
                database.delete("reservation", table.row_ids()[0])
                return rows()

            assert _on_thread(other_session) == pinned_rows - 1
            assert len(table) == pinned_rows
            assert rows() == pinned_rows
        assert rows() == pinned_rows - 1

    def test_writing_transaction_sees_its_own_writes(self, movie_db):
        database, __ = movie_db
        table = database.table("reservation")
        values = AttributeValueCache(database, Catalog(database))

        def rows() -> int:
            return len(values.full_map("reservation", self.TICKETS).values)

        before = rows()
        row = table.get(table.row_ids()[0])
        row["reservation_id"] = max(table.column_values("reservation_id")) + 1
        with database.write_locked():
            database.transactions.begin()
            try:
                database.insert("reservation", row)
                assert len(table) == before + 1
                assert rows() == before + 1
            finally:
                database.transactions.rollback()
        # The in-transaction result was never stored.
        misses = values.misses
        assert rows() == before
        assert values.misses == misses


class TestConcurrentStress:
    """Writers commit transfers while readers verify the invariant.

    Writers also relabel accounts (``group_id``, outside the balance
    invariant) with autocommit updates, and readers record every
    ``(pinned generation, account, group_id)`` they see: two pins at
    one generation must never see different values for one row.
    """

    N_ACCOUNTS = 4
    N_WRITERS = 2
    N_READERS = 3
    WRITER_OPS = 100
    READER_OPS = 60

    def _writer(self, db, seed, errors):
        rng = random.Random(seed)
        ledger = db.table("ledger")
        account = db.table("account")
        next_entry = seed * 1_000_000
        try:
            for __ in range(self.WRITER_OPS):
                account_id = rng.randrange(1, self.N_ACCOUNTS + 1)
                rid = account.lookup("account_id", account_id)[0]
                roll = rng.random()
                try:
                    with db.transaction():
                        if roll < 0.65:
                            # Append an entry and fold it into balance.
                            next_entry += 1
                            delta = rng.randrange(-20, 21)
                            db.insert(
                                "ledger",
                                {
                                    "entry_id": next_entry,
                                    "account_id": account_id,
                                    "delta": delta,
                                },
                            )
                            balance = account.get(rid)["balance"]
                            db.update(
                                "account", rid, {"balance": balance + delta}
                            )
                        else:
                            # Retract this account's newest entry.
                            entries = ledger.lookup(
                                "account_id", account_id
                            )
                            if entries:
                                entry_rid = entries[-1]
                                entry = ledger.get(entry_rid)
                                db.delete("ledger", entry_rid)
                                balance = account.get(rid)["balance"]
                                db.update(
                                    "account",
                                    rid,
                                    {"balance": balance - entry["delta"]},
                                )
                        if rng.random() < 0.1:
                            # Deliberate mid-transaction failure: the
                            # rollback must erase the half-applied pair.
                            raise KeyError("injected abort")
                except KeyError:
                    pass
                if rng.random() < 0.2:
                    db.update(
                        "account", rid,
                        {"group_id": f"w{seed}-{rng.randrange(1000)}"},
                    )
        except Exception as exc:  # noqa: BLE001 - surfaced by the test
            errors.append(f"writer-{seed}: {exc!r}")

    def _reader(self, db, seed, errors, seen):
        rng = random.Random(seed)
        conn = db.connect(name=f"reader-{seed}")
        stmt = conn.prepare(
            api.aggregate("ledger", total=sum_("delta")).group_by(
                "account_id"
            )
        )
        try:
            for __ in range(self.READER_OPS):
                with db.read_locked():
                    # Frozen copy: both tables materialised inside one
                    # pin must balance exactly.
                    accounts = db.rows("account")
                    entries = db.rows("ledger")
                    generation = db.snapshot_version()
                    seen.extend(
                        (generation, row["account_id"], row["group_id"])
                        for row in accounts
                    )
                    sums: dict[int, int] = {}
                    for entry in entries:
                        sums[entry["account_id"]] = (
                            sums.get(entry["account_id"], 0)
                            + entry["delta"]
                        )
                    for row in accounts:
                        expected = sums.get(row["account_id"], 0)
                        if row["balance"] != expected:
                            errors.append(
                                f"reader-{seed}: account "
                                f"{row['account_id']} balance "
                                f"{row['balance']} != ledger sum "
                                f"{expected}"
                            )
                            return
                    # The engine's grouped aggregate (same pin) must
                    # agree with the frozen copy.
                    engine_sums = {
                        row["account_id"]: row["total"]
                        for row in stmt.execute().all()
                    }
                    if engine_sums != {k: v for k, v in sums.items()}:
                        errors.append(
                            f"reader-{seed}: engine aggregate "
                            f"{engine_sums} != frozen {sums}"
                        )
                        return
                if rng.random() < 0.2:
                    # Vary interleaving a little.
                    threading.Event().wait(0.0005)
        except Exception as exc:  # noqa: BLE001 - surfaced by the test
            errors.append(f"reader-{seed}: {exc!r}")

    def test_randomised_snapshot_isolation(self, db):
        errors: list[str] = []
        seen: list[tuple[int, int, str]] = []
        writers = [
            threading.Thread(target=self._writer, args=(db, i + 1, errors))
            for i in range(self.N_WRITERS)
        ]
        readers = [
            threading.Thread(
                target=self._reader, args=(db, 100 + i, errors, seen)
            )
            for i in range(self.N_READERS)
        ]
        for thread in writers + readers:
            thread.start()
        for thread in writers + readers:
            thread.join(timeout=120)
        assert not errors, errors[:5]
        labels: dict[tuple[int, int], set[str]] = {}
        for generation, account_id, group_id in seen:
            labels.setdefault((generation, account_id), set()).add(group_id)
        torn = {key: found for key, found in labels.items() if len(found) > 1}
        assert not torn, sorted(torn.items())[:5]
        # Quiesced: the final state must balance too, and every dead
        # version must have been reclaimed once the last pin drained.
        with db.read_locked():
            accounts = db.rows("account")
            entries = db.rows("ledger")
        sums: dict[int, int] = {}
        for entry in entries:
            sums[entry["account_id"]] = (
                sums.get(entry["account_id"], 0) + entry["delta"]
            )
        for row in accounts:
            assert row["balance"] == sums.get(row["account_id"], 0)
        db._vacuum_all()
        assert db.table("ledger")._dead == set()
        assert db.table("account")._dead == set()
