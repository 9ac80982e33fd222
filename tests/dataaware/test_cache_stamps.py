"""Table-scoped cache stamps: a commit rebuilds only what read its tables.

Every entry of the shared row-derived caches — attribute-value maps
and linker pools — records the tables its compute read.  It keeps
serving after a commit to any other table and misses exactly once after
a write to one of its own; a rollback, which never advances the clock,
costs nothing.  A prepared statement's plan template reads no rows:
commits never make it plan again, and index DDL makes only the
statements on its own table plan again.  The randomised half checks
every lookup through the two caches, and every statement's plan,
against an uncached compute at the caller's generation, across
committed and rolled-back transactions, autocommit (in-place) updates,
index DDL and a reader pinned on another thread, comparing value
entries key order and value types included.  A stale single-valued entry whose root only gained and
lost rows is patched rather than rebuilt; ``TestPatchedEntries`` writes
each way a patch is allowed or refused and checks which one ran.
"""

from __future__ import annotations

import queue
import random
import sys
import threading
from collections import Counter
from dataclasses import dataclass

import pytest

from repro.annotation import TaskExtractor
from repro.dataaware import AttributeValueCache
from repro.dataaware.join_graph import AttributeValues
from repro.datasets import MovieConfig, build_movie_database
from repro.db import (
    Catalog,
    Column,
    ColumnRef,
    Database,
    DatabaseSchema,
    DataType,
    ForeignKey,
    TableSchema,
)
from repro.db.api import Connection, PreparedStatement
from repro.db.engine.planner import plan_query
from repro.db.query import Query, eq
from repro.nlu import EntityLinker
from repro.synthesis import SlotVocabulary

from tests.dataaware.test_dataaware_differential import _toy_database

CONFIG = MovieConfig(
    seed=11, n_customers=30, n_movies=12, n_actors=16, n_screenings=30,
    n_reservations=20,
)

#: (root, attribute) value maps, each reading the root and its join path.
MAPS = [
    ("customer", ColumnRef("customer", "city")),
    ("screening", ColumnRef("movie", "title")),
    ("screening", ColumnRef("actor", "name")),
    ("screening", ColumnRef("language", "name")),
    ("movie", ColumnRef("actor", "name")),
    ("reservation", ColumnRef("movie", "title")),
    ("reservation", ColumnRef("reservation", "no_tickets")),
]
#: Single-table value maps: each reads its root table only.
COLUMNS = [
    (table, ColumnRef(table, column)) for table, column in (
        ("customer", "city"), ("screening", "room"), ("movie", "genre"),
        ("movie_actor", "movie_id"), ("reservation", "no_tickets"),
    )
]
SLOTS = [
    "movie_title", "actor_name", "language_name", "customer_first_name",
    "customer_city", "customer_email", "screening_room",
]


@dataclass
class Env:
    database: Database
    catalog: Catalog
    vocabulary: SlotVocabulary
    maps: AttributeValueCache
    linker: EntityLinker
    #: Runs the statements of :func:`_statements` and counts their plans.
    connection: Connection


def _env() -> Env:
    database, annotations = build_movie_database(CONFIG)
    catalog = Catalog(database)
    tasks = TaskExtractor(catalog, annotations).extract_all()
    vocabulary = SlotVocabulary.from_tasks(tasks, catalog)
    return Env(
        database, catalog, vocabulary,
        AttributeValueCache(database, catalog),
        EntityLinker(database, vocabulary),
        database.connect(),
    )


def _statements(env: Env) -> list[PreparedStatement]:
    """Statements whose plans depend on the indexes of their one table
    (constants fixed, so the plan a fresh planner makes is comparable)."""
    database = env.database
    first = {
        (table, column): database.table(table).column_values(column)[0]
        for table, column in (
            ("screening", "room"), ("movie", "genre"), ("customer", "city"),
            ("screening", "price"), ("reservation", "no_tickets"),
        )
    }
    return [
        env.connection.prepare(Query(table).where(eq(column, value)))
        for (table, column), value in first.items()
    ]


def _plan(statement: PreparedStatement):
    """The plan the statement's next execution runs (which counts as a
    plan hit or miss on its connection)."""
    return statement.execute().plan


def _uncached_plan(database: Database, statement: PreparedStatement):
    return plan_query(database, statement.statement.compile())


def _traffic(env: Env) -> tuple[int, ...]:
    caches = (env.maps, env.linker._text_pools)
    plans = env.connection.stats()
    return tuple(
        n for cache in caches for n in (cache.hits, cache.misses)
    ) + (plans.plan_cache_hits, plans.plan_cache_misses)


def _misses(before: tuple[int, ...], after: tuple[int, ...]) -> int:
    return sum(after[i] - before[i] for i in range(1, len(after), 2))


def _reservation_row(database: Database, rng: random.Random) -> dict:
    table = database.table("reservation")
    return {
        "reservation_id": max(table.column_values("reservation_id")) + 1,
        "customer_id": rng.choice(
            database.table("customer").column_values("customer_id")),
        "screening_id": rng.choice(
            database.table("screening").column_values("screening_id")),
        "no_tickets": rng.randint(1, 6),
    }


class TestExactCounts:
    def _unrelated_lookups(self, env: Env, statements) -> None:
        """Entries none of which reads ``reservation``."""
        for root, attribute in MAPS[:5]:
            env.maps.full_map(root, attribute)
        for root, attribute in COLUMNS[:4]:
            env.maps.full_map(root, attribute)
        for slot in ("movie_title", "customer_first_name", "customer_city",
                     "customer_email"):
            env.linker.link(slot, "anything")
        _plan(statements[0])

    def test_commit_rebuilds_only_entries_of_its_table(self):
        env = _env()
        database = env.database
        statements = _statements(env)
        self._unrelated_lookups(env, statements)
        env.maps.full_map(*COLUMNS[4])
        env.maps.full_map(*MAPS[5])
        database.insert(
            "reservation", _reservation_row(database, random.Random(1)))

        before = _traffic(env)
        self._unrelated_lookups(env, statements)
        assert _misses(before, _traffic(env)) == 0

        for lookup in (
            lambda: env.maps.full_map(*COLUMNS[4]),
            lambda: env.maps.full_map(*MAPS[5]),
        ):
            before = _traffic(env)
            lookup()
            assert _misses(before, _traffic(env)) == 1
            before = _traffic(env)
            lookup()
            assert _misses(before, _traffic(env)) == 0

    def test_index_ddl_recompiles_only_its_tables_templates(self):
        env = _env()
        database = env.database
        customer_city, screening_price = _statements(env)[2:4]
        assert "SeqScan" in repr(_plan(customer_city))
        _plan(screening_price)
        database.create_index("customer", "city")

        misses = env.connection.stats().plan_cache_misses
        _plan(screening_price)
        assert env.connection.stats().plan_cache_misses == misses
        assert "IndexEq" in repr(_plan(customer_city))
        assert env.connection.stats().plan_cache_misses == misses + 1

    def test_commit_keeps_its_tables_templates(self):
        env = _env()
        database = env.database
        reservation_tickets = _statements(env)[4]
        _plan(reservation_tickets)
        database.insert(
            "reservation", _reservation_row(database, random.Random(3)))
        misses = env.connection.stats().plan_cache_misses
        assert _plan(reservation_tickets) == _uncached_plan(
            database, reservation_tickets)
        assert env.connection.stats().plan_cache_misses == misses

    def test_rollback_costs_no_rebuild(self):
        env = _env()
        database = env.database
        values = env.maps
        row_count = len(values.full_map(*COLUMNS[4]).values)
        with database.write_locked():
            database.transactions.begin()
            database.insert(
                "reservation", _reservation_row(database, random.Random(2)))
            database.transactions.rollback()
        misses = values.misses
        for __ in range(3):
            assert len(values.full_map(*COLUMNS[4]).values) == row_count
        assert values.misses == misses


# ---------------------------------------------------------------------------
# Randomised differential check
# ---------------------------------------------------------------------------

def _exact(entry: AttributeValues) -> tuple:
    """What ``==`` on entries leaves out: their form, key order and value
    types."""
    return entry.single, [
        (row_id, type(value), value)
        for row_id, value in entry.values.items()
    ]


def _check_every_cache(env: Env, statements) -> None:
    """Every lookup equals an uncached compute at the caller's generation
    (fresh caches compute on their first lookup)."""
    database = env.database
    fresh_maps = AttributeValueCache(database, env.catalog)
    for root, attribute in MAPS + COLUMNS:
        assert _exact(env.maps.full_map(root, attribute)) == _exact(
            fresh_maps.full_map(root, attribute)
        ), (root, attribute)
    fresh_linker = EntityLinker(database, env.vocabulary)
    for slot in SLOTS:
        assert env.linker._text_pool(slot)._pool == \
            fresh_linker._build_pool(slot), slot
    for statement in statements:
        assert _plan(statement) == _uncached_plan(database, statement), \
            statement.statement


class _PinnedReader:
    """A thread that pins one snapshot and runs checks inside it."""

    def __init__(self, database: Database) -> None:
        self._requests: queue.Queue = queue.Queue()
        self._replies: queue.Queue = queue.Queue()
        self._thread = threading.Thread(
            target=self._serve, args=(database,), daemon=True
        )
        self._thread.start()
        assert self._replies.get(timeout=30) is None

    def _serve(self, database: Database) -> None:
        with database.read_locked():
            self._replies.put(None)
            while (request := self._requests.get()) is not None:
                try:
                    request()
                except BaseException as exc:  # noqa: BLE001 - re-raised
                    self._replies.put(exc)
                else:
                    self._replies.put(None)

    def run(self, request) -> None:
        self._requests.put(request)
        error = self._replies.get(timeout=60)
        if error is not None:
            raise error

    def close(self) -> None:
        self._requests.put(None)
        self._thread.join(timeout=30)
        assert not self._thread.is_alive()


def _random_write(database: Database, rng: random.Random) -> None:
    """One FK-respecting write to a random movie table."""

    def ids(table: str, column: str) -> list:
        return database.table(table).column_values(column)

    kind = rng.randrange(10)
    reservations = database.table("reservation").row_ids()
    if kind == 1 and len(reservations) > 5:
        database.delete("reservation", rng.choice(reservations))
        return
    if kind <= 1:
        database.insert("reservation", _reservation_row(database, rng))
        return
    table, column, values = rng.choice([
        ("movie", "title", lambda: f"Title {rng.randrange(1000)}"),
        ("movie", "genre", lambda: rng.choice(ids("movie", "genre"))),
        ("movie", "language_id", lambda: rng.choice(
            ids("language", "language_id"))),
        ("movie_actor", "actor_id", lambda: rng.choice(
            ids("actor", "actor_id"))),
        ("actor", "name", lambda: f"Actor {rng.randrange(1000)}"),
        ("language", "name", lambda: f"Language {rng.randrange(1000)}"),
        ("screening", "room", lambda: rng.choice(ids("screening", "room"))),
        ("screening", "price", lambda: float(rng.randrange(5, 15))),
        ("screening", "movie_id", lambda: rng.choice(
            ids("movie", "movie_id"))),
        ("customer", "city", lambda: rng.choice(ids("customer", "city"))),
        ("customer", "first_name", lambda: f"Name {rng.randrange(1000)}"),
        ("reservation", "no_tickets", lambda: rng.randint(1, 6)),
    ])
    row_id = rng.choice(database.table(table).row_ids())
    database.update(table, row_id, {column: values()})


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_lookup_equals_an_uncached_compute(seed):
    rng = random.Random(seed)
    env = _env()
    database = env.database
    statements = _statements(env)
    indexable = [
        ("customer", "city"), ("screening", "price"),
        ("reservation", "no_tickets"), ("movie", "year"), ("actor", "name"),
    ]
    rng.shuffle(indexable)
    reader = None

    def check() -> None:
        _check_every_cache(env, statements)

    try:
        for __ in range(30):
            step = rng.randrange(6)
            if step == 0:
                # Autocommit writes: in place while no reader is pinned.
                _random_write(database, rng)
            elif step in (1, 2):
                # A transaction, checked from inside (the writer must see
                # its own writes), then committed or rolled back.
                with database.write_locked():
                    database.transactions.begin()
                    try:
                        for __ in range(rng.randint(1, 3)):
                            _random_write(database, rng)
                        check()
                        if reader is not None:
                            reader.run(check)
                    finally:
                        if step == 1:
                            database.transactions.commit()
                        else:
                            database.transactions.rollback()
            elif step == 3 and indexable:
                database.create_index(*indexable.pop())
            elif reader is None:
                reader = _PinnedReader(database)
            else:
                reader.close()
                reader = None
            check()
            if reader is not None:
                reader.run(check)
    finally:
        if reader is not None:
            reader.close()


def test_concurrent_readers_get_their_snapshot_through_the_caches():
    """Readers on several threads, each pinned per read, get from the
    shared caches exactly what an uncached compute under the same pin
    returns, while a writer commits, rolls back and updates in place."""
    env = _env()
    database = env.database
    done = threading.Event()
    errors: list[BaseException] = []

    def writer() -> None:
        rng = random.Random(7)
        try:
            while not done.is_set():
                if rng.random() < 0.5:
                    _random_write(database, rng)
                    continue
                with database.write_locked():
                    database.transactions.begin()
                    try:
                        _random_write(database, rng)
                    finally:
                        if rng.random() < 0.5:
                            database.transactions.commit()
                        else:
                            database.transactions.rollback()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    def reader(seed: int) -> None:
        rng = random.Random(seed)
        try:
            for __ in range(60):
                entries = (rng.choice(COLUMNS), rng.choice(MAPS))
                with database.read_locked():
                    fresh = AttributeValueCache(database, env.catalog)
                    for root, attribute in entries:
                        assert _exact(env.maps.full_map(root, attribute)) \
                            == _exact(fresh.full_map(root, attribute))
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        writing = threading.Thread(target=writer)
        readers = [
            threading.Thread(target=reader, args=(seed,))
            for seed in range(4)
        ]
        writing.start()
        for thread in readers:
            thread.start()
        for thread in readers:
            thread.join(timeout=60)
        done.set()
        writing.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not writing.is_alive()
    assert not any(thread.is_alive() for thread in readers)
    if errors:
        raise errors[0]


# ---------------------------------------------------------------------------
# Patched value entries
# ---------------------------------------------------------------------------

#: Reservation-rooted entries: a two-hop join and a root column.
PATCHABLE = [
    ColumnRef("movie", "title"), ColumnRef("reservation", "no_tickets"),
]


class TestPatchedEntries:
    """A stale single-valued entry whose root only gained and lost rows
    since its stamp is patched; every other stale entry is rebuilt.
    Either way a lookup serves exactly what a rebuild under the same
    snapshot holds, key order and value types included."""

    @pytest.fixture(autouse=True)
    def _record_paths(self, monkeypatch):
        self.paths: list[str] = []
        patch = AttributeValueCache._patched

        def recorded(cache, *args):
            value = patch(cache, *args)
            self.paths.append("rebuilt" if value is None else "patched")
            return value

        monkeypatch.setattr(AttributeValueCache, "_patched", recorded)

    def _refetch(self, catalog, cache, root, attribute, path):
        """One miss for ``attribute``, taking ``path``, serving an entry
        order-exact to a fresh cache's rebuild."""
        self.paths.clear()
        misses = cache.misses
        entry = cache.full_map(root, attribute)
        assert (cache.misses, self.paths) == (misses + 1, [path]), attribute
        fresh = AttributeValueCache(catalog.database, catalog)
        assert _exact(entry) == _exact(fresh.full_map(root, attribute))
        return entry

    def _refetch_reservations(self, env, path):
        return [
            self._refetch(env.catalog, env.maps, "reservation", a, path)
            for a in PATCHABLE
        ]

    def _built(self, env):
        """The reservation-rooted entries, built now."""
        return [env.maps.full_map("reservation", a) for a in PATCHABLE]

    def _book(self, database, seed=1):
        return database.insert(
            "reservation", _reservation_row(database, random.Random(seed)))

    # -- patched ------------------------------------------------------------
    def test_insert(self):
        env = _env()
        self._built(env)
        row_id = self._book(env.database)
        for entry in self._refetch_reservations(env, "patched"):
            assert list(entry.values)[-1] == row_id

    def test_delete_of_the_last_row_then_an_insert(self):
        env = _env()
        database = env.database
        self._built(env)
        last = database.table("reservation").row_ids()[-1]
        database.delete("reservation", last)
        row_id = self._book(database)
        for entry in self._refetch_reservations(env, "patched"):
            assert last not in entry.values
            assert list(entry.values)[-1] == row_id

    def test_delete_of_a_values_first_occurrence(self):
        env = _env()
        database = env.database
        titles = self._built(env)[0].values
        counts = Counter(titles.values())
        first = next(rid for rid, t in titles.items() if counts[t] > 1)
        database.delete("reservation", first)
        entries = self._refetch_reservations(env, "patched")
        assert titles[first] in entries[0].values.values()
        assert first not in entries[0].values

    def test_delete_of_every_row(self):
        env = _env()
        database = env.database
        self._built(env)
        for row_id in database.table("reservation").row_ids():
            database.delete("reservation", row_id)
        for entry in self._refetch_reservations(env, "patched"):
            assert entry == AttributeValues({}, True)

    def test_dead_end_row_above_the_last_key(self):
        """A root row with a NULL foreign key is in no entry; a patch
        walks it again with the new rows, and it dead-ends again."""
        database = _toy_database()
        catalog = Catalog(database)
        cache = AttributeValueCache(database, catalog)
        label = ColumnRef("kind", "label")
        dead_end = database.insert("item", {"item_id": 41, "kind_id": None})
        assert dead_end > max(cache.full_map("item", label).values)
        row_id = database.insert("item", {"item_id": 42, "kind_id": 2})
        entry = self._refetch(catalog, cache, "item", label, "patched")
        assert dead_end not in entry.values
        assert list(entry.values)[-1] == row_id

    def test_writer_patches_over_its_own_writes_without_storing_them(self):
        env = _env()
        database = env.database
        stored = self._built(env)
        with database.write_locked():
            database.transactions.begin()
            try:
                row_id = self._book(database)
                for entry in self._refetch_reservations(env, "patched"):
                    assert list(entry.values)[-1] == row_id
            finally:
                database.transactions.rollback()
        misses = env.maps.misses
        for attribute, entry in zip(PATCHABLE, stored):
            assert env.maps.full_map("reservation", attribute) is entry
        assert env.maps.misses == misses

    # -- rebuilt ------------------------------------------------------------
    def test_update_of_a_root_foreign_key(self):
        env = _env()
        database = env.database
        titles = self._built(env)[0].values
        row_id, title = next(iter(titles.items()))
        screenings = database.table("screening")
        other = next(
            rid for rid in screenings.row_ids()
            if _title_of(database, screenings.get(rid)) != title
        )
        database.update("reservation", row_id, {
            "screening_id": screenings.get(other)["screening_id"],
        })
        entries = self._refetch_reservations(env, "rebuilt")
        assert entries[0].values[row_id] != title

    def test_write_to_a_path_table(self):
        env = _env()
        database = env.database
        reservation = database.table("reservation").row_ids()[0]
        self._built(env)
        movie = _movie_row_id(database, reservation)
        database.update("movie", movie, {"title": "Renamed"})
        entry = self._refetch(
            env.catalog, env.maps, "reservation", PATCHABLE[0], "rebuilt")
        assert entry.values[reservation] == "Renamed"

    def test_rollback_that_restores_a_deleted_row(self):
        env = _env()
        database = env.database
        self._built(env)
        with database.write_locked():
            database.transactions.begin()
            database.delete(
                "reservation", database.table("reservation").row_ids()[0])
            database.transactions.rollback()
        self._book(database)
        self._refetch_reservations(env, "rebuilt")

    def test_restore_of_an_id_below_the_last_key(self):
        env = _env()
        database = env.database
        reservations = database.table("reservation")
        row_id = reservations.row_ids()[0]
        row = reservations.get(row_id)
        database.delete("reservation", row_id)
        self._built(env)
        with database.write_locked():
            reservations.restore(row_id, row)
        database.notify_data_changed()
        for entry in self._refetch_reservations(env, "rebuilt"):
            assert next(iter(entry.values)) == row_id

    def test_reader_pinned_before_the_stamp(self):
        """The entry misses a row the reader still sees."""
        env = _env()
        database = env.database
        self._built(env)
        row_id = database.table("reservation").row_ids()[0]
        reader = _PinnedReader(database)
        try:
            database.delete("reservation", row_id)
            self._book(database)
            self._refetch_reservations(env, "patched")

            def read():
                for entry in self._refetch_reservations(env, "rebuilt"):
                    assert row_id in entry.values

            reader.run(read)
        finally:
            reader.close()

    def test_multi_valued_entry(self):
        env = _env()
        database = env.database
        actor = ColumnRef("actor", "name")
        assert not env.maps.full_map("screening", actor).single
        booked = set(
            database.table("reservation").column_values("screening_id"))
        screenings = database.table("screening")
        database.delete("screening", next(
            row_id for row_id in screenings.row_ids()
            if screenings.get(row_id)["screening_id"] not in booked
        ))
        entry = self._refetch(env.catalog, env.maps, "screening", actor,
                              "rebuilt")
        assert not entry.single

    def test_new_row_that_fans_out(self):
        """Cast links loaded without FK checks can name a film no row
        holds yet: the film inserted later reaches two stars, so the walk
        over the new rows is multi-valued and the entry is rebuilt."""
        database = Database(DatabaseSchema([
            TableSchema("film", [Column("film_id", DataType.INTEGER)],
                        primary_key="film_id"),
            TableSchema("star", [Column("star_id", DataType.INTEGER),
                                 Column("name", DataType.TEXT)],
                        primary_key="star_id"),
            TableSchema(
                "film_star",
                [Column("film_id", DataType.INTEGER),
                 Column("star_id", DataType.INTEGER)],
                foreign_keys=[ForeignKey("film_id", "film", "film_id"),
                              ForeignKey("star_id", "star", "star_id")],
            ),
        ]))
        database.insert("film", {"film_id": 1})
        for star_id, name in ((1, "Ann"), (2, "Bo")):
            database.insert("star", {"star_id": star_id, "name": name})
        with database.write_locked():
            for film_id, star_id in ((1, 1), (2, 1), (2, 2)):
                database.table("film_star").insert(
                    {"film_id": film_id, "star_id": star_id})
        database.notify_data_changed()
        catalog = Catalog(database)
        cache = AttributeValueCache(database, catalog)
        name = ColumnRef("star", "name")
        assert cache.full_map("film", name).single
        row_id = database.insert("film", {"film_id": 2})
        entry = self._refetch(catalog, cache, "film", name, "rebuilt")
        assert entry.values[row_id] == {"Ann", "Bo"}


def _title_of(database: Database, screening: dict) -> str:
    return database.find_one(
        "movie", "movie_id", screening["movie_id"])["title"]


def _movie_row_id(database: Database, reservation: int) -> int:
    """The row id of the movie a reservation is for."""
    screening = database.find_one(
        "screening", "screening_id",
        database.table("reservation").get(reservation)["screening_id"],
    )
    return database.table("movie").lookup(
        "movie_id", screening["movie_id"])[0]
