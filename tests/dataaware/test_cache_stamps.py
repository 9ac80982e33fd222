"""Table-scoped cache stamps: a commit rebuilds only what read its tables.

Every entry of the shared row-derived caches — attribute-value maps
and linker pools — records the tables its compute read.  It keeps
serving after a commit to any other table and misses exactly once after
a write to one of its own; a rollback, which never advances the clock,
costs nothing.  Plan templates read no rows: commits never retire them,
and index DDL recompiles only its own table's.  The randomised half
checks every lookup through the three caches against an uncached
compute at the caller's generation, across committed and rolled-back
transactions, autocommit (in-place) updates, index DDL and a reader
pinned on another thread.
"""

from __future__ import annotations

import queue
import random
import sys
import threading
from dataclasses import dataclass

import pytest

from repro.annotation import TaskExtractor
from repro.dataaware import AttributeValueCache
from repro.datasets import MovieConfig, build_movie_database
from repro.db import Catalog, ColumnRef, Database
from repro.db.engine.cache import fingerprint_spec, parameterize_spec
from repro.db.engine.planner import plan_query
from repro.db.query import Query, eq
from repro.nlu import EntityLinker
from repro.synthesis import SlotVocabulary

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


def _env() -> Env:
    database, annotations = build_movie_database(CONFIG)
    catalog = Catalog(database)
    tasks = TaskExtractor(catalog, annotations).extract_all()
    vocabulary = SlotVocabulary.from_tasks(tasks, catalog)
    return Env(
        database, catalog, vocabulary,
        AttributeValueCache(database, catalog),
        EntityLinker(database, vocabulary),
    )


def _specs(database: Database) -> list:
    """Query shapes whose templates depend on the indexes of their one
    table (constants fixed, so the template a fresh planner compiles is
    comparable)."""
    first = {
        (table, column): database.table(table).column_values(column)[0]
        for table, column in (
            ("screening", "room"), ("movie", "genre"), ("customer", "city"),
            ("screening", "price"), ("reservation", "no_tickets"),
        )
    }
    return [
        Query(table).where(eq(column, value)).compile()
        for (table, column), value in first.items()
    ]


def _template(database: Database, spec):
    fingerprint, params = fingerprint_spec(spec)
    return database.plan_cache.template_for(fingerprint, spec, params)[0]


def _traffic(env: Env) -> tuple[int, ...]:
    database = env.database
    caches = (env.maps, env.linker._text_pools, database.plan_cache)
    return tuple(n for cache in caches for n in (cache.hits, cache.misses))


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
    def _unrelated_lookups(self, env: Env, specs) -> None:
        """Entries none of which reads ``reservation``."""
        for root, attribute in MAPS[:5]:
            env.maps.full_map(root, attribute)
        for root, attribute in COLUMNS[:4]:
            env.maps.full_map(root, attribute)
        for slot in ("movie_title", "customer_first_name", "customer_city",
                     "customer_email"):
            env.linker.link(slot, "anything")
        _template(env.database, specs[0])

    def test_commit_rebuilds_only_entries_of_its_table(self):
        env = _env()
        database = env.database
        specs = _specs(database)
        self._unrelated_lookups(env, specs)
        env.maps.full_map(*COLUMNS[4])
        env.maps.full_map(*MAPS[5])
        database.insert(
            "reservation", _reservation_row(database, random.Random(1)))

        before = _traffic(env)
        self._unrelated_lookups(env, specs)
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
        customer_city, screening_price = _specs(database)[2:4]
        assert "SeqScan" in repr(_template(database, customer_city))
        _template(database, screening_price)
        database.create_index("customer", "city")

        misses = database.plan_cache.misses
        _template(database, screening_price)
        assert database.plan_cache.misses == misses
        assert "IndexEq" in repr(_template(database, customer_city))
        assert database.plan_cache.misses == misses + 1

    def test_commit_keeps_its_tables_templates(self):
        env = _env()
        database = env.database
        reservation_tickets = _specs(database)[4]
        _template(database, reservation_tickets)
        database.insert(
            "reservation", _reservation_row(database, random.Random(3)))
        misses = database.plan_cache.misses
        assert _template(database, reservation_tickets) == plan_query(
            database, parameterize_spec(reservation_tickets)[0],
            params=fingerprint_spec(reservation_tickets)[1],
        )
        assert database.plan_cache.misses == misses

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

def _check_every_cache(env: Env, specs) -> None:
    """Every lookup equals an uncached compute at the caller's generation
    (fresh caches compute on their first lookup)."""
    database = env.database
    fresh_maps = AttributeValueCache(database, env.catalog)
    for root, attribute in MAPS + COLUMNS:
        assert env.maps.full_map(root, attribute) == fresh_maps.full_map(
            root, attribute
        ), (root, attribute)
    fresh_linker = EntityLinker(database, env.vocabulary)
    for slot in SLOTS:
        assert env.linker._text_pool(slot)._pool == \
            fresh_linker._build_pool(slot), slot
    for spec in specs:
        fingerprint, params = fingerprint_spec(spec)
        shape, __ = parameterize_spec(spec)
        assert _template(database, spec) == plan_query(
            database, shape, params=params
        ), spec


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
    specs = _specs(database)
    indexable = [
        ("customer", "city"), ("screening", "price"),
        ("reservation", "no_tickets"), ("movie", "year"), ("actor", "name"),
    ]
    rng.shuffle(indexable)
    reader = None

    def check() -> None:
        _check_every_cache(env, specs)

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
                        assert env.maps.full_map(root, attribute) == \
                            fresh.full_map(root, attribute)
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
