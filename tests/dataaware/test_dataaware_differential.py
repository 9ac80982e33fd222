"""Differential tests: the value-column data-aware loop against the
row-at-a-time reference in ``tests/dataaware/reference_dataaware.py``.

Random candidate subsets of the movie database and of a toy schema are
scored, ranked, refined and pruned by both implementations, with and
without the shared value cache.  Everything must be identical: value
distributions (keys, key types, order and weights), informativeness
under all three measures and ``expected_candidates_after`` (``==`` on
floats), ranking order, and refine and prune survivors.  The data
covers NULLs, NULL foreign keys, multi-valued joins, values that are
equal across types (``1``, ``1.0``, ``True``), rows deleted after a
value entry was built, and a reader pinned at an older snapshot while
another thread commits.

Whole-table sets (``CandidateSet.initial``) score through the shared
cache's memo, so they are scored repeatedly across commits to the root
and to joined tables, from sets created before a commit and from a
reader pinned on another thread; counting ``value_distribution`` calls
shows which scores the memo served.
"""

from __future__ import annotations

import random
import threading
from collections import Counter

import pytest

from repro.annotation import SchemaAnnotations
from repro.dataaware import (
    AttributeScorer,
    AttributeValueCache,
    CandidateSet,
    InformativenessMeasure,
    JoinPlanner,
    UserAwarenessModel,
)
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

from tests.dataaware import reference_dataaware as reference


def _attributes(database, catalog, root):
    """Every column of every table an FK path reaches from ``root``."""
    planner = JoinPlanner(catalog, root)
    return [
        ColumnRef(schema.name, column.name)
        for schema in catalog.tables()
        if planner.path_to(schema.name) is not None
        for column in schema.columns
    ]


def _pair(database, catalog, root, row_ids, cache):
    row_ids = tuple(row_ids)
    return (
        CandidateSet(database, catalog, root, row_ids, shared_cache=cache),
        reference.ReferenceCandidates(
            database, catalog, root, row_ids, shared=cache is not None
        ),
    )


def _distribution(weights, unknown):
    """``(key, key type, weight)`` in order, the unknown key as None."""
    keys = [None if key is unknown else key for key in weights]
    return [
        (key, type(key), weight)
        for key, weight in zip(keys, weights.values())
    ]


def _assert_scores_identical(pair, attributes, awareness):
    new, ref = pair
    scorer = AttributeScorer(awareness)
    oracle = reference.ReferenceScorer(awareness, "entropy")
    for attribute in attributes:
        got = scorer.value_distribution(new, attribute)
        want = oracle.value_distribution(ref, attribute)
        assert _distribution(got, None) == _distribution(
            want, reference.UNKNOWN
        ), attribute
        assert scorer.expected_candidates_after(new, attribute) == \
            oracle.expected_candidates_after(ref, attribute), attribute
    for measure in InformativenessMeasure:
        scorer = AttributeScorer(awareness, measure)
        oracle = reference.ReferenceScorer(awareness, measure.value)
        for attribute in attributes:
            assert scorer.informativeness(new, attribute) == \
                oracle.informativeness(ref, attribute), (measure, attribute)
        ranked = [
            (s.attribute, s.score, s.informativeness, s.awareness)
            for s in scorer.rank(new, attributes)
        ]
        assert ranked == oracle.rank(ref, attributes), measure


def _fuzzed(text, rng):
    if len(text) < 4:
        return text + "x"
    i = rng.randrange(len(text) - 1)
    return text[:i] + text[i + 1] + text[i] + text[i + 2:]


def _needles(ref, attribute, rng):
    """Values from the candidates, their case/typo/identifier variants,
    blanks, NULL and values of other types."""
    values = sorted(
        {v for vs in ref.values_for(attribute).values() for v in vs},
        key=repr,
    )
    picked = rng.sample(values, min(3, len(values)))
    needles = list(picked) + ["", "   ", None, 1, 1.0, True, "1", "zz9@x.org"]
    for value in picked:
        if isinstance(value, str):
            needles += [
                value.upper(), _fuzzed(value, rng), value[:3],
                f" {value} ",
            ]
        else:
            needles.append(str(value))
    return needles


def _assert_refines_identical(pair, attributes, rng):
    """Refine by a random sample of the attributes (each call draws its
    own, so the calls together cover them all)."""
    new, ref = pair
    for attribute in rng.sample(attributes, min(6, len(attributes))):
        for needle in _needles(ref, attribute, rng):
            assert new.refine(attribute, needle).row_ids == \
                ref.refine(attribute, needle).row_ids, (attribute, needle)


def _assert_prunes_identical(pair):
    new, ref = pair
    pruned, ref_pruned = new.prune_missing(), ref.prune_missing()
    assert pruned.row_ids == ref_pruned.row_ids
    assert (pruned is new) == (ref_pruned is ref)
    return pruned, ref_pruned


def _check(database, catalog, root, row_ids, cache, awareness, rng):
    pair = _pair(database, catalog, root, row_ids, cache)
    attributes = _attributes(database, catalog, root)
    _assert_scores_identical(pair, attributes, awareness)
    _assert_refines_identical(pair, attributes, rng)
    _assert_prunes_identical(pair)
    return pair


def _subsets(table, rng, count):
    row_ids = table.row_ids()
    yield row_ids
    for __ in range(count):
        yield sorted(rng.sample(row_ids, rng.randrange(0, len(row_ids) + 1)))
    yield rng.sample(row_ids, len(row_ids))  # shuffled order


@pytest.fixture()
def movies(movie_db):
    database, annotations = movie_db
    # NULLs in joined and root columns.
    for rid in database.table("screening").row_ids()[::5]:
        database.update("screening", rid, {"room": None, "price": None})
    for rid in database.table("movie").row_ids()[::4]:
        database.update("movie", rid, {"genre": None})
    return database, Catalog(database), UserAwarenessModel(annotations)


def _commit_from_other_thread(action):
    errors = []

    def run():
        try:
            action()
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    thread = threading.Thread(target=run)
    thread.start()
    thread.join()
    assert not errors, errors


def _unreferenced_screenings(database):
    booked = set(database.table("reservation").column_values("screening_id"))
    table = database.table("screening")
    return [
        rid for rid in table.row_ids()
        if table.get(rid)["screening_id"] not in booked
    ]


def _mutate_movies(database, rng):
    """Delete screenings and cast links, retitle a movie, add a screening."""
    for rid in rng.sample(_unreferenced_screenings(database), 4):
        database.delete("screening", rid)
    cast = database.table("movie_actor").row_ids()
    for rid in rng.sample(cast, 5):
        database.delete("movie_actor", rid)
    movie = database.table("movie").row_ids()[0]
    database.update("movie", movie, {"title": "Forrest Gump Returns"})
    database.insert(
        "screening",
        {"screening_id": 9001, "movie_id": 1, "date": "2022-04-01",
         "start_time": "20:00", "room": "room Z", "price": 9.5,
         "capacity": 10},
    )


class TestMovieDatabase:
    @pytest.mark.parametrize("cached", [True, False])
    @pytest.mark.parametrize(
        "root", ["screening", "movie", "customer", "reservation"]
    )
    def test_random_subsets(self, movies, root, cached):
        database, catalog, awareness = movies
        rng = random.Random(f"{root}-{cached}")
        cache = AttributeValueCache(database, catalog) if cached else None
        for row_ids in _subsets(database.table(root), rng, 3):
            _check(database, catalog, root, row_ids, cache, awareness, rng)

    def test_rows_deleted_after_the_entries_were_built(self, movies):
        database, catalog, awareness = movies
        rng = random.Random(5)
        cache = AttributeValueCache(database, catalog)
        attributes = _attributes(database, catalog, "screening")
        pairs = [
            _pair(database, catalog, "screening", row_ids, cache)
            for row_ids in _subsets(database.table("screening"), rng, 2)
        ]
        for pair in pairs:  # builds (and memoises) every entry
            _assert_scores_identical(pair, attributes, awareness)
        _mutate_movies(database, rng)
        for pair in pairs:
            # The sets still hold deleted rows and read their memoised
            # entries; pruning then rebuilds at the current version.
            _assert_scores_identical(pair, attributes, awareness)
            _assert_refines_identical(pair, attributes, rng)
            pruned = _assert_prunes_identical(pair)
            assert len(pruned[0]) <= len(pair[0])
            _assert_scores_identical(pruned, attributes, awareness)
            _assert_refines_identical(pruned, attributes, rng)

    @pytest.mark.parametrize("cached", [True, False])
    def test_pinned_snapshot_and_current(self, movies, cached):
        database, catalog, awareness = movies
        rng = random.Random(f"pinned-{cached}")
        cache = AttributeValueCache(database, catalog) if cached else None
        table = database.table("screening")
        before = table.row_ids()
        subsets = list(_subsets(table, rng, 2))
        with database.read_locked():
            for row_ids in subsets:
                _check(database, catalog, "screening", row_ids, cache,
                       awareness, rng)
            _commit_from_other_thread(lambda: _mutate_movies(database, rng))
            # The pin still sees every row and the old values.
            assert table.row_ids() == before
            for row_ids in subsets:
                pair = _check(database, catalog, "screening", row_ids,
                              cache, awareness, rng)
                assert pair[0].prune_missing() is pair[0]
        assert table.row_ids() != before
        for row_ids in subsets:
            if not cached:
                # Without a cache a set reads its own rows, which must
                # exist: prune the stale ids first.
                row_ids = [rid for rid in row_ids if table.has_row(rid)]
            _check(database, catalog, "screening", row_ids, cache,
                   awareness, rng)


def _initial_pair(database, catalog, root, cache):
    new = CandidateSet.initial(database, catalog, root, shared_cache=cache)
    assert new.whole_table
    return new, reference.ReferenceCandidates(
        database, catalog, root, new.row_ids, shared=True
    )


def _delete_with_dependents(database, table_name, rid):
    row = database.table(table_name).get(rid)
    for source, fk in database.schema.referencing_tables(table_name):
        for dependent in database.table(source).lookup(
            fk.column, row[fk.target_column]
        ):
            _delete_with_dependents(database, source, dependent)
    database.delete(table_name, rid)


def _swap_a_row(database, root):
    """One commit that deletes a row of ``root`` (with the rows that
    reference it) and inserts a changed copy under a new key: the root
    keeps its row count while its distributions move."""
    table = database.table(root)
    rid = table.row_ids()[len(table) // 2]
    row = table.get(rid)
    key = table.schema.primary_key
    foreign = {fk.column for fk in table.schema.foreign_keys}
    for column, value in row.items():
        if column == key:
            row[column] = value + 10_000
        elif column in foreign or value is None:
            continue
        elif isinstance(value, str):
            row[column] = value + " two"
        elif isinstance(value, (int, float)):
            row[column] = value + 1
    with database.transaction():
        _delete_with_dependents(database, root, rid)
        database.insert(root, row)


def _share_a_title(database):
    """Give the second movie the first one's title."""
    movies = database.table("movie")
    first, second = movies.row_ids()[:2]
    database.update(
        "movie", second, {"title": movies.get(first)["title"]}
    )


_ROOTS = ["screening", "movie", "customer", "reservation"]


class TestWholeTableMemo:
    @pytest.mark.parametrize("root", _ROOTS)
    def test_initial_sets_across_commits(self, movies, root):
        database, catalog, awareness = movies
        cache = AttributeValueCache(database, catalog)
        attributes = _attributes(database, catalog, root)

        def scored_twice(*pairs):
            for pair in pairs:
                for __ in range(2):
                    _assert_scores_identical(pair, attributes, awareness)

        first = _initial_pair(database, catalog, root, cache)
        rows = first[0].row_ids
        # Same entries and length as the table, other rows: the first
        # row twice.
        same_size = _pair(database, catalog, root, rows[:1] + rows[:-1],
                          cache)
        scored_twice(
            first, _initial_pair(database, catalog, root, cache), same_size
        )
        unscored = _initial_pair(database, catalog, root, cache)
        count = len(database.table(root))
        _swap_a_row(database, root)
        assert len(database.table(root)) == count
        after_swap = _initial_pair(database, catalog, root, cache)
        assert after_swap[0].row_ids != rows
        scored_twice(after_swap, first, unscored)
        _share_a_title(database)
        scored_twice(
            _initial_pair(database, catalog, root, cache),
            after_swap,
            first,
            _initial_pair(database, catalog, root, cache),
        )

    def test_reader_pinned_on_another_thread(self, movies):
        database, catalog, awareness = movies
        cache = AttributeValueCache(database, catalog)
        attributes = _attributes(database, catalog, "screening")
        rows_before = tuple(database.table("screening").row_ids())
        pinned, committed = threading.Event(), threading.Event()
        errors = []

        def reader():
            try:
                with database.read_locked():
                    before = _initial_pair(database, catalog, "screening",
                                           cache)
                    _assert_scores_identical(before, attributes, awareness)
                    pinned.set()
                    assert committed.wait(30)
                    again = _initial_pair(database, catalog, "screening",
                                          cache)
                    assert again[0].row_ids == rows_before
                    for pair in (again, before):
                        _assert_scores_identical(pair, attributes, awareness)
            except Exception as exc:  # surfaced below
                errors.append(exc)
            finally:
                pinned.set()

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            assert pinned.wait(30)
            _swap_a_row(database, "screening")
            _share_a_title(database)
            current = _initial_pair(database, catalog, "screening", cache)
            assert current[0].row_ids != rows_before
            _assert_scores_identical(current, attributes, awareness)
        finally:
            committed.set()
            thread.join(30)
        assert not thread.is_alive()
        assert not errors, errors
        # The pinned reader stored its own records last.
        for pair in (current, _initial_pair(database, catalog, "screening",
                                            cache)):
            _assert_scores_identical(pair, attributes, awareness)


class TestWholeTableMemoCounts:
    """Which scores the memo serves, counted as ``value_distribution``
    calls, and the value cache fetched once per set and attribute."""

    def test_recomputes_only_what_a_commit_wrote(self, movies, monkeypatch):
        database, catalog, awareness = movies
        computed = Counter()
        distribution = AttributeScorer.value_distribution

        def counted(scorer, candidates, attribute):
            computed[attribute] += 1
            return distribution(scorer, candidates, attribute)

        monkeypatch.setattr(AttributeScorer, "value_distribution", counted)
        cache = AttributeValueCache(database, catalog)
        attributes = _attributes(database, catalog, "screening")
        measures = len(InformativenessMeasure)

        def recomputed(candidates):
            computed.clear()
            lookups = cache.hits + cache.misses
            for measure in InformativenessMeasure:
                AttributeScorer(awareness, measure).rank(
                    candidates, attributes
                )
            assert cache.hits + cache.misses - lookups == len(attributes)
            assert all(n == measures for n in computed.values())
            return set(computed)

        def initial():
            return CandidateSet.initial(
                database, catalog, "screening", shared_cache=cache
            )

        first = initial()
        assert recomputed(first) == set(attributes)
        narrowed = CandidateSet(
            database, catalog, "screening", first.row_ids[::2],
            shared_cache=cache,
        )
        assert recomputed(narrowed) == set(attributes)
        assert recomputed(initial()) == set()

        _share_a_title(database)
        planner = JoinPlanner(catalog, "screening")
        on_movie_path = {
            attribute for attribute in attributes
            if "movie" in {
                step.to_table
                for step in planner.path_to(attribute.table).steps
            }
        }
        assert on_movie_path and on_movie_path != set(attributes)
        assert recomputed(initial()) == on_movie_path

        reservation = database.table("reservation")
        booked = reservation.get(reservation.row_ids()[0])
        database.insert("reservation", {**booked, "reservation_id": 9001})
        assert recomputed(initial()) == set()


def _toy_database():
    schema = DatabaseSchema([
        TableSchema(
            "kind",
            [
                Column("kind_id", DataType.INTEGER),
                Column("label", DataType.TEXT),
                Column("weight", DataType.FLOAT),
            ],
            primary_key="kind_id",
        ),
        TableSchema(
            "item",
            [
                Column("item_id", DataType.INTEGER),
                Column("kind_id", DataType.INTEGER),
                Column("name", DataType.TEXT),
                Column("v", DataType.FLOAT),
                Column("flag", DataType.BOOLEAN),
            ],
            primary_key="item_id",
            foreign_keys=[ForeignKey("kind_id", "kind", "kind_id")],
        ),
        TableSchema(
            "tag",
            [
                Column("tag_id", DataType.INTEGER),
                Column("item_id", DataType.INTEGER, nullable=False),
                Column("text", DataType.TEXT),
                Column("num", DataType.FLOAT),
            ],
            primary_key="tag_id",
            foreign_keys=[ForeignKey("item_id", "item", "item_id")],
        ),
    ])
    database = Database(schema)
    labels = ("red", "Red ", "green", None, "blue sky", "")
    for i in range(1, 7):
        database.insert("kind", {
            "kind_id": i, "label": labels[i - 1],
            "weight": None if i == 4 else float(i % 3),
        })
    names = ("alpha", "Alpha", "beta gamma", None, "b3ta", "   ",
             "delta@x.org", "alpha beta")
    for i in range(1, 41):
        database.insert("item", {
            "item_id": i,
            "kind_id": None if i % 9 == 0 else 1 + i % 6,
            "name": names[i % len(names)],
            "v": None if i % 7 == 0 else float(i % 3),
            "flag": None if i % 5 == 0 else bool(i % 2),
        })
    words = ("one", "two", "One", None, "three four")
    for i in range(1, 71):
        database.insert("tag", {
            "tag_id": i,
            "item_id": 1 + (i * 7) % 33,   # items 34-40 have no tags
            "text": words[i % len(words)],
            "num": None if i % 6 == 0 else float(i % 4),
        })
    # Equal values of different types (1, 1.0, True; 0, 0.0, -0.0,
    # False) written raw, the way an undo restores a row.
    mixed = (1, True, 1.0, 0, False, -0.0, 0.0, 2)
    with database.write_locked():
        for table_name, column in (("item", "v"), ("tag", "num")):
            table = database.table(table_name)
            for rid, value in zip(table.row_ids()[::3], mixed * 5):
                row = table.delete(rid)
                row[column] = value
                table.restore(rid, row)
    database.notify_data_changed()
    return database


class TestToySchema:
    def test_mixed_types_are_stored_raw(self):
        database = _toy_database()
        stored = database.table("item").column_values("v")
        assert {type(v) for v in stored} >= {int, bool, float}

    @pytest.mark.parametrize("cached", [True, False])
    @pytest.mark.parametrize("root", ["item", "kind", "tag"])
    def test_random_subsets(self, root, cached):
        database = _toy_database()
        catalog = Catalog(database)
        awareness = UserAwarenessModel(SchemaAnnotations(database))
        rng = random.Random(f"toy-{root}-{cached}")
        cache = AttributeValueCache(database, catalog) if cached else None
        for row_ids in _subsets(database.table(root), rng, 6):
            _check(database, catalog, root, row_ids, cache, awareness, rng)

    def test_deleted_rows_and_pinned_reader(self):
        database = _toy_database()
        catalog = Catalog(database)
        awareness = UserAwarenessModel(SchemaAnnotations(database))
        rng = random.Random(11)
        cache = AttributeValueCache(database, catalog)
        items = database.table("item")
        attributes = _attributes(database, catalog, "item")
        pair = _pair(database, catalog, "item", items.row_ids(), cache)
        _assert_scores_identical(pair, attributes, awareness)

        def mutate():
            tags = database.table("tag")
            for rid in tags.row_ids()[::4]:
                database.delete("tag", rid)
            for rid in items.row_ids()[-6:]:
                for tag in tags.lookup("item_id", items.get(rid)["item_id"]):
                    database.delete("tag", tag)
                database.delete("item", rid)
            database.update("kind", database.table("kind").row_ids()[0],
                            {"label": None})

        with database.read_locked():
            pinned = _pair(database, catalog, "item", items.row_ids(), cache)
            _commit_from_other_thread(mutate)
            _assert_scores_identical(pinned, attributes, awareness)
            _assert_refines_identical(pinned, attributes, rng)
            _assert_prunes_identical(pinned)
        # Old sets after the commit: memoised entries, stale rows.
        for old in (pair, pinned):
            _assert_scores_identical(old, attributes, awareness)
            _assert_refines_identical(old, attributes, rng)
            pruned = _assert_prunes_identical(old)
            assert len(pruned[0]) == len(items)
            _assert_scores_identical(pruned, attributes, awareness)
            _assert_refines_identical(pruned, attributes, rng)
