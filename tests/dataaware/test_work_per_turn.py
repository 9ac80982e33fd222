"""Regression: the data-aware work of a turn does not grow with rows.

Each operation resolves the reader's snapshot a fixed number of times,
however many candidates it handles: pruning checks the whole candidate
set against one visible map, value entries gather each hop's column
once, and scoring and refinement read the entries.  A row-at-a-time
loop instead resolves the snapshot once per row (``prune_missing``
alone used to), which this counts through
``SnapshotManager.active_generation``.

A booking does not make the value entries rooted at ``reservation``
walk every reservation again either: the next lookup patches each
stale entry, joining only the new row.
"""

from __future__ import annotations

from repro.annotation import TaskExtractor
from repro.dataaware import (
    AttributeScorer,
    AttributeValueCache,
    CandidateSet,
    UserAwarenessModel,
    caching,
)
from repro.datasets import MovieConfig, build_movie_database
from repro.db import Catalog, ColumnRef

ATTRIBUTES = [
    ColumnRef("screening", "date"),
    ColumnRef("screening", "start_time"),
    ColumnRef("screening", "room"),
    ColumnRef("screening", "price"),
    ColumnRef("movie", "title"),
    ColumnRef("movie", "genre"),
    ColumnRef("actor", "name"),
    ColumnRef("language", "name"),
]


def _snapshot_resolutions(monkeypatch, n_screenings: int) -> int:
    database, annotations = build_movie_database(MovieConfig(
        n_screenings=n_screenings, n_movies=20, n_actors=30,
        n_customers=20, n_reservations=10, extra_dimensions=1,
    ))
    catalog = Catalog(database)
    cache = AttributeValueCache(database, catalog)
    scorer = AttributeScorer(UserAwarenessModel(annotations))
    snapshots = database.snapshots
    resolve = snapshots.active_generation
    calls = 0

    def counted():
        nonlocal calls
        calls += 1
        return resolve()

    with database.read_locked():
        candidates = CandidateSet.initial(
            database, catalog, "screening", shared_cache=cache
        )
        title = database.rows("movie")[0]["title"]
        monkeypatch.setattr(snapshots, "active_generation", counted)
        pruned = candidates.prune_missing()
        cold = scorer.rank(pruned, ATTRIBUTES)
        warm = scorer.rank(
            CandidateSet(database, catalog, "screening", pruned.row_ids,
                         shared_cache=cache),
            ATTRIBUTES,
        )
        refined = pruned.refine(ColumnRef("movie", "title"), title)
        monkeypatch.undo()
    assert pruned is candidates
    assert len(candidates) == n_screenings
    assert [s.attribute for s in cold] == [s.attribute for s in warm]
    assert cache.misses == len(ATTRIBUTES)
    assert 0 < len(refined) < n_screenings
    return calls


def test_snapshot_resolutions_do_not_grow_with_rows(monkeypatch):
    small = _snapshot_resolutions(monkeypatch, 100)
    large = _snapshot_resolutions(monkeypatch, 2000)
    assert small == large


def test_a_booking_walks_only_the_new_reservation(monkeypatch):
    database, annotations = build_movie_database(MovieConfig())
    catalog = Catalog(database)
    cache = AttributeValueCache(database, catalog)
    cancel = TaskExtractor(catalog, annotations).extract(
        database.procedures.get("cancel_reservation"))
    attributes = [
        attribute
        for tier in cancel.lookups[0].identifying_attributes.values()
        for attribute in tier
    ]
    for attribute in attributes:
        cache.full_map("reservation", attribute)
    walked = []
    walk = caching.attribute_values

    def recorded(database, path, attribute, root_row_ids):
        walked.append(list(root_row_ids))
        return walk(database, path, attribute, root_row_ids)

    monkeypatch.setattr(caching, "attribute_values", recorded)
    booked = database.procedures.call(
        "ticket_reservation", customer_id=1, screening_id=1, ticket_amount=1,
    ).value["reservation_id"]
    new = database.table("reservation").lookup("reservation_id", booked)
    for attribute in attributes:
        cache.full_map("reservation", attribute)
    assert len(attributes) > 10
    assert walked == [new] * len(attributes)
