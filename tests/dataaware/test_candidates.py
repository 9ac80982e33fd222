"""Tests for candidate-set tracking and refinement."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataaware import AttributeValueCache, CandidateSet
from repro.db import Catalog, ColumnRef
from repro.errors import PolicyError


@pytest.fixture()
def env(movie_db):
    database, annotations = movie_db
    return database, Catalog(database)


class TestInitial:
    def test_all_rows_are_candidates(self, env):
        database, catalog = env
        candidates = CandidateSet.initial(database, catalog, "screening")
        assert len(candidates) == database.count("screening")
        assert not candidates.is_unique
        assert not candidates.is_empty

    def test_rows_materialise(self, env):
        database, catalog = env
        candidates = CandidateSet.initial(database, catalog, "movie")
        rows = candidates.rows()
        assert len(rows) == len(candidates)
        assert "title" in rows[0]


class TestValuesFor:
    def test_own_column(self, env):
        database, catalog = env
        candidates = CandidateSet.initial(database, catalog, "screening")
        values = candidates.values_for(ColumnRef("screening", "room"))
        assert set(values) == set(candidates.row_ids)
        assert all(len(v) <= 1 for v in values.values())

    def test_joined_column(self, env):
        database, catalog = env
        candidates = CandidateSet.initial(database, catalog, "screening")
        values = candidates.values_for(ColumnRef("movie", "title"))
        assert all(len(v) == 1 for v in values.values())

    def test_junction_join_multivalued(self, env):
        database, catalog = env
        candidates = CandidateSet.initial(database, catalog, "movie")
        values = candidates.values_for(ColumnRef("actor", "name"))
        assert any(len(v) > 1 for v in values.values())

    def test_unreachable_table_raises(self, env):
        database, catalog = env
        candidates = CandidateSet.initial(database, catalog, "customer")
        with pytest.raises(PolicyError):
            candidates.values_for(ColumnRef("movie", "title"))

    def test_cached_between_calls(self, env):
        database, catalog = env
        candidates = CandidateSet.initial(database, catalog, "screening")
        first = candidates.values_for(ColumnRef("movie", "title"))
        second = candidates.values_for(ColumnRef("movie", "title"))
        assert first is second


class TestEngineSeeding:
    def test_initial_with_predicate_pushes_down(self, env):
        from repro.db.query import eq

        database, catalog = env
        date = database.rows("screening")[0]["date"]
        seeded = CandidateSet.initial(
            database, catalog, "screening", where=eq("date", date)
        )
        unconstrained = CandidateSet.initial(database, catalog, "screening")
        manual = unconstrained.refine(ColumnRef("screening", "date"), date)
        assert 0 < len(seeded) < len(unconstrained)
        assert seeded.row_ids == manual.row_ids

    def test_key_and_date_refines_keep_the_matching_rows(self, env):
        database, catalog = env
        candidates = CandidateSet.initial(database, catalog, "screening")
        # screening_id is hash-indexed and date is not: both narrow
        # through the value map, the key to its one row and the date to
        # every row that shares it.
        target = database.rows("screening")[3]
        by_key = candidates.refine(
            ColumnRef("screening", "screening_id"), target["screening_id"]
        )
        assert [row["screening_id"] for row in by_key.rows()] == [
            target["screening_id"]
        ]
        by_values = candidates.refine(
            ColumnRef("screening", "date"), target["date"]
        )
        survivors = {
            row["screening_id"] for row in by_values.rows()
        }
        assert target["screening_id"] in survivors
        assert all(
            row["date"] == target["date"] for row in by_values.rows()
        )


class TestRefine:
    def test_key_refine_of_a_choice_list_runs_no_statement(self, env):
        from collections import Counter

        from repro.db import select
        from repro.db.query import eq

        database, catalog = env
        connection = database.default_connection
        candidates = CandidateSet.initial(
            database, catalog, "screening",
            shared_cache=AttributeValueCache(database, catalog),
        )
        movie_id, __ = Counter(
            database.table("screening").column_values("movie_id")
        ).most_common(1)[0]
        title = database.find_one("movie", "movie_id", movie_id)["title"]
        choices = candidates.refine(ColumnRef("movie", "title"), title)
        assert 1 < len(choices) < len(candidates)
        outside = next(
            row for row in database.rows("screening")
            if row["movie_id"] != movie_id
        )
        key = ColumnRef("screening", "screening_id")
        for row in choices.rows() + [outside]:
            executions = connection.stats().executions
            refined = choices.refine(key, row["screening_id"])
            assert connection.stats().executions == executions
            # The engine's hash-index answer, narrowed to the choices.
            probe = connection.execute(
                select("screening").where(eq("screening_id",
                                             row["screening_id"]))
            )
            assert "IndexEq on screening using screening_id" in \
                probe.explain()
            matched = set(probe.row_ids())
            assert refined.row_ids == tuple(
                rid for rid in choices.row_ids if rid in matched
            )
            assert len(refined) == (row is not outside)

    def test_refine_narrows(self, env):
        database, catalog = env
        candidates = CandidateSet.initial(database, catalog, "screening")
        room = database.rows("screening")[0]["room"]
        refined = candidates.refine(ColumnRef("screening", "room"), room)
        assert 0 < len(refined) < len(candidates)

    def test_refine_is_immutable(self, env):
        database, catalog = env
        candidates = CandidateSet.initial(database, catalog, "screening")
        before = len(candidates)
        candidates.refine(ColumnRef("screening", "room"), "room A")
        assert len(candidates) == before

    def test_refine_records_constraint(self, env):
        database, catalog = env
        candidates = CandidateSet.initial(database, catalog, "screening")
        refined = candidates.refine(ColumnRef("screening", "room"), "room A")
        assert len(refined.constraints) == 1
        assert str(refined.constraints[0].attribute) == "screening.room"

    def test_refine_via_join(self, env):
        database, catalog = env
        title = database.rows("movie")[0]["title"]
        candidates = CandidateSet.initial(database, catalog, "screening")
        refined = candidates.refine(ColumnRef("movie", "title"), title)
        movie_id = database.find_one("movie", "title", title)["movie_id"]
        for row in refined.rows():
            assert row["movie_id"] == movie_id

    def test_text_matching_case_insensitive(self, env):
        database, catalog = env
        title = database.rows("movie")[0]["title"]
        candidates = CandidateSet.initial(database, catalog, "movie")
        refined = candidates.refine(ColumnRef("movie", "title"), title.upper())
        assert len(refined) >= 1

    def test_text_matching_fuzzy(self, env):
        database, catalog = env
        candidates = CandidateSet.initial(database, catalog, "movie")
        refined = candidates.refine(ColumnRef("movie", "title"), "Forrest Gmup")
        assert any(r["title"] == "Forrest Gump" for r in refined.rows())

    def test_contradiction_empties(self, env):
        database, catalog = env
        candidates = CandidateSet.initial(database, catalog, "movie")
        refined = candidates.refine(ColumnRef("movie", "year"), 1)
        assert refined.is_empty

    def test_typed_coercion(self, env):
        database, catalog = env
        year = database.rows("movie")[0]["year"]
        candidates = CandidateSet.initial(database, catalog, "movie")
        refined = candidates.refine(ColumnRef("movie", "year"), str(year))
        assert len(refined) >= 1

    def test_the_row_requires_unique(self, env):
        database, catalog = env
        candidates = CandidateSet.initial(database, catalog, "movie")
        with pytest.raises(PolicyError):
            candidates.the_row()

    def test_reset_restores_full_set(self, env):
        database, catalog = env
        candidates = CandidateSet.initial(database, catalog, "screening")
        refined = candidates.refine(ColumnRef("screening", "room"), "room A")
        assert len(refined.reset()) == len(candidates)


class TestSharedCache:
    def test_same_results_with_cache(self, env):
        database, catalog = env
        cache = AttributeValueCache(database, catalog)
        plain = CandidateSet.initial(database, catalog, "screening")
        cached = CandidateSet.initial(database, catalog, "screening",
                                      shared_cache=cache)
        attribute = ColumnRef("movie", "title")
        assert plain.values_for(attribute) == cached.values_for(attribute)

    def test_cache_hit_statistics(self, env):
        database, catalog = env
        cache = AttributeValueCache(database, catalog)
        attribute = ColumnRef("movie", "title")
        a = CandidateSet.initial(database, catalog, "screening",
                                 shared_cache=cache)
        a.values_for(attribute)
        b = a.refine(ColumnRef("screening", "room"), "room A")
        b.values_for(attribute)
        # Two distinct attributes were materialised (title + the room used
        # by refine); the second title access is served from the cache.
        assert cache.misses == 2
        assert cache.hits == 1

    def test_cache_invalidated_on_write(self, env):
        database, catalog = env
        cache = AttributeValueCache(database, catalog)
        attribute = ColumnRef("screening", "room")
        CandidateSet.initial(
            database, catalog, "screening", shared_cache=cache
        ).values_for(attribute)
        database.insert(
            "screening",
            {"screening_id": 9999, "movie_id": 1, "date": "2022-04-01",
             "start_time": "20:00", "room": "room Z", "price": 10.0,
             "capacity": 10},
        )
        fresh = CandidateSet.initial(
            database, catalog, "screening", shared_cache=cache
        )
        values = fresh.values_for(attribute)
        assert any("room Z" in v for v in values.values())


class TestRefineProperties:
    @given(st.sampled_from(["room A", "room B", "room C", "nonexistent"]))
    @settings(max_examples=20)
    def test_refine_monotone(self, value):
        # hypothesis cannot combine with fixtures; build a DB inline.
        from repro.datasets import MovieConfig, build_movie_database

        database, __ = build_movie_database(MovieConfig(
            n_customers=10, n_movies=5, n_screenings=15, n_reservations=5,
            extra_dimensions=0, n_actors=6,
        ))
        catalog = Catalog(database)
        candidates = CandidateSet.initial(database, catalog, "screening")
        refined = candidates.refine(ColumnRef("screening", "room"), value)
        assert len(refined) <= len(candidates)
        assert set(refined.row_ids) <= set(candidates.row_ids)
