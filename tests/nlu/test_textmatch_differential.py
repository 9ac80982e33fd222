"""Differential tests: FuzzyIndex against the brute-force reference scan.

Every lookup must return the reference's ``(match, score)`` or ``None``
exactly: the same entry and ``==`` on the float score, never approx.
The reference applies ``threshold`` only to its final result, so one
scan at threshold 0 answers every threshold (see :func:`expected`).
"""

from __future__ import annotations

import random
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.annotation import TaskExtractor
from repro.datasets import MovieConfig, build_movie_database
from repro.db import Catalog
from repro.db.types import DataType
from repro.nlu import EntityLinker
from repro.synthesis import SlotVocabulary
from repro.textutil import FuzzyIndex, best_match

from tests.nlu.reference_textmatch import reference_best_match

THRESHOLDS = (0.0, 0.3, 0.6, 0.72, 0.9)

#: The turn benchmark's large data scale (``browse_large``).
LARGE_CONFIG = MovieConfig(
    n_customers=3000, n_screenings=4000, n_movies=200, n_reservations=800
)

#: Needles drawn from a pool whose full sweep would not fit the tier-1
#: time budget.  The reference scores every entry in pure Python: one
#: needle costs about 60 ms against the 200 default-scale emails, 20 ms
#: against the 200 large-scale titles and 0.8 s against the 3,000
#: large-scale emails.  Every other pool is swept entry by entry.
SAMPLED_POOLS = {
    ("default", "customer", "email"): 24,
    ("large", "movie", "title"): 40,
    ("large", "customer", "email"): 2,
}

EDIT_ALPHABET = "abcdefghijklmnopqrstuvwxyz .@0123456789"


def expected(
    best: tuple[str, float] | None, threshold: float
) -> tuple[str, float] | None:
    """The reference's answer at ``threshold``, from its answer at 0."""
    if best is not None and best[1] >= threshold:
        return best
    return None


def perturb(text: str, rng: random.Random) -> str:
    """``text`` with 0-4 random single-character edits."""
    chars = list(text)
    for __ in range(rng.randint(0, 4)):
        kind = rng.choice(("insert", "delete", "substitute", "case"))
        position = rng.randint(0, len(chars))
        if kind == "insert" or not chars:
            chars.insert(position, rng.choice(EDIT_ALPHABET))
            continue
        position = min(position, len(chars) - 1)
        if kind == "delete":
            del chars[position]
        elif kind == "substitute":
            chars[position] = rng.choice(EDIT_ALPHABET)
        else:
            chars[position] = chars[position].swapcase()
    return "".join(chars)


def linker_pools(config: MovieConfig) -> dict[tuple[str, str], list[str]]:
    """Every text pool the entity linker builds, by source column."""
    database, annotations = build_movie_database(config)
    catalog = Catalog(database)
    tasks = TaskExtractor(catalog, annotations).extract_all()
    vocabulary = SlotVocabulary.from_tasks(tasks, catalog)
    linker = EntityLinker(database, vocabulary)
    pools = {}
    for slot in vocabulary.names():
        source = vocabulary.source(slot)
        if source.dtype is DataType.TEXT and source.attribute is not None:
            key = (source.attribute.table, source.attribute.column)
            if key not in pools:
                pools[key] = linker._build_pool(slot)
    return pools


@pytest.fixture(scope="module")
def scale_pools():
    return {
        "default": linker_pools(MovieConfig()),
        "large": linker_pools(LARGE_CONFIG),
    }


def pool_cases():
    # The pool keys are fixed by the movie schema; listing them here
    # gives each pool its own test id.
    columns = [
        ("actor", "name"), ("country", "name"), ("customer", "city"),
        ("customer", "email"), ("customer", "first_name"),
        ("customer", "last_name"), ("customer", "street"),
        ("language", "name"), ("movie", "genre"), ("movie", "title"),
        ("screening", "room"),
    ]
    return [
        pytest.param(scale, table, column, id=f"{scale}-{table}.{column}")
        for scale in ("default", "large")
        for table, column in columns
    ]


class TestLinkerPools:
    def test_pool_cases_cover_every_linker_pool(self, scale_pools):
        listed = {(s, t, c) for s, t, c in (p.values for p in pool_cases())}
        built = {
            (scale, table, column)
            for scale, pools in scale_pools.items()
            for table, column in pools
        }
        assert listed == built

    @pytest.mark.parametrize("scale,table,column", pool_cases())
    def test_every_entry_with_random_edits(self, scale_pools, scale,
                                           table, column):
        pool = scale_pools[scale][(table, column)]
        index = FuzzyIndex(pool)
        rng = random.Random(f"{scale}:{table}.{column}")
        entries = list(pool)
        sample = SAMPLED_POOLS.get((scale, table, column))
        if sample is not None:
            entries = rng.sample(entries, sample)
        for entry in entries:
            needle = perturb(entry, rng)
            best = reference_best_match(needle, pool, threshold=0.0)
            for threshold in THRESHOLDS:
                assert index.lookup(needle, threshold) == expected(
                    best, threshold
                ), (needle, threshold)


# Case pairs whose lower() differs in length ("İ" lowers to two code
# points), whitespace, and characters shared by many entries.
_TEXT = st.text(alphabet="abAB \u0130i\u0131\u1e9e\u00df.@1\t", max_size=8)


@st.composite
def pools_and_needles(draw):
    pool = draw(st.lists(_TEXT, max_size=12))
    # Case variants of earlier entries: the tie goes to the lowest index.
    for __ in range(draw(st.integers(0, 3))):
        if pool:
            entry = draw(st.sampled_from(pool))
            variant = draw(st.sampled_from(
                (entry.upper(), entry.swapcase(), f" {entry} ", entry)
            ))
            pool.insert(draw(st.integers(0, len(pool))), variant)
    if pool and draw(st.booleans()):
        needle = draw(st.sampled_from(pool))
        needle = draw(st.sampled_from((needle, needle.upper(), needle[:-1],
                                       needle[1:], needle + "a")))
    else:
        needle = draw(st.one_of(_TEXT, st.sampled_from(("", " ", "a", "ab"))))
    return pool, needle


class TestRandomPools:
    @settings(max_examples=400, deadline=None)
    @given(pools_and_needles(), st.sampled_from(THRESHOLDS))
    def test_identical_to_reference(self, case, threshold):
        pool, needle = case
        assert FuzzyIndex(pool).lookup(needle, threshold) == (
            reference_best_match(needle, pool, threshold)
        )

    @settings(max_examples=150, deadline=None)
    @given(pools_and_needles(), st.floats(0.0, 1.0))
    def test_identical_at_any_threshold(self, case, threshold):
        pool, needle = case
        assert best_match(needle, pool, threshold) == (
            reference_best_match(needle, pool, threshold)
        )

    @settings(max_examples=60, deadline=None)
    @given(pools_and_needles())
    def test_one_index_answers_many_needles(self, case):
        pool, __ = case
        index = FuzzyIndex(pool)
        for needle in [*pool, "", " ", "a", "\u0130", "i\u0307", "zz"]:
            for threshold in THRESHOLDS:
                assert index.lookup(needle, threshold) == (
                    reference_best_match(needle, pool, threshold)
                )

    def test_duplicate_case_variants_tie_to_the_lowest_index(self):
        pool = ["Heat", "HEAT", "heat "]
        assert FuzzyIndex(pool).lookup("heat") == ("Heat", 1.0)
        assert FuzzyIndex(pool).lookup("heta", 0.0) == (
            reference_best_match("heta", pool, 0.0)
        )
        assert FuzzyIndex(pool).lookup("heta", 0.0)[0] == "Heat"

    def test_lower_changes_length(self):
        # "\u0130".lower() is "i\u0307": one code point becomes two.
        pool = ["\u0130stanbul", "Istanbul", "istanbul"]
        for needle in ("istanbul", "i\u0307stanbul", "\u0130stanbu",
                       "\u0131stanbul"):
            for threshold in THRESHOLDS:
                assert FuzzyIndex(pool).lookup(needle, threshold) == (
                    reference_best_match(needle, pool, threshold)
                )

    def test_empty_and_whitespace(self):
        for pool in ([], [""], ["  "], ["", "a"], ["a", " "]):
            for needle in ("", " ", "a", "ab"):
                for threshold in THRESHOLDS:
                    assert FuzzyIndex(pool).lookup(needle, threshold) == (
                        reference_best_match(needle, pool, threshold)
                    ), (pool, needle, threshold)


class TestConcurrentCommits:
    def test_new_title_becomes_linkable_under_concurrent_links(
        self, movie_tasks
    ):
        database, __, catalog, tasks = movie_tasks
        linker = EntityLinker(database, SlotVocabulary.from_tasks(tasks,
                                                                  catalog))
        titles = sorted({row["title"] for row in database.rows("movie")})
        new_title = "The Midnight Ferry Returns"
        assert linker.link("movie_title", new_title) is None
        committed = threading.Event()
        stop = threading.Event()
        errors: list[Exception] = []
        seen_new = []

        def reader(offset: int) -> None:
            try:
                turn = offset
                while not stop.is_set():
                    title = titles[turn % len(titles)]
                    linked = linker.link("movie_title", title.lower())
                    assert linked is not None and linked.value == title
                    was_committed = committed.is_set()
                    linked = linker.link("movie_title", new_title)
                    if was_committed:
                        assert linked is not None
                        assert linked.value == new_title
                    if linked is not None and linked.value == new_title:
                        seen_new.append(turn)
                    turn += 1
            except Exception as error:  # reported after the join
                errors.append(error)

        def writer() -> None:
            try:
                movie_id = max(r["movie_id"] for r in database.rows("movie"))
                database.insert("movie", {"movie_id": movie_id + 1,
                                          "title": new_title})
                committed.set()
            except Exception as error:  # reported after the join
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            readers = [threading.Thread(target=reader, args=(i,))
                       for i in range(8)]
            for thread in readers:
                thread.start()
            commit = threading.Thread(target=writer)
            commit.start()
            commit.join(timeout=30)
            assert not commit.is_alive()
            assert committed.wait(timeout=30)
            deadline = time.monotonic() + 30
            while len(seen_new) < 8 and not errors:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            stop.set()
            for thread in readers:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            stop.set()
            sys.setswitchinterval(interval)
        assert not errors, errors
        linked = linker.link("movie_title", new_title.lower())
        assert linked is not None and linked.value == new_title
