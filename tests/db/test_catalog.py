"""Tests for catalog introspection: join graphs and reachability."""

import random

import pytest

from repro.db import (
    Catalog,
    Column,
    ColumnRef,
    Database,
    DatabaseSchema,
    ForeignKey,
    TableSchema,
)
from repro.db.types import DataType


@pytest.fixture()
def catalog(movie_db):
    database, __ = movie_db
    return Catalog(database)


class TestBasics:
    def test_tables_listed(self, catalog):
        names = {t.name for t in catalog.tables()}
        assert {"movie", "screening", "customer", "reservation"} <= names

    def test_columns(self, catalog):
        assert any(c.name == "title" for c in catalog.columns("movie"))

    def test_column_type(self, catalog):
        assert catalog.column_type(ColumnRef("movie", "title")) is DataType.TEXT

    def test_primary_key(self, catalog):
        assert catalog.primary_key("movie") == "movie_id"

    def test_foreign_keys(self, catalog):
        fks = catalog.foreign_keys("screening")
        assert any(fk.target_table == "movie" for fk in fks)

    def test_all_column_refs(self, catalog):
        refs = catalog.all_column_refs()
        assert ColumnRef("movie", "title") in refs

    def test_procedures(self, catalog):
        names = {p.name for p in catalog.procedures()}
        assert "ticket_reservation" in names


class TestJunctionDetection:
    def test_movie_actor_is_junction(self, catalog):
        assert catalog.is_junction_table("movie_actor")

    def test_reservation_is_not_junction(self, catalog):
        # reservation carries a payload column (no_tickets).
        assert not catalog.is_junction_table("reservation")

    def test_plain_table_is_not_junction(self, catalog):
        assert not catalog.is_junction_table("movie")


class TestReachability:
    def test_root_at_distance_zero(self, catalog):
        distances = catalog.tables_within("screening", 2)
        assert distances["screening"] == 0

    def test_forward_fk_one_hop(self, catalog):
        distances = catalog.tables_within("screening", 2)
        assert distances["movie"] == 1

    def test_actor_via_junction_two_hops(self, catalog):
        distances = catalog.tables_within("screening", 2)
        assert distances.get("actor") == 2

    def test_reverse_fan_in_excluded(self, catalog):
        # reservation references screening; identifying a screening via
        # its reservations' customers is excluded by design.
        distances = catalog.tables_within("screening", 3)
        assert "customer" not in distances

    def test_reservation_reaches_both_parents(self, catalog):
        distances = catalog.tables_within("reservation", 2)
        assert distances["customer"] == 1
        assert distances["screening"] == 1
        assert distances["movie"] == 2

    def test_hop_bound_respected(self, catalog):
        distances = catalog.tables_within("screening", 1)
        assert "actor" not in distances

    def test_unknown_root(self, catalog):
        assert catalog.tables_within("ghost", 2) == {"ghost": 0}


class TestJoinPaths:
    def test_direct_path(self, catalog):
        assert catalog.join_path("screening", "movie") == ["screening", "movie"]

    def test_junction_path(self, catalog):
        path = catalog.join_path("movie", "actor")
        assert path == ["movie", "movie_actor", "actor"]

    def test_no_path(self, catalog):
        # customer is a root table with no outgoing FKs.
        assert catalog.join_path("customer", "movie") is None

    def test_fk_between(self, catalog):
        link = catalog.fk_between("screening", "movie")
        assert link is not None
        table, fk = link
        assert table == "screening" and fk.target_table == "movie"

    def test_fk_between_unrelated(self, catalog):
        assert catalog.fk_between("movie", "customer") is None


# ----------------------------------------------------------------------
# Random FK schemas against brute-force path enumeration
# ----------------------------------------------------------------------
def _table(name, targets, junction=False):
    """``name`` with an ``id`` key and one FK column per target; a
    non-junction table also carries a payload column."""
    columns = [Column("id", DataType.INTEGER)]
    if not junction:
        columns.append(Column("payload", DataType.TEXT))
    fks = []
    for i, target in enumerate(targets):
        columns.append(Column(f"fk{i}", DataType.INTEGER))
        fks.append(ForeignKey(f"fk{i}", target, "id"))
    return TableSchema(name, columns, primary_key="id", foreign_keys=fks)


def _catalog(tables):
    return Catalog(Database(DatabaseSchema(tables)))


def _random_schema(rng):
    """3-7 tables with shuffled names: self and mutual references,
    cycles, junctions (some referencing one table twice), tables with
    no edges at all."""
    names = rng.sample(["ant", "bee", "cat", "dog", "eel", "fox", "gnu"],
                       rng.randint(3, 7))
    tables = []
    for name in names:
        if rng.random() < 0.3:
            targets = [rng.choice(names) for __ in range(rng.randint(2, 3))]
            tables.append(_table(name, targets, junction=True))
        else:
            targets = rng.sample(names, rng.randint(0, min(2, len(names))))
            tables.append(_table(name, targets))
    return tables


def _reference_edges(tables):
    """The identification joins, rebuilt from the schemas: a forward FK
    weighs 0.5 out of a junction and 1.0 otherwise, a junction is also
    entered from each table it references at 0.5, and a later FK's
    weight replaces an earlier one on the same edge."""
    edges = {table.name: {} for table in tables}
    for table in tables:
        fk_columns = {fk.column for fk in table.foreign_keys}
        junction = len(fk_columns) >= 2 and all(
            c.name == table.primary_key or c.name in fk_columns
            for c in table.columns
        )
        for fk in table.foreign_keys:
            edges[table.name][fk.target_table] = 0.5 if junction else 1.0
            if junction:
                edges[fk.target_table][table.name] = 0.5
    return edges


def _brute_force(edges, root):
    """``table -> least (weight, path)`` over every simple path."""
    best = {}
    stack = [((root,), 0.0)]
    while stack:
        path, weight = stack.pop()
        target = path[-1]
        if target not in best or (weight, path) < best[target]:
            best[target] = (weight, path)
        for neighbour, step in edges[target].items():
            if neighbour not in path:
                stack.append((path + (neighbour,), weight + step))
    return best


class TestShortestPathsAgainstBruteForce:
    def test_tie_goes_to_the_first_name_sequence(self):
        # Both routes from ant to dog weigh 2; bee sorts before cat
        # whichever FK ant declares first.
        for first, second in (("cat", "bee"), ("bee", "cat")):
            catalog = _catalog([
                _table("ant", [first, second]),
                _table("cat", ["dog"]),
                _table("bee", ["dog"]),
                _table("dog", []),
            ])
            assert catalog.join_path("ant", "dog") == ["ant", "bee", "dog"]
            assert catalog.tables_within("ant", 2)["dog"] == 2

    def test_junction_half_weights(self):
        catalog = _catalog([
            _table("ant", []),
            _table("bee", []),
            _table("cat", ["ant", "bee"], junction=True),
        ])
        assert catalog.identification_graph() == {
            "ant": {"cat": 0.5},
            "bee": {"cat": 0.5},
            "cat": {"ant": 0.5, "bee": 0.5},
        }
        assert catalog.join_path("ant", "bee") == ["ant", "cat", "bee"]
        # The junction itself sits half a join away, rounded down.
        assert catalog.tables_within("ant", 1) == {
            "ant": 0, "cat": 0, "bee": 1,
        }
        assert catalog.tables_within("ant", 0) == {"ant": 0}

    @pytest.mark.parametrize("seed", range(60))
    def test_random_schemas(self, seed):
        rng = random.Random(seed)
        tables = _random_schema(rng)
        catalog = _catalog(tables)
        edges = _reference_edges(tables)
        assert catalog.identification_graph() == edges
        names = list(edges)
        for root in names:
            best = _brute_force(edges, root)
            for target in names:
                want = best.get(target)
                assert catalog.join_path(root, target) == (
                    None if want is None else list(want[1])
                ), (root, target)
            for hops in range(4):
                assert catalog.tables_within(root, hops) == {
                    table: int(weight)
                    for table, (weight, __) in best.items()
                    if weight <= hops
                }, (root, hops)
        assert catalog.join_path("ghost", names[0]) is None
        assert catalog.join_path(names[0], "ghost") is None
        assert catalog.tables_within("ghost", 2) == {"ghost": 0}
