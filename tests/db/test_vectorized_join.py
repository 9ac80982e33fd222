"""Grouped-aggregate and join-walk parity on a fact table with NULLs,
signed zeros and cross-typed keys.

A whole-table group-by on a hash-indexed key walks the index's buckets
(:class:`~repro.db.engine.plan.IndexGroupedAggScan`), falling back to
the banked scan for NULL keys and order-sensitive float reductions.
Its output must equal materialise-then-reduce over the table's rows
(``tests/db/reference_executor.py``), group for group.

The one join left is the data-aware layer's FK walk
(:func:`~repro.dataaware.join_graph.map_values`).  Each hop either
builds one probe map over the next table or probes its hash index per
row; both strategies must agree with a nested-loop reference over a
500-walk randomised workload, and at the corners the fuzzer skips:
NULL keys, an empty build side, and keys that do or do not coerce to
the target column's type.
"""

import math
import random

import pytest

from repro.dataaware import join_graph
from repro.dataaware.join_graph import (
    JoinPath,
    JoinStep,
    build_probe_map,
    map_values,
)
from repro.db import (
    Column,
    Database,
    DatabaseSchema,
    DataType,
    ForeignKey,
    Query,
    TableSchema,
    api,
)
from repro.db.aggregation import avg, count, min_, sum_
from repro.db.catalog import ColumnRef
from repro.db.types import coerce
from repro.errors import DatabaseError

from tests.db import reference_executor as reference


@pytest.fixture()
def db():
    schema = DatabaseSchema(
        [
            TableSchema(
                "dim",
                [
                    Column("dim_id", DataType.INTEGER),
                    Column("label", DataType.TEXT),
                    Column("code", DataType.TEXT, unique=True),
                ],
                primary_key="dim_id",
            ),
            TableSchema(
                "fact",
                [
                    Column("fact_id", DataType.INTEGER),
                    Column("dim_req", DataType.INTEGER, nullable=False),
                    Column("dim_opt", DataType.INTEGER),
                    Column("word", DataType.TEXT),
                    Column("val", DataType.FLOAT),
                    Column("qty", DataType.INTEGER, nullable=False),
                    Column("grp", DataType.TEXT),
                ],
                primary_key="fact_id",
                foreign_keys=[ForeignKey("dim_req", "dim", "dim_id")],
            ),
            TableSchema(
                "void",
                [Column("void_id", DataType.INTEGER)],
                primary_key="void_id",
            ),
        ]
    )
    database = Database(schema)
    rng = random.Random(13)
    for i in range(1, 11):
        database.insert(
            "dim",
            {
                "dim_id": i,
                "label": "common" if i <= 7 else f"label {i}",
                "code": str(i),
            },
        )
    words = ("3", "7", "oops", None, "5", "not a number")
    for i in range(1, 121):
        database.insert(
            "fact",
            {
                "fact_id": i,
                "dim_req": 1 + i % 10,
                "dim_opt": None if i % 7 == 0 else 1 + i % 14,
                "word": words[i % len(words)],
                "val": None if i % 11 == 0 else (-0.0 if i % 5 == 0
                                                 else float(i % 9)),
                "qty": i % 6,
                "grp": f"g{i % 4}",
            },
        )
    # Non-dense slots: scans walk a slot list, not the whole banks.
    for rid in database.table("fact").lookup("fact_id", 60):
        database.delete("fact", rid)
    database.create_index("fact", "grp")
    database.create_index("fact", "dim_opt")
    return database


def _statement(aggs, group):
    statement = api.aggregate("fact", aggs)
    if group:
        statement.group_by(*group)
    return statement


class TestAggregatePushdownParity:
    """The engine's grouped aggregates == materialise-then-reduce."""

    def _check(self, db, aggs, group):
        rows = db.connect().execute(Query("fact")).all()
        baseline = reference.aggregate(rows, aggs, group)
        result = db.connect().execute(_statement(aggs, group))
        assert result.all() == baseline
        assert reference.execute_rows(db, result.plan) == baseline

    def test_float_aggregates_preserve_reduction_order(self, db):
        # val holds -0.0s: sum/min are order-sensitive at the sign-of-
        # zero level, so bucket iteration must reduce in scan order.
        self._check(db, {"s": sum_("val"), "lo": min_("val")}, ["grp"])

    def test_whole_table_group_by_uses_index_buckets(self, db):
        plan = _statement({"n": count()}, ["grp"]).explain(db)
        assert "IndexGroupedAggScan on fact" in plan
        assert "group by [grp]" in plan
        self._check(db, {"n": count(), "v": avg("val")}, ["grp"])

    def test_group_key_with_nulls_falls_back_at_runtime(self, db):
        # dim_opt is indexed but holds NULLs: the bucket walk cannot see
        # the NULL group, so execution falls back to the banked scan —
        # results must still contain the NULL group.
        result = db.connect().execute(
            _statement({"n": count()}, ["dim_opt"])
        ).all()
        assert any(r["dim_opt"] is None for r in result)
        self._check(db, {"n": count()}, ["dim_opt"])


def _path(*hops):
    """A :class:`JoinPath` from ``(from_table, source, to_table, target)``
    hops."""
    steps = tuple(
        JoinStep(from_table, to_table, source, target)
        for from_table, source, to_table, target in hops
    )
    return JoinPath(steps[0].from_table, steps)


def _indexless_hops(db, path):
    """Hops the index strategy still answers with a probe map: targets
    without a hash index, and empty tables."""
    return sum(
        1 for step in path.steps
        if not (db.table(step.to_table).has_index(step.target_column)
                and len(db.table(step.to_table)))
    )


def _both_strategies(db, monkeypatch, path, attribute, root_ids):
    """``map_values`` under each join strategy: one probe map built per
    hop, then per-row probes of each target's hash index.  Errors become
    comparable values."""
    out = []
    for fanout, builds in ((math.inf, len(path.steps)),
                           (0.0, _indexless_hops(db, path))):
        built = []

        def counting_build(table, column):
            built.append(column)
            return build_probe_map(table, column)

        with monkeypatch.context() as patch:
            patch.setattr(db.statistics, "matches_per_key",
                          lambda *__, f=fanout: f)
            patch.setattr(join_graph, "build_probe_map", counting_build)
            try:
                out.append(map_values(db, path, attribute, root_ids))
            except DatabaseError as exc:
                out.append(("error", type(exc).__name__, str(exc)))
                continue
        assert len(built) == builds
    return out



def _nested_loop(db, path, attribute, root_ids):
    """Reference ``map_values``: each hop compares every coerced key
    against every row of the next table."""
    rows = {
        name: [(rid, db.table(name).get(rid))
               for rid in db.table(name).row_ids()]
        for name in {path.root, *(s.to_table for s in path.steps)}
    }
    result = {}
    for root in root_ids:
        current, ids = path.root, {root}
        for step in path.steps:
            dtype = db.table(step.to_table).schema.column(
                step.target_column
            ).dtype
            keys = {
                coerce(row[step.source_column], dtype)
                for rid, row in rows[current] if rid in ids
            } - {None}
            ids = {
                rid for rid, row in rows[step.to_table]
                if row[step.target_column] in keys
            }
            current = step.to_table
        result[root] = frozenset(
            row[attribute.column] for rid, row in rows[current]
            if rid in ids and row[attribute.column] is not None
        )
    return result


# Hops whose keys always coerce: (from_table, source, to_table, target).
HOPS = (
    ("fact", "dim_opt", "dim", "dim_id"),   # NULL and dangling keys
    ("fact", "dim_req", "dim", "dim_id"),   # NOT NULL FK
    ("fact", "word", "dim", "code"),        # TEXT = TEXT, unique target
    ("fact", "qty", "dim", "dim_id"),       # 0 dangles
    ("fact", "qty", "dim", "code"),         # INTEGER -> TEXT
    ("fact", "dim_opt", "void", "void_id"),  # empty build side
    ("fact", "fact_id", "fact", "fact_id"),  # self join
    ("fact", "word", "dim", "label"),       # skewed, unindexed target
    ("dim", "dim_id", "fact", "dim_opt"),   # reverse FK, indexed fanout
    ("dim", "dim_id", "fact", "dim_req"),   # reverse FK, unindexed
    ("dim", "code", "fact", "word"),        # TEXT, unindexed fanout
)

COLUMNS = {
    "fact": ("fact_id", "dim_opt", "word", "val", "qty", "grp"),
    "dim": ("dim_id", "label", "code"),
    "void": ("void_id",),
}


class TestRandomisedJoinDifferential:
    def test_500_query_differential(self, db, monkeypatch):
        rng = random.Random(29)
        fact_ids = db.table("fact").row_ids()
        checked = 0
        for __ in range(500):
            hops, table = [], "fact"
            for __h in range(rng.randrange(1, 3)):
                options = [hop for hop in HOPS if hop[0] == table]
                if not options:
                    break
                hop = rng.choice(options)
                hops.append(hop)
                table = hop[2]
            path = _path(*hops)
            attribute = ColumnRef(table, rng.choice(COLUMNS[table]))
            root_ids = rng.sample(fact_ids, rng.randrange(0, 40))
            probed, indexed = _both_strategies(
                db, monkeypatch, path, attribute, root_ids
            )
            assert probed == indexed == _nested_loop(
                db, path, attribute, root_ids
            )
            checked += 1
        assert checked == 500


class TestJoinCorners:
    def test_null_probe_keys_never_match(self, db, monkeypatch):
        path = _path(("fact", "dim_opt", "dim", "dim_id"))
        label = ColumnRef("dim", "label")
        fact = db.table("fact")
        roots = fact.row_ids()
        probed, indexed = _both_strategies(
            db, monkeypatch, path, label, roots
        )
        assert probed == indexed == _nested_loop(db, path, label, roots)
        null_keyed = [r for r in roots if fact.get(r)["dim_opt"] is None]
        assert null_keyed
        assert all(probed[r] == frozenset() for r in null_keyed)

    def test_empty_build_side_yields_no_rows(self, db, monkeypatch):
        path = _path(("fact", "dim_opt", "void", "void_id"))
        roots = db.table("fact").row_ids()
        probed, indexed = _both_strategies(
            db, monkeypatch, path, ColumnRef("void", "void_id"), roots
        )
        assert probed == indexed == {r: frozenset() for r in roots}

    def test_cross_type_join_raises_identically(self, db, monkeypatch):
        # "oops" cannot coerce to INTEGER; the probe map's coercion and
        # the index probe's must raise the same error at the same root.
        path = _path(("fact", "word", "dim", "dim_id"))
        probed, indexed = _both_strategies(
            db, monkeypatch, path, ColumnRef("dim", "label"),
            db.table("fact").row_ids(),
        )
        assert probed == indexed
        assert probed[0] == "error"
        assert probed[1] == "TypeMismatchError"

    def test_coercible_cross_type_join_matches(self, db, monkeypatch):
        # qty (INTEGER) joined against code (TEXT): every probe coerces
        # ("3" == str(3)), so both strategies match without errors.
        path = _path(("fact", "qty", "dim", "code"))
        fact = db.table("fact")
        roots = [r for r in fact.row_ids() if fact.get(r)["qty"] >= 1]
        probed, indexed = _both_strategies(
            db, monkeypatch, path, ColumnRef("dim", "code"), roots
        )
        assert probed == indexed
        assert len(probed) > 0
        assert all(
            probed[r] == {str(fact.get(r)["qty"])} for r in roots
        )
