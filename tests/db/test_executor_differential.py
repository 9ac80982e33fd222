"""Differential test: the columnar executor against the row-at-a-time oracle.

Randomized statements over every shape the engine plans — SeqScan and
IndexEq access paths under Filters, HashAggregate and
IndexGroupedAggScan roots — execute through a connection, and the
executed plan is re-run by :mod:`tests.db.reference_executor`.  Rows,
row ids and the exception a statement raises must be identical, and
must equal the oracle's answer over a plain sequential scan of the same
predicate (so the access-path choice never changes a result).

Statements are prepared with named parameters and executed with several
bindings, so the compiled binder is exercised too: a template planned
as an IndexEq probe must fall back to a scan when a later constant does
not coerce to the probed column's type.

A hypothesis property holds the planner to its access-path rule on
random data, empty tables included: the first unique indexed equality
whose constant coerces, else the first indexed one, else a scan.

FLOAT values are tenths and full-precision floats, so a sum depends on
its order: the engine and the oracle must both fold a grouped single
aggregate left to right and reduce every other shape with ``sum()``
(which Python 3.12+ compensates).
"""

from __future__ import annotations

import datetime as dt
import random
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.db import (
    Column,
    Database,
    DatabaseSchema,
    DataType,
    TableSchema,
    and_,
    contains,
    eq,
    ge,
    gt,
    in_,
    le,
    lt,
    ne,
    not_,
    or_,
)
from repro.db import api
from repro.db.aggregation import avg, count, count_distinct, max_, min_, sum_
from repro.db.engine import (
    Filter,
    HashAggregate,
    IndexEq,
    IndexGroupedAggScan,
    SeqScan,
    execute_rows,
    plan_query,
)
from repro.db.query import Comparison, Query
from repro.db.types import TypeMismatchError, coerce

from tests.db import reference_executor as reference

TAGS = ("red", "green", "Blue", "blue green", None)
DAYS = [dt.date(2022, 3, 26) + dt.timedelta(days=d) for d in range(6)]
N_STATEMENTS = 200
BINDINGS_PER_STATEMENT = 3


@pytest.fixture(scope="module")
def db():
    schema = DatabaseSchema([
        TableSchema(
            "item",
            [
                Column("id", DataType.INTEGER),
                Column("code", DataType.TEXT, unique=True),
                Column("num", DataType.INTEGER),
                Column("tag", DataType.TEXT),
                Column("price", DataType.FLOAT),
                Column("day", DataType.DATE),
                Column("flag", DataType.BOOLEAN),
                Column("grp", DataType.TEXT, nullable=False),
            ],
            primary_key="id",
        )
    ])
    database = Database(schema)
    rng = random.Random(5)
    for i in range(1, 121):
        database.insert("item", {
            "id": i,
            "code": None if i % 7 == 0 else f"c{i}",
            "num": None if i % 9 == 0 else rng.randrange(6),
            "tag": rng.choice(TAGS),
            "price": (
                None if i % 5 == 0
                else rng.randrange(-30, 100) / 10 if i % 3
                else rng.uniform(-3.0, 10.0)
            ),
            "day": rng.choice(DAYS),
            "flag": rng.choice((True, False, None)),
            "grp": f"g{i % 4}",
        })
    # Deletes leave holes, so scans walk slot lists, not whole banks.
    for i in range(3, 121, 13):
        database.delete("item", database.table("item").lookup("id", i)[0])
    # Indexed group keys: num and tag hold NULLs (the bucket walk falls
    # back to a scan), grp does not (groups reduce by segment).
    database.create_index("item", "num")
    database.create_index("item", "tag")
    database.create_index("item", "grp")
    return database


# Constants per column: well-typed values, values of other types (which
# compare False or fail to coerce), NULL and strings that coerce.
CONSTANTS = {
    "id": [1, 2, 17, 60, 119, 500, "2", "x", 2.0, 2.5, None, True],
    "code": ["c1", "c14", "c60", "C1", "zz", 1, None, DAYS[0]],
    "num": [0, 1, 3, 5, 9, "3", "three", 2.0, 1.5, None, "1 "],
    "tag": ["red", "blue", "Blue", "green", "", 3, None],
    "price": [0.0, -1.5, 2.5, 8.0, "2.5", "cheap", 3, None],
    "day": DAYS[:4] + ["2022-03-27", "someday", 20220327, None],
    "flag": [True, False, "yes", 1, 0, None],
    "grp": ["g0", "g3", "G1", 0, None],
    "missing": [1, "x"],
}
COLUMNS = [c for c in CONSTANTS if c != "missing"]
OPS = ("==", "!=", "<", "<=", ">", ">=")
MAKERS = {"==": eq, "!=": ne, "<": lt, "<=": le, ">": gt, ">=": ge}
AGGREGATES = (
    lambda c: count(),
    sum_, avg, min_, max_, count_distinct,
)
NUMERIC = ("id", "num", "price")


class _Gen:
    """Random predicate templates whose constants are named Params."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.choices: dict[str, list] = {}

    def param(self, values: list) -> api.Param:
        name = f"p{len(self.choices)}"
        self.choices[name] = values
        return api.Param(name)

    def column(self) -> str:
        rng = self.rng
        return "missing" if rng.random() < 0.03 else rng.choice(COLUMNS)

    def comparison(self):
        rng = self.rng
        column = self.column()
        kind = rng.random()
        if kind < 0.55:
            op = "==" if rng.random() < 0.5 else rng.choice(OPS)
            return MAKERS[op](column, self.param(CONSTANTS[column]))
        if kind < 0.7:
            return contains(column, self.param(["e", "BLUE", "c1", 1, ""]))
        if kind < 0.9:
            pool = CONSTANTS[column]
            lists = [
                tuple(rng.sample(pool, k=min(len(pool), rng.randrange(4))))
                for __ in range(4)
            ]
            return in_(column, self.param(lists + ["blue green"]))
        # A literal constant, not a parameter.
        return eq(column, rng.choice(CONSTANTS[column]))

    def predicate(self, depth: int = 0):
        rng = self.rng
        roll = rng.random()
        if depth >= 2 or roll < 0.45:
            return self.comparison()
        if roll > 0.92:
            return not_(self.predicate(depth + 1))
        parts = [self.predicate(depth + 1) for __ in range(rng.randrange(1, 4))]
        return and_(*parts) if roll < 0.75 else or_(*parts)

    def binds(self) -> dict:
        return {
            name: self.rng.choice(values)
            for name, values in self.choices.items()
        }


def _statement(rng: random.Random):
    gen = _Gen(rng)
    where = gen.predicate() if rng.random() < 0.85 else None
    if rng.random() < 0.5:
        statement = api.select("item")
    else:
        aggregates = {}
        for i in range(rng.randrange(1, 4)):
            column = rng.choice(COLUMNS + ["missing"])
            make = rng.choice(AGGREGATES)
            if make in (sum_, avg):
                column = rng.choice(NUMERIC)
            aggregates[f"a{i}"] = make(column)
        statement = api.aggregate("item", aggregates)
        keys = rng.choice([(), ("num",), ("tag",), ("grp",), ("flag",),
                           ("num", "tag"), ("day",), ("missing",)])
        if keys:
            statement.group_by(*keys)
    if where is not None:
        statement.where(where)
    return statement, gen


def _outcome(fn):
    """``fn()``'s value, or the exception it raised as a comparable pair."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - compared across executors
        return ("raised", type(exc).__name__, str(exc))


def _scan_plan(plan):
    """``plan`` with its access path replaced by a sequential scan."""
    if isinstance(plan, (SeqScan, IndexEq)):
        return SeqScan(table=plan.table)
    if isinstance(plan, (Filter, HashAggregate)):
        return replace(plan, child=_scan_plan(plan.child))
    return plan


class TestColumnarMatchesReference:
    def test_randomized_statements_match_reference(self, db):
        rng = random.Random(20260)
        conn = db.connect()
        plans = 0
        shapes = set()
        for __ in range(N_STATEMENTS):
            statement, gen = _statement(rng)
            prepared = _outcome(lambda: conn.prepare(statement))
            if isinstance(prepared, tuple):
                # Rejected at prepare time (e.g. an unknown aggregate):
                # nothing to execute.
                continue
            for __ in range(BINDINGS_PER_STATEMENT):
                binds = gen.binds()
                result = prepared.execute(**binds)
                plan = result.plan
                plans += 1
                shapes.add(type(plan).__name__)
                shapes.add(type(_leaf(plan)).__name__)
                got = _outcome(result.all)
                want = _outcome(lambda: reference.execute_rows(db, plan))
                assert got == want, (plan, binds)
                streamed = _outcome(
                    lambda: list(prepared.execute(**binds))
                )
                assert streamed == want, (plan, binds)
                assert _outcome(
                    lambda: reference.execute_rows(db, _scan_plan(plan))
                ) == want
                if isinstance(plan, (SeqScan, IndexEq, Filter)):
                    ids = _outcome(result.row_ids)
                    assert ids == _outcome(
                        lambda: reference.execute_row_ids(db, plan)
                    ), (plan, binds)
        assert plans >= 500
        assert {"SeqScan", "IndexEq", "Filter", "HashAggregate",
                "IndexGroupedAggScan"} <= shapes

    def test_boolean_operators_short_circuit_per_row(self, db):
        # A part no row reaches is never evaluated, so its unknown
        # column stays silent: every row matches the first disjunct, and
        # no row survives the first conjunct.
        conn = db.connect()
        for predicate, survivors in (
            (or_(ne("id", -1), eq("missing", 1)), len(db.table("item"))),
            (and_(eq("id", 500), eq("missing", 1)), 0),
            (or_(and_(eq("id", 500), eq("missing", 1)), ne("id", -1)),
             len(db.table("item"))),
            (not_(or_(ge("id", 0), eq("missing", 1))), 0),
        ):
            result = conn.execute(api.select("item").where(predicate))
            rows = result.all()
            assert rows == reference.execute_rows(db, result.plan)
            assert len(rows) == survivors
            assert result.row_ids() == \
                reference.execute_row_ids(db, result.plan)

    def test_uncoercible_probe_constant_replans_as_scan(self, db):
        conn = db.connect()
        statement = conn.prepare(
            api.select("item").where(eq("num", api.Param("n")))
        )
        first = statement.execute(n=3)
        assert isinstance(_leaf(first.plan), IndexEq)
        for value in ("three", 1.5, DAYS[0]):
            result = statement.execute(n=value)
            assert isinstance(_leaf(result.plan), SeqScan)
            assert result.all() == reference.execute_rows(db, result.plan)
            assert result.plan.predicate == Comparison("num", "==", value)

    def test_grouped_segments_match_reference(self, db):
        # An unfiltered group-by on grp (indexed, no NULLs) reduces
        # COUNT and integer SUM/AVG by segment arithmetic over the
        # index buckets; everything else falls back to the banked scan.
        conn = db.connect()
        for aggregates in (
            {"n": count()},
            {"s": sum_("num")},
            {"n": count(), "s": sum_("id"), "a": avg("num"), "b": avg("id")},
            {"a": avg("price"), "lo": min_("day")},
        ):
            statement = api.aggregate("item", aggregates).group_by("grp")
            result = conn.execute(statement)
            assert isinstance(result.plan, IndexGroupedAggScan)
            assert result.all() == reference.execute_rows(db, result.plan)

    def test_null_group_keys_form_one_group(self, db):
        conn = db.connect()
        for key in ("num", "tag"):
            for agg in AGGREGATES:
                column = "price" if agg in (sum_, avg) else "num"
                statement = api.aggregate("item", v=agg(column)).group_by(key)
                result = conn.execute(statement)
                assert isinstance(result.plan, IndexGroupedAggScan)
                rows = result.all()
                assert rows == reference.execute_rows(db, result.plan)
                assert sum(r[key] is None for r in rows) == 1

    def test_global_aggregates_over_empty_input(self, db):
        conn = db.connect()
        aggregates = {
            f"a{i}": make("price") for i, make in enumerate(AGGREGATES)
        }
        statement = api.aggregate("item", aggregates).where(eq("id", 500))
        result = conn.execute(statement)
        rows = result.all()
        assert rows == reference.execute_rows(db, result.plan)
        assert rows == [{"a0": 0, "a1": 0, "a2": None, "a3": None,
                         "a4": None, "a5": 0}]


def _leaf(plan):
    while plan.children():
        plan = plan.children()[0]
    return plan


# ---------------------------------------------------------------------------
# The access-path rule, as a property
# ---------------------------------------------------------------------------

# id (primary key) and code (unique) carry unique indexes, num and tag
# non-unique ones, price none.
PROBE_TYPES = {
    "id": DataType.INTEGER, "code": DataType.TEXT, "num": DataType.INTEGER,
    "tag": DataType.TEXT, "price": DataType.FLOAT,
}
PROBE_CONSTANTS = {
    "id": [1, 2, 5, "2", "x", 2.5, None],
    "code": ["c0", "c1", "zz", 1, None],
    "num": [0, 1, 2, "1", "one", 1.5, None],
    "tag": ["red", "blue", 3, None],
    "price": [1.5, 2.0, "cheap", None],
}
PROBE_PART = st.sampled_from(sorted(PROBE_TYPES)).flatmap(
    lambda column: st.tuples(
        st.just(column),
        st.sampled_from(("==", "==", "==", "!=", "<")),
        st.sampled_from(PROBE_CONSTANTS[column]),
    )
)
PROBE_ROW = st.tuples(
    st.sampled_from((0, 1, 2, None)),
    st.sampled_from(("red", "blue", None)),
    st.sampled_from((1.5, 2.0, None)),
)


def _probe_db(rows) -> Database:
    database = Database(DatabaseSchema([
        TableSchema(
            "item",
            [Column("id", PROBE_TYPES["id"]),
             Column("code", PROBE_TYPES["code"], unique=True)]
            + [Column(c, PROBE_TYPES[c]) for c in ("num", "tag", "price")],
            primary_key="id",
        )
    ]))
    database.create_index("item", "num")
    database.create_index("item", "tag")
    for i, (num, tag, price) in enumerate(rows):
        database.insert("item", {
            "id": i + 1, "code": None if i % 3 == 2 else f"c{i}",
            "num": num, "tag": tag, "price": price,
        })
    return database


def _coerces(column: str, value) -> bool:
    try:
        coerce(value, PROBE_TYPES[column])
    except TypeMismatchError:
        return False
    return True


@given(rows=st.lists(PROBE_ROW, max_size=8),
       parts=st.lists(PROBE_PART, min_size=1, max_size=4))
@example(rows=[], parts=[("num", "==", 1), ("tag", "==", "red")])
@example(rows=[(1, "red", 1.5)] * 3,
         parts=[("tag", "==", 3), ("num", "==", "1"), ("num", "==", 2)])
@example(rows=[(1, "red", 1.5)],
         parts=[("num", "==", 1), ("tag", "==", "red"), ("code", "==", 1)])
@settings(max_examples=80, deadline=None)
def test_access_path_comes_from_index_ddl(rows, parts):
    """The leaf probes the first unique indexed equality whose constant
    coerces, else the first such indexed equality, else scans — on any
    data, an empty table included — and the rows equal the oracle's
    scan."""
    database = _probe_db(rows)
    predicate = and_(*(MAKERS[op](c, value) for c, op, value in parts))
    plan = plan_query(database, Query("item").where(predicate).compile())
    probes = [
        (column, value) for column, op, value in parts
        if op == "==" and column != "price" and _coerces(column, value)
    ]
    unique = [(c, v) for c, v in probes if c in ("id", "code")]
    leaf = _leaf(plan)
    if probes:
        column, value = (unique or probes)[0]
        assert leaf == IndexEq(table="item", column=column, value=value)
    else:
        assert leaf == SeqScan(table="item")
    assert _outcome(lambda: execute_rows(database, plan)) == _outcome(
        lambda: reference.execute_rows(database, _scan_plan(plan))
    )
