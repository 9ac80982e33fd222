"""Tests for stored procedures: binding, registry, atomic execution."""

import threading

import pytest

from repro.db import (
    Column,
    Database,
    DatabaseSchema,
    DataType,
    Parameter,
    Procedure,
    TableSchema,
)
from repro.errors import ProcedureError, TransactionError


@pytest.fixture()
def db():
    schema = DatabaseSchema(
        [
            TableSchema(
                "item",
                [
                    Column("item_id", DataType.INTEGER),
                    Column("stock", DataType.INTEGER, nullable=False),
                ],
                primary_key="item_id",
            )
        ]
    )
    database = Database(schema)
    database.insert("item", {"item_id": 1, "stock": 5})
    return database


def take_stock(database, item_id, amount):
    rid = database.table("item").lookup("item_id", item_id)[0]
    row = database.table("item").get(rid)
    database.update("item", rid, {"stock": row["stock"] - amount})
    if row["stock"] - amount < 0:
        raise ProcedureError("stock would go negative")
    return row["stock"] - amount


def make_procedure():
    return Procedure(
        name="take_stock",
        parameters=[
            Parameter("item_id", DataType.INTEGER, references=("item", "item_id")),
            Parameter("amount", DataType.INTEGER),
        ],
        body=take_stock,
        writes=("item",),
    )


class TestProcedureDefinition:
    def test_invalid_name_rejected(self):
        with pytest.raises(ProcedureError):
            Procedure("bad name!", [], lambda db: None)

    def test_duplicate_parameter_rejected(self):
        with pytest.raises(ProcedureError):
            Procedure(
                "p",
                [Parameter("a", DataType.INTEGER),
                 Parameter("a", DataType.INTEGER)],
                lambda db, a: None,
            )

    def test_description_defaults_to_name(self):
        procedure = Procedure("do_thing", [], lambda db: None)
        assert procedure.description == "do thing"

    def test_parameter_lookup(self):
        procedure = make_procedure()
        assert procedure.parameter("amount").dtype is DataType.INTEGER
        with pytest.raises(ProcedureError):
            procedure.parameter("nope")

    def test_entity_reference_flag(self):
        procedure = make_procedure()
        assert procedure.parameter("item_id").is_entity_reference
        assert not procedure.parameter("amount").is_entity_reference


class TestBinding:
    def test_bind_coerces(self):
        bound = make_procedure().bind({"item_id": "1", "amount": "2"})
        assert bound == {"item_id": 1, "amount": 2}

    def test_missing_required_rejected(self):
        with pytest.raises(ProcedureError):
            make_procedure().bind({"item_id": 1})

    def test_unknown_argument_rejected(self):
        with pytest.raises(ProcedureError):
            make_procedure().bind({"item_id": 1, "amount": 1, "zzz": 2})

    def test_optional_defaults_to_none(self):
        procedure = Procedure(
            "p",
            [Parameter("a", DataType.INTEGER, optional=True)],
            lambda db, a: a,
        )
        assert procedure.bind({}) == {"a": None}


class TestRegistry:
    def test_register_and_call(self, db):
        db.procedures.register(make_procedure())
        result = db.procedures.call("take_stock", item_id=1, amount=2)
        assert result.value == 3
        assert db.find_one("item", "item_id", 1)["stock"] == 3

    def test_duplicate_registration_rejected(self, db):
        db.procedures.register(make_procedure())
        with pytest.raises(ProcedureError):
            db.procedures.register(make_procedure())

    def test_unknown_procedure_rejected(self, db):
        with pytest.raises(ProcedureError):
            db.procedures.call("nope")

    def test_reference_validated_at_registration(self, db):
        bad = Procedure(
            "p",
            [Parameter("x", DataType.INTEGER, references=("ghost", "id"))],
            lambda db, x: None,
        )
        with pytest.raises(Exception):
            db.procedures.register(bad)

    def test_names_and_iteration(self, db):
        db.procedures.register(make_procedure())
        assert "take_stock" in db.procedures
        assert db.procedures.names() == ("take_stock",)
        assert [p.name for p in db.procedures] == ["take_stock"]


class TestAtomicity:
    def test_failed_call_rolls_back(self, db):
        db.procedures.register(make_procedure())
        with pytest.raises(ProcedureError):
            db.procedures.call("take_stock", item_id=1, amount=99)
        # The update ran before the failure but must have been undone.
        assert db.find_one("item", "item_id", 1)["stock"] == 5

    def test_successful_call_commits(self, db):
        db.procedures.register(make_procedure())
        before = db.data_version
        db.procedures.call("take_stock", item_id=1, amount=1)
        assert db.data_version > before

    def test_call_inside_open_transaction_joins_it(self, db):
        db.procedures.register(make_procedure())
        db.transactions.begin()
        db.procedures.call("take_stock", item_id=1, amount=1)
        db.transactions.rollback()
        assert db.find_one("item", "item_id", 1)["stock"] == 5

    def test_failed_inner_scope_rolls_back_the_outer_transaction(self, db):
        # The caller catches the procedure's error; its half-applied
        # update must still not commit with the outer scope.
        db.procedures.register(make_procedure())
        transactions = db.transactions
        committed = transactions.committed_count
        aborted = transactions.aborted_count
        with pytest.raises(TransactionError):
            with db.transaction():
                with pytest.raises(ProcedureError):
                    db.procedures.call("take_stock", item_id=1, amount=99)
        assert db.find_one("item", "item_id", 1)["stock"] == 5
        assert transactions.aborted_count == aborted + 1
        assert transactions.committed_count == committed
        assert not transactions.in_transaction()
        db.procedures.call("take_stock", item_id=1, amount=2)
        assert db.find_one("item", "item_id", 1)["stock"] == 3
        assert transactions.committed_count == committed + 1

    def test_failed_inner_scope_makes_a_bare_commit_roll_back(self, db):
        db.procedures.register(make_procedure())
        with db.write_locked():
            db.transactions.begin()
            with pytest.raises(ProcedureError):
                db.procedures.call("take_stock", item_id=1, amount=99)
            with pytest.raises(TransactionError):
                db.transactions.commit()
        assert not db.transactions.in_transaction()
        assert db.find_one("item", "item_id", 1)["stock"] == 5


def read_in_a_new_thread(database, read):
    """``read()`` under a snapshot pinned by a reader on a new thread."""
    out = []

    def reader():
        with database.read_locked():
            out.append(read())

    thread = threading.Thread(target=reader)
    thread.start()
    thread.join(timeout=30)
    assert not thread.is_alive()
    return out[0]


class TestInterruptedProcedures:
    """An interrupt or exit inside a writing procedure must not leave
    its transaction open: the next procedure would join it, and its
    writes would never commit."""

    @pytest.mark.parametrize("interrupt", [KeyboardInterrupt, SystemExit])
    def test_interrupt_rolls_back_and_the_next_booking_commits(
        self, movie_db, interrupt
    ):
        database, __ = movie_db
        transactions = database.transactions
        rid = database.table("reservation").row_ids()[0]
        doomed = database.table("reservation").get(rid)["reservation_id"]

        def delete_then_interrupt(db):
            db.delete("reservation", rid)
            raise interrupt()

        database.procedures.register(
            Procedure("delete_then_interrupt", [], delete_then_interrupt,
                      writes=("reservation",))
        )
        committed = transactions.committed_count
        aborted = transactions.aborted_count
        with pytest.raises(interrupt):
            database.procedures.call("delete_then_interrupt")
        assert not transactions.in_transaction()
        assert transactions.aborted_count == aborted + 1
        assert transactions.committed_count == committed
        assert read_in_a_new_thread(
            database,
            lambda: database.find_one("reservation", "reservation_id", doomed),
        ) is not None

        outcome = database.procedures.call(
            "ticket_reservation",
            customer_id=database.rows("customer")[0]["customer_id"],
            screening_id=database.rows("screening")[0]["screening_id"],
            ticket_amount=1,
        )
        booked = outcome.value["reservation_id"]
        assert transactions.committed_count == committed + 1
        assert not transactions.in_transaction()
        assert read_in_a_new_thread(
            database,
            lambda: database.find_one("reservation", "reservation_id", booked),
        ) is not None


class TestReadOnlyProcedures:
    def make_reader(self):
        return Procedure(
            name="check_stock",
            parameters=[
                Parameter("item_id", DataType.INTEGER,
                          references=("item", "item_id")),
            ],
            body=lambda database, item_id: database.find_one(
                "item", "item_id", item_id
            )["stock"],
            reads=("item",),
        )

    def test_read_only_call_does_not_bump_data_version(self, db):
        """Read-only calls must not invalidate the shared caches."""
        db.procedures.register(self.make_reader())
        before = db.data_version
        committed_before = db.transactions.committed_count
        result = db.procedures.call("check_stock", item_id=1)
        assert result.value == 5
        assert db.data_version == before
        assert db.transactions.committed_count == committed_before

    def test_read_only_calls_run_concurrently(self, db):
        """Two read-only bodies can be in flight at the same time."""
        import threading

        db.procedures.register(
            Procedure(
                name="paired_read",
                parameters=[],
                body=lambda database: barrier.wait(timeout=5),
                reads=("item",),
            )
        )
        barrier = threading.Barrier(2)
        errors = []

        def call():
            try:
                db.procedures.call("paired_read")
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=call) for __ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        # The barrier only releases when both bodies overlap; a write
        # lock would serialize them and time out.
        assert not errors

    def test_misdeclared_read_only_writer_is_rejected(self, db):
        db.procedures.register(
            Procedure(
                name="sneaky_write",
                parameters=[],
                body=lambda database: database.update(
                    "item",
                    database.table("item").lookup("item_id", 1)[0],
                    {"stock": 0},
                ),
                reads=("item",),
            )
        )
        with pytest.raises(ProcedureError, match="read-only"):
            db.procedures.call("sneaky_write")
        assert db.find_one("item", "item_id", 1)["stock"] == 5
