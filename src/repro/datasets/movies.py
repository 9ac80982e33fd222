"""Synthetic cinema database: the paper's running example and demo domain.

Generates the schema of Figure 3 (movie / screening / customer /
reservation) extended with the entities Section 4 needs for join-aware
slot selection (actors via a junction table, plus configurable extra
dimension tables such as language or studio hanging off ``movie``), three
stored procedures (``ticket_reservation``, ``cancel_reservation``,
``list_screenings``) and the default schema annotations a developer would
enter in CAT's GUI.

Everything is deterministic under ``MovieConfig.seed``.  The config also
exposes the knobs the evaluation sweeps: table sizes, number of joinable
dimensions, value skew, and a near-duplicate fraction (the paper's
"systematic problems in uniquely identifying entries ... caused by data
characteristics like almost identical entries").
"""

from __future__ import annotations

import datetime as _dt
import random
from dataclasses import dataclass

from repro.annotation import SchemaAnnotations
from repro.datasets import lexicons
from repro.db import (
    Column,
    Database,
    DatabaseSchema,
    DataType,
    ForeignKey,
    Parameter,
    Procedure,
    TableSchema,
)
from repro.errors import ProcedureError

__all__ = [
    "MovieConfig",
    "build_movie_database",
    "annotate_movie_schema",
    "restore_movie_database",
]

# Dimension tables that can be attached to ``movie`` for the join sweeps.
_DIMENSIONS = [
    ("language", ["english", "german", "french", "spanish", "italian",
                  "japanese", "korean", "swedish"]),
    ("country", ["usa", "germany", "france", "uk", "italy", "japan",
                 "canada", "spain"]),
    ("studio", ["Silverlight Pictures", "Northgate Films", "Bluebird Studio",
                "Cascade Entertainment", "Ironwood Productions",
                "Lantern House", "Meridian Films", "Pinnacle Arts"]),
    ("distributor", ["CineWorld Dist", "StarReach Media", "Atlas Releasing",
                     "Horizon Distribution", "Vista Films",
                     "Summit Circulation"]),
    ("age_rating", ["G", "PG", "PG-13", "R", "NC-17"]),
    ("film_format", ["35mm", "70mm", "digital 2k", "digital 4k", "imax"]),
    ("sound_system", ["stereo", "dolby digital", "dolby atmos", "dts",
                      "auro 3d"]),
    ("franchise", ["standalone", "trilogy part", "saga entry",
                   "anthology", "reboot", "sequel"]),
]


@dataclass(frozen=True)
class MovieConfig:
    """Size and shape knobs for the synthetic cinema database."""

    seed: int = 7
    n_customers: int = 200
    n_movies: int = 40
    n_actors: int = 60
    actors_per_movie: int = 3
    n_screenings: int = 120
    n_reservations: int = 80
    n_rooms: int = 5
    n_days: int = 14
    extra_dimensions: int = 2
    start_date: _dt.date = _dt.date(2022, 3, 26)
    duplicate_customer_fraction: float = 0.0
    genre_skew: float = 0.0

    def __post_init__(self) -> None:
        if not 0 <= self.extra_dimensions <= len(_DIMENSIONS):
            raise ValueError(
                f"extra_dimensions must be in [0, {len(_DIMENSIONS)}]"
            )
        if not 0.0 <= self.duplicate_customer_fraction <= 1.0:
            raise ValueError("duplicate_customer_fraction must be in [0, 1]")


def _movie_schema(config: MovieConfig) -> DatabaseSchema:
    dims = _DIMENSIONS[: config.extra_dimensions]
    movie_columns = [
        Column("movie_id", DataType.INTEGER),
        Column("title", DataType.TEXT, nullable=False),
        Column("genre", DataType.TEXT),
        Column("year", DataType.INTEGER),
        Column("duration_minutes", DataType.INTEGER),
    ]
    movie_fks = []
    for dim_name, __ in dims:
        movie_columns.append(Column(f"{dim_name}_id", DataType.INTEGER))
        movie_fks.append(ForeignKey(f"{dim_name}_id", dim_name, f"{dim_name}_id"))

    tables = [
        TableSchema(
            "movie", movie_columns, primary_key="movie_id", foreign_keys=movie_fks
        ),
        TableSchema(
            "actor",
            [
                Column("actor_id", DataType.INTEGER),
                Column("name", DataType.TEXT, nullable=False),
            ],
            primary_key="actor_id",
        ),
        TableSchema(
            "movie_actor",
            [
                Column("movie_actor_id", DataType.INTEGER),
                Column("movie_id", DataType.INTEGER, nullable=False),
                Column("actor_id", DataType.INTEGER, nullable=False),
            ],
            primary_key="movie_actor_id",
            foreign_keys=[
                ForeignKey("movie_id", "movie", "movie_id"),
                ForeignKey("actor_id", "actor", "actor_id"),
            ],
        ),
        TableSchema(
            "customer",
            [
                Column("customer_id", DataType.INTEGER),
                Column("first_name", DataType.TEXT, nullable=False),
                Column("last_name", DataType.TEXT, nullable=False),
                Column("city", DataType.TEXT),
                Column("street", DataType.TEXT),
                Column("email", DataType.TEXT, unique=True),
                Column("birth_year", DataType.INTEGER),
            ],
            primary_key="customer_id",
        ),
        TableSchema(
            "screening",
            [
                Column("screening_id", DataType.INTEGER),
                Column("movie_id", DataType.INTEGER, nullable=False),
                Column("date", DataType.DATE, nullable=False),
                Column("start_time", DataType.TIME, nullable=False),
                Column("room", DataType.TEXT),
                Column("price", DataType.FLOAT),
                Column("capacity", DataType.INTEGER, nullable=False),
            ],
            primary_key="screening_id",
            foreign_keys=[ForeignKey("movie_id", "movie", "movie_id")],
        ),
        TableSchema(
            "reservation",
            [
                Column("reservation_id", DataType.INTEGER),
                Column("customer_id", DataType.INTEGER, nullable=False),
                Column("screening_id", DataType.INTEGER, nullable=False),
                Column("no_tickets", DataType.INTEGER, nullable=False),
            ],
            primary_key="reservation_id",
            foreign_keys=[
                ForeignKey("customer_id", "customer", "customer_id"),
                ForeignKey("screening_id", "screening", "screening_id"),
            ],
        ),
    ]
    for dim_name, __ in dims:
        tables.append(
            TableSchema(
                dim_name,
                [
                    Column(f"{dim_name}_id", DataType.INTEGER),
                    Column("name", DataType.TEXT, nullable=False),
                ],
                primary_key=f"{dim_name}_id",
            )
        )
    return DatabaseSchema(tables)


def _skewed_choice(rng: random.Random, items: list, skew: float):
    """Pick from ``items`` with Zipf-like skew; ``skew=0`` is uniform."""
    if skew <= 0.0:
        return rng.choice(items)
    weights = [1.0 / (rank + 1) ** skew for rank in range(len(items))]
    return rng.choices(items, weights=weights, k=1)[0]


def _populate(database: Database, config: MovieConfig) -> None:
    rng = random.Random(config.seed)
    dims = _DIMENSIONS[: config.extra_dimensions]

    for dim_name, values in dims:
        for i, value in enumerate(values, start=1):
            database.insert(dim_name, {f"{dim_name}_id": i, "name": value})

    generated = [
        f"The {adjective} {noun}"
        for adjective in lexicons.TITLE_ADJECTIVES
        for noun in lexicons.TITLE_NOUNS
    ]
    rng.shuffle(generated)
    # Classic titles first so the demo's "Forrest Gump" always exists.
    titles: list[str] = list(lexicons.CLASSIC_TITLES) + generated

    for movie_id in range(1, config.n_movies + 1):
        row = {
            "movie_id": movie_id,
            "title": titles[(movie_id - 1) % len(titles)],
            "genre": _skewed_choice(rng, lexicons.GENRES, config.genre_skew),
            "year": rng.randint(1960, 2022),
            "duration_minutes": rng.randint(80, 180),
        }
        for dim_name, values in dims:
            row[f"{dim_name}_id"] = rng.randint(1, len(values))
        database.insert("movie", row)

    actor_names = [
        f"{first} {last}"
        for first in lexicons.ACTOR_FIRST
        for last in lexicons.ACTOR_LAST
    ]
    rng.shuffle(actor_names)
    n_actors = min(config.n_actors, len(actor_names))
    for actor_id in range(1, n_actors + 1):
        database.insert(
            "actor", {"actor_id": actor_id, "name": actor_names[actor_id - 1]}
        )

    movie_actor_id = 1
    for movie_id in range(1, config.n_movies + 1):
        cast = rng.sample(range(1, n_actors + 1),
                          min(config.actors_per_movie, n_actors))
        for actor_id in cast:
            database.insert(
                "movie_actor",
                {
                    "movie_actor_id": movie_actor_id,
                    "movie_id": movie_id,
                    "actor_id": actor_id,
                },
            )
            movie_actor_id += 1

    _populate_customers(database, config, rng)

    rooms = [f"room {chr(ord('A') + i)}" for i in range(config.n_rooms)]
    times = [_dt.time(hour, minute) for hour in (14, 17, 20, 22)
             for minute in (0, 30)]
    for screening_id in range(1, config.n_screenings + 1):
        database.insert(
            "screening",
            {
                "screening_id": screening_id,
                "movie_id": rng.randint(1, config.n_movies),
                "date": config.start_date
                + _dt.timedelta(days=rng.randrange(config.n_days)),
                "start_time": rng.choice(times),
                "room": rng.choice(rooms),
                "price": round(rng.uniform(7.0, 16.0) * 2) / 2,
                "capacity": rng.choice((40, 60, 80, 120)),
            },
        )

    for reservation_id in range(1, config.n_reservations + 1):
        database.insert(
            "reservation",
            {
                "reservation_id": reservation_id,
                "customer_id": rng.randint(1, config.n_customers),
                "screening_id": rng.randint(1, config.n_screenings),
                "no_tickets": rng.randint(1, 6),
            },
        )


def _populate_customers(
    database: Database, config: MovieConfig, rng: random.Random
) -> None:
    """Customers, optionally with near-duplicate 'family' clusters.

    Near-duplicates share last name, city and street and differ only in
    first name / birth year — the hard-to-identify entries of Section 4.
    """
    n_duplicates = int(config.n_customers * config.duplicate_customer_fraction)
    customer_id = 1
    while customer_id <= config.n_customers:
        last = rng.choice(lexicons.LAST_NAMES)
        city = rng.choice(lexicons.CITIES)
        street = rng.choice(lexicons.STREETS)
        cluster = 1
        if n_duplicates > 0:
            cluster = min(rng.randint(2, 4), config.n_customers - customer_id + 1)
            n_duplicates -= cluster
        for __ in range(cluster):
            if customer_id > config.n_customers:
                break
            first = rng.choice(lexicons.FIRST_NAMES)
            database.insert(
                "customer",
                {
                    "customer_id": customer_id,
                    "first_name": first,
                    "last_name": last,
                    "city": city,
                    "street": street,
                    "email": f"{first.lower()}.{last.lower()}.{customer_id}"
                    f"@{rng.choice(lexicons.EMAIL_DOMAINS)}",
                    "birth_year": rng.randint(1950, 2004),
                },
            )
            customer_id += 1


# ---------------------------------------------------------------------------
# Stored procedures (the paper's OLTP workload)
# ---------------------------------------------------------------------------

def _ticket_reservation(
    database: Database, customer_id: int, screening_id: int, ticket_amount: int
) -> dict:
    if ticket_amount <= 0:
        raise ProcedureError("ticket_amount must be positive")
    screening = database.find_one("screening", "screening_id", screening_id)
    if screening is None:
        raise ProcedureError(f"no screening with id {screening_id}")
    # The booked-seats aggregate runs through a prepared statement
    # pooled on the shared connection: one compilation serves every
    # reservation this database ever processes.
    from repro.db import api
    from repro.db.aggregation import sum_
    from repro.db.query import eq

    statement = database.default_connection.prepare_cached(
        ("movies.booked_seats",),
        lambda: api.aggregate("reservation", booked=sum_("no_tickets"))
        .where(eq("screening_id", api.Param("screening_id"))),
    )
    booked = statement.execute(screening_id=screening_id).scalar()
    if booked + ticket_amount > screening["capacity"]:
        raise ProcedureError(
            f"screening {screening_id} has only "
            f"{screening['capacity'] - booked} seats left"
        )
    existing = database.table("reservation").column_values("reservation_id")
    reservation_id = max(existing, default=0) + 1
    database.insert(
        "reservation",
        {
            "reservation_id": reservation_id,
            "customer_id": customer_id,
            "screening_id": screening_id,
            "no_tickets": ticket_amount,
        },
    )
    return {"reservation_id": reservation_id, "no_tickets": ticket_amount}


def _cancel_reservation(database: Database, reservation_id: int) -> dict:
    table = database.table("reservation")
    matches = table.lookup("reservation_id", reservation_id)
    if not matches:
        raise ProcedureError(f"no reservation with id {reservation_id}")
    row = table.get(matches[0])
    database.delete("reservation", matches[0])
    return {"cancelled": reservation_id, "no_tickets": row["no_tickets"]}


def _list_screenings(database: Database, movie_id: int) -> list[dict]:
    from repro.db import api
    from repro.db.query import eq

    statement = database.default_connection.prepare_cached(
        ("movies.list_screenings",),
        lambda: api.select("screening").where(
            eq("movie_id", api.Param("movie_id"))
        ),
    )
    return statement.execute(movie_id=movie_id).all()


def _register_procedures(database: Database) -> None:
    database.procedures.register(
        Procedure(
            name="ticket_reservation",
            parameters=[
                Parameter("customer_id", DataType.INTEGER,
                          references=("customer", "customer_id")),
                Parameter("screening_id", DataType.INTEGER,
                          references=("screening", "screening_id")),
                Parameter("ticket_amount", DataType.INTEGER),
            ],
            body=_ticket_reservation,
            description="reserve tickets for a screening",
            reads=("screening", "reservation"),
            writes=("reservation",),
        )
    )
    database.procedures.register(
        Procedure(
            name="cancel_reservation",
            parameters=[
                Parameter("reservation_id", DataType.INTEGER,
                          references=("reservation", "reservation_id")),
            ],
            body=_cancel_reservation,
            description="cancel an existing reservation",
            reads=("reservation",),
            writes=("reservation",),
        )
    )
    database.procedures.register(
        Procedure(
            name="list_screenings",
            parameters=[
                Parameter("movie_id", DataType.INTEGER,
                          references=("movie", "movie_id")),
            ],
            body=_list_screenings,
            description="list screenings of a movie",
            reads=("screening",),
            writes=(),
        )
    )


def annotate_movie_schema(database: Database) -> SchemaAnnotations:
    """The annotations a developer would enter in CAT's GUI (Figure 4)."""
    annotations = SchemaAnnotations(database)
    annotations.annotate("movie", "title", awareness_prior=0.9,
                         display_name="movie title")
    annotations.annotate("movie", "genre", awareness_prior=0.8)
    annotations.annotate("movie", "year", awareness_prior=0.35,
                         display_name="release year")
    annotations.annotate("movie", "duration_minutes", awareness_prior=0.1,
                         display_name="duration in minutes")
    annotations.annotate("actor", "name", awareness_prior=0.6,
                         display_name="actor name")
    annotations.annotate("screening", "date", awareness_prior=0.85)
    annotations.annotate("screening", "start_time", awareness_prior=0.7,
                         display_name="start time")
    annotations.annotate("screening", "room", awareness_prior=0.15)
    annotations.annotate("screening", "price", awareness_prior=0.2,
                         display_name="ticket price")
    annotations.annotate("screening", "capacity", never_ask=True)
    annotations.annotate("customer", "first_name", awareness_prior=0.98,
                         display_name="first name")
    annotations.annotate("customer", "last_name", awareness_prior=0.98,
                         display_name="last name")
    annotations.annotate("customer", "city", awareness_prior=0.95)
    annotations.annotate("customer", "street", awareness_prior=0.9)
    annotations.annotate("customer", "email", awareness_prior=0.45,
                         display_name="email address")
    annotations.annotate("customer", "birth_year", awareness_prior=0.9,
                         display_name="year of birth")
    annotations.annotate("reservation", "no_tickets", awareness_prior=0.8,
                         display_name="number of tickets")
    # movie_actor is a pure junction table: nothing askable on it.
    annotations.annotate("movie_actor", "movie_actor_id", never_ask=True)
    for dim_name, __ in _DIMENSIONS:
        if dim_name in database.schema.table_names:
            annotations.annotate(dim_name, "name", awareness_prior=0.3,
                                 display_name=dim_name.replace("_", " "))
    return annotations


def _create_secondary_indexes(database: Database) -> None:
    """Hash indexes on the FK columns the procedures and join paths
    probe, plus the low-cardinality categorical columns whose value
    pools group by their index buckets."""
    for table, column in [
        ("screening", "movie_id"),
        ("reservation", "screening_id"),
        ("reservation", "customer_id"),
        ("movie_actor", "movie_id"),
        ("movie_actor", "actor_id"),
        ("movie", "genre"),
        ("screening", "room"),
    ]:
        database.create_index(table, column)


def build_movie_database(
    config: MovieConfig | None = None,
) -> tuple[Database, SchemaAnnotations]:
    """Build and populate the cinema database; returns (db, annotations)."""
    config = config or MovieConfig()
    database = Database(_movie_schema(config))
    _populate(database, config)
    _create_secondary_indexes(database)
    _register_procedures(database)
    return database, annotate_movie_schema(database)


def restore_movie_database(path: str) -> tuple[Database, SchemaAnnotations]:
    """Rebuild the cinema database from a snapshot.

    ``path`` is either a snapshot *file* (format v3 or v4) or an
    incremental snapshot *directory* (v4 base image + delta log, see
    :func:`repro.db.persistence.load_incremental`) — the directory
    form restores by replaying only the commits since the base was
    written, which is how ``serve --workers N`` brings spawn-style
    workers up in seconds.  The code-level pieces a replica also needs
    — stored procedures and the schema annotations — are reattached
    here (fork-style workers inherit the parent's database instead).
    """
    import os

    from repro.db.persistence import load_database, load_incremental

    if os.path.isdir(path):
        database = load_incremental(path)
    else:
        database = load_database(path)
    _register_procedures(database)
    return database, annotate_movie_schema(database)
