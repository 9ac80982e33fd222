"""Fixtures for the database tests."""

from __future__ import annotations

import pytest


@pytest.fixture()
def closing_log():
    """``closing_log(database)`` returns ``database`` and, when the test
    ends, closes the delta log attached to it by then, if any."""
    databases = []

    def register(database):
        databases.append(database)
        return database

    yield register
    for database in databases:
        if database.delta_log is not None:
            database.delta_log.close()
