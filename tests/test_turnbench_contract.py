"""The turn benchmark's reach into the program.

A traced run (``turnbench/run.py --trace 1``) replaces the methods that
``turnbench/tracing.py`` names with timing wrappers, and reads counters
from the runtime in ``turnbench/run.py::_counters``.  Renaming or
deleting any of them in ``src/`` makes every traced run fail at set-up;
these tests make tier-1 fail instead.  They load ``turnbench/`` from the
repository and change nothing there.
"""

import collections.abc
import importlib.util
import pathlib
import sys

from repro.db import select
from repro.serving import AgentRuntime

TURNBENCH = pathlib.Path(__file__).resolve().parents[1] / "turnbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"_turnbench_{name}", TURNBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    # Dataclasses look their defining module up while it executes.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
run = _load("run")


def _patched_methods():
    """Every ``(module, class, method)`` a traced run replaces."""
    for entries in tracing.TURN_LAYERS.values():
        yield from entries
    yield from tracing.SETUP_LAYERS.values()
    for method in (*tracing._DRAIN, "__iter__"):
        yield "repro.db.api", "Result", method


def test_every_patched_method_resolves():
    unresolved = []
    for module, cls, method in _patched_methods():
        try:
            # As ``_Patches.replace`` reads it: defined on the class itself.
            tracing._owner(module, cls).__dict__[method]
        except (ImportError, AttributeError, KeyError) as exc:
            unresolved.append((module, cls, method, repr(exc)))
    assert unresolved == []


def test_counters_of_traced_runs_exist(trained_agent):
    __, agent = trained_agent
    runtime = AgentRuntime.for_agent(agent)
    stats = runtime.stats()
    cache = runtime.artifacts.value_cache
    for value in (stats.plan_cache_hits, stats.plan_cache_misses,
                  stats.transactions_committed, cache.hits, cache.misses):
        assert isinstance(value, int)
    assert all(isinstance(n, int) for n in run._counters(runtime).values())


def test_result_reads_keep_the_tracer_contract(trained_agent):
    """A traced run wraps each drain, and calls ``next()`` on what
    ``Result.__iter__`` returns: a list there would fail every traced
    run while the suite stayed green."""
    __, agent = trained_agent
    connection = AgentRuntime.for_agent(agent).database.connect()
    statement = select("screening")
    rows = connection.execute(statement).all()
    assert len(rows) > 1
    iterator = connection.execute(statement).__iter__()
    assert isinstance(iterator, collections.abc.Iterator)
    assert list(iterator) == rows
    ids = connection.execute(statement).row_ids()
    expected = {
        "all": rows,
        "fetchone": rows[0],
        "fetchmany": rows[:2],
        "row_ids": ids,
        "__iter__": rows,
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        read = {
            method: getattr(connection.execute(statement), method)(
                *((2,) if method == "fetchmany" else ())
            )
            for method in tracing._DRAIN
        }
        read["__iter__"] = list(connection.execute(statement))
    finally:
        tracer.uninstall()
    assert set(tracing._DRAIN) <= set(expected)
    assert read == expected
    assert {span[0] for span in tracer.spans} == {"db.api"}
