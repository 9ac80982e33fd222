"""Span tracing installed from the benchmark, around the program's layers.

The program has no spans of its own, so the traced run replaces the
public entry point of each layer with a wrapper that records a span
(layer, start, end, parent span, turn) on a stack.  Spans stay in memory
and are written out when the run ends.  A layer's self time is its span
durations minus the time its direct child spans cover, so the self times
of all layers add up to the traced turn time, with ``serving.runtime``
(the root span around ``AgentRuntime.respond``) keeping the remainder:
the agent glue and response rendering.

Where each layer is expected to show (the map later changes are judged
against; see README.md in this directory):

========================  ==============================================
layer                     expected end-to-end effect
========================  ==============================================
nlu.intent, nlu.slots     turn_gmean_ms, mainly on book_default
nlu.entity_linking        turn_p99_ms on browse_large,
                          turn_gmean_ms on book_default
dataaware.policies,       turn_gmean_ms and turn_p99_ms on browse_large,
dataaware.scoring         little on book_default
dataaware.caching         turn_p99_ms on book_default (rebuilds after
                          commits), turn_gmean_ms on browse_large (warm)
dataaware.candidates      turn_p99_ms on browse_large
agent.executor            turns_per_s on book_default
db.api                    a small share of every workload
========================  ==============================================
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

ROOT = "serving.runtime"

#: layer -> (module, class, method) entry points timed as that layer.
TURN_LAYERS: dict[str, tuple[tuple[str, str, str], ...]] = {
    ROOT: (("repro.serving.runtime", "AgentRuntime", "respond"),),
    "nlu.pipeline": (("repro.nlu.pipeline", "NLUPipeline", "parse"),),
    "nlu.intent": (("repro.nlu.intent", "IntentClassifier", "predict"),),
    "nlu.slots": (("repro.nlu.slots", "SlotTagger", "tag"),),
    "nlu.entity_linking": (
        ("repro.nlu.entity_linking", "EntityLinker", "link"),
    ),
    "dialogue.manager": (
        ("repro.dialogue.manager", "DialogueManager", "propose"),
    ),
    "dataaware.policies": (
        ("repro.dataaware.policies", "DataAwarePolicy", "next_attribute"),
    ),
    "dataaware.scoring": (
        ("repro.dataaware.scoring", "AttributeScorer", "rank"),
    ),
    "dataaware.caching": (
        ("repro.dataaware.caching", "AttributeValueCache", "full_map"),
    ),
    "dataaware.candidates": (
        ("repro.dataaware.candidates", "CandidateSet", "initial"),
        ("repro.dataaware.candidates", "CandidateSet", "refine"),
        ("repro.dataaware.candidates", "CandidateSet", "prune_missing"),
    ),
    "agent.executor": (
        ("repro.agent.executor", "TransactionExecutor", "execute"),
    ),
    "db.api": (
        ("repro.db.api", "PreparedStatement", "execute"),
        ("repro.db.api", "Connection", "execute"),
        ("repro.db.api", "Connection", "call"),
    ),
}

#: Result methods that drain a streaming cursor; timed as ``db.api``
#: but not counted as calls of their own.
_DRAIN = ("all", "fetchone", "fetchmany", "row_ids")

#: set-up metric -> (module, class, method) that ``synthesize_runtime``
#: calls on the way.
SETUP_LAYERS: dict[str, tuple[str, str, str]] = {
    "synthesis.generate_nlu_s": (
        "repro.synthesis.pipeline", "TrainingDataGenerator", "generate_nlu"),
    "synthesis.generate_flows_s": (
        "repro.synthesis.pipeline", "TrainingDataGenerator", "generate_flows"),
    "nlu.intent.fit_s": ("repro.nlu.intent", "IntentClassifier", "fit"),
    "nlu.slots.fit_s": ("repro.nlu.slots", "SlotTagger", "fit"),
    "dialogue.policy.fit_s": (
        "repro.dialogue.policy", "NextActionModel", "fit"),
    "agent.artifacts.build_s": (
        "repro.agent.artifacts", "AgentArtifacts", "build"),
}


def _owner(module: str, cls: str):
    return getattr(__import__(module, fromlist=[cls]), cls)


class _Patches:
    """Replaced class attributes, restored by :meth:`undo`."""

    def __init__(self) -> None:
        self._saved: list[tuple[type, str, object]] = []

    def replace(self, owner: type, name: str, make) -> None:
        raw = owner.__dict__[name]
        if isinstance(raw, classmethod):
            replacement = classmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        self._saved.append((owner, name, raw))
        setattr(owner, name, replacement)

    def undo(self) -> None:
        while self._saved:
            owner, name, raw = self._saved.pop()
            setattr(owner, name, raw)


class SetupTimer:
    """Seconds spent in each set-up step ``synthesize_runtime`` runs."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self._patches = _Patches()

    def install(self) -> None:
        for metric, (module, cls, method) in SETUP_LAYERS.items():
            self._patches.replace(
                _owner(module, cls), method,
                functools.partial(self._timed, metric),
            )

    def uninstall(self) -> None:
        self._patches.undo()

    def _timed(self, metric: str, func):
        seconds = self.seconds
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            begun = clock()
            try:
                return func(*args, **kwargs)
            finally:
                seconds[metric] += clock() - begun

        return wrapper


class Tracer:
    """Records one span per call into each turn layer."""

    def __init__(self) -> None:
        #: [layer, start, end, parent index, turn, counts as a call]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.turns = 0
        #: Per-call probes: summed inputs the layer was handed.
        self.linked_slots: dict[str, int] = defaultdict(int)
        self.candidates_in = 0
        self.policy_calls = 0
        self.attributes_ranked = 0
        self._patches = _Patches()

    # ------------------------------------------------------------------
    def install(self) -> None:
        probes = {
            "nlu.entity_linking": self._probe_link,
            "dataaware.policies": self._probe_policy,
            "dataaware.scoring": self._probe_rank,
        }
        for layer, entries in TURN_LAYERS.items():
            for module, cls, method in entries:
                self._patches.replace(
                    _owner(module, cls), method,
                    functools.partial(self._spanned, layer, probes.get(layer)),
                )
        result = _owner("repro.db.api", "Result")
        for method in _DRAIN:
            self._patches.replace(
                result, method,
                functools.partial(self._spanned, "db.api", None, call=False),
            )
        self._patches.replace(result, "__iter__", self._spanned_iter)

    def uninstall(self) -> None:
        self._patches.undo()

    # ------------------------------------------------------------------
    def _spanned(self, layer: str, probe, func, call: bool = True):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if probe is not None:
                probe(args)
            if stack:
                parent = stack[-1]
                turn = spans[parent][4]
            else:
                parent = -1
                turn = -1
                if layer == ROOT:
                    turn = tracer.turns
                    tracer.turns += 1
            index = len(spans)
            span = [layer, 0.0, 0.0, parent, turn, call]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                return func(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return wrapper

    def _spanned_iter(self, func):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(result):
            rows = func(result)
            while True:
                parent = stack[-1] if stack else -1
                turn = spans[parent][4] if stack else -1
                span = ["db.api", 0.0, 0.0, parent, turn, False]
                spans.append(span)
                span[1] = clock()
                try:
                    row = next(rows)
                except StopIteration:
                    return
                finally:
                    span[2] = clock()
                yield row

        return wrapper

    def _probe_link(self, args) -> None:
        self.linked_slots[args[1]] += 1

    def _probe_policy(self, args) -> None:
        self.policy_calls += 1
        self.candidates_in += len(args[1])

    def _probe_rank(self, args) -> None:
        self.attributes_ranked += len(args[2])

    # ------------------------------------------------------------------
    def layer_totals(self) -> tuple[dict[str, float], dict[str, int], float]:
        """Self seconds and calls per layer over traced turns, and the
        total traced turn time.  A span nested directly in a span of its
        own layer is not counted as another call."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for span in spans:
            parent = span[3]
            if parent >= 0:
                covered[parent] += span[2] - span[1]
        self_time: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        turn_time = 0.0
        for index, span in enumerate(spans):
            if span[4] < 0:
                continue
            layer = span[0]
            duration = span[2] - span[1]
            self_time[layer] += duration - covered[index]
            parent = span[3]
            if parent < 0:
                turn_time += duration
            if span[5] and (parent < 0 or spans[parent][0] != layer):
                calls[layer] += 1
        return self_time, calls, turn_time

    def write(self, path: str) -> None:
        """Spans as tab-separated lines: layer, start, end, parent, turn."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("layer\tstart\tend\tparent\tturn\n")
            for layer, start, end, parent, turn, __ in self.spans:
                out.write(f"{layer}\t{start:.9f}\t{end:.9f}\t{parent}\t{turn}\n")
