"""Outside-in span tracing for the benchmark's traced runs.

The benchmark never instruments ``src/repro``.  Instead, a traced unit
swaps the public entry point of each layer for a timing wrapper for
the length of the unit (:meth:`SpanRecorder.patched`) and restores the
originals afterwards.  Each wrapped call records one span: ``(name,
start, end, parent)`` kept in flat ``array`` columns, so a per-packet
layer costs a few appends rather than an object per call.  Recording
is switched on only inside the timed region; set-up and warm-up run
through the wrappers with recording off.

A layer's *self* time is its spans' durations minus the part covered
by their child spans (calls are strictly nested: the simulator is
single-threaded).
"""

from __future__ import annotations

import gc
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from repro.core.gigaflow import GigaflowCache
from repro.net.fabric import FabricController
from repro.pipeline.pipeline import Pipeline
from repro.serve import ServingDriver
from repro.sim.churn import ChurnRuntime
from repro.sim.engine import GigaflowSystem
from repro.sim.fastpath import FastPathIndex
from repro.sim.results import SimResult

#: ``(owner class, attribute, span name)`` for every wrapped entry point.
ENTRY_POINTS = (
    (Pipeline, "execute", "pipeline.execute"),
    (GigaflowSystem, "install", "install"),
    (GigaflowCache, "lookup_traced", "cache.lookup"),
    (GigaflowCache, "evict_idle", "evict.idle"),
    (FastPathIndex, "lookup", "fastpath.lookup"),
    (ChurnRuntime, "advance", "churn.advance"),
    (ServingDriver, "process", "serve.process"),
    (FabricController, "path_for", "net.path_for"),
    (SimResult, "merge", "net.merge"),
)
#: Spans whose integer return values are summed (idle sweeps return
#: the number of rules they expired).
TALLIED = frozenset({"evict.idle"})

#: The timed region's root span.
ROOT = "sim.loop"
#: Span name of the timed partitioner handed to ``GigaflowSystem``.
PARTITION = "partition"


class SpanRecorder:
    """Spans of one traced unit, plus host GC pauses inside it."""

    def __init__(self):
        self.names = []
        self._codes = {}
        self.active = False
        self.reset()

    def reset(self) -> None:
        self.code = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.tallies = dict.fromkeys(TALLIED, 0)
        self.gc_collections = 0
        self.gc_pause_s = 0.0
        self._gc_started = 0.0

    def _intern(self, name: str) -> int:
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(self.names)
            self.names.append(name)
        return code

    def wrap(self, name: str, fn):
        """``fn`` with one span per call while recording is active."""
        code = self._intern(name)
        recorder = self
        tallied = name in TALLIED

        def traced(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            codes = recorder.code
            index = len(codes)
            codes.append(code)
            recorder.parent.append(recorder._stack[-1])
            ends = recorder.end
            ends.append(0.0)
            recorder._stack.append(index)
            recorder.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                recorder._stack.pop()
            if tallied:
                recorder.tallies[name] += result
            return result

        return traced

    def _on_gc(self, phase, _info) -> None:
        if phase == "start":
            self._gc_started = perf_counter()
        else:
            self.gc_collections += 1
            self.gc_pause_s += perf_counter() - self._gc_started

    @contextmanager
    def patched(self):
        """Swap every :data:`ENTRY_POINTS` method for its wrapper."""
        saved = []
        for owner, attr, name in ENTRY_POINTS:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            if isinstance(original, staticmethod):
                wrapped = staticmethod(self.wrap(name, original.__func__))
            else:
                wrapped = self.wrap(name, original)
            setattr(owner, attr, wrapped)
        try:
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def timed(self, body):
        """Run ``body()`` as the root span; returns its result."""
        self.reset()
        root = self.wrap(ROOT, body)
        gc.callbacks.append(self._on_gc)
        self.active = True
        try:
            return root()
        finally:
            self.active = False
            gc.callbacks.remove(self._on_gc)

    def ledger(self) -> dict:
        """``{name: (calls, inclusive_s, self_s)}`` over recorded spans."""
        n = len(self.code)
        if n == 0:
            return {}
        codes = np.frombuffer(self.code, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int64)
        durations = (
            np.frombuffer(self.end, dtype=np.float64)
            - np.frombuffer(self.start, dtype=np.float64)
        )
        nested = parents >= 0
        covered = np.bincount(
            parents[nested], weights=durations[nested], minlength=n
        )
        own = durations - covered
        width = len(self.names)
        calls = np.bincount(codes, minlength=width)
        inclusive = np.bincount(codes, weights=durations, minlength=width)
        self_s = np.bincount(codes, weights=own, minlength=width)
        return {
            name: (int(calls[i]), float(inclusive[i]), float(self_s[i]))
            for i, name in enumerate(self.names)
            if calls[i]
        }

    def save(self, path: str) -> None:
        """Write the recorded spans (one row per call) to ``path``."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.code, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )

