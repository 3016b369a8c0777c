"""Span recorder and layer wrappers for the traced benchmark run.

Tracing is installed from outside the program: :func:`install` swaps
the public boundary methods of each layer for thin wrappers that open a
span around the original call, and :func:`uninstall` puts the originals
back.  With tracing off nothing is installed, so the untraced runs
execute the program's own functions untouched.

A span is ``(id, name, start, end, parent_id, thread_id)``.  Spans are
kept in memory, one list per thread (the service runs engine calls on
executor threads), and reduced to per-layer metrics when the run ends.
A layer's self time is its span's duration minus the durations of its
direct children; children nest strictly inside their parent on the same
thread, so the subtraction never double-counts.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
import weakref
from collections import defaultdict

#: Public boundaries wrapped in the traced run: (module, owner, attribute,
#: span name).  Per-element kernels (``mulmod_vec``, ``powmod_vec``) are
#: deliberately absent: they run ~10^5 times per turnstile run and a
#: wrapper there would measure itself.
BOUNDARIES = (
    ("repro.engine.core", "StreamEngine", "run", "engine.run"),
    ("repro.engine.sharded", "ShardedRunner", "run", "engine.sharded.run"),
    ("repro.engine.estimators", "RoundAdaptiveEstimator", "begin_pass", "fgp.begin_pass"),
    ("repro.engine.estimators", "RoundAdaptiveEstimator", "ingest_batch", "fgp.ingest_batch"),
    ("repro.engine.estimators", "RoundAdaptiveEstimator", "end_pass", "fgp.end_pass"),
    ("repro.engine.estimators", "RoundAdaptiveEstimator", "merge", "fgp.merge"),
    ("repro.transform.insertion", "InsertionStreamOracle", "begin_batch", "transform.begin_batch"),
    ("repro.transform.turnstile", "TurnstileStreamOracle", "begin_batch", "transform.begin_batch"),
    ("repro.transform.insertion", "InsertionPassState", "ingest_batch", "transform.ingest"),
    ("repro.transform.turnstile", "TurnstilePassState", "ingest_batch", "transform.ingest"),
    ("repro.transform.insertion", "InsertionPassState", "finish", "transform.finish"),
    ("repro.transform.turnstile", "TurnstilePassState", "finish", "transform.finish"),
    ("repro.sketch.l0", "L0Sampler", "update_many_arrays", "sketch.l0.update"),
    ("repro.sketch.reservoir", "SkipAheadReservoirBank", "offer_many", "sketch.reservoir.offer"),
    ("repro.engine.live", "LiveEngine", "feed", "engine.live.feed"),
    ("repro.engine.live", "LiveEngine", "estimate", "engine.live.estimate"),
    ("repro.engine.live", "LiveEngine", "snapshot", "engine.live.snapshot"),
    ("repro.service.registry", "StreamRegistry", "feed", "service.feed"),
    ("repro.service.registry", "StreamRegistry", "estimate", "service.estimate"),
    ("repro.service.registry", "StreamRegistry", "checkpoint", "service.checkpoint"),
)


class Recorder:
    """Thread-aware in-memory span and counter store."""

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []  # one (stack, spans, counters) per thread seen
        #: Every L0 sampler updated at least once, held weakly.
        self.samplers = weakref.WeakSet()
        self.sampler_count = 0
        #: Batch-cache meters summed over every pass read.
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_peak_bytes = 0
        #: Per-tenant registry calls: (tenant, seq, op, seconds).
        self.registry_calls = []
        self._seq = defaultdict(int)

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = ([], [], defaultdict(float))  # stack, spans, counters
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    def open(self, name: str):
        stack, _, _ = self._state()
        span = [next(self._ids), name, time.perf_counter(), 0.0,
                stack[-1][0] if stack else 0, threading.get_ident()]
        stack.append(span)
        return span

    def close(self, span) -> float:
        span[3] = time.perf_counter()
        stack, spans, _ = self._state()
        stack.pop()
        spans.append(tuple(span))
        return span[3] - span[2]

    def count(self, name: str, amount: float = 1) -> None:
        self._state()[2][name] += amount

    def next_seq(self, tenant: str) -> int:
        with self._lock:
            self._seq[tenant] += 1
            return self._seq[tenant]

    def spans(self):
        with self._lock:
            return [span for state in self._threads for span in state[1]]

    def counters(self):
        total = defaultdict(float)
        with self._lock:
            for state in self._threads:
                for name, value in state[2].items():
                    total[name] += value
        return total


def _count_run(recorder, engine, args, report):
    recorder.count("engine.dispatches", report.dispatches)
    recorder.count("engine.sharded.merge_s", report.merge_seconds)  # 0.0 unsharded


def _count_sampler(recorder, sampler, args, result):
    if sampler not in recorder.samplers:
        recorder.samplers.add(sampler)
        recorder.sampler_count += 1


def _count_snapshot(recorder, engine, args, written):
    recorder.count("service.checkpoint_bytes", os.path.getsize(written))


def _count_feed(recorder, engine, args, fed):
    recorder.count("engine.live.journal_elements", fed)


def _count_estimate(recorder, engine, args, results):
    for result in results.values():
        recorder.count("fgp.successes", result.successes)
        recorder.count("fgp.trials", result.trials)


#: Counts read off a wrapped call's receiver, arguments or result.
AFTER = {
    "engine.run": _count_run,
    "engine.sharded.run": _count_run,
    "sketch.l0.update": _count_sampler,
    "engine.live.snapshot": _count_snapshot,
    "engine.live.feed": _count_feed,
    "engine.live.estimate": _count_estimate,
}


def _wrap(recorder, original, name):
    after = AFTER.get(name)
    registry_op = name.split(".", 1)[1] if name.startswith("service.") else None

    def wrapper(self, *args, **kwargs):
        span = recorder.open(name)
        try:
            result = original(self, *args, **kwargs)
        finally:
            seconds = recorder.close(span)
        if after is not None:
            after(recorder, self, args, result)
        if registry_op is not None:
            # A tenant's writer serializes its calls, so the completion
            # order numbers them exactly as the client sent them.
            tenant = args[0]
            recorder.registry_calls.append(
                (tenant, recorder.next_seq(tenant), registry_op, seconds)
            )
        return result

    wrapper.__wrapped__ = original
    return wrapper


def _batches_wrapper(recorder, original):
    """Time every ``next()`` of a pass iterator; meter its batch cache."""

    def batches(self, *args, **kwargs):
        iterator = original(self, *args, **kwargs)
        policy = self.cache_policy
        hits, misses = policy.hits, policy.misses

        def timed():
            while True:
                span = recorder.open("streams.next")
                try:
                    batch = next(iterator)
                except StopIteration:
                    recorder.close(span)
                    break
                recorder.close(span)
                recorder.count("streams.batches")
                yield batch
            recorder.cache_hits += policy.hits - hits
            recorder.cache_misses += policy.misses - misses
            recorder.cache_peak_bytes = max(
                recorder.cache_peak_bytes, policy.peak_resident_bytes
            )

        return timed()

    batches.__wrapped__ = original
    return batches


def install(recorder: Recorder):
    """Wrap every boundary in :data:`BOUNDARIES`; returns the undo list."""
    import importlib

    from repro.streams.stream import CachedBatchStream

    undo = [(CachedBatchStream, "batches", CachedBatchStream.batches)]
    CachedBatchStream.batches = _batches_wrapper(recorder, CachedBatchStream.batches)
    for module, owner, attribute, name in BOUNDARIES:
        cls = getattr(importlib.import_module(module), owner)
        original = cls.__dict__[attribute]
        undo.append((cls, attribute, original))
        setattr(cls, attribute, _wrap(recorder, original, name))
    return undo


def uninstall(undo) -> None:
    for cls, attribute, original in reversed(undo):
        setattr(cls, attribute, original)


def span_totals(spans):
    """``{name: (total seconds, self seconds, calls)}`` over *spans*."""
    child_time = defaultdict(float)
    for span in spans:
        if span[4]:
            child_time[span[4]] += span[3] - span[2]
    totals = defaultdict(lambda: [0.0, 0.0, 0])
    for span in spans:
        duration = span[3] - span[2]
        entry = totals[span[1]]
        entry[0] += duration
        entry[1] += duration - child_time.get(span[0], 0.0)
        entry[2] += 1
    return {name: tuple(entry) for name, entry in totals.items()}


def _build_seconds(spans):
    """Seconds from each ``workload.call`` span to its first ``begin_pass``."""
    calls = [span for span in spans if span[1] == "workload.call"]
    begins = sorted(span[2] for span in spans if span[1] == "fgp.begin_pass")
    total = 0.0
    for call in calls:
        first = next((start for start in begins if start >= call[2]), None)
        if first is not None and first <= call[3]:
            total += first - call[2]
    return total


def layer_metrics(spans, counters, samplers: int, cache) -> dict:
    """The span- and counter-derived per-layer metrics (sums over *spans*)."""
    totals = span_totals(spans)

    def total(name):
        return totals.get(name, (0.0, 0.0, 0))[0]

    def self_time(name):
        return totals.get(name, (0.0, 0.0, 0))[1]

    def calls(name):
        return totals.get(name, (0.0, 0.0, 0))[2]

    hits, misses, peak = cache
    return {
        "streams.next_s": total("streams.next"),
        "streams.batches": counters.get("streams.batches", 0),
        "streams.cache_hit_frac": hits / (hits + misses) if hits + misses else 0.0,
        "streams.peak_resident_bytes": peak,
        "engine.self_s": self_time("engine.run") + self_time("engine.sharded.run"),
        "engine.dispatches": counters.get("engine.dispatches", 0),
        "engine.build_s": _build_seconds(spans),
        "fgp.begin_pass_self_s": self_time("fgp.begin_pass"),
        "fgp.end_pass_self_s": self_time("fgp.end_pass"),
        "transform.begin_batch_s": total("transform.begin_batch"),
        "transform.ingest_self_s": self_time("transform.ingest"),
        "transform.ingest_calls": calls("transform.ingest"),
        "transform.finish_s": total("transform.finish"),
        "sketch.l0.update_s": total("sketch.l0.update"),
        "sketch.l0.update_calls": calls("sketch.l0.update"),
        "sketch.l0.samplers": samplers,
        "sketch.reservoir.offer_s": total("sketch.reservoir.offer"),
        "sketch.reservoir.offer_calls": calls("sketch.reservoir.offer"),
        "engine.sharded.merge_s": counters.get("engine.sharded.merge_s", 0.0),
        "engine.sharded.merge_calls": calls("fgp.merge"),
        "engine.live.feed_s": total("engine.live.feed"),
        "engine.live.estimate_s": total("engine.live.estimate"),
        "engine.live.snapshot_s": total("engine.live.snapshot"),
        "engine.live.journal_elements": counters.get("engine.live.journal_elements", 0),
        "service.checkpoint_bytes": counters.get("service.checkpoint_bytes", 0),
    }
