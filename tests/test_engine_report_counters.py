"""Characterization of the :class:`EngineReport` counters of batch runs.

``passes``, ``elements``, ``dispatches``, ``workers`` and
``merge_seconds`` are read by the benchmark harness after every
``StreamEngine.run`` / ``ShardedRunner.run``, so their meaning per
driver is part of the engine's contract:

* the serial engine counts one dispatch per batch per active estimator;
* the worker pool counts one dispatch per batch per active worker, and
  ``workers`` is the pool size;
* a sharded run counts one dispatch per shard batch per active spec,
  ``workers`` is 1 on the serial backend and the shard count on the
  process backend, and
  ``merge_seconds`` is positive (it is 0.0 for every unsharded run).

One small turnstile workload with nonzero per-copy estimates pins all of
them, together with the estimates and the number of replica merges, for
every backend of both runners.
"""

import pytest

from repro import generators, patterns
from repro.engine import (
    RoundAdaptiveEstimator,
    ShardedRunner,
    StreamEngine,
    count_subgraphs_turnstile_fused,
    count_subgraphs_turnstile_sharded,
)
from repro.streams.datasets import stream_shard_views
from repro.streams.generators import turnstile_churn_stream

COPIES, TRIALS, SEED, BATCH, WORKERS = 3, 60, 11, 48, 2

MIRROR = [257.2138798743178, 257.2138798743178, 171.47591991621186]
SHARED_SERIAL = [85.73795995810593, 257.2138798743178, 342.95183983242373]
SHARED_POOLED = [342.95183983242373, 342.95183983242373, 257.2138798743178]


def _stream():
    graph = generators.gnp(24, 0.6, rng=5)
    return turnstile_churn_stream(graph, churn_edges=30, rng=6)


def _capture(monkeypatch, cls, call):
    """Run *call* with ``cls.run`` wrapped; return (report, merges, result)."""
    reports = []
    merges = []
    run = cls.__dict__["run"]
    merge = RoundAdaptiveEstimator.__dict__["merge"]

    def recording_run(self):
        report = run(self)
        reports.append(report)
        return report

    def counting_merge(self, other):
        merges.append(self.name)
        return merge(self, other)

    monkeypatch.setattr(cls, "run", recording_run)
    monkeypatch.setattr(RoundAdaptiveEstimator, "merge", counting_merge)
    result = call()
    assert len(reports) == 1
    return reports[0], len(merges), result


ENGINE_CASES = [
    # backend, mode, dispatches, workers, estimates
    ("serial", "mirror", 45, 1, MIRROR),
    ("serial", "shared", 15, 1, SHARED_SERIAL),
    ("process", "mirror", 30, 2, MIRROR),
    ("process", "shared", 30, 2, SHARED_POOLED),
]


@pytest.mark.parametrize("backend,mode,dispatches,workers,estimates", ENGINE_CASES)
def test_stream_engine_counters(monkeypatch, backend, mode, dispatches, workers, estimates):
    report, merges, result = _capture(
        monkeypatch,
        StreamEngine,
        lambda: count_subgraphs_turnstile_fused(
            _stream(),
            patterns.triangle(),
            copies=COPIES,
            trials=TRIALS,
            rng=SEED,
            mode=mode,
            batch_size=BATCH,
            backend=backend,
            workers=WORKERS,
        ),
    )
    assert report.passes == 3
    assert report.elements == 627
    assert report.dispatches == dispatches
    assert report.workers == workers
    assert report.merge_seconds == 0.0
    assert merges == 0
    assert result.estimates == estimates
    assert result.estimate > 0


SHARDED_CASES = [
    # shards, backend, dispatches, workers, merges
    (1, "serial", 45, 1, 0),
    (1, "process", 45, 1, 9),
    (2, "serial", 54, 1, 9),
    (2, "process", 54, 2, 18),
    # Three shards tell the process backend's worker count (one per
    # shard) apart from the engine runs' pool size of two.
    (3, "serial", 54, 1, 18),
    (3, "process", 54, 3, 27),
]


@pytest.mark.parametrize("shards,backend,dispatches,workers,merges", SHARDED_CASES)
def test_sharded_runner_counters(monkeypatch, shards, backend, dispatches, workers, merges):
    report, merged, result = _capture(
        monkeypatch,
        ShardedRunner,
        lambda: count_subgraphs_turnstile_sharded(
            stream_shard_views(_stream(), shards),
            patterns.triangle(),
            copies=COPIES,
            trials=TRIALS,
            rng=SEED,
            batch_size=BATCH,
            backend=backend,
        ),
    )
    assert report.passes == 3
    assert report.elements == 627
    assert report.dispatches == dispatches
    assert report.workers == workers
    assert report.merge_seconds > 0.0
    assert merged == merges
    assert result.estimates == MIRROR
    assert result.details["shards"] == float(shards)
    assert result.details["merge_seconds"] == report.merge_seconds
