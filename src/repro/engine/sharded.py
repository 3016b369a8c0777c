"""Scatter/merge execution: one stream, split across shard engines.

The process backend in :mod:`repro.engine.parallel` replicates K
estimator copies over a *single* stream — every byte still funnels
through one reader.  This module splits the **stream** instead: each
shard (a hash-partition of the update sequence, see
:func:`repro.streams.datasets.write_stream_shards`) is fed to an
independent replica of every registered estimator, and at the end of
every pass the replicas' states are merged — *before* the pass closes —
through the ``merge()`` protocol that runs from
:class:`~repro.engine.estimators.RoundAdaptiveEstimator` down to the
one-sparse sketch aggregates.

Why this is exact (the merge laws)
----------------------------------
Turnstile pass state is **linear**: signed counters and GF(2^61-1)
sketch aggregates are sums over the updates, computed in exact integer
/ modular arithmetic, and ingestion draws **no randomness**.  Replicas
built from the same spec (same seeds) therefore carry identical frozen
randomness (hash coefficients, fingerprint bases), and adding their
aggregates is associative, commutative, and bit-identical to one
estimator ingesting the whole stream — whatever the shard count or cut
points.  After the merge, the *global* round answers are broadcast back
so every replica dispatches the same answers to its generators and all
replicas consume identical randomness next round
(:meth:`~repro.engine.estimators.RoundAdaptiveEstimator.end_pass_adopting`).

Reservoir-backed paths (the insertion-only oracle) have no such law —
their draws depend on the global stream position — and raise a typed
:class:`~repro.errors.MergeError` at the first merge barrier, never a
silently wrong estimate.

Backends
--------
``backend="serial"`` runs the engine's in-process pass driver
(:mod:`repro.engine.core`) over a grid of replicas, ``replicas[s][k]``
fed by shard ``s`` in turn; the replicas merge by reference.
``backend="process"`` runs the pool driver of
:mod:`repro.engine.parallel` — one worker process per shard, batches
published through the shared-memory ring, mid-pass states gathered
with the ``state_dict`` worker command, merged driver-side, and the
global answers broadcast back with ``adopt_answers``.  Both produce
bit-identical results for the same seeds; the process backend
additionally pays a per-pass replica rebuild (O(shards x trials)
generator construction) to move sketch state across the process
boundary.

Memory stays bounded by the shard batch caches: apply a
``cache="lru:..."`` policy and the peak decoded bytes are metered per
shard (``peak_resident_bytes`` via :mod:`repro.streams.cache`), so a
disk graph far larger than RAM counts in one pass per round.

Quick tour::

    from repro.engine.sharded import count_subgraphs_turnstile_sharded
    from repro.streams.datasets import open_stream_shards

    shards = open_stream_shards("graph.reb", 4)     # graph.shard-*.reb
    fused = count_subgraphs_turnstile_sharded(
        shards, patterns.triangle(), copies=8, trials=64, rng=7)
    # bit-identical to count_subgraphs_turnstile_fused(stream, ...,
    # mode="mirror") over the unsharded stream, any shard count.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from repro.engine.core import (
    DEFAULT_BATCH_SIZE,
    EngineBackend,
    EngineReport,
    _drive_local,
    apply_cache_policy,
    check_engine_config,
)
from repro.engine.fused import FusedCountResult, FusionMode, _fused_fgp_count
from repro.engine.parallel import (
    DEFAULT_REPLY_TIMEOUT,
    EstimatorSpec,
    StreamHandle,
    _drive_pool,
    make_worker_pool,
)
from repro.errors import EngineError, MergeError
from repro.estimate.concentration import ParamMode
from repro.patterns.pattern import Pattern
from repro.utils.rng import RandomSource

__all__ = [
    "ShardedRunner",
    "sharded_stream_handle",
    "count_subgraphs_turnstile_sharded",
]


def sharded_stream_handle(shards: Sequence) -> StreamHandle:
    """The union :class:`StreamHandle` describing a set of shard streams.

    Estimator replicas must be built against the **global** stream
    metadata — trial resolution and the FGP finalizer read
    ``net_edge_count`` (the estimate scales with m^rho), and the
    oracles read ``n`` — never against a single shard's, which would
    skew every estimate by roughly ``shards^rho``.  The handle carries
    the union: shared ``n``, summed ``length`` and ``net_edge_count``,
    ``allows_deletions`` if any shard deletes.  Shards disagreeing on
    ``n`` were not cut from the same stream and are rejected.
    """
    if not shards:
        raise EngineError("sharded run needs at least one shard stream")
    n = shards[0].n
    for index, shard in enumerate(shards):
        if shard.n != n:
            raise EngineError(
                f"shard {index} has n={shard.n} but shard 0 has n={n}; "
                "shards must be partitions of one stream"
            )
    return StreamHandle(
        n=n,
        length=sum(shard.length for shard in shards),
        net_edge_count=sum(shard.net_edge_count for shard in shards),
        allows_deletions=any(shard.allows_deletions for shard in shards),
    )


class ShardedRunner:
    """Drive estimator specs over stream shards, merging every pass.

    Registration is spec-based only (:class:`EstimatorSpec`): each
    shard needs its own *replica* of every estimator, and replicas are
    only mergeable when rebuilt from identical seeds — so specs must
    pin seed integers, not live generators (enforced at registration).

    Per pass: replica 0 opens the pass, the other replicas open it over
    replica 0's frozen pass structure, shard ``r``'s batches feed
    replica set ``r``, then — before the pass closes — replicas
    1..R-1 merge into replica 0, replica 0 ends the pass normally, and
    the resulting *global* answers are adopted by the other replicas.
    The final results are read off replica set 0, which at that point
    is bit-identical to an unsharded run.
    """

    def __init__(
        self,
        shards: Sequence,
        batch_size: int = DEFAULT_BATCH_SIZE,
        backend: str = EngineBackend.SERIAL,
        start_method: Optional[str] = None,
        cache=None,
        max_passes: int = 0,
        reply_timeout: float = DEFAULT_REPLY_TIMEOUT,
        reset_pass_count: bool = True,
    ) -> None:
        batch_size = check_engine_config(batch_size, backend, max_passes)
        self._shards = list(shards)
        self._handle = sharded_stream_handle(self._shards)
        self._batch_size = batch_size
        self._backend = backend
        self._start_method = start_method
        self._cache = cache
        self._max_passes = max_passes
        self._reply_timeout = reply_timeout
        self._reset_pass_count = reset_pass_count
        self._specs: List[EstimatorSpec] = []

    @property
    def handle(self) -> StreamHandle:
        """The union metadata replicas are built against."""
        return self._handle

    def register(self, spec: EstimatorSpec) -> None:
        """Register one estimator spec (a replica is built per shard)."""
        if any(existing.name == spec.name for existing in self._specs):
            raise EngineError(f"estimator {spec.name!r} is already registered")
        for key, value in spec.kwargs.items():
            if isinstance(value, random.Random):
                raise EngineError(
                    f"spec {spec.name!r} carries a live random.Random in "
                    f"kwargs[{key!r}]; shard replicas built from a shared "
                    "generator would diverge — pin an integer seed instead"
                )
        self._specs.append(spec)

    def register_many(self, specs: Sequence[EstimatorSpec]) -> None:
        for spec in specs:
            self.register(spec)

    def run(self) -> EngineReport:
        """Drive all specs to completion; results come from shard 0's replicas.

        The serial backend runs the in-process pass driver over
        ``replicas[s][k]`` (shard ``s``, spec ``k``); the process
        backend runs the pool driver with one worker per shard and a
        driver-side replica set that merges the workers' states.
        """
        if not self._specs:
            raise EngineError("no estimator specs registered")
        for shard in self._shards:
            apply_cache_policy(shard, self._cache)
            if self._reset_pass_count:
                shard.reset_pass_count()
        count = len(self._shards)
        if self._backend == EngineBackend.PROCESS:
            primaries = _mergeable([spec.build(self._handle) for spec in self._specs])
            pool = make_worker_pool(
                [list(self._specs) for _ in range(count)],
                self._handle,
                self._reply_timeout,
                start_method=self._start_method,
                batch_capacity=self._batch_size,
            )
            results, counts = _drive_pool(
                pool, self._shards, self._batch_size, self._max_passes, primaries
            )
        else:
            replicas = [
                _mergeable([spec.build(self._handle) for spec in self._specs])
                for _ in range(count)
            ]
            counts = _drive_local(self._shards, replicas, self._batch_size, self._max_passes)
            results = {primary.name: primary.result() for primary in replicas[0]}
        return EngineReport(
            results=results,
            passes=counts.passes,
            elements=counts.elements,
            dispatches=counts.dispatches,
            batch_size=self._batch_size,
            workers=count if self._backend == EngineBackend.PROCESS else 1,
            merge_seconds=counts.merge_seconds,
        )


def _mergeable(estimators: list) -> list:
    """*estimators*, after refusing any that cannot merge shard replicas.

    A replica must implement the merge protocol (``merge``,
    ``end_pass_adopting``, ``begin_pass(i, primary)``); refusing the
    rest here keeps the failure a :class:`~repro.errors.MergeError`
    raised before any pass opens.
    """
    for estimator in estimators:
        if not callable(getattr(estimator, "merge", None)):
            raise MergeError(
                f"estimator {estimator.name!r} ({type(estimator).__name__}) cannot "
                "merge shard replicas; a sharded run needs mergeable (turnstile) "
                "estimators"
            )
    return estimators


def count_subgraphs_turnstile_sharded(
    shards: Sequence,
    pattern: Pattern,
    copies: int = 8,
    epsilon: float = 0.1,
    lower_bound: Optional[float] = None,
    trials: Optional[int] = None,
    rng: RandomSource = None,
    copy_rngs: Optional[Sequence[RandomSource]] = None,
    param_mode: str = ParamMode.PRACTICAL,
    sampler_repetitions: int = 8,
    batch_size: int = DEFAULT_BATCH_SIZE,
    backend: str = EngineBackend.SERIAL,
    start_method: Optional[str] = None,
    cache=None,
    max_passes: int = 0,
) -> FusedCountResult:
    """Median of K Theorem-1 copies over hash-partitioned stream shards.

    The partitioned counterpart of
    :func:`~repro.engine.fused.count_subgraphs_turnstile_fused` with
    ``mode="mirror"``: trial resolution and the per-copy seeds are
    derived identically (``derive_seed(master, "copy-i")`` after one
    ``resolve_trials`` against the *union* metadata), so for the same
    ``rng`` the result is **bit-identical** to the unsharded mirror run
    — for any shard count, cut points, or backend.  The process
    backend runs one worker per shard.  Only turnstile
    estimators run here; insertion-only paths raise
    :class:`~repro.errors.MergeError` at the first merge barrier.
    """

    def run_specs(specs: List[EstimatorSpec]) -> EngineReport:
        runner = ShardedRunner(
            shards,
            batch_size=batch_size,
            backend=backend,
            start_method=start_method,
            cache=cache,
            max_passes=max_passes,
        )
        runner.register_many(specs)
        return runner.run()

    result, report = _fused_fgp_count(
        "turnstile",
        sharded_stream_handle(shards),
        run_specs,
        pattern,
        copies,
        epsilon,
        lower_bound,
        trials,
        rng,
        copy_rngs,
        param_mode,
        FusionMode.MIRROR,
        backend,
        None,
        sampler_repetitions,
    )
    result.details["shards"] = float(len(shards))
    result.details["merge_seconds"] = float(report.merge_seconds)
    return result
