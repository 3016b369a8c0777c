"""The fused multi-estimator stream engine.

The paper amplifies success probability by running many independent
estimator copies and aggregating (medians of Theorem 1/17 runs,
Algorithm 2's outer repetitions).  Driving each copy separately costs
O(copies × m) stream traffic; the engine restores the theorems'
O(m)-per-pass cost model by iterating each stream pass **once** and
dispatching the decoded updates, in configurable batches, to every
registered estimator.

An estimator is anything implementing the pass-callback protocol:

* ``name``                — unique registration key;
* ``wants_pass()``        — whether it needs another pass;
* ``begin_pass(i)``       — a fused pass is starting;
* ``ingest_batch(batch)`` — the next :class:`~repro.streams.batch.EdgeBatch`
  of the pass, in stream order (it also iterates as decoded
  ``(u, v, delta, edge)`` tuples);
* ``end_pass()``          — the pass is over;
* ``result()``            — the finished estimate.

Shard replicas of a scatter/merge run (:mod:`repro.engine.sharded`)
also implement ``merge(other)``, ``end_pass_adopting(answers)`` and
``begin_pass(i, primary)``, which opens the pass over shard 0's
replica *primary*, whose pass is already open.

The library's estimators additionally implement ``passes_consumed``
(how many passes they have already been driven through — registration
rejects non-fresh estimators, whose pass accounting would silently go
stale) and the checkpoint protocol ``state_dict()`` /
``load_state_dict()`` (see :mod:`repro.engine.live` and
:mod:`repro.utils.checkpoint`); custom estimators need them only to
run under the live engine.

Estimators with different pass counts co-exist: the engine keeps
iterating while *any* estimator wants a pass, and finished estimators
simply stop receiving batches.  ``EdgeStream.passes_used`` therefore
ends at ``max_i passes(estimator_i)`` — K fused copies of a 3-pass
counter consume exactly 3 passes, not 3K (asserted in
``tests/test_engine_passes.py``).

Decoding is shared across estimators: each pass is read as columnar
:class:`~repro.streams.batch.EdgeBatch` objects (numpy
``u``/``v``/``delta`` columns plus lazily shared decoded views), so
however many estimators consume a fused pass, the per-element decode
runs once.  Whether *later passes* also reuse the decoded batches is
the stream's batch-cache policy's call (:mod:`repro.streams.cache`,
engine knob ``cache=``): ``"all"`` retains everything (the in-memory
default), ``"lru:<bytes>"`` a bounded working set (disk streams
bigger than RAM), ``"none"`` nothing.  Results are identical across
all of these.

The engine runs on one of two execution backends
(:class:`EngineBackend`): ``serial`` dispatches in-process;
``process`` shards the registered estimator *specs* across a pool of
worker processes while this process keeps the single stream iteration
and publishes the decoded batches through a shared-memory batch ring
(:mod:`repro.engine.parallel`).

Two pass drivers run every batch pass of the package.  The in-process
loop here (``_drive_local``) feeds ``replicas[s][k]`` from source
``s``: one source is the serial engine, several sources are the
serial backend of :class:`~repro.engine.sharded.ShardedRunner`, whose
replicas merge into shard 0 before the pass closes.  The pool loop
(``_drive_pool`` in :mod:`repro.engine.parallel`) publishes each
source's batches to worker processes instead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import EngineError, StreamError
from repro.streams.batch import EdgeBatch
from repro.streams.stream import (
    DEFAULT_CHUNK_SIZE,
    DecodedUpdate,
    EdgeStream,
    check_batch_size,
)

#: What the engine dispatches to estimators: one columnar
#: :class:`~repro.streams.batch.EdgeBatch` of a stream pass.  It also
#: iterates as decoded ``(u, v, delta, edge)`` tuples, which is all the
#: per-element baselines read.
DecodedBatch = EdgeBatch

#: Default updates per dispatched batch — the same knob as the
#: sequential paths' decode granularity (results are invariant to it;
#: it only trades loop overhead against peak decoded-batch memory).
DEFAULT_BATCH_SIZE = DEFAULT_CHUNK_SIZE


def apply_cache_policy(stream, cache) -> None:
    """Apply a batch-cache spec to *stream* if one was requested.

    ``None`` leaves the stream's own policy in place.  Streams without
    a policy surface (:class:`~repro.engine.parallel.StreamHandle`)
    only reject a non-``None`` request.
    """
    if cache is None:
        return
    if not hasattr(stream, "set_cache_policy"):
        raise EngineError(
            f"stream {type(stream).__name__} does not support cache policies"
        )
    stream.set_cache_policy(cache)


@dataclass
class EngineReport:
    """Outcome of one :meth:`StreamEngine.run`.

    ``workers`` is 1 for the serial backend; for the process backend it
    records the pool size, and ``dispatches`` counts batch broadcasts
    (batches × active workers) rather than batches × active estimators.

    ``degraded`` records that the run lost workers under
    ``on_worker_loss="degrade"`` and finished on the survivors:
    ``results`` then holds only the surviving estimators and ``lost``
    names the shards that died with their workers.  Each surviving
    estimate is still bit-identical to a run configured without the
    lost copies.
    """

    results: Dict[str, Any]
    passes: int
    elements: int
    dispatches: int
    batch_size: int
    workers: int = 1
    degraded: bool = False
    lost: tuple = ()
    #: Wall-clock seconds spent inside merge barriers (scatter/merge
    #: runs only — see :mod:`repro.engine.sharded`; 0.0 elsewhere).
    merge_seconds: float = 0.0

    def __getitem__(self, name: str) -> Any:
        return self.results[name]


class EngineBackend:
    """Where the registered estimators execute.

    ``SERIAL``
        All estimators run in this process, inside the engine's own
        dispatch loop — the default, and the only backend that accepts
        live (pre-built) estimator objects.
    ``PROCESS``
        Estimators are sharded across a multiprocessing worker pool.
        Registration goes through picklable
        :class:`~repro.engine.parallel.EstimatorSpec` recipes (live
        estimators hold generator frames and cannot cross a process
        boundary); the driver publishes each decoded batch **once**
        through a shared-memory ring and merges the per-shard results.
    """

    SERIAL = "serial"
    PROCESS = "process"

    _ALL = (SERIAL, PROCESS)


def check_engine_config(
    batch_size,
    backend: str = EngineBackend.SERIAL,
    max_passes: int = 0,
    on_worker_loss: str = "abort",
) -> int:
    """Validate the options the engine drivers share; returns the batch size."""
    try:
        batch_size = check_batch_size(batch_size)
    except StreamError as error:
        raise EngineError(str(error)) from error
    if backend not in EngineBackend._ALL:
        raise EngineError(
            f"unknown backend {backend!r}; expected one of {EngineBackend._ALL}"
        )
    if max_passes < 0:
        raise EngineError(f"max_passes must be >= 0, got {max_passes}")
    if on_worker_loss not in ("abort", "degrade"):
        raise EngineError(
            f"on_worker_loss must be 'abort' or 'degrade', got {on_worker_loss!r}"
        )
    return batch_size


@dataclass
class PassCounts:
    """What a pass driver counted over one run (see :class:`EngineReport`)."""

    passes: int = 0
    elements: int = 0
    dispatches: int = 0
    merge_seconds: float = 0.0

    def check_max_passes(self, max_passes: int, waiting: str) -> None:
        """Raise if another pass would exceed *max_passes* (0: no cap)."""
        if max_passes and self.passes >= max_passes:
            raise EngineError(
                f"{waiting} still want passes after max_passes={max_passes}"
            )


def _drive_local(
    sources: Sequence,
    replicas: Sequence[Sequence[Any]],
    batch_size: int,
    max_passes: int,
) -> PassCounts:
    """The in-process pass loop: ``replicas[s][k]`` is fed by ``sources[s]``.

    A pass opens on every replica of each estimator that still wants
    one (as shard 0's replica says) — shard 0's first, the others over
    its frozen pass structure (``begin_pass(i, primary)``) — feeds each
    source's batches to its own replica set, and closes per estimator:
    shard 0's replica merges
    the other shards' replicas, ends the pass, and the others adopt its
    answers.  With one source that close is a plain ``end_pass``.
    ``merge_seconds`` times the closes.
    """
    counts = PassCounts()
    primaries = replicas[0]
    while True:
        active = [k for k, estimator in enumerate(primaries) if estimator.wants_pass()]
        if not active:
            return counts
        counts.check_max_passes(
            max_passes, "estimators " + ", ".join(primaries[k].name for k in active)
        )
        grid = [[shard[k] for k in active] for shard in replicas]
        for primary, *others in zip(*grid):
            primary.begin_pass(counts.passes)
            for other in others:
                other.begin_pass(counts.passes, primary)
        for source, estimators in zip(sources, grid):
            for batch in source.batches(batch_size):
                counts.elements += len(batch)
                counts.dispatches += len(active)
                for estimator in estimators:
                    estimator.ingest_batch(batch)
        close_start = time.perf_counter()
        for primary, *others in zip(*grid):
            for other in others:
                primary.merge(other)
            answers = primary.end_pass()
            for other in others:
                other.end_pass_adopting(answers)
        counts.merge_seconds += time.perf_counter() - close_start
        counts.passes += 1


class StreamEngine:
    """Fused single-iteration executor for K independent estimators.

    Parameters
    ----------
    stream:
        The :class:`~repro.streams.stream.EdgeStream` every estimator
        reads.  The engine owns the iteration: one ``stream.batches()``
        call per fused pass, however many estimators are registered.
    batch_size:
        Updates per dispatched chunk.  Results are invariant to the
        batch size (asserted in the equivalence tests); it only trades
        Python loop overhead against peak decoded-batch memory.
    reset_pass_count:
        Whether :meth:`run` zeroes the stream's pass counter first, so
        ``stream.passes_used`` afterwards reads the fused pass count.
    backend:
        :data:`EngineBackend.SERIAL` (default) runs everything in-process;
        :data:`EngineBackend.PROCESS` shards the registered specs across
        a pool of worker processes (see
        :class:`EngineBackend` and :mod:`repro.engine.parallel`).
    workers:
        Process-backend pool size; ``None`` means one worker per CPU,
        capped at the number of registered specs.  Ignored by the
        serial backend.
    start_method:
        Multiprocessing start method for the process backend (``None``:
        ``fork`` where available, else ``spawn``).
    cache:
        Batch-cache policy applied to the stream before the run — any
        spec of :func:`~repro.streams.cache.resolve_cache_policy`
        (``"all"``, ``"lru"``/``"lru:<bytes>"``, ``"none"``, or a
        policy instance).  ``None`` (default) leaves the stream's own
        policy untouched.  Results are bit-identical across policies;
        only decode work and resident memory change.
    on_worker_loss:
        Process backend only: ``"abort"`` (default) raises
        :class:`~repro.errors.WorkerLossError` when a worker dies
        silently or wedges; ``"degrade"`` finishes the run on the
        surviving workers and reports ``degraded=True`` with the lost
        estimator names (see :func:`~repro.engine.parallel.run_parallel_engine`).
    fault_plan:
        A :class:`~repro.faults.FaultPlan` shipped to every pool
        worker — the deterministic drill harness.  ``None`` (default)
        disables injection.
    """

    def __init__(
        self,
        stream: EdgeStream,
        batch_size: int = DEFAULT_BATCH_SIZE,
        reset_pass_count: bool = True,
        max_passes: int = 0,
        backend: str = EngineBackend.SERIAL,
        workers: Optional[int] = None,
        start_method: Optional[str] = None,
        cache=None,
        on_worker_loss: str = "abort",
        fault_plan=None,
    ) -> None:
        batch_size = check_engine_config(
            batch_size, backend, max_passes, on_worker_loss
        )
        self._stream = stream
        self._batch_size = batch_size
        self._reset_pass_count = reset_pass_count
        self._max_passes = max_passes
        self._backend = backend
        self._workers = workers
        self._start_method = start_method
        self._cache = cache
        self._on_worker_loss = on_worker_loss
        self._fault_plan = fault_plan
        self._estimators: List[Any] = []
        self._specs: List[Any] = []
        self._names: Dict[str, Any] = {}
        self._ran = False
        self._started = False

    @property
    def stream(self) -> EdgeStream:
        return self._stream

    @property
    def estimators(self) -> List[Any]:
        """The registered estimators, in registration order."""
        return list(self._estimators)

    @property
    def backend(self) -> str:
        """The configured :class:`EngineBackend` value."""
        return self._backend

    def register(self, estimator) -> Any:
        """Add a live *estimator* to the fused run; returns it for chaining.

        Serial backend only: a live estimator (generator frames, open
        oracle state) cannot be shipped to a worker process — register
        a picklable recipe with :meth:`register_spec` instead.
        """
        if self._backend != EngineBackend.SERIAL:
            raise EngineError(
                "live estimators cannot be shipped to a worker pool; use "
                "register_spec() with the process backend"
            )
        name = getattr(estimator, "name", None)
        if not name:
            raise EngineError("estimators must expose a non-empty .name")
        if name in self._names:
            raise EngineError(f"estimator name {name!r} already registered")
        self._check_registration_open()
        consumed = getattr(estimator, "passes_consumed", 0)
        if consumed:
            raise EngineError(
                f"estimator {name!r} has already consumed {consumed} stream "
                "pass(es); registering it would silently corrupt the fused "
                "run's pass accounting — build a fresh estimator instead"
            )
        self._names[name] = estimator
        self._estimators.append(estimator)
        return estimator

    def _check_registration_open(self) -> None:
        """Registration closes the moment a run starts (or finished)."""
        if self._started and not self._ran:
            raise EngineError(
                "cannot register estimators while a run is in progress: the "
                "current pass has already been partially dispatched, so a "
                "late estimator's pass accounting would be silently stale"
            )
        if self._ran:
            raise EngineError("cannot register estimators after run()")

    def register_all(self, estimators) -> List[Any]:
        """Register every estimator of an iterable, in order."""
        return [self.register(estimator) for estimator in estimators]

    def register_spec(self, spec) -> Any:
        """Register an :class:`~repro.engine.parallel.EstimatorSpec`.

        Works with every backend: the serial backend builds the
        estimator immediately against the real stream, the process
        backend defers construction to the worker that receives the
        shard.  Returns the spec for chaining.
        """
        if self._backend == EngineBackend.SERIAL:
            self.register(spec.build(self._stream))
            return spec
        if not spec.name:
            raise EngineError("estimator specs must carry a non-empty .name")
        if spec.name in self._names:
            raise EngineError(f"estimator name {spec.name!r} already registered")
        self._check_registration_open()
        self._names[spec.name] = spec
        self._specs.append(spec)
        return spec

    def run(self) -> EngineReport:
        """Drive every registered estimator to completion.

        Serial backend: the in-process pass driver iterates the stream
        once per fused pass and feeds each decoded batch to every
        estimator that is still consuming passes.  Process backend:
        :func:`repro.engine.parallel.run_parallel_engine`
        runs the pool driver, publishing each batch to the workers.
        """
        if self._started or self._ran:
            raise EngineError("engine already ran; build a new one per run")
        if self._backend != EngineBackend.SERIAL:
            if not self._specs:
                raise EngineError("no estimator specs registered")
            self._started = True
            self._ran = True
            from repro.engine.parallel import run_parallel_engine

            return run_parallel_engine(
                self._stream,
                self._specs,
                workers=self._workers,
                batch_size=self._batch_size,
                start_method=self._start_method,
                reset_pass_count=self._reset_pass_count,
                max_passes=self._max_passes,
                cache=self._cache,
                on_worker_loss=self._on_worker_loss,
                fault_plan=self._fault_plan,
            )
        if not self._estimators:
            raise EngineError("no estimators registered")
        self._started = True
        apply_cache_policy(self._stream, self._cache)
        if self._reset_pass_count:
            self._stream.reset_pass_count()
        counts = _drive_local(
            [self._stream], [self._estimators], self._batch_size, self._max_passes
        )
        self._ran = True
        return EngineReport(
            results={e.name: e.result() for e in self._estimators},
            passes=counts.passes,
            elements=counts.elements,
            dispatches=counts.dispatches,
            batch_size=self._batch_size,
        )
