"""Fused median-of-K counting — the paper's amplification at O(m) cost.

Chernoff gives each Theorem 1/17 run a constant success probability;
the standard amplification runs K independent copies and takes the
median of their estimates, driving the failure probability to 2^-Θ(K).
Run naively that costs K × 3 stream passes.  These entry points
register all K copies with one :class:`~repro.engine.core.StreamEngine`
so the whole ensemble consumes **exactly 3 passes** (2 for the 2-pass
counter), in one of two fusion modes:

``FusionMode.MIRROR``
    Every copy keeps its own oracle (its own reservoir banks /
    ℓ0-sketch banks), and only the stream iteration is shared.  A
    mirror copy seeded with rng R is **bit-identical** to the one-shot
    counter called with rng R — the mode the golden equivalence tests
    pin down.

``FusionMode.SHARED`` (default)
    All copies' round-ℓ query batches merge into a *single* oracle
    pass-state.  Each f1/f3 query still owns a private reservoir slot
    or ℓ0-sampler — the joint distribution over slots is exactly that
    of independent samplers (see ``repro.sketch.reservoir``) — while
    deterministic aggregates (degree counters, adjacency flags,
    arrival counters) are computed once instead of K times, and the
    skip-ahead bank's amortization spreads over all K·k edge queries.
    Copies remain independent in distribution, but the per-element
    work barely grows with K: this is the ≥2× (in practice ~K×)
    speedup mode benchmarked in ``benchmarks/bench_throughput.py``.

Orthogonally to the fusion mode, every entry point takes a
``backend`` switch (:class:`~repro.engine.core.EngineBackend`):

``backend="serial"`` (default)
    All copies execute in this process.

``backend="process"``
    The copies are sharded across a pool of ``workers`` processes
    (:mod:`repro.engine.parallel`); the driver reads the stream once
    per pass and publishes decoded batches through a shared-memory
    ring.  Mirror-mode estimates are bit-identical to the serial
    backend for the same seeds, independent of the worker count;
    shared-mode runs merge each *shard* into one oracle
    (deterministic given ``(rng, workers)``).  CLI: ``repro count
    --backend process --workers N``.

Every backend runs the same spec list, one
:class:`~repro.engine.parallel.EstimatorSpec` per group of copies, each
built by :func:`~repro.streaming.counters.fgp_counter_program`: mirror
mode makes every copy a group of one, shared mode one group of all K
copies on the serial backend and one per worker otherwise.  The serial
engine builds the specs against the real stream; the pools ship them
to the workers.  The sharded count
(:func:`~repro.engine.sharded.count_subgraphs_turnstile_sharded`)
reuses the mirror path and only swaps the engine for a
:class:`~repro.engine.sharded.ShardedRunner`.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine.core import DEFAULT_BATCH_SIZE, EngineBackend, EngineReport, StreamEngine
from repro.engine.estimators import fgp_group_estimator
from repro.engine.parallel import EstimatorSpec, resolve_workers, shard_indices
from repro.errors import EngineError, EstimationError
from repro.estimate.concentration import ParamMode, relative_error
from repro.estimate.result import EstimateResult
from repro.patterns.pattern import Pattern
from repro.streaming.counters import FGP_COUNTERS, check_pattern, copy_seeds, resolve_trials
from repro.streams.stream import EdgeStream
from repro.utils.rng import RandomSource, derive_seed, ensure_rng

__all__ = [
    "FusionMode",
    "FusedCountResult",
    "count_fgp_fused",
    "count_subgraphs_insertion_only_fused",
    "count_subgraphs_turnstile_fused",
    "count_subgraphs_two_pass_fused",
]


class FusionMode:
    """How K fused copies share oracle state (see module docstring)."""

    MIRROR = "mirror"
    SHARED = "shared"

    _ALL = (MIRROR, SHARED)


@dataclass
class FusedCountResult:
    """Median-amplified estimate from K fused estimator copies."""

    algorithm: str
    pattern: str
    estimate: float
    copies: List[EstimateResult]
    passes: int
    mode: str
    backend: str = "serial"
    m: int = 0
    details: Dict[str, float] = field(default_factory=dict)

    @property
    def num_copies(self) -> int:
        return len(self.copies)

    @property
    def estimates(self) -> List[float]:
        """The per-copy estimates the median is taken over."""
        return [copy.estimate for copy in self.copies]

    def error_vs(self, truth: float) -> float:
        """Relative error of the median against an exact count."""
        return relative_error(self.estimate, truth)

    def within(self, truth: float, epsilon: float) -> bool:
        """Whether the median is a (1±ε)-approximation of *truth*."""
        return self.error_vs(truth) <= epsilon

    def summary(self, truth: Optional[float] = None) -> str:
        parts = [
            f"{self.algorithm}[{self.pattern}]",
            f"median={self.estimate:.1f}",
            f"copies={self.num_copies}",
            f"passes={self.passes}",
            f"mode={self.mode}",
            f"backend={self.backend}",
        ]
        if truth is not None:
            parts.append(f"err={self.error_vs(truth):.3f}")
        return " ".join(parts)


def _fgp_specs(
    kind: str,
    pattern: Pattern,
    trials: int,
    copies: int,
    mode: str,
    master,
    copy_rngs,
    backend: str,
    workers,
    sampler_repetitions: int,
) -> List[EstimatorSpec]:
    """One :func:`fgp_group_estimator` spec per group of copies; the
    modes differ only in how copies are grouped and seeded.

    Mirror mode makes every copy a group of one (spec ``"copy-i"``),
    seeded from its own rng in the one-shot order
    (:func:`~repro.streaming.counters.copy_seeds`), so any backend,
    worker count or shard count returns the one-shot estimates for the
    same ``copy_rngs``.  Shared mode merges all K copies into one group
    on the serial backend (spec ``"fused"``) and one contiguous group
    per worker on the process backend (specs ``"shard-i"``), so its
    estimates depend on ``(rng, workers)``.
    Serial shared seeds are derived oracle first, then the trials copy
    by copy; parallel seeds trials first, in global copy-major order,
    so only the group oracles vary with the pool size.  Every copy gets
    the already-resolved budget, so the reported ``trials_per_copy``
    cannot drift from what ran.  Seeds are ints, which cross the
    process-backend boundary as a few bytes instead of a ~2.5 KB
    pickled Mersenne state.
    """
    if mode == FusionMode.MIRROR:
        if copy_rngs is None:
            copy_rngs = [derive_seed(master, f"copy-{index}") for index in range(copies)]
        oracle_seeds, trial_seeds = zip(*(copy_seeds(rng, trials) for rng in copy_rngs))
        groups = [[index] for index in range(copies)]
        names = [f"copy-{index}" for index in range(copies)]
        indices = [None] * copies
    else:
        serial = backend == EngineBackend.SERIAL
        if serial:
            groups, names = [list(range(copies))], ["fused"]
            oracle_seeds = [derive_seed(master, "oracle")]
        else:
            groups = shard_indices(copies, resolve_workers(workers, copies))
            names = [f"shard-{group}" for group in range(len(groups))]
        trial_seeds = [
            [derive_seed(master, f"copy-{copy}-trial-{trial}") for trial in range(trials)]
            for copy in range(copies)
        ]
        if not serial:
            oracle_seeds = [
                derive_seed(master, f"oracle-shard-{group}") for group in range(len(groups))
            ]
        indices = groups
    return [
        EstimatorSpec(
            name=name,
            factory=fgp_group_estimator,
            kwargs=dict(
                kind=kind,
                pattern=pattern,
                trial_seeds=[trial_seeds[copy] for copy in group],
                oracle_seed=oracle_seed,
                copy_indices=copy_indices,
                name=name,
                sampler_repetitions=sampler_repetitions,
            ),
        )
        for name, group, oracle_seed, copy_indices in zip(
            names, groups, oracle_seeds, indices
        )
    ]


def _fused_fgp_count(
    kind: str,
    metadata,
    run_specs: Callable[[List[EstimatorSpec]], EngineReport],
    pattern: Pattern,
    copies: int,
    epsilon: float,
    lower_bound,
    trials,
    rng,
    copy_rngs,
    param_mode: str,
    mode: str,
    backend: str,
    workers,
    sampler_repetitions: int = 8,
) -> Tuple[FusedCountResult, EngineReport]:
    """Common driver behind the fused and sharded entry points.

    Resolves the per-copy trial budget once against *metadata* (the
    stream, or a sharded run's union handle), builds the copies' specs,
    runs them through *run_specs* and takes the median.  Returns the
    result and the engine report it came from.
    """
    check_pattern(kind, pattern)  # here, not inside a pool's workers
    if copies < 1:
        raise EstimationError(f"copies must be >= 1, got {copies}")
    if mode not in FusionMode._ALL:
        raise EngineError(f"unknown fusion mode {mode!r}; expected one of {FusionMode._ALL}")
    if copy_rngs is not None and len(copy_rngs) != copies:
        raise EstimationError(
            f"copy_rngs carries {len(copy_rngs)} entries for {copies} copies"
        )
    if copy_rngs is not None and mode == FusionMode.SHARED:
        raise EngineError("copy_rngs is a mirror-mode parameter; shared mode derives from rng")
    master = ensure_rng(rng)
    k = resolve_trials(metadata, pattern, epsilon, lower_bound, trials, param_mode)
    specs = _fgp_specs(
        kind, pattern, k, copies, mode, master, copy_rngs, backend, workers,
        sampler_repetitions,
    )
    report = run_specs(specs)
    details = {
        "trials_per_copy": float(k),
        "elements": float(report.elements),
        "batch_size": float(report.batch_size),
        "workers": float(report.workers),
    }
    groups = [report.results[spec.name] for spec in specs]
    copy_results = [result for group in groups for result in group]
    if mode == FusionMode.SHARED:
        details["ensemble_space_words"] = float(
            sum(int(group[0].details["shard_space_words"]) for group in groups)
        )
    median = statistics.median(result.estimate for result in copy_results)
    result = FusedCountResult(
        algorithm=FGP_COUNTERS[kind].algorithm,
        pattern=pattern.name,
        estimate=median,
        copies=copy_results,
        passes=report.passes,
        mode=mode,
        backend=backend,
        m=metadata.net_edge_count,
        details=details,
    )
    return result, report


def count_fgp_fused(
    kind: str,
    stream: EdgeStream,
    pattern: Pattern,
    copies: int = 8,
    epsilon: float = 0.1,
    lower_bound: Optional[float] = None,
    trials: Optional[int] = None,
    rng: RandomSource = None,
    copy_rngs: Optional[Sequence[RandomSource]] = None,
    param_mode: str = ParamMode.PRACTICAL,
    mode: str = FusionMode.SHARED,
    batch_size: int = DEFAULT_BATCH_SIZE,
    backend: str = EngineBackend.SERIAL,
    workers: Optional[int] = None,
    start_method: Optional[str] = None,
    cache=None,
    sampler_repetitions: int = 8,
) -> FusedCountResult:
    """Median of K fused copies of FGP counter *kind* (a key of
    :data:`~repro.streaming.counters.FGP_COUNTERS`) on one
    :class:`StreamEngine`; the ``count_subgraphs_*_fused`` entry points
    fix the kind.  *sampler_repetitions* applies to the turnstile kind.
    """

    def run_specs(specs: List[EstimatorSpec]) -> EngineReport:
        engine = StreamEngine(
            stream,
            batch_size=batch_size,
            backend=backend,
            workers=workers,
            start_method=start_method,
            cache=cache,
        )
        for spec in specs:
            engine.register_spec(spec)
        return engine.run()

    return _fused_fgp_count(
        kind, stream, run_specs, pattern, copies, epsilon, lower_bound, trials, rng,
        copy_rngs, param_mode, mode, backend, workers, sampler_repetitions,
    )[0]


def count_subgraphs_insertion_only_fused(
    stream: EdgeStream,
    pattern: Pattern,
    copies: int = 8,
    epsilon: float = 0.1,
    lower_bound: Optional[float] = None,
    trials: Optional[int] = None,
    rng: RandomSource = None,
    copy_rngs: Optional[Sequence[RandomSource]] = None,
    param_mode: str = ParamMode.PRACTICAL,
    mode: str = FusionMode.SHARED,
    batch_size: int = DEFAULT_BATCH_SIZE,
    backend: str = EngineBackend.SERIAL,
    workers: Optional[int] = None,
    start_method: Optional[str] = None,
    cache=None,
) -> FusedCountResult:
    """Median of K fused Theorem-17 runs in exactly 3 insertion passes.

    ``trials``/``epsilon``/``lower_bound`` size each copy exactly as in
    :func:`~repro.streaming.three_pass.count_subgraphs_insertion_only`.
    In mirror mode, ``copy_rngs`` (one seed or generator per copy)
    makes copy i bit-identical to the one-shot counter called with the
    same rng.

    ``backend="process"`` shards the K copies across *workers*
    processes (CLI: ``repro count --backend process --workers N``).
    With ``mode="mirror"`` the estimates equal the serial backend's
    for the same seeds, independently of the worker count; with
    ``mode="shared"`` each worker merges its shard of copies into one
    oracle (fast and deterministic given ``(rng, workers)``, but a
    different bit-stream than the serial shared run).
    """
    return count_fgp_fused(
        "insertion", stream, pattern, copies, epsilon, lower_bound, trials, rng,
        copy_rngs, param_mode, mode, batch_size, backend, workers, start_method, cache,
    )


def count_subgraphs_turnstile_fused(
    stream: EdgeStream,
    pattern: Pattern,
    copies: int = 8,
    epsilon: float = 0.1,
    lower_bound: Optional[float] = None,
    trials: Optional[int] = None,
    rng: RandomSource = None,
    copy_rngs: Optional[Sequence[RandomSource]] = None,
    param_mode: str = ParamMode.PRACTICAL,
    sampler_repetitions: int = 8,
    mode: str = FusionMode.SHARED,
    batch_size: int = DEFAULT_BATCH_SIZE,
    backend: str = EngineBackend.SERIAL,
    workers: Optional[int] = None,
    start_method: Optional[str] = None,
    cache=None,
) -> FusedCountResult:
    """Median of K fused Theorem-1 runs in exactly 3 turnstile passes.

    Works on streams with deletions; each copy's ℓ0-sketch bank is
    private in both modes (sketches hang off individual queries), so
    the copies stay independent.  Backend semantics as in
    :func:`count_subgraphs_insertion_only_fused`.
    """
    return count_fgp_fused(
        "turnstile", stream, pattern, copies, epsilon, lower_bound, trials, rng,
        copy_rngs, param_mode, mode, batch_size, backend, workers, start_method, cache,
        sampler_repetitions,
    )


def count_subgraphs_two_pass_fused(
    stream: EdgeStream,
    pattern: Pattern,
    copies: int = 8,
    epsilon: float = 0.1,
    lower_bound: Optional[float] = None,
    trials: Optional[int] = None,
    rng: RandomSource = None,
    copy_rngs: Optional[Sequence[RandomSource]] = None,
    param_mode: str = ParamMode.PRACTICAL,
    mode: str = FusionMode.SHARED,
    batch_size: int = DEFAULT_BATCH_SIZE,
    backend: str = EngineBackend.SERIAL,
    workers: Optional[int] = None,
    start_method: Optional[str] = None,
    cache=None,
) -> FusedCountResult:
    """Median of K fused 2-pass runs (star-decomposable H) in 2 passes.

    Backend semantics as in :func:`count_subgraphs_insertion_only_fused`.
    """
    return count_fgp_fused(
        "two-pass", stream, pattern, copies, epsilon, lower_bound, trials, rng,
        copy_rngs, param_mode, mode, batch_size, backend, workers, start_method, cache,
    )
