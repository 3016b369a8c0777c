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

``backend="thread"`` / ``backend="process"``
    The copies are sharded across a pool of ``workers`` daemon threads
    or processes (:mod:`repro.engine.parallel`); the driver reads the
    stream once per pass and publishes decoded batches — by reference
    to threads, through a shared-memory ring to processes.
    Mirror-mode estimates are bit-identical to the serial backend for
    the same seeds, independent of the worker count *and* of which
    parallel backend ran them; shared-mode runs merge each *shard*
    into one oracle (deterministic given ``(rng, workers)``, identical
    between the two parallel backends for the same pool size).  CLI:
    ``repro count --backend thread|process --workers N``.

Every backend runs the same spec list: mirror mode registers one
:class:`~repro.engine.parallel.EstimatorSpec` per copy, shared mode one
:func:`build_shared_fgp_shard` spec per group of copies (one group of
all K copies on the serial backend, one per worker otherwise).  The
serial engine builds the specs against the real stream; the pools
ship them to the workers.  The sharded count
(:func:`~repro.engine.sharded.count_subgraphs_turnstile_sharded`)
reuses the mirror path and only swaps the engine for a
:class:`~repro.engine.sharded.ShardedRunner`.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine.core import DEFAULT_BATCH_SIZE, EngineBackend, EngineReport, StreamEngine
from repro.engine.estimators import (
    RoundAdaptiveEstimator,
    fgp_insertion_estimator,
    fgp_turnstile_estimator,
    fgp_two_pass_estimator,
)
from repro.engine.parallel import EstimatorSpec, resolve_workers, shard_indices
from repro.errors import EngineError, EstimationError
from repro.estimate.concentration import ParamMode, relative_error
from repro.estimate.result import EstimateResult
from repro.fgp.rounds import SamplerMode, subgraph_sampler_rounds
from repro.patterns.pattern import Pattern
from repro.streaming.three_pass import fgp_success_estimate, resolve_trials
from repro.streaming.two_pass import require_star_decomposable
from repro.streams.stream import EdgeStream
from repro.transform.insertion import InsertionStreamOracle
from repro.transform.turnstile import TurnstileStreamOracle
from repro.utils.rng import RandomSource, derive_seed, ensure_rng

__all__ = [
    "FusionMode",
    "FusedCountResult",
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


#: Per counter kind: the mirror-copy estimator factory, the algorithm
#: label, and the sampler mode and options of its shared-mode generators.
_KINDS: Dict[str, Tuple[Callable, str, str, Dict]] = {
    "insertion": (
        fgp_insertion_estimator, "fgp-3pass-insertion", SamplerMode.AUGMENTED, {}
    ),
    "turnstile": (
        fgp_turnstile_estimator, "fgp-3pass-turnstile", SamplerMode.RELAXED, {}
    ),
    "two_pass": (
        fgp_two_pass_estimator,
        "fgp-2pass-insertion",
        SamplerMode.AUGMENTED,
        {"skip_empty_wedge_round": True},
    ),
}


def _shared_fgp_finalize(
    stream,
    pattern: Pattern,
    copy_indices: Sequence[int],
    trials: int,
    oracle,
    algorithm: str,
) -> Callable:
    """Slice a merged run's outputs into per-copy EstimateResults.

    The merged oracle meters its whole ensemble (all copies of a serial
    shared run, or one worker's shard of them); each copy's
    ``space_words`` is its share (ceil(peak/len(copy_indices)) —
    queries are uniform across copies), so summing over copies matches
    the ensemble instead of overcounting K-fold.  ``copy_indices``
    carries the copies' *global* indices so the ``fused_copy``
    diagnostic survives sharding; the ensemble's metered total rides
    along in ``details["shard_space_words"]``.
    """

    def finalize(run) -> List[EstimateResult]:
        m = stream.net_edge_count
        rho = pattern.rho()
        ensemble_space = oracle.space.peak_words
        per_copy_space = -(-ensemble_space // len(copy_indices))
        results = []
        for slot, copy in enumerate(copy_indices):
            outputs = run.outputs[slot * trials : (slot + 1) * trials]
            successes, estimate = fgp_success_estimate(outputs, trials, m, rho)
            results.append(
                EstimateResult(
                    algorithm=algorithm,
                    pattern=pattern.name,
                    estimate=estimate,
                    passes=run.rounds,
                    space_words=per_copy_space,
                    trials=trials,
                    successes=successes,
                    m=m,
                    details={
                        "rho": rho,
                        "success_rate": successes / trials,
                        "fused_copy": float(copy),
                        "shard_space_words": float(ensemble_space),
                    },
                )
            )
        return results

    return finalize


def build_shared_fgp_shard(
    stream,
    kind: str,
    algorithm: str,
    pattern: Pattern,
    trials: int,
    copy_indices: Sequence[int],
    trial_seeds: Sequence[Sequence],
    oracle_seed,
    name: str,
    sampler_mode: str,
    sampler_kwargs: Dict,
    sampler_repetitions: int = 8,
) -> RoundAdaptiveEstimator:
    """Spec factory: one merged oracle for a group of shared-mode copies.

    Builds one oracle plus ``len(copy_indices) × trials`` sampler
    generators: over all K copies for the serial backend, over one
    worker's group of copies for the parallel backends.
    ``trial_seeds[j][t]`` seeds copy ``copy_indices[j]``'s trial *t*
    (ints from :func:`~repro.utils.rng.derive_seed`, or any
    ``RandomSource``).  ``sampler_mode``/``sampler_kwargs`` are
    forwarded verbatim from the fused entry point, so the serial and
    sharded shared paths cannot drift apart; ``kind`` only selects the
    oracle class (``"turnstile"`` vs the insertion oracle).
    """
    if kind == "turnstile":
        oracle = TurnstileStreamOracle(
            stream, oracle_seed, sampler_repetitions=sampler_repetitions
        )
    elif kind in ("insertion", "two_pass"):
        oracle = InsertionStreamOracle(stream, oracle_seed)
    else:
        raise EngineError(f"unknown shared-shard kind {kind!r}")
    generators = [
        subgraph_sampler_rounds(pattern, rng=seed, mode=sampler_mode, **sampler_kwargs)
        for copy_trial_seeds in trial_seeds
        for seed in copy_trial_seeds
    ]
    finalize = _shared_fgp_finalize(
        stream, pattern, list(copy_indices), trials, oracle, algorithm
    )
    return RoundAdaptiveEstimator(name, generators, oracle, finalize)


def _mirror_specs(
    kind: str, pattern: Pattern, trials: int, copy_rngs: Sequence, sampler_repetitions: int
) -> List[EstimatorSpec]:
    """One fully independent estimator per copy.

    Every copy gets the already-resolved budget, so the reported
    ``trials_per_copy`` cannot drift from what the copies ran.  The
    copies' full independence makes any backend, worker count or shard
    count return the serial estimates for the same ``copy_rngs``.
    """
    factory = _KINDS[kind][0]
    extra = {"sampler_repetitions": sampler_repetitions} if kind == "turnstile" else {}
    return [
        EstimatorSpec(
            name=f"copy-{index}",
            factory=factory,
            kwargs=dict(
                pattern=pattern, trials=trials, rng=copy_rng, name=f"copy-{index}", **extra
            ),
        )
        for index, copy_rng in enumerate(copy_rngs)
    ]


def _shared_specs(
    kind: str,
    pattern: Pattern,
    trials: int,
    copies: int,
    master,
    backend: str,
    workers,
    sampler_repetitions: int,
) -> List[EstimatorSpec]:
    """One merged-oracle estimator per group of copies.

    The serial backend merges all K copies into one oracle (spec
    ``"fused"``); the parallel backends give each worker one oracle for
    its contiguous group (specs ``"shard-i"``), so the estimates depend
    on ``(rng, workers)`` but not on the pool flavour.  Serial seeds are
    derived oracle first, then the trials copy by copy; parallel seeds
    trials first, in global copy-major order, so only the group oracles
    vary with the pool size.
    """
    _, algorithm, sampler_mode, sampler_kwargs = _KINDS[kind]
    serial = backend == EngineBackend.SERIAL
    if serial:
        oracle_seeds = [derive_seed(master, "oracle")]
    trial_seeds = [
        [derive_seed(master, f"copy-{copy}-trial-{trial}") for trial in range(trials)]
        for copy in range(copies)
    ]
    if serial:
        groups, names = [list(range(copies))], ["fused"]
    else:
        groups = shard_indices(copies, resolve_workers(workers, copies))
        oracle_seeds = [
            derive_seed(master, f"oracle-shard-{group}") for group in range(len(groups))
        ]
        names = [f"shard-{group}" for group in range(len(groups))]
    return [
        EstimatorSpec(
            name=name,
            factory=build_shared_fgp_shard,
            kwargs=dict(
                kind=kind,
                algorithm=algorithm,
                pattern=pattern,
                trials=trials,
                copy_indices=indices,
                trial_seeds=[trial_seeds[copy] for copy in indices],
                oracle_seed=oracle_seed,
                name=name,
                sampler_mode=sampler_mode,
                sampler_kwargs=sampler_kwargs,
                sampler_repetitions=sampler_repetitions,
            ),
        )
        for name, indices, oracle_seed in zip(names, groups, oracle_seeds)
    ]


def _engine_runner(stream, batch_size, backend, workers, start_method, cache) -> Callable:
    """Run a spec list on one :class:`StreamEngine` over *stream*."""

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

    return run_specs


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
    if mode == FusionMode.MIRROR:
        if copy_rngs is None:
            # Derive *seeds*, not generators: Random(derive_seed(...))
            # equals derive_rng(...) bit for bit, and an int crosses the
            # process-backend boundary as ~30 bytes instead of a
            # ~2.5 KB pickled Mersenne state.
            copy_rngs = [derive_seed(master, f"copy-{index}") for index in range(copies)]
        specs = _mirror_specs(kind, pattern, k, copy_rngs, sampler_repetitions)
    else:
        specs = _shared_specs(
            kind, pattern, k, copies, master, backend, workers, sampler_repetitions
        )
    report = run_specs(specs)
    details = {
        "trials_per_copy": float(k),
        "elements": float(report.elements),
        "batch_size": float(report.batch_size),
        "workers": float(report.workers),
    }
    if mode == FusionMode.MIRROR:
        copy_results = [report.results[spec.name] for spec in specs]
    else:
        groups = [report.results[spec.name] for spec in specs]
        copy_results = [result for group in groups for result in group]
        details["ensemble_space_words"] = float(
            sum(int(group[0].details["shard_space_words"]) for group in groups)
        )
    median = statistics.median(result.estimate for result in copy_results)
    result = FusedCountResult(
        algorithm=_KINDS[kind][1],
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

    ``backend="thread"`` / ``backend="process"`` shard the K copies
    across *workers* threads or processes (CLI: ``repro count
    --backend thread --workers N``).  With ``mode="mirror"`` the
    estimates equal the serial backend's for the same seeds,
    independently of the worker count and pool flavour; with
    ``mode="shared"`` each worker merges its shard of copies into one
    oracle (fast, deterministic given ``(rng, workers)`` and identical
    across the two parallel backends, but a different bit-stream than
    the serial shared run).
    """
    return _fused_fgp_count(
        "insertion", stream,
        _engine_runner(stream, batch_size, backend, workers, start_method, cache),
        pattern, copies, epsilon, lower_bound, trials, rng, copy_rngs, param_mode,
        mode, backend, workers,
    )[0]


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
    return _fused_fgp_count(
        "turnstile", stream,
        _engine_runner(stream, batch_size, backend, workers, start_method, cache),
        pattern, copies, epsilon, lower_bound, trials, rng, copy_rngs, param_mode,
        mode, backend, workers, sampler_repetitions,
    )[0]


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
    require_star_decomposable(pattern)
    return _fused_fgp_count(
        "two_pass", stream,
        _engine_runner(stream, batch_size, backend, workers, start_method, cache),
        pattern, copies, epsilon, lower_bound, trials, rng, copy_rngs, param_mode,
        mode, backend, workers,
    )[0]
