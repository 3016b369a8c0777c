"""Engine adapters for the library's estimators.

:class:`RoundAdaptiveEstimator` spreads the lockstep loop of
:func:`repro.transform.driver.run_round_adaptive` across engine passes:
at ``begin_pass`` it merges the live instances' round-ℓ batches and
opens an oracle pass-state (``oracle.begin_batch``), during the pass it
forwards every decoded update chunk, and at ``end_pass`` it collects
the answers and dispatches them back.  Merging and dispatching go
through the same lockstep program the sequential driver runs — an FGP
estimator's :class:`~repro.fgp.bank.FgpTrialBank`, or a
:class:`~repro.transform.driver.LockstepState` over generators — so a
fused run consumes randomness identically and returns
**bit-identical** estimates (asserted in
``tests/test_engine_equivalence.py``).

The ``fgp_*_estimator`` / ``ers_clique_estimator`` factories mirror the
corresponding one-shot entry points parameter for parameter — same
trial resolution, same rng derivation tree — differing only in who
iterates the stream.  The FGP ones are :func:`fgp_estimator` with the
kind fixed; it and the fused-copy group factory
:func:`fgp_group_estimator` build through
:func:`repro.streaming.counters.fgp_counter_program`.  Baseline
estimators (:class:`TriestEstimator`, :class:`DoulionEstimator`,
:class:`ExactStreamEstimator`) are re-exported from
:mod:`repro.baselines` for one-stop registration.

Because the factories are module-level callables taking ``(stream,
**picklable kwargs)``, they double as the ``factory`` of a
process-backend :class:`~repro.engine.parallel.EstimatorSpec`: a
worker rebuilds the estimator from ``(pattern, trials, rng)`` against
a :class:`~repro.engine.parallel.StreamHandle`.  A built
:class:`RoundAdaptiveEstimator` itself may hold live generator frames
and is deliberately *not* shipped — reconstruct from seeds.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable, List, Optional, Sequence

from repro.baselines.doulion import DoulionEstimator
from repro.baselines.exact_stream import ExactStreamEstimator
from repro.baselines.triest import TriestEstimator
from repro.engine.core import DecodedBatch
from repro.engine.parallel import EstimatorSpec
from repro.errors import (
    CheckpointError,
    EngineError,
    EstimationError,
    MergeError,
    OracleError,
)
from repro.estimate.concentration import ParamMode
from repro.oracle.base import QueryAccounting
from repro.patterns.pattern import Pattern
from repro.streaming.ers.counter import clique_counter_program
from repro.streaming.ers.params import ErsParameters
from repro.streaming.counters import copy_seeds, fgp_counter_program, resolve_trials
from repro.streams.stream import EdgeStream
from repro.transform.driver import RoundRunResult, lockstep
from repro.transform.insertion import InsertionStreamOracle
from repro.utils.checkpoint import state_field
from repro.utils.rng import RandomSource, derive_rng, ensure_rng

__all__ = [
    "RoundAdaptiveEstimator",
    "fgp_estimator",
    "fgp_insertion_estimator",
    "fgp_turnstile_estimator",
    "fgp_two_pass_estimator",
    "ers_clique_estimator",
    "TriestEstimator",
    "DoulionEstimator",
    "ExactStreamEstimator",
]


class RoundAdaptiveEstimator:
    """A lockstep program of round-adaptive instances driven by engine passes.

    Merge order and answer routing come from the same lockstep program
    that :func:`~repro.transform.driver.run_round_adaptive` would run,
    which is what makes fused runs bit-identical to sequential ones.

    Parameters
    ----------
    name:
        Registration key in the engine.
    program:
        A lockstep program (an :class:`~repro.fgp.bank.FgpTrialBank`)
        or a list of round-adaptive generators (see
        :func:`repro.transform.driver.lockstep`).
    oracle:
        A stream oracle exposing ``begin_batch(batch)`` returning a
        pass-state with ``ingest_batch(decoded)`` / ``finish()``.
    finalize:
        Maps the finished :class:`RoundRunResult` to the estimator's
        result (typically an :class:`~repro.estimate.result.EstimateResult`).
    """

    def __init__(self, name: str, program, oracle, finalize: Callable) -> None:
        self.name = name
        self._oracle = oracle
        self._finalize = finalize
        self._lockstep = lockstep(program)
        self._rounds = 0
        self._accounting = QueryAccounting()
        self._state = None
        self._result: Any = None
        # Per-round answer record: what checkpointing replays.  The
        # lockstep program (generator frames or a trial bank) is a pure
        # function of (construction seeds, dispatched answers), so the
        # answer history IS the portable form of its state.
        self._history: list = []
        # A fork's template's open pass and its round (see fork()).
        self._like = None
        self._like_round = -1

    @property
    def rounds(self) -> int:
        """Oracle rounds (= stream passes) consumed so far."""
        return self._rounds

    @property
    def passes_consumed(self) -> int:
        """Stream passes this estimator has already been driven through.

        Part of the engine's registration freshness check: an estimator
        that consumed passes elsewhere cannot join a new run without
        silently corrupting its pass accounting.
        """
        return self._rounds

    def wants_pass(self) -> bool:
        return self._lockstep.live

    def begin_pass(
        self, pass_index: int, primary: Optional["RoundAdaptiveEstimator"] = None
    ) -> None:
        """Open the oracle pass for this round's merged batch.

        *primary* is the shard-0 replica of this estimator, whose pass
        is already open: this replica's pass then shares its frozen
        structure (``oracle.begin_batch(batch, like=...)``) instead of
        building its own.
        """
        if self._state is not None:
            raise EngineError(f"estimator {self.name!r}: begin_pass while a pass is open")
        if not self._lockstep.live:
            raise EngineError(f"estimator {self.name!r}: begin_pass after completion")
        merged = self._lockstep.merge()
        self._accounting.record_batch(merged)
        if primary is None:
            self._state = self._oracle.begin_batch(merged)
            return
        if primary._state is None:
            raise EngineError(
                f"estimator {self.name!r}: its primary replica has no open pass to share"
            )
        self._state = self._oracle.begin_batch(merged, primary._state)

    def ingest_batch(self, batch: DecodedBatch) -> None:
        state = self._state
        if state is None:
            raise EngineError(f"estimator {self.name!r}: ingest_batch outside an open pass")
        state.ingest_batch(batch)

    def end_pass(self) -> list:
        """Close the open pass and dispatch its answers; returns them.

        The return value is what a scatter/merge driver broadcasts to
        the other shard replicas (see :meth:`end_pass_adopting`);
        ordinary engine loops ignore it.
        """
        if self._state is None:
            raise EngineError(f"estimator {self.name!r}: end_pass outside an open pass")
        answers = self._state.finish()
        self._state = None
        self._rounds += 1
        self._history.append(answers)
        self._lockstep.dispatch(answers)
        return answers

    def merge(self, other: "RoundAdaptiveEstimator") -> None:
        """Fold another shard replica's open pass into this one.

        Both estimators must be replicas — built from the same spec
        (same name, seeds and parameters), driven through the same
        rounds (identical answer histories), each currently holding an
        open pass for the same round — with *other* having ingested a
        disjoint shard of the stream.  The oracle-level merge validates
        the replica relation (seeds in lockstep, same pass index); the
        pass-state merge then adds the linear sketch aggregates.  On
        reservoir-backed paths either check raises a typed
        :class:`~repro.errors.MergeError` before any state is touched,
        so a sharded run over a non-mergeable estimator fails loudly
        instead of returning silently wrong estimates.
        """
        if not isinstance(other, RoundAdaptiveEstimator):
            raise MergeError(
                f"cannot merge RoundAdaptiveEstimator with {type(other).__name__}"
            )
        if other.name != self.name:
            raise MergeError(
                f"cannot merge estimator {other.name!r} into {self.name!r}: "
                "shard replicas must be built from the same spec"
            )
        if self._rounds != other._rounds or self._history != other._history:
            raise MergeError(
                f"cannot merge estimator {self.name!r}: the replicas' answer "
                f"histories diverged (self at round {self._rounds}, other at "
                f"round {other._rounds}); shards must adopt the merged answers "
                "each pass (end_pass_adopting) to stay in lockstep"
            )
        if self._state is None or other._state is None:
            raise MergeError(
                f"cannot merge estimator {self.name!r}: both replicas must "
                "hold an open pass (merge happens before end_pass)"
            )
        self._oracle.merge(other._oracle)
        self._state.merge(other._state)

    def end_pass_adopting(self, answers: Sequence) -> None:
        """Close the open pass, adopting the merged replica's *answers*.

        The scatter/merge driver merges all shards' pass states into one
        primary replica and ends that pass normally; every *other*
        replica then calls this — the local (shard-partial) answers are
        discarded, the pass's space is released, and the broadcast
        answers are recorded and dispatched instead, so all replicas
        consume identical randomness next round and stay mergeable.
        """
        if self._state is None:
            raise EngineError(
                f"estimator {self.name!r}: end_pass_adopting outside an open pass"
            )
        self._state.finish()
        self._state = None
        self._rounds += 1
        answers = list(answers)
        self._history.append(answers)
        self._lockstep.dispatch(answers)

    def result(self) -> Any:
        if self._lockstep.live:
            raise EngineError(f"estimator {self.name!r} has not finished its passes")
        if self._result is None:
            self._result = self._finalize(
                RoundRunResult(
                    outputs=self._lockstep.outputs,
                    rounds=self._rounds,
                    accounting=self._accounting,
                )
            )
        return self._result

    def state_dict(self) -> dict:
        """Portable state: answer history + oracle state + open pass.

        The lockstep program is not serialized; the capture records the
        per-round answers instead — :meth:`load_state_dict` replays them
        through a freshly built (same seeds) estimator, which
        reconstructs the exact program state.  The open pass (if
        any) is captured directly via its own ``state_dict``; oracle
        randomness rides along so the continuation is bit-identical.
        """
        return {
            "kind": "round-adaptive",
            "name": self.name,
            "rounds": self._rounds,
            "history": [list(answers) for answers in self._history],
            "accounting": self._accounting.state_dict(),
            "oracle": self._oracle.state_dict(),
            "pass_state": None if self._state is None else self._state.state_dict(),
        }

    def fork(self, stream) -> Optional["RoundAdaptiveEstimator"]:
        """A freshly built copy of this estimator over *stream*, from its frozen parts.

        Equal to rebuilding it from its spec: the program's fork (a
        trial bank over the same tape), a new oracle of the same
        configuration over *stream*, and the finalizer bound to both.
        Load a capture into it (:meth:`load_state_dict`); a captured
        pass at this estimator's current round then opens over this
        estimator's open pass (``begin_batch(batch, like=...)``) instead
        of laying the batch out again.  This estimator is never
        written.  ``None`` when the program cannot fork (generator
        frames): rebuild from the spec instead.
        """
        fork_program = getattr(self._lockstep, "fork", None)
        bind = getattr(self._finalize, "bind", None)
        if fork_program is None or bind is None:
            return None
        oracle = self._oracle.fork(stream)
        fork = RoundAdaptiveEstimator(self.name, fork_program(), oracle, bind(stream, oracle))
        fork._like, fork._like_round = self._state, self._rounds
        return fork

    def load_state_dict(self, state: dict) -> None:
        """Replay a capture into this *freshly built* estimator.

        The estimator must have been rebuilt from the same recipe
        (factory + kwargs + seeds) that produced the captured one —
        stream-dependent parameters (e.g. a trial budget resolved from
        ``stream.net_edge_count``) must be pinned explicitly in the
        recipe, otherwise the rebuilt structure drifts and the replay
        fails with a :class:`~repro.errors.CheckpointError`.
        """
        if self._rounds or self._state is not None or self._history:
            raise CheckpointError(
                f"estimator {self.name!r}: load_state_dict requires a freshly "
                "built estimator (rebuild from the spec, then load)"
            )
        captured_name = state_field("RoundAdaptiveEstimator", state, "name")
        if captured_name != self.name:
            raise CheckpointError(
                f"state of estimator {captured_name!r} cannot be loaded into "
                f"estimator {self.name!r}"
            )
        history = state_field("RoundAdaptiveEstimator", state, "history")
        if int(state_field("RoundAdaptiveEstimator", state, "rounds")) != len(history):
            raise CheckpointError(
                f"estimator {self.name!r}: state records "
                f"{state['rounds']} rounds but carries {len(history)} answer lists"
            )
        try:
            for answers in history:
                if not self._lockstep.live:
                    raise CheckpointError(
                        f"estimator {self.name!r}: its rounds finished before the "
                        "recorded history was replayed; the rebuilt estimator "
                        "does not match the captured structure"
                    )
                self._lockstep.merge()
                self._lockstep.dispatch(list(answers))
            pass_state = state_field("RoundAdaptiveEstimator", state, "pass_state")
            if pass_state is not None:
                if not self._lockstep.live:
                    raise CheckpointError(
                        f"estimator {self.name!r}: state carries an open pass but "
                        "its replayed rounds have finished"
                    )
                # Rebuild the pass structure from the replayed merged
                # batch (a fork shares its template's, at the same
                # round), then overlay the captured runtime state.  The
                # oracle rng position is restored below, so whatever
                # begin_batch consumed here is irrelevant.
                merged = self._lockstep.merge()
                like = self._like if self._like_round == len(history) else None
                self._like = None
                self._state = self._oracle.begin_batch(merged, like)
                self._state.load_state_dict(pass_state)
        except OracleError as error:
            raise CheckpointError(
                f"estimator {self.name!r}: replaying the recorded history failed "
                f"({error}); the estimator was rebuilt with a different structure "
                "— pin stream-dependent parameters (e.g. trials) in the recipe"
            ) from error
        self._oracle.load_state_dict(state_field("RoundAdaptiveEstimator", state, "oracle"))
        self._accounting.load_state_dict(
            state_field("RoundAdaptiveEstimator", state, "accounting")
        )
        self._rounds = len(history)
        self._history = [list(answers) for answers in history]


def fgp_estimator(
    stream: EdgeStream,
    kind: str,
    pattern: Pattern,
    epsilon: float = 0.1,
    lower_bound: Optional[float] = None,
    trials: Optional[int] = None,
    rng: RandomSource = None,
    param_mode: str = ParamMode.PRACTICAL,
    sampler_repetitions: int = 8,
    name: Optional[str] = None,
) -> RoundAdaptiveEstimator:
    """FGP counter *kind* (a key of :data:`~repro.streaming.counters.FGP_COUNTERS`)
    as an engine estimator, named ``fgp-<kind>`` by default.

    Same parameters and randomness tree as
    :func:`~repro.streaming.counters.count_fgp`: the estimator is one
    standalone copy, so a fused run with rng R equals the one-shot call
    with rng R bit for bit.
    """
    k = resolve_trials(stream, pattern, epsilon, lower_bound, trials, param_mode)
    oracle_seed, trial_seeds = copy_seeds(rng, k)
    oracle, bank, finalize = fgp_counter_program(
        kind, stream, pattern, [trial_seeds], oracle_seed,
        sampler_repetitions=sampler_repetitions,
    )
    return RoundAdaptiveEstimator(
        name or f"fgp-{kind}", bank, oracle, replace(finalize, single=True)
    )


def copy_specs(
    factory: Callable[..., Any], options: dict, copies: int, seed: int
) -> List[EstimatorSpec]:
    """The specs of a median-of-*copies* count: ``copy-{i}`` with ``rng = seed + 1 + i``.

    Each spec builds ``factory(stream, **options)`` under its own name
    and seed — the copy layout ``repro live`` and ``repro serve`` share.
    """
    return [
        EstimatorSpec(
            name=f"copy-{index}",
            factory=factory,
            kwargs=dict(options, rng=seed + 1 + index, name=f"copy-{index}"),
        )
        for index in range(copies)
    ]


def fgp_group_estimator(
    stream,
    kind: str,
    pattern: Pattern,
    trial_seeds: Sequence[Sequence[int]],
    oracle_seed: int,
    copy_indices: Optional[Sequence[int]],
    name: str,
    sampler_repetitions: int = 8,
) -> RoundAdaptiveEstimator:
    """Spec factory: one oracle shared by a group of fused copies.

    ``trial_seeds[j][t]`` seeds the group's copy j's trial t; the result
    is the list of the copies' results (see
    :func:`~repro.streaming.counters.fgp_counter_program`).  A mirror
    copy is a group of one with *copy_indices* ``None``.
    """
    oracle, bank, finalize = fgp_counter_program(
        kind, stream, pattern, trial_seeds, oracle_seed, copy_indices, sampler_repetitions
    )
    return RoundAdaptiveEstimator(name, bank, oracle, finalize)


def fgp_insertion_estimator(
    stream: EdgeStream,
    pattern: Pattern,
    epsilon: float = 0.1,
    lower_bound: Optional[float] = None,
    trials: Optional[int] = None,
    rng: RandomSource = None,
    param_mode: str = ParamMode.PRACTICAL,
    name: str = "fgp-insertion",
) -> RoundAdaptiveEstimator:
    """Theorem 17's counter as an engine estimator (mirrors
    :func:`~repro.streaming.three_pass.count_subgraphs_insertion_only`)."""
    return fgp_estimator(
        stream, "insertion", pattern, epsilon, lower_bound, trials, rng, param_mode, name=name
    )


def fgp_turnstile_estimator(
    stream: EdgeStream,
    pattern: Pattern,
    epsilon: float = 0.1,
    lower_bound: Optional[float] = None,
    trials: Optional[int] = None,
    rng: RandomSource = None,
    param_mode: str = ParamMode.PRACTICAL,
    sampler_repetitions: int = 8,
    name: str = "fgp-turnstile",
) -> RoundAdaptiveEstimator:
    """Theorem 1's turnstile counter as an engine estimator
    (mirrors :func:`~repro.streaming.turnstile.count_subgraphs_turnstile`)."""
    return fgp_estimator(
        stream, "turnstile", pattern, epsilon, lower_bound, trials, rng, param_mode,
        sampler_repetitions, name,
    )


def fgp_two_pass_estimator(
    stream: EdgeStream,
    pattern: Pattern,
    epsilon: float = 0.1,
    lower_bound: Optional[float] = None,
    trials: Optional[int] = None,
    rng: RandomSource = None,
    param_mode: str = ParamMode.PRACTICAL,
    name: str = "fgp-two-pass",
) -> RoundAdaptiveEstimator:
    """The 2-pass star-decomposable counter as an engine estimator
    (mirrors :func:`~repro.streaming.two_pass.count_subgraphs_two_pass`)."""
    return fgp_estimator(
        stream, "two-pass", pattern, epsilon, lower_bound, trials, rng, param_mode, name=name
    )


def ers_clique_estimator(
    stream: EdgeStream,
    r: int,
    degeneracy_bound: int,
    lower_bound: float,
    epsilon: float = 0.2,
    params: Optional[ErsParameters] = None,
    rng: RandomSource = None,
    name: str = "ers-clique",
) -> RoundAdaptiveEstimator:
    """Theorem 2's clique counter (<= 5r passes) as an engine estimator
    (mirrors :func:`~repro.streaming.ers.counter.count_cliques_stream`)."""
    if stream.allows_deletions:
        raise EstimationError("the ERS counter is an insertion-only algorithm")
    random_state = ensure_rng(rng)
    if params is None:
        params = ErsParameters(r=r, degeneracy_bound=degeneracy_bound, epsilon=epsilon)
    oracle = InsertionStreamOracle(stream, derive_rng(random_state, "oracle"))
    runs, finalize_run = clique_counter_program(
        params, lower_bound, stream.n, oracle, random_state
    )

    def finalize(run_result):
        result = finalize_run(run_result)
        result.m = stream.net_edge_count
        return result

    return RoundAdaptiveEstimator(name, runs, oracle, finalize)
