"""The FGP counter table and the one program builder behind every FGP count.

All three counters run k FGP sampler instances in lockstep over shared
passes, count how many returned a copy, and rescale:

    #H ≈ (successes / k) * (2m)^ρ(H).

They differ only in the oracle that answers the rounds, the sampler's
query dialect, and the 2-pass counter's star-only guard.
:data:`FGP_COUNTERS` holds exactly those differences, keyed by counter
kind (``insertion``, ``turnstile``, ``two-pass``), and
:func:`fgp_counter_program` builds every run from it: the one-shot
``count_subgraphs_*`` counters and the engine's estimators, the fused
mirror copies (each a group of one, seeded by :func:`copy_seeds`) and
shared-mode groups, the sharded and the live counts.  This is the one
module that knows what a kind means.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import EstimationError
from repro.estimate.concentration import ParamMode, chernoff_trials
from repro.estimate.result import EstimateResult
from repro.fgp.bank import FgpTrialBank
from repro.fgp.rounds import SamplerMode
from repro.patterns.pattern import Pattern
from repro.streams.stream import EdgeStream
from repro.transform.driver import run_round_adaptive
from repro.transform.insertion import InsertionStreamOracle
from repro.transform.turnstile import TurnstileStreamOracle
from repro.utils.rng import RandomSource, derive_seed, ensure_rng


@dataclass(frozen=True)
class FgpCounter:
    """What distinguishes one FGP counter kind from another.

    ``oracle`` is ``"insertion"`` (reservoir-backed, Theorem 9) or
    ``"turnstile"`` (ℓ0-sketch-backed, Theorem 11).  ``star_only``
    marks the 2-pass counter: it requires a star-only decomposition
    (:func:`require_star_decomposable`) and elides the empty wedge
    round, so the sampler takes two rounds instead of three.
    """

    algorithm: str
    sampler_mode: str
    oracle: str
    star_only: bool = False


#: Every FGP counter kind, in the order the CLI and sweeps list them.
FGP_COUNTERS = {
    "insertion": FgpCounter("fgp-3pass-insertion", SamplerMode.AUGMENTED, "insertion"),
    "turnstile": FgpCounter("fgp-3pass-turnstile", SamplerMode.RELAXED, "turnstile"),
    "two-pass": FgpCounter(
        "fgp-2pass-insertion", SamplerMode.AUGMENTED, "insertion", star_only=True
    ),
}


def fgp_counter(kind: str) -> FgpCounter:
    """The table entry of counter *kind*; an unknown kind is an EstimationError."""
    if kind not in FGP_COUNTERS:
        raise EstimationError(
            f"unknown FGP counter kind {kind!r}; expected one of {list(FGP_COUNTERS)}"
        )
    return FGP_COUNTERS[kind]


def is_star_decomposable(pattern: Pattern) -> bool:
    """Whether H's optimal Lemma 4 decomposition uses only stars."""
    return not pattern.decomposition().cycle_lengths


def require_star_decomposable(pattern: Pattern) -> None:
    """Raise unless the 2-pass counter supports *pattern*."""
    if not is_star_decomposable(pattern):
        cycles = pattern.decomposition().cycle_lengths
        raise EstimationError(
            f"pattern {pattern.name!r} decomposes with odd cycles {cycles}; "
            "the 2-pass counter requires a star-only decomposition"
        )


def is_turnstile(kind: str) -> bool:
    """Whether estimator *kind* reads turnstile streams: an FGP kind
    whose oracle is the turnstile one (so it accepts deletions and its
    per-shard states merge).  Any other name, such as ``triest``, is not."""
    return kind in FGP_COUNTERS and FGP_COUNTERS[kind].oracle == "turnstile"


def check_pattern(kind: str, pattern: Pattern) -> None:
    """Raise unless counter *kind* supports *pattern* (the star-only guard)."""
    if fgp_counter(kind).star_only:
        require_star_decomposable(pattern)


def resolve_trials(
    stream: EdgeStream,
    pattern: Pattern,
    epsilon: float,
    lower_bound: Optional[float],
    trials: Optional[int],
    mode: str = ParamMode.PRACTICAL,
) -> int:
    """The instance budget k for a counting run.

    Explicit *trials* wins; otherwise the Chernoff budget for the
    given ε and lower bound L is used (the common convention of
    parameterizing by #H — see §1.1 of the paper; the harness knows m
    because it generated the stream).
    """
    if trials is not None:
        if trials < 1:
            raise EstimationError(f"trials must be >= 1, got {trials}")
        return trials
    if lower_bound is None:
        raise EstimationError("either trials or lower_bound must be given")
    return chernoff_trials(
        m=max(1, stream.net_edge_count),
        rho=pattern.rho(),
        epsilon=epsilon,
        n=stream.n,
        lower_bound=lower_bound,
        mode=mode,
    )


def fgp_counter_program(
    kind: str,
    stream,
    pattern: Pattern,
    trial_rngs: Sequence[Sequence[RandomSource]],
    oracle_rng: RandomSource,
    copy_indices: Optional[Sequence[int]] = None,
    sampler_repetitions: int = 8,
):
    """Build one oracle shared by a group of copies of counter *kind*.

    ``trial_rngs[j][t]`` seeds copy j's trial t (every copy runs the
    same number of trials); *oracle_rng* seeds the one oracle that
    answers all of them.  Returns ``(oracle, bank, finalize)``: the
    :class:`~repro.fgp.bank.FgpTrialBank` holds every copy's trials,
    copy by copy; drive it against the oracle (sequentially with
    :func:`~repro.transform.driver.run_round_adaptive`, or through
    engine passes), then ``finalize(run)`` returns one
    :class:`~repro.estimate.result.EstimateResult` per copy.

    Each copy's ``space_words`` and ``details["queries"]`` are its
    share of the group's metered peak and query total (ceil(total /
    copies) — the copies run alike), so summing over copies matches the
    group instead of overcounting it.  *copy_indices* names the copies'
    global indices in a fused shared-mode ensemble: they are recorded
    as ``details["fused_copy"]``, beside the group's metered peak in
    ``details["shard_space_words"]``.  A standalone copy (a one-shot
    count or a mirror copy) passes ``None`` and records neither, so its
    result equals the one-shot counter's.
    """
    counter = fgp_counter(kind)
    check_pattern(kind, pattern)
    copies, trials = len(trial_rngs), len(trial_rngs[0])
    if counter.oracle == "turnstile":
        oracle = TurnstileStreamOracle(
            stream, oracle_rng, sampler_repetitions=sampler_repetitions
        )
    else:
        oracle = InsertionStreamOracle(stream, oracle_rng)
    bank = FgpTrialBank(
        pattern,
        [rng for copy_rngs in trial_rngs for rng in copy_rngs],
        mode=counter.sampler_mode,
        skip_empty_wedge_round=counter.star_only,
    )

    def finalize(run) -> List[EstimateResult]:
        m = stream.net_edge_count
        rho = pattern.rho()
        peak = oracle.space.peak_words
        results = []
        for slot in range(copies):
            outputs = run.outputs[slot * trials : (slot + 1) * trials]
            successes = sum(1 for output in outputs if output is not None)
            estimate = (successes / trials) * (2.0 * m) ** rho if m else 0.0
            details = {
                "rho": rho,
                "queries": float(-(-run.total_queries // copies)),
                "success_rate": successes / trials,
            }
            if copy_indices is not None:
                details["fused_copy"] = float(copy_indices[slot])
                details["shard_space_words"] = float(peak)
            results.append(
                EstimateResult(
                    algorithm=counter.algorithm,
                    pattern=pattern.name,
                    estimate=estimate,
                    passes=run.rounds,
                    space_words=-(-peak // copies),
                    trials=trials,
                    successes=successes,
                    m=m,
                    details=details,
                )
            )
        return results

    return oracle, bank, finalize


def copy_seeds(rng: RandomSource, trials: int) -> Tuple[int, List[int]]:
    """A standalone copy's oracle seed and trial seeds, drawn from *rng*.

    Drawn in the one-shot counters' order — the oracle's first, then
    trial by trial — as ints (``Random(derive_seed(R, label))`` equals
    ``derive_rng(R, label)``), so a mirror copy seeded with R is bit
    for bit the one-shot counter called with R, and its seeds cross a
    process boundary as plain ints.
    """
    random_state = ensure_rng(rng)
    oracle_seed = derive_seed(random_state, "oracle")
    return oracle_seed, [derive_seed(random_state, trial) for trial in range(trials)]


def count_fgp(
    kind: str,
    stream: EdgeStream,
    pattern: Pattern,
    epsilon: float = 0.1,
    lower_bound: Optional[float] = None,
    trials: Optional[int] = None,
    rng: RandomSource = None,
    param_mode: str = ParamMode.PRACTICAL,
    sampler_repetitions: int = 8,
) -> EstimateResult:
    """The one-shot counter *kind* (a key of :data:`FGP_COUNTERS`).

    Sizes the run with :func:`resolve_trials`, zeroes the stream's
    pass counter and drives one standalone copy over the stream.
    """
    k = resolve_trials(stream, pattern, epsilon, lower_bound, trials, param_mode)
    stream.reset_pass_count()
    oracle_seed, trial_seeds = copy_seeds(rng, k)
    oracle, bank, finalize = fgp_counter_program(
        kind, stream, pattern, [trial_seeds], oracle_seed,
        sampler_repetitions=sampler_repetitions,
    )
    return finalize(run_round_adaptive(bank, oracle))[0]
