"""Theorem 17: the 3-pass insertion-only subgraph counter.

Runs k independent FGP sampler instances *in parallel* over the same
three passes (the driver merges every instance's round-ℓ queries into
pass ℓ), counts how many returned a copy, and rescales:

    #H ≈ (successes / k) * (2m)^ρ(H).

Each instance needs O(|H| log n) bits, so total space is O(k log n) =
~O(m^ρ(H) / (ε² L)) — the theorem's bound, measured here by the
oracle's space meter.
"""

from __future__ import annotations

from typing import List, Optional

from repro.estimate.concentration import ParamMode
from repro.estimate.result import EstimateResult
from repro.fgp.rounds import SampledCopy
from repro.patterns.pattern import Pattern
from repro.streaming.counters import (
    copy_seeds,
    count_fgp,
    fgp_counter_program,
    resolve_trials,
)
from repro.streams.stream import EdgeStream
from repro.transform.driver import run_round_adaptive
from repro.utils.rng import RandomSource


def sample_copies_stream(
    stream: EdgeStream,
    pattern: Pattern,
    instances: int,
    rng: RandomSource = None,
) -> List[Optional[SampledCopy]]:
    """Run *instances* FGP samplers over 3 shared passes; return outputs.

    Output i is the copy instance i sampled, or ``None``.  Useful for
    the uniform-sampling experiments (each fixed copy appears with
    probability 1/(2m)^ρ(H) per instance, independently).
    """
    oracle_seed, trial_seeds = copy_seeds(rng, instances)
    oracle, bank, _ = fgp_counter_program(
        "insertion", stream, pattern, [trial_seeds], oracle_seed
    )
    return run_round_adaptive(bank, oracle).outputs


def count_subgraphs_insertion_only(
    stream: EdgeStream,
    pattern: Pattern,
    epsilon: float = 0.1,
    lower_bound: Optional[float] = None,
    trials: Optional[int] = None,
    rng: RandomSource = None,
    param_mode: str = ParamMode.PRACTICAL,
) -> EstimateResult:
    """Theorem 17: (1±ε)-approximate #H in 3 insertion-only passes.

    Parameters
    ----------
    stream:
        An insertion-only edge stream (arbitrary order).
    pattern:
        The target subgraph H.
    epsilon, lower_bound, trials, param_mode:
        Trial-budget controls; see :func:`resolve_trials`.
    """
    return count_fgp(
        "insertion", stream, pattern, epsilon, lower_bound, trials, rng, param_mode
    )
