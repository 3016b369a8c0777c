"""Theorem 1: the 3-pass turnstile subgraph counter.

Identical estimator shape to Theorem 17, but every instance speaks the
relaxed query dialect (Definition 10) and the oracle answers over a
turnstile stream with ℓ0-samplers (Theorem 11's emulation):

* f1 — ℓ0-sample of the adjacency-matrix vector,
* f3 — ℓ0-sample of the queried vertex's adjacency column,
* f2/f4 — signed counters.

Space per instance is O(log^4 n) bits (Lemma 7), total
~O(m^ρ(H)/(ε² #H)) — Theorem 1's bound.
"""

from __future__ import annotations

from typing import Optional

from repro.estimate.concentration import ParamMode
from repro.estimate.result import EstimateResult
from repro.patterns.pattern import Pattern
from repro.streaming.counters import count_fgp
from repro.streams.stream import EdgeStream
from repro.utils.rng import RandomSource


def count_subgraphs_turnstile(
    stream: EdgeStream,
    pattern: Pattern,
    epsilon: float = 0.1,
    lower_bound: Optional[float] = None,
    trials: Optional[int] = None,
    rng: RandomSource = None,
    param_mode: str = ParamMode.PRACTICAL,
    sampler_repetitions: int = 8,
) -> EstimateResult:
    """Theorem 1: (1±ε)-approximate #H in 3 turnstile passes.

    Works on streams with deletions; the estimate concerns the final
    graph (all updates applied).  *sampler_repetitions* trades ℓ0
    failure probability against space.
    """
    return count_fgp(
        "turnstile", stream, pattern, epsilon, lower_bound, trials, rng, param_mode,
        sampler_repetitions,
    )
