"""Query-model wrappers around the FGP sampler (Algorithms 9–11).

These drive an :class:`~repro.fgp.bank.FgpTrialBank` against a direct
oracle, giving the sublinear-time algorithms of [FGP20]:

* :func:`sample_subgraph_once` — one attempt (Algorithm 9);
* :func:`sample_subgraph_uniformly` — repeat until success
  (Algorithm 10); conditioned on success the returned copy is
  uniform among all copies, because every copy is returned with the
  same probability 1/(2m)^ρ(H);
* :func:`count_subgraph_query_model` — the biased-coin estimator
  (Algorithm 11): #H ≈ (2m)^ρ(H) × (success fraction).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from repro.errors import EstimationError
from repro.fgp.bank import FgpTrialBank
from repro.fgp.rounds import SampledCopy, SamplerMode
from repro.oracle.direct import DirectAugmentedOracle, DirectRelaxedOracle
from repro.patterns.pattern import Pattern
from repro.transform.driver import run_round_adaptive
from repro.utils.rng import RandomSource, derive_rng, ensure_rng


def _mode_for(oracle) -> str:
    if isinstance(oracle, DirectRelaxedOracle):
        return SamplerMode.RELAXED
    return SamplerMode.AUGMENTED


def sample_subgraph_once(
    oracle: DirectAugmentedOracle, pattern: Pattern, rng: RandomSource = None
) -> Optional[SampledCopy]:
    """One FGP sampling attempt against a direct oracle."""
    bank = FgpTrialBank(pattern, [rng], mode=_mode_for(oracle))
    result = run_round_adaptive(bank, oracle)
    return result.outputs[0]


def sample_subgraph_uniformly(
    oracle: DirectAugmentedOracle,
    pattern: Pattern,
    rng: RandomSource = None,
    attempts: Optional[int] = None,
    copies_lower_bound: int = 1,
) -> Optional[SampledCopy]:
    """Repeat attempts until a copy is found (Algorithm 10).

    The default attempt budget is the paper's
    ``10 * (2m)^ρ(H) / T`` with ``T = copies_lower_bound``; pass
    *attempts* to override.  Returns ``None`` if every attempt fails.
    """
    random_state = ensure_rng(rng)
    if attempts is None:
        m = oracle.edge_count()
        attempts = max(1, math.ceil(10.0 * (2.0 * m) ** pattern.rho() / copies_lower_bound))
    for attempt in range(attempts):
        child = derive_rng(random_state, f"uniform-{attempt}")
        copy = sample_subgraph_once(oracle, pattern, child)
        if copy is not None:
            return copy
    return None


@dataclass
class QueryCountEstimate:
    """Result of the query-model counting estimator."""

    estimate: float
    successes: int
    attempts: int
    m: int
    rho: float

    @property
    def success_rate(self) -> float:
        return self.successes / self.attempts if self.attempts else 0.0


def count_subgraph_query_model(
    oracle: DirectAugmentedOracle,
    pattern: Pattern,
    attempts: int,
    rng: RandomSource = None,
) -> QueryCountEstimate:
    """Estimate #H via the success rate of *attempts* FGP samples.

    E[successes/attempts] = #H / (2m)^ρ(H) exactly (Lemma 15), so the
    returned estimate is unbiased.  The caller picks the attempt
    budget; Theorem 17's choice is Θ((2m)^ρ ln n / (ε² #H)).
    """
    if attempts < 1:
        raise EstimationError(f"attempts must be >= 1, got {attempts}")
    random_state = ensure_rng(rng)
    mode = _mode_for(oracle)
    bank = FgpTrialBank(
        pattern, [derive_rng(random_state, i) for i in range(attempts)], mode=mode
    )
    result = run_round_adaptive(bank, oracle)
    successes = sum(1 for output in result.outputs if output is not None)
    m = oracle.edge_count()
    rho = pattern.rho()
    estimate = (successes / attempts) * (2.0 * m) ** rho
    return QueryCountEstimate(
        estimate=estimate, successes=successes, attempts=attempts, m=m, rho=rho
    )
