"""Counting with *no* prior knowledge of #H.

The paper (§1.1) parameterizes its algorithms by a lower bound
L <= #H and points to the standard fix when nothing is known: a
geometric search over L (the device made explicit in Lemma 21 for the
ERS counter).  This module wires the full workflow together for
arbitrary H:

1. start from the AGM bound m^ρ(H) >= #H ([AGM08]) — a guess that is
   always valid;
2. run the 3-pass counter (Theorem 17) with trial budget sized for
   the current guess L;
3. accept when the estimate is consistent (estimate >= L), else
   shrink L geometrically and repeat.

Each probe costs 3 passes, so the total pass count is 3·evaluations =
O(log(m^ρ(H)/#H)) passes — the price of knowing nothing.  The sum of
the trial budgets is dominated (geometric series) by the final probe's
~(2m)^ρ/(ε²#H), so the space bound is unchanged up to constants.
"""

from __future__ import annotations

from repro.errors import EstimationError
from repro.estimate.concentration import ParamMode
from repro.estimate.result import EstimateResult
from repro.estimate.search import geometric_search
from repro.patterns.pattern import Pattern
from repro.streaming.counters import resolve_trials
from repro.streaming.three_pass import count_subgraphs_insertion_only
from repro.streams.stream import EdgeStream
from repro.utils.rng import RandomSource, derive_rng, ensure_rng


def count_subgraphs_unknown(
    stream: EdgeStream,
    pattern: Pattern,
    epsilon: float = 0.25,
    rng: RandomSource = None,
    param_mode: str = ParamMode.PRACTICAL,
    shrink: float = 4.0,
    max_trials_per_probe: int = 200_000,
) -> EstimateResult:
    """Estimate #H with no lower bound given (Lemma 21 workflow).

    Returns the accepted probe's result with the search metadata in
    ``details`` (``probes``, ``accepted_L``); ``passes`` accumulates
    over all probes (3 per probe).

    *max_trials_per_probe* caps the budget of any single probe so a
    tiny #H (huge m^ρ/#H) degrades the estimate rather than hanging;
    the cap is recorded in ``details["capped"]``.
    """
    if stream.allows_deletions:
        raise EstimationError(
            "count_subgraphs_unknown drives the insertion-only counter; "
            "consolidate the stream or use the turnstile counter with "
            "an explicit lower bound"
        )
    random_state = ensure_rng(rng)
    m = stream.net_edge_count
    if m == 0:
        return EstimateResult(
            algorithm="fgp-3pass-geometric",
            pattern=pattern.name,
            estimate=0.0,
            passes=0,
            m=0,
        )
    upper = float(2 * m) ** pattern.rho()

    probes = []

    def probe(guess: float) -> float:
        budget = resolve_trials(
            stream, pattern, epsilon, max(guess, 1.0), None, param_mode
        )
        rng = derive_rng(random_state, f"probe-{len(probes)}")
        if budget >= max_trials_per_probe:
            # Resolve the cap before running, so a capped probe never
            # pays its full budget.  It still draws the uncapped rng
            # first: the probe rngs follow one derivation order.
            budget = max_trials_per_probe
            rng = derive_rng(random_state, f"probe-cap-{len(probes)}")
        result = count_subgraphs_insertion_only(
            stream, pattern, trials=budget, rng=rng, param_mode=param_mode
        )
        probes.append(result)
        return result.estimate

    estimate, accepted, evaluations = geometric_search(
        probe, upper_bound=upper, floor=1.0, shrink=shrink
    )
    last = probes[-1]
    total_passes = sum(r.passes for r in probes)
    capped = any(r.trials >= max_trials_per_probe for r in probes)
    return EstimateResult(
        algorithm="fgp-3pass-geometric",
        pattern=pattern.name,
        estimate=estimate,
        passes=total_passes,
        space_words=max(r.space_words for r in probes),
        trials=sum(r.trials for r in probes),
        successes=last.successes,
        m=m,
        details={
            "probes": float(evaluations),
            "accepted_L": accepted,
            "agm_start": upper,
            "capped": 1.0 if capped else 0.0,
        },
    )
