"""E4 — Theorems 9/11: transformation fidelity.

Runs the *same* round-adaptive FGP algorithm against three oracles —
the direct query model, the insertion-only stream emulation, and the
turnstile stream emulation — and compares:

* success probabilities (same output distribution up to the relaxed
  model's 1/n^c slack);
* pass counts: exactly 3 (= the algorithm's round-adaptivity);
* queries asked and the O(q log n) / O(q log^4 n) space accounting.
"""

from __future__ import annotations

from repro.exact.subgraphs import count_subgraphs
from repro.experiments.tables import Table
from repro.fgp.bank import FgpTrialBank
from repro.fgp.rounds import SamplerMode
from repro.graph import generators as gen
from repro.oracle.direct import DirectAugmentedOracle, DirectRelaxedOracle
from repro.patterns import pattern as pattern_zoo
from repro.streams.generators import turnstile_churn_stream
from repro.streams.stream import insertion_stream
from repro.transform.driver import run_round_adaptive
from repro.transform.insertion import InsertionStreamOracle
from repro.transform.turnstile import TurnstileStreamOracle
from repro.utils.rng import derive_rng, ensure_rng


def _success_rate(oracle, pattern, mode, attempts, rng):
    bank = FgpTrialBank(pattern, [derive_rng(rng, i) for i in range(attempts)], mode=mode)
    run_result = run_round_adaptive(bank, oracle)
    successes = sum(1 for output in run_result.outputs if output is not None)
    return successes / attempts, run_result


def run(fast: bool = True, seed: int = 2022) -> Table:
    """Regenerate the E4 table."""
    rng = ensure_rng(seed)
    graph = gen.karate_club()
    pattern = pattern_zoo.triangle()
    truth = count_subgraphs(graph, pattern)
    theory = truth / (2.0 * graph.m) ** pattern.rho()
    attempts = 4000 if fast else 20000

    table = Table(
        "E4: one algorithm, three execution substrates  (Theorems 9/11)",
        [
            "substrate",
            "mode",
            "attempts",
            "P(success)",
            "P(theory)",
            "rounds/passes",
            "queries",
            "space_words",
        ],
    )

    direct = DirectAugmentedOracle(graph, derive_rng(rng, "direct"))
    rate, run_result = _success_rate(direct, pattern, SamplerMode.AUGMENTED, attempts, derive_rng(rng, "a"))
    table.add_row(
        "direct query model", "augmented", attempts, rate, theory,
        run_result.rounds, run_result.total_queries, 0,
    )

    relaxed = DirectRelaxedOracle(graph, derive_rng(rng, "relaxed"))
    rate, run_result = _success_rate(relaxed, pattern, SamplerMode.RELAXED, attempts, derive_rng(rng, "b"))
    table.add_row(
        "direct query model", "relaxed", attempts, rate, theory,
        run_result.rounds, run_result.total_queries, 0,
    )

    stream = insertion_stream(graph, rng.getrandbits(48))
    insertion_oracle = InsertionStreamOracle(stream, derive_rng(rng, "ins"))
    rate, run_result = _success_rate(
        insertion_oracle, pattern, SamplerMode.AUGMENTED, attempts, derive_rng(rng, "c")
    )
    table.add_row(
        "insertion-only stream (Thm 9)", "augmented", attempts, rate, theory,
        insertion_oracle.passes_used, run_result.total_queries,
        insertion_oracle.space.peak_words,
    )

    turnstile_attempts = max(400, attempts // 8)
    churn = turnstile_churn_stream(graph, 30, rng.getrandbits(48))
    turnstile_oracle = TurnstileStreamOracle(
        churn, derive_rng(rng, "turn"), sampler_repetitions=4
    )
    rate, run_result = _success_rate(
        turnstile_oracle, pattern, SamplerMode.RELAXED, turnstile_attempts, derive_rng(rng, "d")
    )
    table.add_row(
        "turnstile stream (Thm 11)", "relaxed", turnstile_attempts, rate, theory,
        turnstile_oracle.passes_used, run_result.total_queries,
        turnstile_oracle.space.peak_words,
    )
    return table


if __name__ == "__main__":
    print(run(fast=True).render())
