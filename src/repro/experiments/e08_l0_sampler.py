"""E8 — Lemma 7: ℓ0-sampler success probability and near-uniformity.

Feeds turnstile vectors (insert-then-partially-delete workloads) into
ℓ0-samplers and measures:

* success rate over fresh samplers (Lemma 7: 1 - 1/n^c; here
  1 - 2^-repetitions at the critical level);
* uniformity over the surviving support: max/min empirical frequency
  ratio and a chi-square statistic against the uniform law;
* correctness: a returned item must be in the live support — deleted
  items must never be reported (counted in ``ghost_answers``).

Also serves as the ablation for the repetition knob (space vs failure
rate).
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.experiments.tables import Table
from repro.sketch.l0 import L0Sampler
from repro.utils.rng import derive_rng, ensure_rng


def _workload(universe: int, live: int, churn: int, rng):
    """Insert live+churn random items, delete the churn ones."""
    items = rng.sample(range(universe), live + churn)
    live_items = set(items[:live])
    churn_items = items[live:]
    updates = [(item, 1) for item in items] + [(item, -1) for item in churn_items]
    rng.shuffle(updates)
    return live_items, updates


def run(fast: bool = True, seed: int = 2022) -> Table:
    """Regenerate the E8 table."""
    rng = ensure_rng(seed)
    table = Table(
        "E8: l0-sampler success rate and uniformity under churn  (Lemma 7)",
        [
            "universe",
            "support",
            "churn",
            "repetitions",
            "draws",
            "success_rate",
            "ghost_answers",
            "max/min_freq",
            "chi2/df",
            "space_words",
        ],
    )
    cases = [
        (512, 12, 8, 2),
        (512, 12, 8, 6),
        (4096, 40, 30, 6),
    ]
    if not fast:
        cases.append((16384, 100, 80, 8))
    draws = 1200 if fast else 5000
    for universe, live, churn, repetitions in cases:
        live_items, updates = _workload(universe, live, churn, derive_rng(rng, "wl"))
        counts: Counter = Counter()
        failures = 0
        ghosts = 0
        # One fresh sampler per draw, all held in one bank and fed the
        # workload in one array call.
        bank = L0Sampler.bank(
            universe,
            [derive_rng(rng, f"{universe}-{repetitions}-{draw}") for draw in range(draws)],
            repetitions=repetitions,
        )
        bank.update_many_arrays(
            np.array([item for item, _ in updates], dtype=np.int64),
            np.array([delta for _, delta in updates], dtype=np.int64),
        )
        space = bank.space_words // draws
        for draw in range(draws):
            result = bank.sample(draw)
            if result is None:
                failures += 1
            elif result not in live_items:
                ghosts += 1
            else:
                counts[result] += 1
        successes = draws - failures - ghosts
        if counts:
            frequencies = [counts.get(item, 0) for item in live_items]
            low = min(frequencies)
            ratio = (max(frequencies) / low) if low else float("inf")
            expected = successes / len(live_items)
            chi2 = sum((f - expected) ** 2 / expected for f in frequencies)
            chi2_per_df = chi2 / max(1, len(live_items) - 1)
        else:
            ratio, chi2_per_df = float("inf"), float("inf")
        table.add_row(
            universe,
            live,
            churn,
            repetitions,
            draws,
            successes / draws,
            ghosts,
            ratio,
            chi2_per_df,
            space,
        )
    return table


if __name__ == "__main__":
    print(run(fast=True).render())
