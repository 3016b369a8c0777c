"""E14: the process backend vs the serial fused engine.

Runs the same median-of-K mirror-mode fused count (Theorem 17, K
copies in 3 passes) on each execution backend — serial, and worker
processes fed through the shared-memory batch ring — and records
estimate equality plus wall-clock time.  Mirror mode's
per-copy state is private, so every backend/worker-count row must
report the *same* estimate for the same seed — the table makes that
contract visible — while timings show what sharding buys on the
current machine (with a single CPU the parallel rows mostly measure
protocol overhead; see ``docs/ARCHITECTURE.md`` for guidance on
worker counts).
"""

from __future__ import annotations

import time
from typing import Optional

from repro.engine import FusionMode, count_subgraphs_insertion_only_fused
from repro.experiments.tables import Table
from repro.graph import generators as gen
from repro.patterns import pattern as zoo
from repro.streams.stream import insertion_stream


def run(fast: bool = True, seed: int = 2022, workers: Optional[int] = None) -> Table:
    """Build the E14 table (see module docstring)."""
    # Power-law-cluster graphs are triangle-dense, so the per-trial
    # success probability is high enough for stable nonzero estimates
    # at fast-mode trial budgets.
    n = 300 if fast else 1500
    copies = 8 if fast else 32
    trials = 250 if fast else 800
    worker_counts = [1, workers or 2] if fast else [1, 2, workers or 4]

    graph = gen.power_law_cluster(n, 5, 0.8, seed)
    pattern = zoo.triangle()
    table = Table(
        f"E14: serial vs process backend (mirror, K={copies}, "
        f"trials/copy={trials}, m={graph.m})",
        ["backend", "workers", "estimate", "passes", "seconds", "== serial"],
    )

    def fused_count(backend: str, pool: Optional[int]):
        stream = insertion_stream(graph, rng=seed + 1)
        start = time.perf_counter()
        result = count_subgraphs_insertion_only_fused(
            stream,
            pattern,
            copies=copies,
            trials=trials,
            rng=seed + 2,
            mode=FusionMode.MIRROR,
            backend=backend,
            workers=pool,
        )
        return result, time.perf_counter() - start

    serial, serial_seconds = fused_count("serial", None)
    table.add_row("serial", 1, serial.estimate, serial.passes, serial_seconds, True)
    for pool in dict.fromkeys(worker_counts):
        result, seconds = fused_count("process", pool)
        table.add_row(
            "process",
            pool,
            result.estimate,
            result.passes,
            seconds,
            result.estimates == serial.estimates,
        )
    return table
