"""A1 — ablation: why SampleWedge needs both degree branches.

The FGP cycle completion (Algorithm 6) closes a sampled path through
either (a) an indexed-neighbor draw when the cycle's ≺-minimum vertex
has degree <= √(2m), or (b) a degree-proportional vertex sample thinned
by √(2m)/deg when it is heavier.  Disabling either branch silently
drops every triangle whose minimum-degree vertex lies on the other
side of the √(2m) threshold.

The workload is a lollipop graph (a K_k head plus a path tail) sized
so triangles' minimum vertices straddle the threshold, plus the karate
club (all-low-degree: the high branch is never needed).  Columns show
the estimate each variant produces: only "both" tracks the truth on
the straddling workload.
"""

from __future__ import annotations

from repro.exact.subgraphs import count_subgraphs
from repro.experiments.tables import Table
from repro.fgp.bank import FgpTrialBank
from repro.fgp.rounds import WEDGE_BOTH, WEDGE_HIGH_ONLY, WEDGE_LOW_ONLY, SamplerMode
from repro.graph import generators as gen
from repro.patterns import pattern as pattern_zoo
from repro.streams.stream import insertion_stream
from repro.transform.driver import run_round_adaptive
from repro.transform.insertion import InsertionStreamOracle
from repro.graph.graph import Graph
from repro.utils.rng import derive_rng, ensure_rng


def pendant_clique_graph(hubs: int, pendants: int) -> Graph:
    """K_hubs with *pendants* degree-1 leaves hanging off each hub.

    Hub degree is hubs-1+pendants while √(2m) = √(hubs(hubs-1) +
    2·hubs·pendants); whenever (pendants-1)² > hubs, every hub is
    heavier than √(2m).  All triangles are hub-only, so *every*
    triangle's cycle completion must go through the high-degree branch
    of SampleWedge: disabling it (low_only) collapses the estimate to
    zero, while disabling the low branch leaves this workload intact —
    the exact opposite of the karate row.
    """
    graph = Graph(hubs * (1 + pendants))
    for a in range(hubs):
        for b in range(a + 1, hubs):
            graph.add_edge(a, b)
    next_leaf = hubs
    for hub in range(hubs):
        for _ in range(pendants):
            graph.add_edge(hub, next_leaf)
            next_leaf += 1
    return graph


def _estimate(graph, pattern, branches, attempts, rng):
    stream = insertion_stream(graph, derive_rng(rng, f"s-{branches}"))
    oracle = InsertionStreamOracle(stream, derive_rng(rng, f"o-{branches}"))
    bank = FgpTrialBank(
        pattern,
        [derive_rng(rng, i) for i in range(attempts)],
        mode=SamplerMode.AUGMENTED,
        wedge_branches=branches,
    )
    outputs = run_round_adaptive(bank, oracle).outputs
    successes = sum(1 for output in outputs if output is not None)
    return (successes / attempts) * (2.0 * graph.m) ** pattern.rho()


def run(fast: bool = True, seed: int = 2022) -> Table:
    """Regenerate the A1 table."""
    rng = ensure_rng(seed)
    pattern = pattern_zoo.triangle()
    attempts = 12000 if fast else 50000
    # K9 + tail: sqrt(2m) ~ 9.4, clique degrees ~8 (low) but the
    # planted hub edges push some triangle minima above the threshold.
    cases = [
        ("karate (all low-degree)", gen.karate_club()),
        ("pendant-clique(16,6) (all high)", pendant_clique_graph(16, 6)),
        ("gnp(40,0.35) (mixed)", gen.gnp(40, 0.35, seed + 31)),
    ]
    table = Table(
        "A1: SampleWedge branch ablation (triangles; estimates per variant)",
        ["graph", "m", "sqrt(2m)", "#T", "both", "low_only", "high_only", "both_err"],
    )
    for name, graph in cases:
        truth = count_subgraphs(graph, pattern)
        if truth == 0:
            continue
        estimates = {
            branches: _estimate(graph, pattern, branches, attempts, derive_rng(rng, name + branches))
            for branches in (WEDGE_BOTH, WEDGE_LOW_ONLY, WEDGE_HIGH_ONLY)
        }
        table.add_row(
            name,
            graph.m,
            (2.0 * graph.m) ** 0.5,
            truth,
            estimates[WEDGE_BOTH],
            estimates[WEDGE_LOW_ONLY],
            estimates[WEDGE_HIGH_ONLY],
            abs(estimates[WEDGE_BOTH] - truth) / truth,
        )
    return table


if __name__ == "__main__":
    print(run(fast=True).render())
