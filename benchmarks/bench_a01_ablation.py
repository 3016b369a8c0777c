"""A1 bench: sampler with ablated wedge branches + the ablation table."""

from conftest import emit_table

from repro.experiments import a01_wedge_ablation
from repro.experiments.a01_wedge_ablation import pendant_clique_graph
from repro.fgp.bank import FgpTrialBank
from repro.fgp.rounds import WEDGE_BOTH
from repro.oracle.direct import DirectAugmentedOracle
from repro.patterns import pattern as pattern_zoo
from repro.transform.driver import run_round_adaptive


def test_a01_high_branch_sampler(benchmark, capsys):
    graph = pendant_clique_graph(16, 6)
    pattern = pattern_zoo.triangle()

    def run_batch():
        oracle = DirectAugmentedOracle(graph, rng=1)
        bank = FgpTrialBank(pattern, range(200), wedge_branches=WEDGE_BOTH)
        return run_round_adaptive(bank, oracle)

    result = benchmark(run_batch)
    assert result.rounds == 3

    emit_table(a01_wedge_ablation.run(fast=True), "a01_wedge_ablation", capsys)
