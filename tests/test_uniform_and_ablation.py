"""Tests for the streaming uniform sampler and the wedge ablation knob."""

import pytest

from repro.errors import EstimationError, SketchError
from repro.exact.subgraphs import count_subgraphs
from repro.fgp.bank import FgpTrialBank
from repro.fgp.rounds import WEDGE_BOTH, WEDGE_HIGH_ONLY, WEDGE_LOW_ONLY
from repro.graph import generators as gen
from repro.oracle.direct import DirectAugmentedOracle
from repro.patterns import pattern as pattern_zoo
from repro.streaming.uniform import (
    default_attempt_budget,
    sample_subgraph_uniformly_stream,
)
from repro.streams.stream import insertion_stream
from repro.transform.driver import run_round_adaptive
from repro.utils.rng import derive_rng, ensure_rng


class TestUniformStreamSampler:
    def test_budget_formula(self):
        import math

        assert default_attempt_budget(100, 1.5, 10.0) == math.ceil(10 * 200**1.5 / 10)

    def test_budget_validation(self):
        with pytest.raises(EstimationError):
            default_attempt_budget(100, 1.5, 0)

    def test_returns_valid_copy(self):
        graph = gen.karate_club()
        stream = insertion_stream(graph, rng=1)
        result = sample_subgraph_uniformly_stream(
            stream, pattern_zoo.triangle(), copies_lower_bound=45, rng=2
        )
        assert result.passes == 3
        assert result.succeeded
        assert all(graph.has_edge(u, v) for u, v in result.copy)

    def test_triangle_free_never_succeeds(self):
        graph = gen.grid_graph(5, 5)
        stream = insertion_stream(graph, rng=3)
        result = sample_subgraph_uniformly_stream(
            stream, pattern_zoo.triangle(), attempts=500, rng=4
        )
        assert not result.succeeded
        assert result.successes == 0

    def test_attempt_cap_respected(self):
        graph = gen.karate_club()
        stream = insertion_stream(graph, rng=5)
        result = sample_subgraph_uniformly_stream(
            stream, pattern_zoo.clique(4), copies_lower_bound=0.001,
            attempt_cap=200, rng=6,
        )
        assert result.attempts == 200


def _ablated_rate(graph, pattern, branches, attempts, seed):
    rng = ensure_rng(seed)
    oracle = DirectAugmentedOracle(graph, derive_rng(rng, "oracle"))
    bank = FgpTrialBank(
        pattern, [derive_rng(rng, i) for i in range(attempts)], wedge_branches=branches
    )
    outputs = run_round_adaptive(bank, oracle).outputs
    return sum(1 for output in outputs if output is not None) / attempts


class TestWedgeAblation:
    def test_unknown_setting_rejected(self):
        with pytest.raises(SketchError):
            FgpTrialBank(pattern_zoo.triangle(), [1], wedge_branches="sideways")

    def test_low_only_suffices_on_low_degree_graph(self):
        graph = gen.karate_club()  # max degree 17 > sqrt(156)=12.5? deg(33)=17
        pattern = pattern_zoo.triangle()
        both = _ablated_rate(graph, pattern, WEDGE_BOTH, 8000, seed=11)
        low = _ablated_rate(graph, pattern, WEDGE_LOW_ONLY, 8000, seed=12)
        # Karate triangles all have a low-degree minimum vertex.
        assert low == pytest.approx(both, rel=0.25)

    def test_high_branch_needed_on_pendant_clique(self):
        from repro.experiments.a01_wedge_ablation import pendant_clique_graph

        graph = pendant_clique_graph(16, 6)
        pattern = pattern_zoo.triangle()
        truth = count_subgraphs(graph, pattern)
        assert truth == 560
        low = _ablated_rate(graph, pattern, WEDGE_LOW_ONLY, 4000, seed=13)
        high = _ablated_rate(graph, pattern, WEDGE_HIGH_ONLY, 12000, seed=14)
        both = _ablated_rate(graph, pattern, WEDGE_BOTH, 12000, seed=15)
        assert low == 0.0  # every triangle lives above the threshold
        assert high == pytest.approx(both, rel=0.3)
        theory = truth / (2.0 * graph.m) ** 1.5
        assert both == pytest.approx(theory, rel=0.25)

    def test_ablation_experiment_runs(self):
        from repro.experiments import a01_wedge_ablation

        table = a01_wedge_ablation.run(fast=True, seed=3)
        assert table.rows
        errors = [float(v) for v in table.column("both_err")]
        assert all(error < 0.2 for error in errors)
