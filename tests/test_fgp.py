"""Statistical tests for the FGP sampler (Lemmas 15, 16, 18).

These validate the library's central claim: for every fixed copy of H,
one sampling attempt returns it with probability exactly 1/(2m)^ρ(H).
Tolerances are sized for negligible flake probability at the seeded
trial counts.
"""

import math
import random
from collections import Counter

import pytest

from repro.exact.subgraphs import count_subgraphs
from repro.fgp.counting import (
    count_subgraph_query_model,
    sample_subgraph_once,
    sample_subgraph_uniformly,
)
from repro.fgp.bank import FgpTrialBank
from repro.fgp.rounds import SamplerMode
from repro.graph import generators as gen
from repro.oracle.direct import DirectAugmentedOracle, DirectRelaxedOracle
from repro.patterns import pattern as pattern_zoo
from repro.patterns.isomorphism import enumerate_copies
from repro.transform.driver import run_round_adaptive
from repro.utils.rng import derive_rng, ensure_rng


def _success_rate(graph, pattern, attempts, seed, relaxed=False):
    rng = ensure_rng(seed)
    successes = 0
    copies = Counter()
    oracle_cls = DirectRelaxedOracle if relaxed else DirectAugmentedOracle
    mode = SamplerMode.RELAXED if relaxed else SamplerMode.AUGMENTED
    oracle = oracle_cls(graph, derive_rng(rng, "oracle"))
    bank = FgpTrialBank(pattern, [derive_rng(rng, i) for i in range(attempts)], mode=mode)
    outputs = run_round_adaptive(bank, oracle).outputs
    for output in outputs:
        if output is not None:
            successes += 1
            copies[output] += 1
    return successes / attempts, copies


def _theory(graph, pattern):
    return count_subgraphs(graph, pattern) / (2.0 * graph.m) ** pattern.rho()


class TestSuccessProbability:
    """P(some copy returned) == #H/(2m)^rho within sampling noise."""

    CASES = [
        ("karate-triangle", gen.karate_club(), pattern_zoo.triangle, 20000),
        ("karate-edge", gen.karate_club(), pattern_zoo.edge, 4000),
        ("lollipop-triangle", gen.lollipop_graph(6, 5), pattern_zoo.triangle, 15000),
        ("lollipop-K4", gen.lollipop_graph(6, 5), lambda: pattern_zoo.clique(4), 20000),
        ("gnp-P3", gen.gnp(13, 0.5, rng=3), lambda: pattern_zoo.path(3), 15000),
        ("gnp-C5", gen.gnp(12, 0.55, rng=4), lambda: pattern_zoo.cycle(5), 25000),
        ("gnp-M2", gen.gnp(10, 0.4, rng=5), lambda: pattern_zoo.matching(2), 15000),
    ]

    @pytest.mark.parametrize("name,graph,pattern_factory,attempts", CASES)
    def test_rate_matches_theory(self, name, graph, pattern_factory, attempts):
        pattern = pattern_factory()
        theory = _theory(graph, pattern)
        assert theory > 0, f"workload {name} has no copies"
        rate, _ = _success_rate(graph, pattern, attempts, seed=hash(name) % 10000)
        sigma = math.sqrt(theory * (1 - theory) / attempts)
        assert abs(rate - theory) <= max(5 * sigma, 0.1 * theory), (
            f"{name}: rate={rate:.5f} theory={theory:.5f}"
        )

    def test_relaxed_mode_matches_theory(self):
        graph = gen.lollipop_graph(6, 5)
        pattern = pattern_zoo.triangle()
        theory = _theory(graph, pattern)
        rate, _ = _success_rate(graph, pattern, 15000, seed=99, relaxed=True)
        sigma = math.sqrt(theory * (1 - theory) / 15000)
        assert abs(rate - theory) <= max(5 * sigma, 0.1 * theory)


class TestPerCopyUniformity:
    def test_every_copy_reachable_and_balanced(self):
        """All #H copies appear, with max/min frequency ratio bounded."""
        graph = gen.lollipop_graph(5, 4)
        pattern = pattern_zoo.triangle()
        truth = count_subgraphs(graph, pattern)
        _, copies = _success_rate(graph, pattern, 60000, seed=7)
        assert len(copies) == truth
        frequencies = list(copies.values())
        assert max(frequencies) / min(frequencies) < 1.8

    def test_copies_are_real_copies(self):
        graph = gen.gnp(12, 0.5, rng=11)
        pattern = pattern_zoo.paw()
        valid = set(enumerate_copies(graph, pattern.graph))
        _, copies = _success_rate(graph, pattern, 20000, seed=13)
        assert copies, "expected at least one sampled paw"
        for copy in copies:
            assert copy in valid


class TestQueryModelWrappers:
    def test_sample_once_returns_copy_or_none(self):
        graph = gen.karate_club()
        oracle = DirectAugmentedOracle(graph, rng=1)
        output = sample_subgraph_once(oracle, pattern_zoo.triangle(), rng=2)
        assert output is None or len(output) == 3

    def test_uniform_sampler_eventually_succeeds(self):
        graph = gen.karate_club()
        oracle = DirectAugmentedOracle(graph, rng=3)
        copy = sample_subgraph_uniformly(
            oracle, pattern_zoo.triangle(), rng=4, copies_lower_bound=45
        )
        assert copy is not None

    def test_count_estimator_unbiased(self):
        graph = gen.karate_club()
        pattern = pattern_zoo.triangle()
        truth = count_subgraphs(graph, pattern)
        oracle = DirectAugmentedOracle(graph, rng=5)
        result = count_subgraph_query_model(oracle, pattern, attempts=30000, rng=6)
        assert result.estimate == pytest.approx(truth, rel=0.2)

    def test_count_estimator_validates_attempts(self):
        from repro.errors import EstimationError

        oracle = DirectAugmentedOracle(gen.karate_club(), rng=1)
        with pytest.raises(EstimationError):
            count_subgraph_query_model(oracle, pattern_zoo.triangle(), attempts=0)


class TestRoundStructure:
    def test_exactly_three_rounds(self):
        graph = gen.karate_club()
        oracle = DirectAugmentedOracle(graph, rng=21)
        result = run_round_adaptive(FgpTrialBank(pattern_zoo.cycle(5), [22]), oracle)
        assert result.rounds == 3

    def test_empty_graph_returns_none(self):
        from repro.graph.graph import Graph

        oracle = DirectAugmentedOracle(Graph(4), rng=23)
        result = run_round_adaptive(FgpTrialBank(pattern_zoo.triangle(), [24]), oracle)
        assert result.outputs == [None]

    def test_unknown_mode_rejected(self):
        from repro.errors import SketchError

        with pytest.raises(SketchError):
            FgpTrialBank(pattern_zoo.triangle(), [1], mode="bogus")
