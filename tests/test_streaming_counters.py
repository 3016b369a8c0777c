"""End-to-end tests for the 3-pass streaming counters (Theorems 1, 17)."""

import pytest

from repro.errors import EstimationError
from repro.estimate.concentration import ParamMode
from repro.exact.subgraphs import count_subgraphs
from repro.graph import generators as gen
from repro.patterns import pattern as pattern_zoo
from repro.streaming.three_pass import (
    count_subgraphs_insertion_only,
    resolve_trials,
    sample_copies_stream,
)
from repro.streaming.turnstile import count_subgraphs_turnstile
from repro.streams.generators import adversarial_order_stream, turnstile_churn_stream
from repro.streams.stream import insertion_stream


class TestInsertionOnlyCounter:
    def test_three_passes_exactly(self):
        graph = gen.karate_club()
        stream = insertion_stream(graph, rng=1)
        result = count_subgraphs_insertion_only(
            stream, pattern_zoo.triangle(), trials=200, rng=2
        )
        assert result.passes == 3
        assert stream.passes_used == 3

    def test_triangle_accuracy(self):
        graph = gen.karate_club()
        truth = count_subgraphs(graph, pattern_zoo.triangle())
        stream = insertion_stream(graph, rng=3)
        result = count_subgraphs_insertion_only(
            stream, pattern_zoo.triangle(), trials=25000, rng=4
        )
        assert result.estimate == pytest.approx(truth, rel=0.2)

    def test_star_pattern_accuracy(self):
        graph = gen.gnp(25, 0.3, rng=5)
        pattern = pattern_zoo.path(3)
        truth = count_subgraphs(graph, pattern)
        stream = insertion_stream(graph, rng=6)
        result = count_subgraphs_insertion_only(stream, pattern, trials=25000, rng=7)
        assert result.estimate == pytest.approx(truth, rel=0.25)

    def test_adversarial_order_unaffected(self):
        graph = gen.karate_club()
        truth = count_subgraphs(graph, pattern_zoo.triangle())
        stream = adversarial_order_stream(graph)
        result = count_subgraphs_insertion_only(
            stream, pattern_zoo.triangle(), trials=25000, rng=8
        )
        assert result.estimate == pytest.approx(truth, rel=0.25)

    def test_zero_pattern_graph(self):
        # Triangle-free graph: estimate must be exactly 0.
        graph = gen.complete_bipartite_graph(5, 5)
        stream = insertion_stream(graph, rng=9)
        result = count_subgraphs_insertion_only(
            stream, pattern_zoo.triangle(), trials=3000, rng=10
        )
        assert result.estimate == 0.0
        assert result.successes == 0

    def test_space_scales_with_trials(self):
        graph = gen.karate_club()
        small = count_subgraphs_insertion_only(
            insertion_stream(graph, rng=11), pattern_zoo.triangle(), trials=100, rng=12
        )
        large = count_subgraphs_insertion_only(
            insertion_stream(graph, rng=13), pattern_zoo.triangle(), trials=1000, rng=14
        )
        assert large.space_words > 5 * small.space_words

    def test_sampled_copies_are_valid(self):
        graph = gen.karate_club()
        stream = insertion_stream(graph, rng=15)
        outputs = sample_copies_stream(stream, pattern_zoo.triangle(), 4000, rng=16)
        for copy in outputs:
            if copy is not None:
                assert all(graph.has_edge(u, v) for u, v in copy)
                assert len(copy) == 3


class TestTrialResolution:
    def test_explicit_trials_win(self):
        stream = insertion_stream(gen.karate_club(), rng=1)
        assert resolve_trials(stream, pattern_zoo.triangle(), 0.1, 45, 123) == 123

    def test_requires_trials_or_lower_bound(self):
        stream = insertion_stream(gen.karate_club(), rng=1)
        with pytest.raises(EstimationError):
            resolve_trials(stream, pattern_zoo.triangle(), 0.1, None, None)

    def test_chernoff_budget_shape(self):
        stream = insertion_stream(gen.karate_club(), rng=1)
        loose = resolve_trials(
            stream, pattern_zoo.triangle(), 0.4, 45, None, ParamMode.PRACTICAL
        )
        tight = resolve_trials(
            stream, pattern_zoo.triangle(), 0.2, 45, None, ParamMode.PRACTICAL
        )
        assert tight == pytest.approx(4 * loose, rel=0.05)

    def test_unknown_counter_kind_is_a_typed_error(self):
        from repro.streaming.counters import count_fgp

        stream = insertion_stream(gen.karate_club(), rng=1)
        with pytest.raises(EstimationError, match="unknown FGP counter kind"):
            count_fgp("three-pass", stream, pattern_zoo.triangle(), trials=10)

    def test_group_copies_report_their_share_of_queries_and_space(self):
        from repro.streaming.counters import copy_seeds, fgp_counter_program
        from repro.transform.driver import run_round_adaptive

        stream = insertion_stream(gen.karate_club(), rng=1)
        triangle = pattern_zoo.triangle()
        oracle_seed, trial_seeds = copy_seeds(7, 4 * 15)
        groups = [trial_seeds[i * 15 : (i + 1) * 15] for i in range(4)]
        oracle, generators, finalize = fgp_counter_program(
            "insertion", stream, triangle, groups, oracle_seed, copy_indices=[4, 5, 6, 7]
        )
        run = run_round_adaptive(generators, oracle)
        results = finalize(run)
        assert [r.details["fused_copy"] for r in results] == [4.0, 5.0, 6.0, 7.0]
        assert [r.details["queries"] for r in results] == [-(-run.total_queries // 4)] * 4
        assert [r.space_words for r in results] == [-(-oracle.space.peak_words // 4)] * 4
        # A group of one is the one-shot counter, which reports its totals.
        one_shot = count_subgraphs_insertion_only(stream, triangle, trials=60, rng=7)
        alone = fgp_counter_program("insertion", stream, triangle, [trial_seeds], oracle_seed)
        stream.reset_pass_count()
        assert alone[2](run_round_adaptive(alone[1], alone[0])) == [one_shot]

    def test_invalid_trials(self):
        stream = insertion_stream(gen.karate_club(), rng=1)
        with pytest.raises(EstimationError):
            resolve_trials(stream, pattern_zoo.triangle(), 0.1, None, 0)


class TestTurnstileCounter:
    def test_three_passes_and_deletion_correctness(self):
        graph = gen.karate_club()
        truth = count_subgraphs(graph, pattern_zoo.triangle())
        stream = turnstile_churn_stream(graph, 30, rng=21)
        result = count_subgraphs_turnstile(
            stream,
            pattern_zoo.triangle(),
            trials=4000,
            rng=22,
            sampler_repetitions=4,
        )
        assert result.passes == 3
        assert result.estimate == pytest.approx(truth, rel=0.35)

    def test_counts_final_graph_not_churn(self):
        # All triangles are churned away: final graph is a tree.
        tree = gen.star_graph(8)
        stream = turnstile_churn_stream(tree, 20, rng=23)
        result = count_subgraphs_turnstile(
            stream, pattern_zoo.triangle(), trials=1500, rng=24, sampler_repetitions=4
        )
        assert result.estimate == pytest.approx(0.0, abs=1e-9)

    def test_works_on_insertion_pattern_p3(self):
        graph = gen.gnp(18, 0.35, rng=25)
        pattern = pattern_zoo.path(3)
        truth = count_subgraphs(graph, pattern)
        if truth == 0:
            pytest.skip("random graph had no P3 (practically impossible)")
        stream = turnstile_churn_stream(graph, 15, rng=26)
        result = count_subgraphs_turnstile(
            stream, pattern, trials=4000, rng=27, sampler_repetitions=4
        )
        assert result.estimate == pytest.approx(truth, rel=0.35)
