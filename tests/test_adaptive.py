"""Tests for the unknown-#H workflow (:mod:`repro.streaming.adaptive`)."""

import pytest

import repro.streaming.adaptive as adaptive
from repro.errors import EstimationError
from repro.exact.subgraphs import count_subgraphs
from repro.exact.triangles import count_triangles
from repro.graph import generators as gen
from repro.patterns import pattern as zoo
from repro.streaming.adaptive import count_subgraphs_unknown
from repro.streams.generators import turnstile_churn_stream
from repro.streams.stream import insertion_stream


class TestCountUnknown:
    def test_triangles_without_prior(self):
        graph = gen.gnp(40, 0.3, rng=1)
        truth = count_triangles(graph)
        result = count_subgraphs_unknown(
            insertion_stream(graph, rng=2), zoo.triangle(), epsilon=0.3, rng=3
        )
        assert result.estimate == pytest.approx(truth, rel=0.4)
        # 3 passes per probe; probes recorded in details.
        assert result.passes == 3 * int(result.details["probes"])
        assert result.details["accepted_L"] <= truth * 1.5

    def test_starts_from_agm_bound(self):
        graph = gen.gnp(30, 0.3, rng=4)
        result = count_subgraphs_unknown(
            insertion_stream(graph, rng=5), zoo.path(3), epsilon=0.3, rng=6
        )
        assert result.details["agm_start"] == pytest.approx(
            (2.0 * graph.m) ** 2.0
        )

    def test_zero_copies_terminates(self):
        # Triangle-free graph: every guess is rejected; the search
        # bottoms out at the floor instead of hanging.
        graph = gen.grid_graph(6, 6)
        result = count_subgraphs_unknown(
            insertion_stream(graph, rng=7), zoo.triangle(), epsilon=0.4, rng=8,
            max_trials_per_probe=4000,
        )
        assert result.estimate < 2.0

    def test_empty_stream(self):
        graph = gen.gnp(8, 0.0, rng=9)
        result = count_subgraphs_unknown(
            insertion_stream(graph, rng=10), zoo.triangle(), rng=11
        )
        assert result.estimate == 0.0
        assert result.passes == 0

    def test_rejects_turnstile(self):
        stream = turnstile_churn_stream(gen.karate_club(), 10, rng=12)
        with pytest.raises(EstimationError):
            count_subgraphs_unknown(stream, zoo.triangle())

    def test_trial_cap_respected(self):
        # A pattern with large m^rho relative to #H would demand a
        # huge first probe; the cap bounds every probe.
        graph = gen.gnp(30, 0.25, rng=13)
        result = count_subgraphs_unknown(
            insertion_stream(graph, rng=14),
            zoo.cycle(4),
            epsilon=0.3,
            rng=15,
            max_trials_per_probe=2000,
        )
        assert result.trials <= 2000 * result.details["probes"]

    def test_matches_known_bound_run(self):
        # The adaptive result should be in the same ballpark as a run
        # given the true lower bound.
        graph = gen.gnp(35, 0.3, rng=16)
        truth = count_subgraphs(graph, zoo.path(3))
        result = count_subgraphs_unknown(
            insertion_stream(graph, rng=17), zoo.path(3), epsilon=0.3, rng=18
        )
        assert result.estimate == pytest.approx(truth, rel=0.4)

    def test_cap_bounds_every_probe_run(self, monkeypatch):
        # The cap is applied before a probe runs: no counter run, not
        # even a discarded one, exceeds it.  The estimate is the one
        # the search returned when capped probes ran twice.
        budgets = []
        counter = adaptive.count_subgraphs_insertion_only

        def spy(*args, **kwargs):
            result = counter(*args, **kwargs)
            budgets.append(result.trials)
            return result

        monkeypatch.setattr(adaptive, "count_subgraphs_insertion_only", spy)
        graph = gen.gnp(30, 0.25, rng=13)
        result = count_subgraphs_unknown(
            insertion_stream(graph, rng=14), zoo.cycle(4), epsilon=0.3, rng=15,
            max_trials_per_probe=300,
        )
        assert budgets == [45, 178, 300, 300, 300]
        assert result.estimate == 365.04
        assert result.trials == sum(budgets)
        assert result.passes == 15
        assert result.details["capped"] == 1.0
