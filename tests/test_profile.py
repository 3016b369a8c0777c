"""Tests for the round-adaptivity profiler (:mod:`repro.transform.profile`)."""

import pytest

from repro.fgp.bank import FgpTrialBank
from repro.graph import generators as gen
from repro.oracle.base import DegreeQuery, EdgeCountQuery, RandomEdgeQuery
from repro.oracle.direct import DirectAugmentedOracle
from repro.patterns import pattern as zoo
from repro.transform.profile import profile_rounds
from repro.transform.insertion import InsertionStreamOracle
from repro.streams.stream import insertion_stream


def two_round_toy():
    """A hand-written 2-round algorithm: edge count, then one degree."""
    answers = yield [EdgeCountQuery(), RandomEdgeQuery()]
    m, edge = answers
    answers = yield [DegreeQuery(edge[0])]
    return (m, answers[0])


class TestProfileRounds:
    def test_toy_round_structure(self):
        oracle = DirectAugmentedOracle(gen.karate_club(), rng=1)
        report = profile_rounds(two_round_toy, oracle)
        assert report.rounds == 2
        assert report.round_profiles[0].query_counts == {
            "EdgeCount": 1,
            "RandomEdge": 1,
        }
        assert report.round_profiles[1].query_counts == {"Degree": 1}
        assert report.total_queries == 3
        m, degree = report.output
        assert m == 78
        assert degree >= 1

    def test_fgp_sampler_is_three_round(self):
        oracle = DirectAugmentedOracle(gen.karate_club(), rng=2)
        report = profile_rounds(lambda: FgpTrialBank(zoo.triangle(), [3]), oracle)
        assert report.rounds == 3
        # Round 1 carries the edge samples + edge count; round 2 one
        # neighbor query per odd cycle; round 3 adjacency + degrees.
        assert "RandomEdge" in report.round_profiles[0].query_counts
        assert "Neighbor" in report.round_profiles[1].query_counts
        assert "Adjacency" in report.round_profiles[2].query_counts

    def test_star_sampler_is_two_round_with_skip(self):
        oracle = DirectAugmentedOracle(gen.karate_club(), rng=4)
        report = profile_rounds(
            lambda: FgpTrialBank(zoo.path(3), [5], skip_empty_wedge_round=True),
            oracle,
        )
        assert report.rounds == 2

    def test_profile_against_stream_oracle(self):
        stream = insertion_stream(gen.karate_club(), rng=6)
        oracle = InsertionStreamOracle(stream, rng=7)
        report = profile_rounds(lambda: FgpTrialBank(zoo.triangle(), [8]), oracle)
        assert report.rounds == 3
        assert stream.passes_used == 3  # rounds really are passes

    def test_describe_mentions_theorem(self):
        oracle = DirectAugmentedOracle(gen.karate_club(), rng=9)
        report = profile_rounds(two_round_toy, oracle)
        text = report.describe()
        assert "2-round adaptive" in text
        assert "2-pass streaming" in text
        assert "round 1:" in text and "round 2:" in text
