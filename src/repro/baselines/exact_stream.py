"""The trivial baseline: store the whole stream, count exactly.

One pass, O(m) words — the point every sublinear-space algorithm is
measured against.  Works for any pattern and for turnstile streams.

:class:`ExactStreamEstimator` is the pass-driven core (engine-
compatible); :func:`exact_stream_count` is the one-shot wrapper.  Its
state is a plain edge set and pickles, so it runs on the process
backend via ``EstimatorSpec(...,
factory=repro.engine.parallel.build_exact_stream)``.
"""

from __future__ import annotations

from typing import Sequence, Set, Tuple

from repro.estimate.result import EstimateResult
from repro.exact.subgraphs import count_subgraphs
from repro.graph.graph import Graph
from repro.patterns.pattern import Pattern
from repro.streams.stream import EdgeStream
from repro.utils.checkpoint import check_state_config, state_field


class ExactStreamEstimator:
    """Pass-driven store-everything exact counter (1 pass, any stream)."""

    def __init__(self, n: int, pattern: Pattern, name: str = "exact") -> None:
        self.name = name
        self._n = n
        self._pattern = pattern
        self._present: Set[Tuple[int, int]] = set()
        self._passes = 0
        self._done = False

    def wants_pass(self) -> bool:
        return not self._done

    @property
    def passes_consumed(self) -> int:
        """Stream passes already driven (engine freshness check)."""
        return self._passes

    def begin_pass(self, pass_index: int) -> None:
        self._passes += 1

    def state_dict(self) -> dict:
        """Full estimator state (present edge set, counters)."""
        return {
            "kind": "exact-stream",
            "n": self._n,
            "present": sorted(self._present),
            "passes": self._passes,
            "done": self._done,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a capture into an identically configured estimator."""
        check_state_config("ExactStreamEstimator", state, n=self._n)
        self._present = {
            tuple(edge) for edge in state_field("ExactStreamEstimator", state, "present")
        }
        self._passes = int(state_field("ExactStreamEstimator", state, "passes"))
        self._done = bool(state_field("ExactStreamEstimator", state, "done"))

    def ingest_batch(self, updates: Sequence[Tuple[int, int, int, Tuple[int, int]]]) -> None:
        present = self._present
        for _, _, delta, edge in updates:
            if delta > 0:
                present.add(edge)
            else:
                present.discard(edge)

    def end_pass(self) -> None:
        self._done = True

    def result(self) -> EstimateResult:
        graph_edges = sorted(self._present)
        graph = Graph(self._n, graph_edges)
        exact = count_subgraphs(graph, self._pattern)
        return EstimateResult(
            algorithm="exact-store-all",
            pattern=self._pattern.name,
            estimate=float(exact),
            passes=self._passes,
            space_words=len(graph_edges),
            trials=1,
            successes=1,
            m=len(graph_edges),
        )


def exact_stream_count(stream: EdgeStream, pattern: Pattern) -> EstimateResult:
    """Materialize the final graph in one pass and count #H exactly."""
    stream.reset_pass_count()
    estimator = ExactStreamEstimator(stream.n, pattern)
    estimator.begin_pass(0)
    for chunk in stream.batches():
        estimator.ingest_batch(chunk)
    estimator.end_pass()
    return estimator.result()
