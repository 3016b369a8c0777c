"""Doulion: count triangles on a coin-flip sparsified stream.

Tsourakakis et al. (KDD 2009): keep each edge independently with
probability p, count triangles exactly in the sparsified graph, and
rescale by 1/p^3.  One pass, expected p·m stored edges, unbiased; the
classic accuracy-for-space dial.  Generalized here to any pattern H
(rescale by p^{-|E(H)|}).

:class:`DoulionEstimator` is the pass-driven core (engine-compatible);
:func:`doulion_count` is the historical one-shot wrapper.  Its state
(kept edges, pattern, ``random.Random``) pickles, so it runs on the
process backend via ``EstimatorSpec(...,
factory=repro.engine.parallel.build_doulion)``.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.errors import EstimationError
from repro.estimate.result import EstimateResult
from repro.exact.subgraphs import count_subgraphs
from repro.graph.graph import Graph
from repro.patterns.pattern import Pattern, triangle
from repro.streams.stream import EdgeStream
from repro.utils.checkpoint import (
    check_state_config,
    rng_state,
    set_rng_state,
    state_field,
)
from repro.utils.rng import RandomSource, ensure_rng
from repro.utils.validation import check_fraction


class DoulionEstimator:
    """Pass-driven Doulion sparsify-and-count estimator (1 pass).

    Registerable with :class:`repro.engine.StreamEngine`.  Coin flips
    happen in stream order exactly as the historical loop, so a fused
    run keeps each edge iff :func:`doulion_count` would for the same
    seed.
    """

    def __init__(
        self,
        n: int,
        keep_probability: float,
        pattern: Pattern = None,
        rng: RandomSource = None,
        name: str = "doulion",
    ) -> None:
        check_fraction(keep_probability, "keep_probability")
        self.name = name
        self._n = n
        self._keep_probability = keep_probability
        self._pattern = pattern if pattern is not None else triangle()
        self._rng = ensure_rng(rng)
        self._kept: List[Tuple[int, int]] = []
        self._arrivals = 0
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
        """Full estimator state (kept edges, rng position, counters)."""
        return {
            "kind": "doulion",
            "n": self._n,
            "keep_probability": self._keep_probability,
            "rng": rng_state(self._rng),
            "kept": list(self._kept),
            "arrivals": self._arrivals,
            "passes": self._passes,
            "done": self._done,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a capture into an identically configured estimator."""
        check_state_config(
            "DoulionEstimator",
            state,
            n=self._n,
            keep_probability=self._keep_probability,
        )
        set_rng_state(self._rng, state_field("DoulionEstimator", state, "rng"))
        self._kept = [tuple(edge) for edge in state_field("DoulionEstimator", state, "kept")]
        self._arrivals = int(state_field("DoulionEstimator", state, "arrivals"))
        self._passes = int(state_field("DoulionEstimator", state, "passes"))
        self._done = bool(state_field("DoulionEstimator", state, "done"))

    def ingest_batch(self, updates: Sequence[Tuple[int, int, int, Tuple[int, int]]]) -> None:
        random_unit = self._rng.random
        keep_probability = self._keep_probability
        kept_append = self._kept.append
        for _, _, delta, edge in updates:
            if delta < 0:
                raise EstimationError(
                    "Doulion sparsification assumes an insertion-only stream"
                )
            if random_unit() < keep_probability:
                kept_append(edge)
        self._arrivals += len(updates)

    def end_pass(self) -> None:
        self._done = True

    def result(self) -> EstimateResult:
        pattern = self._pattern
        sparse = Graph(self._n, self._kept)
        raw = count_subgraphs(sparse, pattern)
        keep_probability = self._keep_probability
        scale = keep_probability ** (-pattern.num_edges)
        return EstimateResult(
            algorithm="doulion",
            pattern=pattern.name,
            estimate=raw * scale,
            passes=self._passes,
            space_words=len(self._kept),
            trials=1,
            successes=1,
            m=self._arrivals,
            details={
                "keep_probability": keep_probability,
                "kept_edges": float(len(self._kept)),
            },
        )


def doulion_count(
    stream: EdgeStream,
    keep_probability: float,
    pattern: Pattern = None,
    rng: RandomSource = None,
) -> EstimateResult:
    """Sparsify-and-count estimate of #H (default H = triangle)."""
    check_fraction(keep_probability, "keep_probability")
    if stream.allows_deletions:
        raise EstimationError(
            "Doulion sparsification assumes an insertion-only stream"
        )
    stream.reset_pass_count()
    estimator = DoulionEstimator(stream.n, keep_probability, pattern, rng)
    estimator.begin_pass(0)
    for chunk in stream.batches():
        estimator.ingest_batch(chunk)
    estimator.end_pass()
    result = estimator.result()
    result.m = stream.net_edge_count
    return result
