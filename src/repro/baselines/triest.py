"""TRIEST-style reservoir triangle counting (1-pass, insertion-only).

Keep a uniform edge reservoir of fixed capacity M.  When edge (u, v)
arrives, every common neighbor w of u and v *inside the reservoir*
witnesses a triangle {u, v, w}; that triangle was detected iff both
its earlier edges survived in the reservoir, which at arrival time τ
happens with probability (M/(τ-1))·((M-1)/(τ-2)) (without-replacement
uniformity of the reservoir).  Weighting each detection by the inverse
probability gives an unbiased running estimate — the "TRIEST-IMPR"
idea of De Stefani et al. (KDD 2016), included here as the standard
practical 1-pass baseline the paper's related work competes with.

:class:`TriestEstimator` is the pass-driven core (engine-compatible:
``wants_pass`` / ``begin_pass`` / ``ingest_batch`` / ``end_pass`` /
``result``); :func:`triest_count` is the historical one-shot wrapper
that drives it over a single stream pass.  The estimator's state is
plain data (reservoir, adjacency sets, ``random.Random``) and pickles,
so it runs on the process backend via
``EstimatorSpec(..., factory=repro.engine.parallel.build_triest)``.
"""

from __future__ import annotations

from typing import Dict, Sequence, Set, Tuple

from repro.errors import EstimationError
from repro.estimate.result import EstimateResult
from repro.sketch.reservoir import ReservoirSampler
from repro.streams.stream import EdgeStream
from repro.utils.checkpoint import check_state_config, state_field
from repro.utils.rng import RandomSource, ensure_rng


class TriestEstimator:
    """Pass-driven TRIEST-IMPR triangle estimator (1 pass).

    Registerable with :class:`repro.engine.StreamEngine`; consumes one
    stream pass of decoded ``(u, v, delta, edge)`` updates.  Random
    draws happen in stream order exactly as the historical loop, so a
    fused run is bit-identical to :func:`triest_count` for the same
    seed.
    """

    def __init__(
        self, capacity: int, rng: RandomSource = None, name: str = "triest"
    ) -> None:
        if capacity < 2:
            raise EstimationError(f"reservoir capacity must be >= 2, got {capacity}")
        self.name = name
        self._capacity = capacity
        self._reservoir: ReservoirSampler = ReservoirSampler(capacity, ensure_rng(rng))
        self._adjacency: Dict[int, Set[int]] = {}
        self._estimate = 0.0
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
        """Full estimator state (reservoir, adjacency, running estimate)."""
        return {
            "kind": "triest",
            "capacity": self._capacity,
            "reservoir": self._reservoir.state_dict(),
            "adjacency": {
                vertex: sorted(neighbors)
                for vertex, neighbors in self._adjacency.items()
            },
            "estimate": self._estimate,
            "arrivals": self._arrivals,
            "passes": self._passes,
            "done": self._done,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a capture into an estimator of the same capacity."""
        check_state_config("TriestEstimator", state, capacity=self._capacity)
        self._reservoir.load_state_dict(state_field("TriestEstimator", state, "reservoir"))
        self._adjacency = {
            vertex: set(neighbors)
            for vertex, neighbors in state_field(
                "TriestEstimator", state, "adjacency"
            ).items()
        }
        self._estimate = float(state_field("TriestEstimator", state, "estimate"))
        self._arrivals = int(state_field("TriestEstimator", state, "arrivals"))
        self._passes = int(state_field("TriestEstimator", state, "passes"))
        self._done = bool(state_field("TriestEstimator", state, "done"))

    def ingest_batch(self, updates: Sequence[Tuple[int, int, int, Tuple[int, int]]]) -> None:
        reservoir = self._reservoir
        adjacency = self._adjacency
        capacity = self._capacity
        estimate = self._estimate
        arrivals = self._arrivals
        empty: Set[int] = set()

        for u, v, delta, edge in updates:
            if delta < 0:
                raise EstimationError(
                    "this TRIEST variant is insertion-only; use the turnstile "
                    "counter for streams with deletions"
                )
            arrivals += 1
            # Count triangles closed by this arrival using reservoir edges.
            common = adjacency.get(u, empty) & adjacency.get(v, empty)
            if common:
                tau = arrivals
                if tau <= capacity + 1 or reservoir.contains_all_offered():
                    weight = 1.0
                else:
                    keep_two = (capacity / (tau - 1)) * ((capacity - 1) / (tau - 2))
                    weight = 1.0 / keep_two
                estimate += weight * len(common)
            had_room = len(reservoir.items) < capacity
            evicted = reservoir.offer(edge)
            if had_room or evicted is not None:
                adjacency.setdefault(u, set()).add(v)
                adjacency.setdefault(v, set()).add(u)
            if evicted is not None:
                a, b = evicted
                adjacency.get(a, empty).discard(b)
                adjacency.get(b, empty).discard(a)

        self._estimate = estimate
        self._arrivals = arrivals

    def end_pass(self) -> None:
        self._done = True

    def result(self) -> EstimateResult:
        return EstimateResult(
            algorithm="triest",
            pattern="triangle",
            estimate=self._estimate,
            passes=self._passes,
            space_words=2 * self._capacity,
            trials=1,
            successes=1,
            m=self._arrivals,
            details={"capacity": float(self._capacity)},
        )


def triest_count(
    stream: EdgeStream, capacity: int, rng: RandomSource = None
) -> EstimateResult:
    """Estimate the triangle count with a capacity-*capacity* reservoir."""
    if stream.allows_deletions:
        raise EstimationError(
            "this TRIEST variant is insertion-only; use the turnstile counter "
            "for streams with deletions"
        )
    stream.reset_pass_count()
    estimator = TriestEstimator(capacity, rng)
    estimator.begin_pass(0)
    for chunk in stream.batches():
        estimator.ingest_batch(chunk)
    estimator.end_pass()
    result = estimator.result()
    result.m = stream.net_edge_count
    return result
