"""Direct (in-memory) oracles: the sublinear-time query model.

These answer queries against a fully materialized graph, the way a
sublinear-time algorithm would access its input.  They are the
reference implementations the stream emulators are compared to —
Theorems 9/11 say the emulators produce the same output distribution.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.errors import GraphError, OracleError
from repro.graph.graph import Graph
from repro.oracle.base import (
    AdjacencyQuery,
    DegreeQuery,
    EdgeCountQuery,
    NeighborQuery,
    Query,
    QueryAccounting,
    QueryBatch,
    RandomEdgeQuery,
    RandomNeighborQuery,
)
from repro.utils.rng import RandomSource, ensure_rng


class DirectAugmentedOracle:
    """The augmented general graph model (Definition 6) over a graph.

    Parameters
    ----------
    graph:
        The input graph.
    rng:
        Randomness for f1 edge samples (and f3 in the relaxed
        subclass).

    Notes
    -----
    The i-th neighbor (f3) is served in the graph's adjacency-list
    insertion order.  Building the graph in stream arrival order makes
    the direct oracle's f3 answers coincide with the Theorem 9
    emulation, which tests exploit.

    Bad queries fail as on the stream oracles: a vertex outside
    ``[0, n)`` raises :class:`~repro.errors.OracleError`, a self-loop
    adjacency query :class:`~repro.errors.GraphError`.
    """

    def __init__(self, graph: Graph, rng: RandomSource = None) -> None:
        self._graph = graph
        self._rng = ensure_rng(rng)
        self.accounting = QueryAccounting()

    @property
    def graph(self) -> Graph:
        return self._graph

    def _check_vertex(self, vertex: int) -> None:
        n = self._graph.n
        if not 0 <= vertex < n:
            raise OracleError(f"query vertex {vertex} is outside [0, {n})")

    # -- single-query answers ------------------------------------------

    def random_edge(self) -> Optional[Sequence[int]]:
        """f1: a uniformly random edge (None only on an empty graph)."""
        if self._graph.m == 0:
            return None
        return self._graph.edge_at(self._rng.randrange(self._graph.m))

    def degree(self, vertex: int) -> int:
        """f2."""
        self._check_vertex(vertex)
        return self._graph.degree(vertex)

    def neighbor(self, vertex: int, index: int) -> Optional[int]:
        """f3 (augmented): i-th neighbor, None when out of range."""
        self._check_vertex(vertex)
        if index < 0:
            raise OracleError(f"neighbor index must be >= 0, got {index}")
        if index >= self._graph.degree(vertex):
            return None
        return self._graph.neighbor_at(vertex, index)

    def random_neighbor(self, vertex: int) -> Optional[int]:
        """f3 (relaxed flavor): only valid on the relaxed oracle."""
        raise OracleError(
            "RandomNeighborQuery belongs to the relaxed model; use DirectRelaxedOracle"
        )

    def adjacent(self, u: int, v: int) -> bool:
        """f4."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise GraphError(f"self-loop ({u}, {u}) is not allowed in a simple graph")
        return self._graph.has_edge(u, v)

    def edge_count(self) -> int:
        """m (assumed known in the query model)."""
        return self._graph.m

    # -- batch protocol ---------------------------------------------------

    def answer(self, query: Query):
        """Answer a single query object."""
        self.accounting.record(query)
        if isinstance(query, RandomEdgeQuery):
            return self.random_edge()
        if isinstance(query, DegreeQuery):
            return self.degree(query.vertex)
        if isinstance(query, NeighborQuery):
            return self.neighbor(query.vertex, query.index)
        if isinstance(query, RandomNeighborQuery):
            return self.random_neighbor(query.vertex)
        if isinstance(query, AdjacencyQuery):
            return self.adjacent(query.u, query.v)
        if isinstance(query, EdgeCountQuery):
            return self.edge_count()
        raise OracleError(f"unknown query type {type(query).__name__}")

    def answer_batch(self, batch: QueryBatch) -> List:
        """Answer one round's batch, positionally."""
        return [self.answer(query) for query in batch]


class DirectGeneralOracle(DirectAugmentedOracle):
    """The general graph model: Definition 6 *without* f1.

    The original ERS algorithm was stated in this model; the paper's
    simplification (Section 5.1) moves to the augmented model, and the
    difference is observable here.
    """

    def random_edge(self) -> Optional[Sequence[int]]:
        raise OracleError("the general graph model does not support random edge queries (f1)")


class DirectRelaxedOracle(DirectAugmentedOracle):
    """The relaxed augmented model (Definition 10), idealized.

    The defining relaxations are *allowed* error and failure; an
    exactly uniform implementation is a legal instance, and it is the
    cleanest reference point for the turnstile emulator (whose ℓ0-
    samplers realize the same queries with 1/n^c slack).  A failure
    probability can be injected to exercise failure handling.
    """

    def __init__(
        self, graph: Graph, rng: RandomSource = None, failure_probability: float = 0.0
    ) -> None:
        super().__init__(graph, rng)
        if not 0.0 <= failure_probability < 1.0:
            raise OracleError(
                f"failure probability must be in [0, 1), got {failure_probability}"
            )
        self._failure_probability = failure_probability

    def _fails(self) -> bool:
        return self._failure_probability > 0.0 and self._rng.random() < self._failure_probability

    def random_edge(self) -> Optional[Sequence[int]]:
        if self._fails():
            return None
        return super().random_edge()

    def random_neighbor(self, vertex: int) -> Optional[int]:
        """f3 (relaxed): a uniformly random neighbor, or None."""
        self._check_vertex(vertex)
        if self._fails():
            return None
        degree = self._graph.degree(vertex)
        if degree == 0:
            return None
        return self._graph.neighbor_at(vertex, self._rng.randrange(degree))

    def neighbor(self, vertex: int, index: int) -> Optional[int]:
        raise OracleError(
            "indexed neighbor queries are not part of the relaxed model (Definition 10)"
        )
