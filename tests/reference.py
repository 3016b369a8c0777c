"""Test-only reference for the stream oracles of Theorems 9 and 11.

The production pass states (:mod:`repro.transform.insertion`,
:mod:`repro.transform.turnstile`) ingest columnar
:class:`~repro.streams.batch.EdgeBatch`\\ es with array kernels.  This
module keeps the definitions they must reproduce bit for bit, written
one stream element at a time so each line reads against the paper:

* :class:`ReferenceInsertionPass` — Theorem 9 over an insertion-only
  stream: one single-item reservoir per f1 query, a counter per f2
  vertex, an arrival counter per f3 vertex, a flag per f4 pair, and an
  edge counter;
* :class:`ReferenceTurnstilePass` — Theorem 11 over a turnstile
  stream: one ℓ0-sampler per f1 query (over edge ids) and per relaxed
  f3 query (over the vertex's adjacency column), and signed counters
  for f2, f4 and the edge count (an adjacency flag is "net count 1").

Both reference oracles read the stream through ``stream.updates()``
and feed the sketches through their scalar methods
(:meth:`~repro.sketch.reservoir.SkipAheadReservoirBank.offer`,
:meth:`~repro.sketch.l0.L0Sampler.update_many`).  Randomness is drawn
in the order the production oracles document: pass ``i`` of an
insertion oracle derives ``"edges-i"`` and then ``"nbrs-i-<vertex>"``
per random-neighbor vertex in order of first appearance; a turnstile
oracle derives ``"l0edge-i-<position>"`` / ``"l0nbr-i-<position>"`` per
f1 / f3 query in batch order.  Nothing here subclasses a production
class or reads a private field.

:func:`reference_check_updates` is the per-update statement of the
simple-graph stream model that
:func:`repro.streams.stream.check_updates` enforces column-wise.

:func:`reference_fgp_run` drives the FGP counter (Theorems 1 and 17)
against a reference oracle, drawing from the seed exactly like
``fgp_insertion_estimator`` / ``fgp_turnstile_estimator``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.fgp.rounds import SamplerMode, subgraph_sampler_rounds
from repro.graph.graph import normalize_edge
from repro.oracle.base import (
    AdjacencyQuery,
    DegreeQuery,
    EdgeCountQuery,
    NeighborQuery,
    RandomEdgeQuery,
    RandomNeighborQuery,
)
from repro.sketch.l0 import L0Sampler
from repro.sketch.reservoir import SkipAheadReservoirBank
from repro.streams.batch import edge_from_id, edge_id
from repro.transform.driver import run_round_adaptive
from repro.utils.rng import derive_rng, ensure_rng


class ReferenceInsertionPass:
    """One Theorem-9 pass, fed one ``(u, v, delta, edge)`` element at a time."""

    def __init__(self, rng, batch, pass_index: int) -> None:
        self.size = len(batch)
        self.edge_positions: List[int] = []
        self.neighbor_positions: Dict[int, List[int]] = {}
        self.degree_positions: List[Tuple[int, int]] = []
        self.degree: Dict[int, int] = {}
        self.neighbor_query_positions: List[int] = []
        self.watch: Dict[int, Dict[int, List[int]]] = {}
        self.arrivals: Dict[int, int] = {}
        self.captured: Dict[int, int] = {}
        self.adjacency_positions: List[Tuple[int, Tuple[int, int]]] = []
        self.present: set = set()
        self.edge_count_positions: List[int] = []
        self.edge_count = 0
        for position, query in enumerate(batch):
            kind = type(query)
            if kind is RandomEdgeQuery:
                self.edge_positions.append(position)
            elif kind is RandomNeighborQuery:
                self.neighbor_positions.setdefault(query.vertex, []).append(position)
            elif kind is DegreeQuery:
                self.degree[query.vertex] = 0
                self.degree_positions.append((position, query.vertex))
            elif kind is NeighborQuery:
                self.watch.setdefault(query.vertex, {}).setdefault(query.index, []).append(
                    position
                )
                self.arrivals[query.vertex] = 0
                self.neighbor_query_positions.append(position)
            elif kind is AdjacencyQuery:
                self.adjacency_positions.append((position, normalize_edge(query.u, query.v)))
            elif kind is EdgeCountQuery:
                self.edge_count_positions.append(position)
            else:
                raise TypeError(f"unsupported query type {kind.__name__}")
        self.pairs = {edge for _, edge in self.adjacency_positions}
        self.edge_bank = SkipAheadReservoirBank(
            len(self.edge_positions), derive_rng(rng, f"edges-{pass_index}")
        )
        self.neighbor_banks = {
            vertex: SkipAheadReservoirBank(
                len(positions), derive_rng(rng, f"nbrs-{pass_index}-{vertex}")
            )
            for vertex, positions in self.neighbor_positions.items()
        }

    def ingest(self, u: int, v: int, delta: int, edge: Tuple[int, int]) -> None:
        self.edge_count += 1
        self.edge_bank.offer(edge)
        for endpoint, other in ((u, v), (v, u)):
            if endpoint in self.neighbor_banks:
                self.neighbor_banks[endpoint].offer(other)
            if endpoint in self.degree:
                self.degree[endpoint] += 1
            if endpoint in self.arrivals:
                # The i-th incident arrival (0-based) is the i-th neighbor.
                index = self.arrivals[endpoint]
                for position in self.watch[endpoint].get(index, ()):
                    self.captured[position] = other
                self.arrivals[endpoint] = index + 1
        if edge in self.pairs:
            self.present.add(edge)

    def finish(self) -> List[Any]:
        answers: List[Any] = [None] * self.size
        for slot, position in enumerate(self.edge_positions):
            answers[position] = self.edge_bank.item(slot)
        for vertex, positions in self.neighbor_positions.items():
            for slot, position in enumerate(positions):
                answers[position] = self.neighbor_banks[vertex].item(slot)
        for position, vertex in self.degree_positions:
            answers[position] = self.degree[vertex]
        for position in self.neighbor_query_positions:
            answers[position] = self.captured.get(position)
        for position, edge in self.adjacency_positions:
            answers[position] = edge in self.present
        for position in self.edge_count_positions:
            answers[position] = self.edge_count
        return answers


class ReferenceTurnstilePass:
    """One Theorem-11 pass, fed one ``(u, v, delta, edge)`` element at a time."""

    def __init__(self, rng, batch, pass_index: int, n: int, repetitions: int) -> None:
        self.n = n
        self.size = len(batch)
        self.edge_positions: List[int] = []
        self.neighbor_positions: List[Tuple[int, int]] = []
        self.degree_positions: List[Tuple[int, int]] = []
        self.degree: Dict[int, int] = {}
        self.adjacency_positions: List[Tuple[int, Tuple[int, int]]] = []
        self.pair_counts: Dict[Tuple[int, int], int] = {}
        self.edge_count_positions: List[int] = []
        self.edge_count = 0
        edge_rngs, neighbor_rngs = [], []
        for position, query in enumerate(batch):
            kind = type(query)
            if kind is RandomEdgeQuery:
                self.edge_positions.append(position)
                edge_rngs.append(derive_rng(rng, f"l0edge-{pass_index}-{position}"))
            elif kind is RandomNeighborQuery:
                self.neighbor_positions.append((position, query.vertex))
                neighbor_rngs.append(derive_rng(rng, f"l0nbr-{pass_index}-{position}"))
            elif kind is DegreeQuery:
                self.degree[query.vertex] = 0
                self.degree_positions.append((position, query.vertex))
            elif kind is AdjacencyQuery:
                edge = normalize_edge(query.u, query.v)
                self.pair_counts[edge] = 0
                self.adjacency_positions.append((position, edge))
            elif kind is EdgeCountQuery:
                self.edge_count_positions.append(position)
            else:
                raise TypeError(f"unsupported query type {kind.__name__}")
        self.edge_samplers = L0Sampler.bank(max(1, n * (n - 1) // 2), edge_rngs, repetitions)
        self.neighbor_samplers = L0Sampler.bank(n, neighbor_rngs, repetitions)

    def ingest(self, u: int, v: int, delta: int, edge: Tuple[int, int]) -> None:
        self.edge_count += delta
        for endpoint in (u, v):
            if endpoint in self.degree:
                self.degree[endpoint] += delta
        if edge in self.pair_counts:
            self.pair_counts[edge] += delta
        if self.edge_positions:
            self.edge_samplers.update_many([(edge_id(u, v, self.n), delta)])
        # Sampler s watches vertex w: it sees the other endpoint of
        # every element incident to w.
        for sampler, (_, vertex) in enumerate(self.neighbor_positions):
            if vertex == u:
                self.neighbor_samplers.update_many([(v, delta)], sampler)
            elif vertex == v:
                self.neighbor_samplers.update_many([(u, delta)], sampler)

    def finish(self) -> List[Any]:
        answers: List[Any] = [None] * self.size
        for sampler, position in enumerate(self.edge_positions):
            identifier = self.edge_samplers.sample(sampler)
            answers[position] = None if identifier is None else edge_from_id(identifier, self.n)
        for sampler, (position, _) in enumerate(self.neighbor_positions):
            answers[position] = self.neighbor_samplers.sample(sampler)
        for position, vertex in self.degree_positions:
            answers[position] = self.degree[vertex]
        for position, edge in self.adjacency_positions:
            answers[position] = self.pair_counts[edge] == 1
        for position in self.edge_count_positions:
            answers[position] = self.edge_count
        return answers


class ReferenceOracle:
    """One reference pass per query batch; records every pass's answers.

    *sampler_repetitions* ``None`` selects the insertion-only oracle
    (Theorem 9), an int the turnstile oracle (Theorem 11) with that
    many repetitions per ℓ0-sampler.
    """

    def __init__(self, stream, rng, sampler_repetitions=None) -> None:
        self.stream = stream
        self.rng = ensure_rng(rng)
        self.repetitions = sampler_repetitions
        self.pass_index = 0
        self.passes: List[List[Any]] = []

    def begin_batch(self, batch):
        self.pass_index += 1
        if self.repetitions is None:
            return ReferenceInsertionPass(self.rng, batch, self.pass_index)
        return ReferenceTurnstilePass(
            self.rng, batch, self.pass_index, self.stream.n, self.repetitions
        )

    def answer_batch(self, batch) -> List[Any]:
        state = self.begin_batch(batch)
        for update in self.stream.updates():
            state.ingest(update.u, update.v, update.delta, update.edge)
        answers = state.finish()
        self.passes.append(answers)
        return answers


def reference_fgp_run(stream, pattern, trials: int, rng, sampler_repetitions=None):
    """``(estimate, per-pass answer lists)`` of one FGP counter copy.

    Insertion-only (Theorem 17) when *sampler_repetitions* is ``None``,
    turnstile (Theorem 1) otherwise — the same randomness tree as
    ``fgp_insertion_estimator`` / ``fgp_turnstile_estimator`` with
    ``trials`` pinned.
    """
    random_state = ensure_rng(rng)
    oracle = ReferenceOracle(stream, derive_rng(random_state, "oracle"), sampler_repetitions)
    mode = SamplerMode.AUGMENTED if sampler_repetitions is None else SamplerMode.RELAXED
    generators = [
        subgraph_sampler_rounds(pattern, rng=derive_rng(random_state, i), mode=mode)
        for i in range(trials)
    ]
    run = run_round_adaptive(generators, oracle)
    successes = sum(1 for output in run.outputs if output is not None)
    m = stream.net_edge_count
    estimate = (successes / trials) * (2.0 * m) ** pattern.rho() if m else 0.0
    return estimate, oracle.passes


def reference_check_updates(
    n: int, u, v, delta, allow_deletions: bool, live: Optional[Set] = None
) -> Tuple[Optional[int], Optional[Set]]:
    """``(first offending index or None, live edges after the updates)``.

    Walks the updates one at a time and stops at the first that has a
    self-loop, an endpoint outside ``[0, n)``, a delta other than ±1, a
    deletion when *allow_deletions* is false, or — unless *live* is
    ``None`` (stateless rules only) — takes its edge's multiplicity
    outside {0, 1}, starting from the edges in *live*.  The live set
    returned is the one before the offending update.
    """
    present = None if live is None else set(live)
    for index, (a, b, d) in enumerate(zip(list(u), list(v), list(delta))):
        a, b, d = int(a), int(b), int(d)
        if a == b or not (0 <= a < n and 0 <= b < n) or d not in (1, -1):
            return index, present
        if d < 0 and not allow_deletions:
            return index, present
        if present is None:
            continue
        edge = normalize_edge(a, b)
        count = (edge in present) + d
        if count not in (0, 1):
            return index, present
        if count:
            present.add(edge)
        else:
            present.discard(edge)
    return None, present
