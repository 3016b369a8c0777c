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

:func:`subgraph_sampler_rounds` is one FGP sampling attempt written as
a generator that yields query-object batches, one attempt at a time:
the per-trial statement that :class:`repro.fgp.bank.FgpTrialBank`
reproduces for all trials at once, bit for bit.

:func:`reference_fgp_run` drives the FGP counter (Theorems 1 and 17)
against a reference oracle with those generators, drawing from the
seed exactly like ``fgp_insertion_estimator`` / ``fgp_turnstile_estimator``.
"""

from __future__ import annotations

import itertools
import math
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import SketchError
from repro.fgp.rounds import (
    WEDGE_BOTH,
    WEDGE_HIGH_ONLY,
    WEDGE_LOW_ONLY,
    SampledCopy,
    SamplerMode,
)
from repro.graph.graph import Edge, Graph, normalize_edge
from repro.graph.order import VertexOrder
from repro.oracle.base import (
    AdjacencyQuery,
    DegreeQuery,
    EdgeCountQuery,
    NeighborQuery,
    Query,
    RandomEdgeQuery,
    RandomNeighborQuery,
)
from repro.patterns.canonical import is_canonical_cycle, is_canonical_star
from repro.patterns.isomorphism import enumerate_spanning_copies
from repro.patterns.pattern import Pattern
from repro.sketch.l0 import L0Sampler
from repro.sketch.reservoir import SkipAheadReservoirBank
from repro.streams.batch import edge_from_id, edge_id
from repro.transform.driver import run_round_adaptive
from repro.utils.rng import RandomSource, derive_rng, ensure_rng


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


def _orient(edge: Sequence[int], rng) -> Tuple[int, int]:
    """Random orientation: each directed version with probability 1/2.

    Together with a uniform f1 edge sample this yields each *directed*
    edge with probability 1/(2m) — the unit the FGP analysis works in.
    """
    u, v = edge
    return (u, v) if rng.random() < 0.5 else (v, u)


def subgraph_sampler_rounds(
    pattern: Pattern,
    rng: RandomSource = None,
    mode: str = SamplerMode.AUGMENTED,
    wedge_branches: str = WEDGE_BOTH,
    skip_empty_wedge_round: bool = False,
):
    """Generator implementing one FGP sampling attempt in 3 rounds.

    Yields query batches (:mod:`repro.oracle.base` objects) and
    receives answer lists; returns a :data:`SampledCopy` or ``None``.
    Drive it with :func:`repro.transform.run_round_adaptive`.

    *wedge_branches* is an ablation knob: ``"low_only"`` /
    ``"high_only"`` disable one branch of SampleWedge (Algorithm 6),
    which provably biases cycle sampling — experiment A1 measures how.

    *skip_empty_wedge_round* elides round 2 when the Lemma 4
    decomposition of H has no odd cycles (stars issue no wedge
    queries), making the sampler 2-round adaptive for such H — the
    basis of :mod:`repro.streaming.two_pass`.  Off by default so the
    round/pass structure matches Algorithm 1 verbatim.
    """
    if mode not in (SamplerMode.AUGMENTED, SamplerMode.RELAXED):
        raise SketchError(f"unknown sampler mode {mode!r}")
    if wedge_branches not in (WEDGE_BOTH, WEDGE_LOW_ONLY, WEDGE_HIGH_ONLY):
        raise SketchError(f"unknown wedge branch setting {wedge_branches!r}")
    random_state = ensure_rng(rng)
    decomposition = pattern.decomposition()
    cycle_lengths = decomposition.cycle_lengths
    star_petals = decomposition.star_petals
    family_count = pattern.family_count()

    # ---- round 1: edge samples + edge count ---------------------------
    batch1: List[Query] = [EdgeCountQuery()]
    for length in cycle_lengths:
        half = (length - 1) // 2
        batch1.extend(RandomEdgeQuery() for _ in range(half + 1))
    for petals in star_petals:
        batch1.extend(RandomEdgeQuery() for _ in range(petals))
    answers1 = yield batch1

    m = answers1[0]
    if not m:
        return None
    sqrt_2m = math.sqrt(2.0 * m)

    cursor = 1
    cycle_extras: List[Optional[Tuple[int, int]]] = []
    cycle_paths: List[Optional[List[Tuple[int, int]]]] = []
    for length in cycle_lengths:
        half = (length - 1) // 2
        raw = answers1[cursor : cursor + half + 1]
        cursor += half + 1
        if any(edge is None for edge in raw):
            cycle_extras.append(None)
            cycle_paths.append(None)
            continue
        oriented = [_orient(edge, random_state) for edge in raw]
        cycle_extras.append(oriented[0])
        cycle_paths.append(oriented[1:])

    star_edges: List[Optional[List[Tuple[int, int]]]] = []
    for petals in star_petals:
        raw = answers1[cursor : cursor + petals]
        cursor += petals
        if any(edge is None for edge in raw):
            star_edges.append(None)
        else:
            star_edges.append([_orient(edge, random_state) for edge in raw])

    sampling_failed = any(p is None for p in cycle_paths) or any(
        s is None for s in star_edges
    )

    # ---- round 2: wedge completion per cycle --------------------------
    # Queries are issued even for already-failed attempts so the round
    # structure (and hence the pass structure) is input-independent.
    if skip_empty_wedge_round and not cycle_lengths:
        wedge_answers: List[Optional[int]] = []
    else:
        batch2: List[Query] = []
        for path in cycle_paths:
            anchor = path[0][0] if path else 0
            if mode == SamplerMode.AUGMENTED:
                index = int(random_state.random() * sqrt_2m)
                batch2.append(NeighborQuery(anchor, index))
            else:
                batch2.append(RandomNeighborQuery(anchor))
        answers2 = yield batch2
        wedge_answers = list(answers2)

    # ---- round 3: adjacency + degrees of all sampled vertices ---------
    sampled_vertices: List[int] = []
    for extra, path in zip(cycle_extras, cycle_paths):
        if extra is not None:
            sampled_vertices.extend(extra)
        if path is not None:
            for u, v in path:
                sampled_vertices.extend((u, v))
    for edges in star_edges:
        if edges is not None:
            for u, v in edges:
                sampled_vertices.extend((u, v))
    for w in wedge_answers:
        if w is not None:
            sampled_vertices.append(w)
    vertex_pool: List[int] = sorted(set(sampled_vertices))

    batch3: List[Query] = [
        AdjacencyQuery(u, v) for u, v in itertools.combinations(vertex_pool, 2)
    ]
    degree_offset = len(batch3)
    batch3.extend(DegreeQuery(v) for v in vertex_pool)
    answers3 = yield batch3

    if sampling_failed or not vertex_pool:
        return None

    adjacency: Dict[Edge, bool] = {}
    for (u, v), present in zip(itertools.combinations(vertex_pool, 2), answers3):
        adjacency[normalize_edge(u, v)] = bool(present)
    degrees: Dict[int, int] = {
        v: answers3[degree_offset + i] for i, v in enumerate(vertex_pool)
    }

    return _postprocess(
        pattern=pattern,
        mode=mode,
        rng=random_state,
        m=m,
        sqrt_2m=sqrt_2m,
        cycle_extras=cycle_extras,
        cycle_paths=cycle_paths,
        wedge_answers=wedge_answers,
        star_edges=star_edges,
        adjacency=adjacency,
        degrees=degrees,
        family_count=family_count,
        wedge_branches=wedge_branches,
    )


def _postprocess(
    pattern: Pattern,
    mode: str,
    rng,
    m: int,
    sqrt_2m: float,
    cycle_extras: Sequence[Optional[Tuple[int, int]]],
    cycle_paths: Sequence[Optional[List[Tuple[int, int]]]],
    wedge_answers: Sequence[Optional[int]],
    star_edges: Sequence[Optional[List[Tuple[int, int]]]],
    adjacency: Dict[Edge, bool],
    degrees: Dict[int, int],
    family_count: int,
    wedge_branches: str = WEDGE_BOTH,
) -> Optional[SampledCopy]:
    """SampleWedge branches, canonicality checks, and copy resolution."""
    order = VertexOrder(degrees)

    def has_edge(u: int, v: int) -> bool:
        if u == v:
            return False
        return adjacency.get(normalize_edge(u, v), False)

    family_vertices: List[int] = []
    family_edges: List[Edge] = []

    # --- odd cycles (SampleOddCycle + SampleWedge) ----------------------
    for extra, path, wedge in zip(cycle_extras, cycle_paths, wedge_answers):
        assert extra is not None and path is not None
        anchor = path[0][0]  # u_{i,1}: the intended ≺-minimum
        anchor_degree = degrees[anchor]
        if anchor_degree <= sqrt_2m:
            if wedge_branches == WEDGE_HIGH_ONLY:
                return None  # ablation: low branch disabled
            # Low-degree branch: wedge vertex came from the neighbor query.
            if wedge is None:
                return None
            closing = wedge
            if mode == SamplerMode.RELAXED:
                # Convert the uniform neighbor (prob 1/deg) into prob
                # 1/√(2m) via an acceptance coin of deg/√(2m).
                if not rng.random() * sqrt_2m < anchor_degree:
                    return None
        else:
            if wedge_branches == WEDGE_LOW_ONLY:
                return None  # ablation: high branch disabled
            # High-degree branch: the extra edge's head is a degree-
            # proportional vertex sample; thin it to 1/√(2m).
            closing = extra[0]
            if not rng.random() * degrees[closing] < sqrt_2m:
                return None
        sequence: List[int] = []
        for u, v in path:
            sequence.extend((u, v))
        sequence.append(closing)
        if len(set(sequence)) != len(sequence):
            return None
        if not is_canonical_cycle(sequence, order, has_edge):
            return None
        family_vertices.extend(sequence)
        cycle_edge_list = [
            normalize_edge(sequence[i], sequence[(i + 1) % len(sequence)])
            for i in range(len(sequence))
        ]
        family_edges.extend(cycle_edge_list)

    # --- stars (SampleStar) ---------------------------------------------
    for edges in star_edges:
        assert edges is not None
        centers = [u for u, _ in edges]
        petals = [v for _, v in edges]
        if len(set(centers)) != 1:
            return None
        center = centers[0]
        sequence = [center, *petals]
        if len(set(sequence)) != len(sequence):
            return None
        if not is_canonical_star(sequence, order, has_edge):
            return None
        family_vertices.extend(sequence)
        family_edges.extend(normalize_edge(center, petal) for petal in petals)

    # --- piece union must be exactly a |V(H)|-vertex set -----------------
    support = sorted(set(family_vertices))
    if len(support) != pattern.num_vertices or len(support) != len(family_vertices):
        return None

    # --- resolve which copy the family witnesses -------------------------
    local_of = {v: i for i, v in enumerate(support)}
    view = Graph(len(support))
    for u, v in itertools.combinations(support, 2):
        if has_edge(u, v):
            view.add_edge(local_of[u], local_of[v])
    required_local = {
        normalize_edge(local_of[u], local_of[v]) for u, v in family_edges
    }
    candidates = enumerate_spanning_copies(
        view, pattern.graph, list(range(len(support))), required_edges=required_local
    )
    if not candidates:
        return None
    if len(candidates) > family_count:
        raise SketchError(
            f"family witnesses {len(candidates)} copies, exceeding f_T(H) = "
            f"{family_count}; per-copy probability accounting would break"
        )
    candidates.sort(key=sorted)
    slot = int(rng.random() * family_count)
    if slot >= len(candidates):
        return None
    chosen = candidates[slot]
    return frozenset(
        normalize_edge(support[u], support[v]) for u, v in chosen
    )


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
