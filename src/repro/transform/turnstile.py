"""Theorem 11: emulating the relaxed augmented model over a turnstile
stream.

One :meth:`TurnstileStreamOracle.answer_batch` call makes one pass and
answers the batch with sketch-backed structures:

* f1 (near-uniform edge) — a fresh ℓ0-sampler over the adjacency-
  matrix vector (edge ids), O(log^4 n) bits each (Lemma 7);
* f3 (near-uniform neighbor of v) — a fresh ℓ0-sampler over the
  adjacency-list column of v;
* f2 (degree) — a signed counter;
* f4 (adjacency) — a signed counter (present iff net count is 1);
* edge count — a signed counter (final multiplicities are 0/1, so the
  signed sum is exactly m).

Indexed neighbor queries (f3 of the non-relaxed model) are rejected —
they have no turnstile emulation, which is exactly why the paper
introduces the relaxed model (Definition 10).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import CheckpointError, MergeError, OracleError
from repro.graph.graph import normalize_edge
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
from repro.sketch.l0 import L0Sampler
from repro.streams.batch import (
    EdgeBatch,
    VertexMembership,
    edge_from_id,
    edge_id,
    sorted_member_mask,
)
from repro.streams.space import SpaceMeter
from repro.streams.stream import EdgeStream, pass_batches
from repro.utils.checkpoint import (
    check_merge_config,
    check_state_config,
    rng_state,
    set_rng_state,
    state_field,
)
from repro.utils.rng import RandomSource, derive_rng, ensure_rng, seed_fingerprint


class TurnstilePassState:
    """One in-flight turnstile pass (see :class:`InsertionPassState`).

    The pass's ℓ0-samplers live in two banks (:class:`L0Sampler`): one
    over edge ids for the f1 queries, one over vertices for the f3
    queries, sampler ``i`` of a bank answering the ``i``-th such query
    of the batch.  A columnar batch costs at most one
    :meth:`L0Sampler.update_many_arrays` call per bank: the edge bank
    takes the whole batch, the neighbor bank takes the batch's
    ``(sampler, neighbor)`` pairs.  No randomness is drawn during
    ingestion, so answers do not depend on how the stream is batched.
    """

    __slots__ = (
        "_oracle",
        "_size",
        "_component",
        "_n",
        "_edge_positions",
        "_edge_bank",
        "_neighbor_positions",
        "_neighbor_bank",
        "_samplers_by_vertex",
        "_degree_positions",
        "_adjacency_positions",
        "_edge_count_positions",
        "_degree_counts",
        "_pair_counts",
        "_edge_count",
        "_columnar_ready",
        "_degree_members",
        "_degree_accumulator",
        "_sampler_members",
        "_sampler_starts",
        "_sampler_order",
        "_pair_ids",
        "_pair_accumulator",
    )

    def __init__(self, oracle: "TurnstileStreamOracle", batch: QueryBatch, pass_index: int) -> None:
        self._oracle = oracle
        self._size = len(batch)
        n = oracle._stream.n
        self._n = n
        edge_universe = max(1, n * (n - 1) // 2)

        edge_positions: List[int] = []
        edge_rngs = []
        neighbor_positions: List[Tuple[int, int]] = []
        neighbor_rngs = []
        degree_positions: List[Tuple[int, int]] = []
        adjacency_positions: List[Tuple[int, Tuple[int, int]]] = []
        edge_count_positions: List[int] = []
        degree_vertices: Set[int] = set()
        adjacency_pairs: Set[Tuple[int, int]] = set()

        for position, query in enumerate(batch):
            kind = type(query)
            if kind is RandomEdgeQuery:
                edge_positions.append(position)
                edge_rngs.append(derive_rng(oracle._rng, f"l0edge-{pass_index}-{position}"))
            elif kind is RandomNeighborQuery:
                neighbor_positions.append((position, query.vertex))
                neighbor_rngs.append(derive_rng(oracle._rng, f"l0nbr-{pass_index}-{position}"))
            elif kind is DegreeQuery:
                degree_vertices.add(query.vertex)
                degree_positions.append((position, query.vertex))
            elif kind is AdjacencyQuery:
                edge = normalize_edge(query.u, query.v)
                adjacency_pairs.add(edge)
                adjacency_positions.append((position, edge))
            elif kind is EdgeCountQuery:
                edge_count_positions.append(position)
            elif kind is NeighborQuery:
                raise OracleError(
                    "indexed neighbor queries (f3, Definition 6) cannot be emulated "
                    "over turnstile streams; the relaxed model (Definition 10) uses "
                    "RandomNeighborQuery instead"
                )
            else:
                raise OracleError(f"unsupported query type {kind.__name__}")

        repetitions = oracle._sampler_repetitions
        self._edge_positions = edge_positions
        self._edge_bank = L0Sampler.bank(edge_universe, edge_rngs, repetitions)
        self._neighbor_positions = neighbor_positions
        self._neighbor_bank = L0Sampler.bank(n, neighbor_rngs, repetitions)
        self._samplers_by_vertex: Dict[int, List[int]] = {}
        for index, (_, vertex) in enumerate(neighbor_positions):
            self._samplers_by_vertex.setdefault(vertex, []).append(index)
        self._degree_positions = degree_positions
        self._adjacency_positions = adjacency_positions
        self._edge_count_positions = edge_count_positions
        self._degree_counts: Dict[int, int] = {v: 0 for v in degree_vertices}
        self._pair_counts: Dict[Tuple[int, int], int] = {pair: 0 for pair in adjacency_pairs}
        self._edge_count = 0

        # Columnar-path lookup structures (see InsertionPassState) are
        # built lazily by the first columnar batch; the scalar ingest
        # loop below never touches them, and finish() folds the flat
        # accumulators back into the dicts.
        self._columnar_ready = False
        self._degree_members = None
        self._degree_accumulator = None
        self._sampler_members = None
        self._sampler_starts = None
        self._sampler_order = None
        self._pair_ids = None
        self._pair_accumulator = None

        self._component = f"turnstile-pass-{pass_index}"
        words = (
            self._edge_bank.space_words
            + self._neighbor_bank.space_words
            + len(degree_vertices)
            + len(adjacency_pairs)
            + (1 if edge_count_positions else 0)
        )
        oracle.space.set_usage(self._component, words)

    def ingest_batch(self, updates: Sequence[Tuple[int, int, int, Tuple[int, int]]]) -> None:
        """Consume decoded ``(u, v, delta, edge)`` stream elements, in order.

        Columnar :class:`~repro.streams.batch.EdgeBatch` input takes the
        vectorized route (:meth:`_ingest_columnar`); tuple lists take
        the scalar reference loop below.  The sketches are linear and
        no randomness is drawn during ingestion, so both routes yield
        bit-identical answers.
        """
        if isinstance(updates, EdgeBatch):
            self._ingest_columnar(updates)
            return
        degree_counts = self._degree_counts
        pair_counts = self._pair_counts
        edge_count = self._edge_count
        for u, v, delta, edge in updates:
            edge_count += delta
            if degree_counts:
                if u in degree_counts:
                    degree_counts[u] += delta
                if v in degree_counts:
                    degree_counts[v] += delta
            if pair_counts and edge in pair_counts:
                pair_counts[edge] += delta
        self._edge_count = edge_count

        if self._edge_positions:
            n = self._n
            self._edge_bank.update_many(
                [(edge_id(u, v, n), delta) for u, v, delta, _ in updates]
            )
        samplers_by_vertex = self._samplers_by_vertex
        if samplers_by_vertex:
            # One scan groups the batch by watched endpoint, so S samplers
            # over the same vertex share the incident list instead of each
            # rescanning the whole batch.
            incident: Dict[int, List[Tuple[int, int]]] = {}
            for u, v, delta, _ in updates:
                if u in samplers_by_vertex:
                    incident.setdefault(u, []).append((v, delta))
                if v in samplers_by_vertex:
                    incident.setdefault(v, []).append((u, delta))
            for vertex, pairs in incident.items():
                for sampler in samplers_by_vertex[vertex]:
                    self._neighbor_bank.update_many(pairs, sampler)

    def _ingest_columnar(self, batch: EdgeBatch) -> None:
        """Vectorized ingestion of one columnar batch.

        Counters become filtered grouped sums into flat accumulators;
        each ℓ0-sampler bank takes the batch in one
        :meth:`~repro.sketch.l0.L0Sampler.update_many_arrays` call —
        the edge bank every edge id, the neighbor bank one ``(sampler,
        neighbor)`` pair per watched endpoint event and sampler
        watching that endpoint.
        """
        self._edge_count += int(batch.delta.sum())
        if not self._columnar_ready:
            self._build_columnar_structures()

        degree_members = self._degree_members
        sampler_members = self._sampler_members
        if degree_members is not None or sampler_members is not None:
            endpoint, other, index = batch.events()

            if degree_members is not None:
                mask = degree_members.mask(endpoint)
                if mask.any():
                    np.add.at(
                        self._degree_accumulator,
                        degree_members.slots(endpoint[mask]),
                        batch.delta[index[mask]],
                    )

            if sampler_members is not None:
                mask = sampler_members.mask(endpoint)
                if mask.any():
                    # Expand each watched event into one pair per sampler
                    # watching its endpoint (CSR groups by vertex slot).
                    slots = sampler_members.slots(endpoint[mask])
                    starts = self._sampler_starts[slots]
                    counts = self._sampler_starts[slots + 1] - starts
                    events = np.repeat(np.arange(len(slots)), counts)
                    ends = np.cumsum(counts)
                    ranks = np.arange(ends[-1]) - np.repeat(ends - counts, counts)
                    self._neighbor_bank.update_many_arrays(
                        other[mask][events],
                        batch.delta[index[mask]][events],
                        self._sampler_order[starts[events] + ranks],
                    )

        pair_ids = self._pair_ids
        if pair_ids is not None:
            ids = batch.edge_ids(self._n)
            mask = sorted_member_mask(pair_ids, ids)
            if mask.any():
                slots = np.searchsorted(pair_ids, ids[mask])
                np.add.at(self._pair_accumulator, slots, batch.delta[mask])

        if self._edge_positions:
            self._edge_bank.update_many_arrays(batch.edge_ids(self._n), batch.delta)

    def _build_columnar_structures(self) -> None:
        """Lazily build the vectorized-path lookup structures.

        Transient engineering scratch of the columnar executor,
        outside the paper's space accounting (which meters the
        algorithmic state only), allocated exactly once by the first
        columnar batch — membership filters are scale-aware in ``n``,
        see :meth:`InsertionPassState._build_columnar_structures`.
        """
        n = self._n
        if self._degree_counts:
            self._degree_members = VertexMembership(self._degree_counts, n)
            self._degree_accumulator = np.zeros(
                len(self._degree_members), dtype=np.int64
            )
        if self._samplers_by_vertex:
            members = VertexMembership(self._samplers_by_vertex, n)
            groups = [self._samplers_by_vertex[v] for v in members.vertices.tolist()]
            self._sampler_members = members
            self._sampler_starts = np.cumsum([0] + [len(g) for g in groups])
            self._sampler_order = np.array(
                [index for group in groups for index in group], dtype=np.int64
            )
        if self._pair_counts:
            ids = sorted(edge_id(a, b, n) for a, b in self._pair_counts)
            self._pair_ids = np.array(ids, dtype=np.int64)
            self._pair_accumulator = np.zeros(len(ids), dtype=np.int64)
        self._columnar_ready = True

    def _fold_columnar_state(self) -> None:
        """Fold columnar accumulators back into the scalar dicts (idempotent).

        Shared by :meth:`finish` and :meth:`state_dict`, so captures are
        backend-agnostic whichever ingestion route fed the pass.
        """
        if self._degree_accumulator is not None:
            accumulator = self._degree_accumulator
            degree_counts = self._degree_counts
            for slot, vertex in enumerate(self._degree_members.vertices.tolist()):
                count = int(accumulator[slot])
                if count:
                    degree_counts[vertex] += count
                    accumulator[slot] = 0
        if self._pair_accumulator is not None and self._pair_accumulator.any():
            n = self._n
            pair_counts = self._pair_counts
            pair_by_id = {edge_id(a, b, n): (a, b) for a, b in pair_counts}
            for identifier, count in zip(
                self._pair_ids.tolist(), self._pair_accumulator.tolist()
            ):
                if count:
                    pair_counts[pair_by_id[identifier]] += count
            self._pair_accumulator[:] = 0

    def merge(self, other: "TurnstilePassState") -> None:
        """Fold another shard's pass state into this one, exactly.

        Every structure of a turnstile pass is linear in the updates —
        signed counters add, and the ℓ0-sampler banks merge cell-wise
        (:meth:`~repro.sketch.l0.L0Sampler.merge`) — and **no randomness
        is drawn during ingestion**, so two replica pass states (built
        by identically seeded oracles for the same round's query batch,
        each fed a disjoint shard of the stream) merge into a state
        bit-identical to one pass over the whole stream, whatever the
        shard order.  Structural disagreement — different query batch,
        different seeds, different pass index — raises
        :class:`~repro.errors.MergeError`.
        """
        if not isinstance(other, TurnstilePassState):
            raise MergeError(
                f"cannot merge TurnstilePassState with {type(other).__name__}"
            )
        # The space-accounting component label is deliberately NOT
        # compared: a replica rehydrated through state_dict/load keeps
        # the label of the oracle it was rebuilt on (its own accounting
        # releases against it), while the pass *identity* is enforced
        # one level up by TurnstileStreamOracle.merge (pass_index and
        # rng fingerprint) and by the sketch-level coefficient checks.
        check_merge_config(
            "TurnstilePassState",
            size=(self._size, other._size),
            n=(self._n, other._n),
            edge_sampler_positions=(self._edge_positions, other._edge_positions),
            neighbor_sampler_positions=(
                self._neighbor_positions,
                other._neighbor_positions,
            ),
            degree_vertices=(
                sorted(self._degree_counts),
                sorted(other._degree_counts),
            ),
            adjacency_pairs=(
                sorted(self._pair_counts),
                sorted(other._pair_counts),
            ),
            edge_count_positions=(
                self._edge_count_positions,
                other._edge_count_positions,
            ),
        )
        self._fold_columnar_state()
        other._fold_columnar_state()
        self._edge_count += other._edge_count
        for vertex, count in other._degree_counts.items():
            self._degree_counts[vertex] += count
        for pair, count in other._pair_counts.items():
            self._pair_counts[pair] += count
        self._edge_bank.merge(other._edge_bank)
        self._neighbor_bank.merge(other._neighbor_bank)

    def state_dict(self) -> dict:
        """Mutable runtime state of the in-flight pass.

        Sampler entries are stored in construction order, one
        :meth:`~repro.sketch.l0.L0Sampler.sampler_state` each (hash
        coefficients, fingerprint bases, per-level aggregates) — the
        per-sampler layout checkpoints have always used.
        """
        self._fold_columnar_state()
        return {
            "size": self._size,
            "edge_count": self._edge_count,
            "degree_counts": dict(self._degree_counts),
            "pair_counts": sorted(
                (pair, count) for pair, count in self._pair_counts.items()
            ),
            "edge_samplers": [
                self._edge_bank.sampler_state(s) for s in range(self._edge_bank.samplers)
            ],
            "neighbor_samplers": [
                self._neighbor_bank.sampler_state(s)
                for s in range(self._neighbor_bank.samplers)
            ],
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore runtime state into a structurally identical pass."""
        check_state_config("TurnstilePassState", state, size=self._size)
        captured_degrees = state_field("TurnstilePassState", state, "degree_counts")
        if set(captured_degrees) != set(self._degree_counts):
            raise CheckpointError(
                "TurnstilePassState state tracks different degree vertices than "
                "this pass; the pass was rebuilt from a different query batch"
            )
        edge_states = state_field("TurnstilePassState", state, "edge_samplers")
        neighbor_states = state_field("TurnstilePassState", state, "neighbor_samplers")
        edge_bank, neighbor_bank = self._edge_bank, self._neighbor_bank
        if len(edge_states) != edge_bank.samplers or len(neighbor_states) != (
            neighbor_bank.samplers
        ):
            raise CheckpointError(
                f"TurnstilePassState state carries {len(edge_states)} edge / "
                f"{len(neighbor_states)} neighbor samplers; this pass has "
                f"{edge_bank.samplers} / {neighbor_bank.samplers}"
            )
        self._fold_columnar_state()
        self._edge_count = int(state_field("TurnstilePassState", state, "edge_count"))
        self._degree_counts = {
            vertex: int(count) for vertex, count in captured_degrees.items()
        }
        self._pair_counts = {
            tuple(pair): int(count)
            for pair, count in state_field("TurnstilePassState", state, "pair_counts")
        }
        for sampler, captured in enumerate(edge_states):
            edge_bank.load_sampler_state(sampler, captured)
        for sampler, captured in enumerate(neighbor_states):
            neighbor_bank.load_sampler_state(sampler, captured)

    def finish(self) -> List[Any]:
        """Collect the batch's answers and release the pass's space."""
        self._fold_columnar_state()
        n = self._n
        answers: List[Any] = [None] * self._size
        for sampler, position in enumerate(self._edge_positions):
            identifier = self._edge_bank.sample(sampler)
            answers[position] = (
                None if identifier is None else edge_from_id(identifier, n)
            )
        for sampler, (position, _) in enumerate(self._neighbor_positions):
            answers[position] = self._neighbor_bank.sample(sampler)
        degree_counts = self._degree_counts
        for position, vertex in self._degree_positions:
            answers[position] = degree_counts[vertex]
        pair_counts = self._pair_counts
        for position, edge in self._adjacency_positions:
            answers[position] = pair_counts[edge] == 1
        edge_count = self._edge_count
        for position in self._edge_count_positions:
            answers[position] = edge_count

        self._oracle.space.release(self._component)
        return answers


class TurnstileStreamOracle:
    """Answers relaxed-model query batches over a turnstile stream.

    Like :class:`~repro.transform.insertion.InsertionStreamOracle`,
    *stream* may be a :class:`~repro.engine.parallel.StreamHandle`:
    construction and :meth:`begin_batch` touch only metadata (``n``,
    ``passes_used``), so worker processes rebuild turnstile oracles
    from picklable specs and feed the pass-states from broadcast
    batches.  :class:`TurnstilePassState` instances are transient and
    never cross a process boundary.
    """

    def __init__(
        self,
        stream: EdgeStream,
        rng: RandomSource = None,
        space_meter: Optional[SpaceMeter] = None,
        sampler_repetitions: int = 8,
    ) -> None:
        self._stream = stream
        self._rng = ensure_rng(rng)
        self._pass_index = 0
        self._sampler_repetitions = sampler_repetitions
        self.accounting = QueryAccounting()
        self.space = space_meter if space_meter is not None else SpaceMeter()

    @property
    def passes_used(self) -> int:
        return self._stream.passes_used

    def begin_batch(self, batch: QueryBatch) -> TurnstilePassState:
        """Open a pass for *batch* without touching the stream.

        Counterpart of :meth:`InsertionStreamOracle.begin_batch` for the
        fused engine; the caller owns the stream iteration.
        """
        self.accounting.record_batch(batch)
        self._pass_index += 1
        return TurnstilePassState(self, batch, self._pass_index)

    def answer_batch(self, batch: QueryBatch) -> List[Any]:
        """Answer one round's batch in a single pass over the stream.

        The pass runs over the stream's cached columnar batches
        (:func:`~repro.streams.stream.pass_batches`), which is
        bit-identical to the scalar decode it replaces.
        """
        state = self.begin_batch(batch)
        for chunk in pass_batches(self._stream):
            state.ingest_batch(chunk)
        return state.finish()

    def merge(self, other: "TurnstileStreamOracle") -> None:
        """Validate that *other* is a replica oracle in lockstep with self.

        Oracles hold no stream aggregates — their state is the rng
        position, the pass index and the accounting — so the merge is a
        pure compatibility check: replicas built from the same seed that
        opened the same passes agree on all three, and any disagreement
        means the pass states they produced were built from different
        frozen randomness and must not be added.  The rng positions are
        compared by :func:`~repro.utils.rng.seed_fingerprint` so the
        error stays readable.
        """
        if not isinstance(other, TurnstileStreamOracle):
            raise MergeError(
                f"cannot merge TurnstileStreamOracle with {type(other).__name__}"
            )
        check_merge_config(
            "TurnstileStreamOracle",
            sampler_repetitions=(self._sampler_repetitions, other._sampler_repetitions),
            pass_index=(self._pass_index, other._pass_index),
            rng_fingerprint=(
                seed_fingerprint(self._rng),
                seed_fingerprint(other._rng),
            ),
        )

    def state_dict(self) -> dict:
        """Oracle-level runtime state (rng position, accounting, space)."""
        return {
            "rng": rng_state(self._rng),
            "pass_index": self._pass_index,
            "sampler_repetitions": self._sampler_repetitions,
            "accounting": self.accounting.state_dict(),
            "space": self.space.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a capture; future passes derive identical randomness."""
        check_state_config(
            "TurnstileStreamOracle",
            state,
            sampler_repetitions=self._sampler_repetitions,
        )
        set_rng_state(self._rng, state_field("TurnstileStreamOracle", state, "rng"))
        self._pass_index = int(
            state_field("TurnstileStreamOracle", state, "pass_index")
        )
        self.accounting.load_state_dict(
            state_field("TurnstileStreamOracle", state, "accounting")
        )
        self.space.load_state_dict(
            state_field("TurnstileStreamOracle", state, "space")
        )
