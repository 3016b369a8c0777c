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

from typing import Any, Dict, List, Optional, Set, Tuple

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
from repro.streams.stream import EdgeStream
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
    of the batch.  A batch costs at most one
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
        "_watched_vertices",
        "_sampler_starts",
        "_sampler_order",
        "_degree_positions",
        "_adjacency_positions",
        "_edge_count_positions",
        "_degree_vertices",
        "_degree_counts",
        "_pairs",
        "_pair_ids",
        "_pair_counts",
        "_edge_count",
        "_members",
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
        # Samplers grouped by watched vertex, as a CSR over the sorted
        # vertices: watched vertex k owns samplers
        # order[starts[k]:starts[k + 1]].
        samplers_by_vertex: Dict[int, List[int]] = {}
        for index, (_, vertex) in enumerate(neighbor_positions):
            samplers_by_vertex.setdefault(vertex, []).append(index)
        self._watched_vertices = sorted(samplers_by_vertex)
        groups = [samplers_by_vertex[v] for v in self._watched_vertices]
        self._sampler_starts = np.cumsum([0] + [len(g) for g in groups])
        self._sampler_order = np.array(
            [index for group in groups for index in group], dtype=np.int64
        )

        # Signed counters are flat arrays indexed by slot: the sorted
        # vertex (pair) order, which is also the order of the membership
        # filters' slots and of the dense edge ids.
        self._degree_vertices = sorted(degree_vertices)
        degree_slot = {vertex: slot for slot, vertex in enumerate(self._degree_vertices)}
        self._pairs = sorted(adjacency_pairs)
        pair_slot = {pair: slot for slot, pair in enumerate(self._pairs)}
        self._degree_positions = [(p, degree_slot[v]) for p, v in degree_positions]
        self._adjacency_positions = [(p, pair_slot[e]) for p, e in adjacency_positions]
        self._edge_count_positions = edge_count_positions
        self._degree_counts = np.zeros(len(degree_vertices), dtype=np.int64)
        self._pair_ids = np.array(
            [edge_id(a, b, n) for a, b in self._pairs], dtype=np.int64
        )
        self._pair_counts = np.zeros(len(adjacency_pairs), dtype=np.int64)
        self._edge_count = 0
        # Built by the first ingested batch (see _build_members), so a
        # pass that never ingests never allocates them.
        self._members = None

        self._component = f"turnstile-pass-{pass_index}"
        words = (
            self._edge_bank.space_words
            + self._neighbor_bank.space_words
            + len(degree_vertices)
            + len(adjacency_pairs)
            + (1 if edge_count_positions else 0)
        )
        oracle.space.set_usage(self._component, words)

    def ingest_batch(self, batch: EdgeBatch) -> None:
        """Consume one batch of stream elements, in stream order.

        Counters are filtered grouped sums into their slot arrays; each
        ℓ0-sampler bank takes the batch in one
        :meth:`~repro.sketch.l0.L0Sampler.update_many_arrays` call —
        the edge bank every edge id, the neighbor bank one ``(sampler,
        neighbor)`` pair per watched endpoint event and sampler
        watching that endpoint.
        """
        self._edge_count += int(batch.delta.sum())
        if self._members is None:
            self._members = self._build_members()

        degree_members, sampler_members = self._members
        if degree_members is not None or sampler_members is not None:
            endpoint, other, index = batch.events()

            if degree_members is not None:
                mask = degree_members.mask(endpoint)
                if mask.any():
                    np.add.at(
                        self._degree_counts,
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
        if len(pair_ids):
            ids = batch.edge_ids(self._n)
            mask = sorted_member_mask(pair_ids, ids)
            if mask.any():
                slots = np.searchsorted(pair_ids, ids[mask])
                np.add.at(self._pair_counts, slots, batch.delta[mask])

        if self._edge_positions:
            self._edge_bank.update_many_arrays(batch.edge_ids(self._n), batch.delta)

    def _build_members(self) -> tuple:
        """The per-vertex membership filters ``(degree, sampler)``.

        Transient engineering scratch, outside the paper's space
        accounting, allocated once per pass by the first batch —
        scale-aware in ``n``, see
        :meth:`InsertionPassState._build_members`.
        """
        n = self._n
        return (
            VertexMembership(self._degree_vertices, n) if self._degree_vertices else None,
            VertexMembership(self._watched_vertices, n) if self._watched_vertices else None,
        )

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
            degree_vertices=(self._degree_vertices, other._degree_vertices),
            adjacency_pairs=(self._pairs, other._pairs),
            edge_count_positions=(
                self._edge_count_positions,
                other._edge_count_positions,
            ),
        )
        self._edge_count += other._edge_count
        self._degree_counts += other._degree_counts
        self._pair_counts += other._pair_counts
        self._edge_bank.merge(other._edge_bank)
        self._neighbor_bank.merge(other._neighbor_bank)

    def state_dict(self) -> dict:
        """Mutable runtime state of the in-flight pass.

        Sampler entries are stored in construction order, one
        :meth:`~repro.sketch.l0.L0Sampler.sampler_state` each (hash
        coefficients, fingerprint bases, per-level aggregates) — the
        per-sampler layout checkpoints have always used.
        """
        return {
            "size": self._size,
            "edge_count": self._edge_count,
            "degree_counts": dict(
                zip(self._degree_vertices, self._degree_counts.tolist())
            ),
            "pair_counts": list(zip(self._pairs, self._pair_counts.tolist())),
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
        if set(captured_degrees) != set(self._degree_vertices):
            raise CheckpointError(
                "TurnstilePassState state tracks different degree vertices than "
                "this pass; the pass was rebuilt from a different query batch"
            )
        captured_pairs = {
            tuple(pair): int(count)
            for pair, count in state_field("TurnstilePassState", state, "pair_counts")
        }
        if set(captured_pairs) != set(self._pairs):
            raise CheckpointError(
                f"TurnstilePassState state counts adjacency pairs "
                f"{sorted(captured_pairs)} but this pass tracks {self._pairs}; "
                "the pass was rebuilt from a different query batch"
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
        self._edge_count = int(state_field("TurnstilePassState", state, "edge_count"))
        self._degree_counts = np.array(
            [int(captured_degrees[vertex]) for vertex in self._degree_vertices],
            dtype=np.int64,
        )
        self._pair_counts = np.array(
            [captured_pairs[pair] for pair in self._pairs], dtype=np.int64
        )
        for sampler, captured in enumerate(edge_states):
            edge_bank.load_sampler_state(sampler, captured)
        for sampler, captured in enumerate(neighbor_states):
            neighbor_bank.load_sampler_state(sampler, captured)

    def finish(self) -> List[Any]:
        """Collect the batch's answers and release the pass's space."""
        n = self._n
        answers: List[Any] = [None] * self._size
        for sampler, position in enumerate(self._edge_positions):
            identifier = self._edge_bank.sample(sampler)
            answers[position] = (
                None if identifier is None else edge_from_id(identifier, n)
            )
        for sampler, (position, _) in enumerate(self._neighbor_positions):
            answers[position] = self._neighbor_bank.sample(sampler)
        degree_counts = self._degree_counts.tolist()
        for position, slot in self._degree_positions:
            answers[position] = degree_counts[slot]
        pair_counts = self._pair_counts.tolist()
        for position, slot in self._adjacency_positions:
            answers[position] = pair_counts[slot] == 1
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
        (:meth:`~repro.streams.stream.CachedBatchStream.batches`).
        """
        state = self.begin_batch(batch)
        for chunk in self._stream.batches():
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
