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

import heapq
from typing import Any, List, Optional

import numpy as np

from repro.errors import CheckpointError, MergeError
from repro.oracle.base import QueryBatch
from repro.sketch.l0 import L0Sampler
from repro.streams.batch import EdgeBatch, edge_from_id
from repro.streams.space import SpaceMeter
from repro.streams.stream import EdgeStream
from repro.transform.stream_oracle import ExactCounters, QueryLayout, StreamOracle
from repro.utils.checkpoint import check_merge_config, state_field
from repro.utils.rng import RandomSource, derive_rng, seed_fingerprint


class TurnstilePassState:
    """One in-flight turnstile pass (see :class:`InsertionPassState`).

    f2/f4/edge count are the shared
    :class:`~repro.transform.stream_oracle.ExactCounters`.  The pass's
    ℓ0-samplers live in two banks (:class:`L0Sampler`): one over edge
    ids for the f1 queries, one over vertices for the f3 queries,
    sampler ``i`` of a bank answering the ``i``-th such query of the
    batch.  A batch costs at most one
    :meth:`L0Sampler.update_many_arrays` call per bank: the edge bank
    takes the whole batch, the neighbor bank takes the batch's
    ``(sampler, neighbor)`` pairs.  No randomness is drawn during
    ingestion, so answers do not depend on how the stream is batched.
    """

    __slots__ = (
        "_oracle",
        "_layout",
        "_counters",
        "_component",
        "_edge_bank",
        "_neighbor_bank",
        "_sampler_starts",
        "_sampler_order",
    )

    def __init__(self, oracle: "TurnstileStreamOracle", layout: QueryLayout, pass_index: int) -> None:
        self._oracle = oracle
        self._layout = layout
        self._counters = ExactCounters(layout)
        n = layout.n

        # Each sampler's seed comes off the oracle rng in batch-position
        # order, f1 and f3 samplers interleaved.
        edge_rngs: list = []
        neighbor_rngs: list = []
        for position, label, rngs in heapq.merge(
            ((p, "l0edge", edge_rngs) for p in layout.edge_positions),
            ((p, "l0nbr", neighbor_rngs) for p in layout.neighbor_positions),
        ):
            rngs.append(derive_rng(oracle._rng, f"{label}-{pass_index}-{position}"))
        repetitions = oracle._sampler_repetitions
        self._edge_bank = L0Sampler.bank(max(1, n * (n - 1) // 2), edge_rngs, repetitions)
        self._neighbor_bank = L0Sampler.bank(n, neighbor_rngs, repetitions)
        # Samplers grouped by watched vertex, as a CSR over the sorted
        # vertices: watched vertex k owns samplers
        # order[starts[k]:starts[k + 1]].
        slots = layout.neighbor_slots
        self._sampler_order = np.argsort(slots, kind="stable")
        self._sampler_starts = np.concatenate(
            ([0], np.cumsum(np.bincount(slots, minlength=len(layout.neighbor_members))))
        )

        self._component = f"turnstile-pass-{pass_index}"
        words = (
            self._edge_bank.space_words
            + self._neighbor_bank.space_words
            + self._counters.words
        )
        oracle.space.set_usage(self._component, words)

    def ingest_batch(self, batch: EdgeBatch) -> None:
        """Consume one batch of stream elements, in stream order.

        The exact counters take grouped sums (see
        :meth:`~repro.transform.stream_oracle.ExactCounters.ingest`);
        each ℓ0-sampler bank takes the batch in one
        :meth:`~repro.sketch.l0.L0Sampler.update_many_arrays` call —
        the edge bank every edge id, the neighbor bank one ``(sampler,
        neighbor)`` pair per watched endpoint event and sampler
        watching that endpoint.
        """
        self._counters.ingest(batch)
        layout = self._layout
        members = layout.neighbor_members
        if len(members):
            endpoint, other, index = batch.events()
            mask = members.mask(endpoint)
            if mask.any():
                # Expand each watched event into one pair per sampler
                # watching its endpoint (CSR groups by vertex slot).
                slots = members.slots(endpoint[mask])
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
        if layout.edge_positions:
            self._edge_bank.update_many_arrays(batch.edge_ids(layout.n), batch.delta)

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
        self._counters.merge("TurnstilePassState", other._counters)
        self._edge_bank.merge(other._edge_bank)
        self._neighbor_bank.merge(other._neighbor_bank)

    def state_dict(self) -> dict:
        """Mutable runtime state of the in-flight pass.

        Sampler entries are stored in construction order, one
        :meth:`~repro.sketch.l0.L0Sampler.sampler_state` each (hash
        coefficients, fingerprint bases, per-level aggregates) — the
        per-sampler layout checkpoints have always used.
        """
        state = self._counters.state_dict()
        state.update(
            pair_counts=self._counters.pair_counts(),
            edge_samplers=[
                self._edge_bank.sampler_state(s) for s in range(self._edge_bank.samplers)
            ],
            neighbor_samplers=[
                self._neighbor_bank.sampler_state(s)
                for s in range(self._neighbor_bank.samplers)
            ],
        )
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore runtime state into a structurally identical pass."""
        kind = "TurnstilePassState"
        edge_states = state_field(kind, state, "edge_samplers")
        neighbor_states = state_field(kind, state, "neighbor_samplers")
        edge_bank, neighbor_bank = self._edge_bank, self._neighbor_bank
        if len(edge_states) != edge_bank.samplers or len(neighbor_states) != (
            neighbor_bank.samplers
        ):
            raise CheckpointError(
                f"TurnstilePassState state carries {len(edge_states)} edge / "
                f"{len(neighbor_states)} neighbor samplers; this pass has "
                f"{edge_bank.samplers} / {neighbor_bank.samplers}"
            )
        pair_counts = {
            tuple(pair): int(count) for pair, count in state_field(kind, state, "pair_counts")
        }
        self._counters.load_state_dict(kind, state, "pair_counts", pair_counts)
        for sampler, captured in enumerate(edge_states):
            edge_bank.load_sampler_state(sampler, captured)
        for sampler, captured in enumerate(neighbor_states):
            neighbor_bank.load_sampler_state(sampler, captured)

    def finish(self) -> List[Any]:
        """Collect the batch's answers and release the pass's space."""
        layout = self._layout
        answers = self._counters.answers()
        for sampler, position in enumerate(layout.edge_positions):
            identifier = self._edge_bank.sample(sampler)
            if identifier is not None:
                answers[position] = edge_from_id(identifier, layout.n)
        for sampler, position in enumerate(layout.neighbor_positions):
            answers[position] = self._neighbor_bank.sample(sampler)

        self._oracle.space.release(self._component)
        return answers


class TurnstileStreamOracle(StreamOracle):
    """Answers relaxed-model query batches over a turnstile stream.

    The oracle bookkeeping — and why *stream* may be a
    :class:`~repro.engine.parallel.StreamHandle` — is
    :class:`~repro.transform.stream_oracle.StreamOracle`'s.
    """

    indexed = False

    def __init__(
        self,
        stream: EdgeStream,
        rng: RandomSource = None,
        space_meter: Optional[SpaceMeter] = None,
        sampler_repetitions: int = 8,
    ) -> None:
        super().__init__(stream, rng, space_meter)
        self._sampler_repetitions = sampler_repetitions

    def begin_batch(self, batch: QueryBatch) -> TurnstilePassState:
        """Open a pass for *batch* without touching the stream.

        Counterpart of :meth:`InsertionStreamOracle.begin_batch` for the
        fused engine; the caller owns the stream iteration.
        """
        layout = self._open(batch)
        return TurnstilePassState(self, layout, self._pass_index)

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

    def _config(self) -> dict:
        return {"sampler_repetitions": self._sampler_repetitions}
