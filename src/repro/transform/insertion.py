"""Theorem 9: emulating the augmented general graph model over an
insertion-only stream.

One call to :meth:`InsertionStreamOracle.answer_batch` makes exactly
one pass over the stream and answers every query of the batch:

* f1 (random edge) — one single-item reservoir per query: O(log n) bits;
* f2 (degree) — a counter per queried vertex;
* f3 (i-th neighbor) — a per-vertex arrival counter that captures the
  i-th incident edge;
* f4 (adjacency) — a boolean per queried pair;
* edge count — one counter.

The relaxed-model random-neighbor query is also supported (a
reservoir over arrivals incident to v serves an exactly uniform
neighbor), so relaxed-mode algorithms can run on insertion-only
streams too.

Total space is O(q log n) words for q queries plus the algorithm's own
state — the bound of Theorem 9.
"""

from __future__ import annotations

from typing import Any, Dict, List

import numpy as np

from repro.errors import MergeError
from repro.oracle.base import QueryBatch
from repro.sketch.reservoir import SkipAheadReservoirBank
from repro.streams.batch import EdgeBatch, VertexMembership
from repro.transform.stream_oracle import (
    ExactCounters,
    QueryLayout,
    StreamOracle,
    check_tracked,
)
from repro.utils.checkpoint import state_field
from repro.utils.rng import derive_rng


class InsertionPassState:
    """One in-flight oracle pass: built from a batch, fed updates, finished.

    Created by :meth:`InsertionStreamOracle.begin_batch`.  The caller —
    either :meth:`InsertionStreamOracle.answer_batch` (which iterates
    the stream itself) or the fused engine (which shares one stream
    iteration among many estimators) — feeds the pass's
    :class:`~repro.streams.batch.EdgeBatch`\\ es through
    :meth:`ingest_batch` and then collects the answers with
    :meth:`finish`.  f2/f4/edge count are the shared
    :class:`~repro.transform.stream_oracle.ExactCounters`; this class
    holds the f1/f3 structures.  Randomness is drawn only at
    construction (the skip-ahead banks) and during ingestion (bank
    offers), each bank in stream order, so answers do not depend on how
    the stream is batched.
    """

    __slots__ = (
        "_oracle",
        "_layout",
        "_counters",
        "_component",
        "_neighbor_groups",
        "_watch",
        "_arrival_counts",
        "_captured",
        "_edge_bank",
        "_neighbor_banks",
    )

    def __init__(self, oracle: "InsertionStreamOracle", layout: QueryLayout, pass_index: int) -> None:
        self._oracle = oracle
        self._layout = layout
        self._counters = ExactCounters(layout)
        # Random-neighbor queries grouped by vertex, in order of first
        # appearance: the order the banks derive their randomness in.
        groups: Dict[int, List[int]] = {}
        for position, vertex in zip(layout.neighbor_positions, layout.neighbor_vertices):
            groups.setdefault(vertex, []).append(position)
        # Indexed f3 watchers: vertex -> index -> batch positions.
        watch: Dict[int, Dict[int, List[int]]] = {}
        for position, vertex, index in zip(
            layout.index_positions, layout.index_vertices, layout.index_values
        ):
            watch.setdefault(vertex, {}).setdefault(index, []).append(position)
        self._neighbor_groups = groups
        self._watch = watch
        self._arrival_counts = dict.fromkeys(watch, 0)
        self._captured: Dict[int, int] = {}

        # Skip-ahead banks: O(1) amortized per stream element however
        # many f1/f3 queries the batch carries (see repro.sketch.reservoir).
        self._edge_bank = SkipAheadReservoirBank(
            len(layout.edge_positions), derive_rng(oracle._rng, f"edges-{pass_index}")
        )
        self._neighbor_banks = {
            vertex: SkipAheadReservoirBank(
                len(positions), derive_rng(oracle._rng, f"nbrs-{pass_index}-{vertex}")
            )
            for vertex, positions in groups.items()
        }

        # Charge the space meter: O(1) words per query of this batch.
        self._component = f"insertion-pass-{pass_index}"
        words = (
            2 * len(layout.edge_positions)
            + 2 * len(layout.neighbor_positions)
            + sum(len(indices) for indices in watch.values())
            + len(watch)
            + self._counters.words
        )
        oracle.space.set_usage(self._component, words)

    def ingest_batch(self, batch: EdgeBatch) -> None:
        """Consume one batch of stream elements, in stream order.

        Every tracker is array work over the batch columns:

        * the exact counters take grouped sums (see
          :meth:`~repro.transform.stream_oracle.ExactCounters.ingest`);
        * the f1 edge bank skips ahead over a lazy edge view, touching
          only accepted elements;
        * f3 arrival watchers and random-neighbor reservoirs filter the
          interleaved endpoint events down to watched-incident ones and
          walk only those, grouped by vertex with stream order
          preserved (stable sort) — each bank therefore draws its
          randomness in stream order.
        """
        self._counters.ingest(batch)
        if self._edge_bank.size:
            self._edge_bank.offer_many(batch.edges_view())
        layout = self._layout
        if len(layout.neighbor_members):
            self._offer_grouped(batch, layout.neighbor_members, self._offer_bank)
        if len(layout.index_members):
            self._offer_grouped(batch, layout.index_members, self._watch_arrivals)

    @staticmethod
    def _offer_grouped(batch: EdgeBatch, members: VertexMembership, consume) -> None:
        """Group the batch's events at *members* by endpoint, preserving order.

        The stable sort keeps each vertex's incident arrivals in stream
        order; *consume(vertex, arrivals)* receives them as a plain int
        list.
        """
        endpoint, other, _ = batch.events()
        mask = members.mask(endpoint)
        if not mask.any():
            return
        endpoints = endpoint[mask]
        others = other[mask]
        order = np.argsort(endpoints, kind="stable")
        endpoints = endpoints[order]
        others = others[order]
        boundaries = np.flatnonzero(
            np.concatenate(([True], endpoints[1:] != endpoints[:-1]))
        )
        stops = np.concatenate((boundaries[1:], [len(endpoints)]))
        for start, stop in zip(boundaries.tolist(), stops.tolist()):
            consume(int(endpoints[start]), others[start:stop].tolist())

    def _offer_bank(self, vertex: int, arrivals: List[int]) -> None:
        self._neighbor_banks[vertex].offer_many(arrivals)

    def _watch_arrivals(self, vertex: int, arrivals: List[int]) -> None:
        seen = self._arrival_counts[vertex]
        stop = seen + len(arrivals)
        for index, positions in self._watch[vertex].items():
            if seen <= index < stop:
                captured = arrivals[index - seen]
                for position in positions:
                    self._captured[position] = captured
        self._arrival_counts[vertex] = stop

    def merge(self, other: "InsertionPassState") -> None:
        """Always raises :class:`~repro.errors.MergeError`.

        The insertion-path emulation samples f1/f3 with reservoirs
        (:class:`~repro.sketch.reservoir.SkipAheadReservoirBank`), whose
        acceptance probabilities depend on the global stream position —
        per-shard reservoirs are not distributed like one reservoir
        over the combined stream, so there is no correct merge (see
        ``repro.sketch.reservoir._reservoir_merge_error``).  Even the
        deterministic counters (f2/f4/edge count) are not folded:
        returning a partially merged pass would silently bias the f1/f3
        answers.  Partitioned ingestion must run the turnstile path,
        whose sketches are linear.
        """
        raise MergeError(
            "InsertionPassState cannot be merged: its f1/f3 answers come from "
            "reservoir samplers whose draws depend on the global stream order "
            "and element count, so per-shard passes do not compose; use the "
            "turnstile (L0-sketch) path for partitioned ingestion"
        )

    def state_dict(self) -> dict:
        """Mutable runtime state of the in-flight pass.

        Structure (query positions, watch maps, bank sizes) is *not*
        captured: a restore rebuilds it deterministically via
        ``oracle.begin_batch`` on the replayed merged batch and then
        overlays this runtime state (see
        :meth:`~repro.engine.estimators.RoundAdaptiveEstimator.load_state_dict`).
        """
        state = self._counters.state_dict()
        state.update(
            arrival_counts=dict(self._arrival_counts),
            captured=dict(self._captured),
            present_pairs=[pair for pair, count in self._counters.pair_counts() if count],
            edge_bank=self._edge_bank.state_dict(),
            neighbor_banks={
                vertex: bank.state_dict() for vertex, bank in self._neighbor_banks.items()
            },
        )
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore runtime state into a structurally identical pass."""
        kind = "InsertionPassState"
        for field, current in (
            ("arrival_counts", self._arrival_counts),
            ("neighbor_banks", self._neighbor_banks),
        ):
            check_tracked(kind, field, "vertices", state_field(kind, state, field), current)
        pair_counts = dict.fromkeys(self._layout.pairs, 0)
        pair_counts.update((tuple(pair), 1) for pair in state_field(kind, state, "present_pairs"))
        self._counters.load_state_dict(kind, state, "present_pairs", pair_counts)
        self._arrival_counts = {
            vertex: int(count) for vertex, count in state["arrival_counts"].items()
        }
        self._captured = dict(state_field(kind, state, "captured"))
        self._edge_bank.load_state_dict(state["edge_bank"])
        for vertex, bank in self._neighbor_banks.items():
            bank.load_state_dict(state["neighbor_banks"][vertex])

    def finish(self) -> List[Any]:
        """Collect the batch's answers and release the pass's space."""
        answers = self._counters.answers()
        edge_bank = self._edge_bank
        for slot, position in enumerate(self._layout.edge_positions):
            answers[position] = edge_bank.item(slot)
        for vertex, positions in self._neighbor_groups.items():
            bank = self._neighbor_banks[vertex]
            for slot, position in enumerate(positions):
                answers[position] = bank.item(slot)
        for position, neighbor in self._captured.items():
            answers[position] = neighbor

        self._oracle.space.release(self._component)
        return answers


class InsertionStreamOracle(StreamOracle):
    """Answers query batches with one stream pass per batch.

    The oracle bookkeeping — and why *stream* may be a
    :class:`~repro.engine.parallel.StreamHandle` — is
    :class:`~repro.transform.stream_oracle.StreamOracle`'s.
    """

    deletions = False

    def begin_batch(self, batch: QueryBatch, like=None) -> InsertionPassState:
        """Open a pass for *batch* without touching the stream.

        The returned :class:`InsertionPassState` must be fed exactly one
        full pass worth of decoded updates and then finished.  Used by
        the fused engine, which iterates the stream once on behalf of
        every registered estimator.  *like* (a replica's open pass over
        the same batch) shares its query layout; the reservoirs are
        this pass's own.
        """
        layout = self._open(batch, like)
        return InsertionPassState(self, layout, self._pass_index)

    def merge(self, other: "InsertionStreamOracle") -> None:
        """Always raises: insertion passes are reservoir-backed.

        See :meth:`InsertionPassState.merge` for the documented reason;
        raising here (before any pass state is touched) is what makes a
        sharded run over an insertion-only estimator fail loudly at the
        first merge barrier instead of returning silently wrong
        estimates.
        """
        raise MergeError(
            "InsertionStreamOracle cannot be merged: the insertion-only "
            "emulation answers f1/f3 with reservoir samplers, whose draws "
            "depend on the global stream order; use TurnstileStreamOracle "
            "(linear L0 sketches) for partitioned ingestion"
        )
