"""What the two stream oracles share (Theorems 9 and 11).

Both emulations answer one round's query batch with one stream pass,
and both answer f2 (degree), f4 (adjacency) and the edge count with
exact counters.  They differ only in how they sample f1/f3: reservoirs
and indexed arrival watchers over insertion-only streams
(:mod:`repro.transform.insertion`), ℓ0-samplers over turnstile streams
(:mod:`repro.transform.turnstile`).  Everything else lives here, once:

* :class:`QueryLayout` — one batch parsed and validated: where each
  query kind sits, and the sorted vertex and pair tables it touches;
* :class:`ExactCounters` — the f2/f4/edge-count counters of one pass;
* :class:`StreamOracle` — the oracle's rng, pass index, query
  accounting, space meter and checkpoint state.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Tuple

import numpy as np

from repro.errors import CheckpointError, GraphError, OracleError
from repro.oracle.base import (
    ADJACENCY,
    DEGREE,
    EDGE_COUNT,
    NEIGHBOR,
    QUERY_KINDS,
    RANDOM_EDGE,
    RANDOM_NEIGHBOR,
    QueryAccounting,
    QueryBatch,
    QueryColumns,
)
from repro.streams.batch import EdgeBatch, VertexMembership, edge_ids, sorted_member_mask
from repro.streams.space import SpaceMeter
from repro.utils.checkpoint import (
    check_merge_config,
    check_state_config,
    rng_state,
    set_rng_state,
    state_field,
)
from repro.utils.rng import RandomSource, ensure_rng

_EMPTY = np.zeros(0, dtype=np.int64)


def _check_range(low: int, high: int, n: int) -> None:
    if low < 0 or high >= n:
        raise OracleError(f"query vertex {low if low < 0 else high} is outside [0, {n})")


def _vertex_table(column: np.ndarray, n: int) -> Tuple[VertexMembership, np.ndarray]:
    """A filter over the distinct vertices of *column* and each entry's slot among them.

    The filter's ``vertices`` are the sorted table.  Raises
    :class:`~repro.errors.OracleError` for a vertex outside ``[0, n)``,
    testing only the two ends of the sorted table.
    """
    members = VertexMembership(column, n)
    if len(members):
        _check_range(members.vertices[0], members.vertices[-1], n)
    return members, members.slots(column)


class QueryLayout:
    """One query batch, parsed once and never changed afterwards.

    *batch* is a :class:`~repro.oracle.base.QueryColumns`; every bucket
    below is one mask over its kind column.  Positions index the batch.
    Per query kind:

    * f1: ``edge_positions``;
    * relaxed f3: ``neighbor_positions`` / ``neighbor_vertices`` in
      batch order, plus ``neighbor_members`` (a
      :class:`~repro.streams.batch.VertexMembership` whose ``vertices``
      are the sorted distinct vertices) and ``neighbor_slots`` (each
      query's slot in them);
    * indexed f3: ``index_positions`` / ``index_vertices`` /
      ``index_values``, plus ``index_members``;
    * f2: ``degree_positions``, ``degree_members``, ``degree_slots``;
    * f4: ``pair_positions``, the sorted distinct ``pairs`` with their
      dense ``pair_ids`` (:func:`~repro.streams.batch.edge_ids`, same
      order) and each query's ``pair_slots``;
    * edge count: ``count_positions``.

    Raises :class:`~repro.errors.OracleError` for indexed f3 unless
    *indexed*, a negative f3 index, or a vertex outside ``[0, n)``, and
    :class:`~repro.errors.GraphError` for a self-loop f4 query.
    """

    def __init__(self, batch: QueryColumns, n: int, indexed: bool) -> None:
        kinds, a, b = batch.kinds, batch.a, batch.b
        positions = [np.flatnonzero(kinds == code) for code in range(len(QUERY_KINDS))]
        index_positions = positions[NEIGHBOR]
        if len(index_positions) and not indexed:
            raise OracleError(
                "indexed neighbor queries (f3, Definition 6) cannot be emulated "
                "over turnstile streams; the relaxed model (Definition 10) uses "
                "RandomNeighborQuery instead"
            )
        self.size = len(batch)
        self.n = n
        self.edge_positions = positions[RANDOM_EDGE].tolist()
        self.count_positions = positions[EDGE_COUNT].tolist()
        neighbor_vertices = a[positions[RANDOM_NEIGHBOR]]
        self.neighbor_positions = positions[RANDOM_NEIGHBOR].tolist()
        self.neighbor_vertices = neighbor_vertices.tolist()
        self.neighbor_members, self.neighbor_slots = _vertex_table(neighbor_vertices, n)
        index_values = b[index_positions]
        if len(index_values) and index_values.min() < 0:
            raise OracleError(f"neighbor index must be >= 0, got {index_values.min()}")
        index_vertices = a[index_positions]
        self.index_positions = index_positions.tolist()
        self.index_vertices = index_vertices.tolist()
        self.index_values = index_values.tolist()
        self.index_members = _vertex_table(index_vertices, n)[0]
        self.degree_positions = positions[DEGREE].tolist()
        self.degree_members, self.degree_slots = _vertex_table(a[positions[DEGREE]], n)
        pair_positions = positions[ADJACENCY]
        self.pair_positions = pair_positions.tolist()
        self.pairs: List[Tuple[int, int]] = []
        self.pair_ids = self.pair_slots = _EMPTY
        if len(pair_positions):
            u, v = a[pair_positions], b[pair_positions]
            lo, hi = np.minimum(u, v), np.maximum(u, v)
            _check_range(lo.min(), hi.max(), n)
            loops = lo[lo == hi]
            if len(loops):
                raise GraphError(
                    f"self-loop ({loops[0]}, {loops[0]}) is not allowed in a simple graph"
                )
            self.pair_ids, first, self.pair_slots = np.unique(
                edge_ids(lo, hi, n), return_index=True, return_inverse=True
            )
            self.pairs = list(zip(lo[first].tolist(), hi[first].tolist()))

    def check_merge(self, kind: str, other: "QueryLayout") -> None:
        """Refuse (:class:`~repro.errors.MergeError`) passes of different batches."""
        fields = ("size", "n", "edge_positions", "neighbor_positions",
                  "neighbor_vertices", "pairs", "count_positions")
        check_merge_config(
            kind,
            degree_vertices=(
                self.degree_members.vertices.tolist(), other.degree_members.vertices.tolist()
            ),
            **{name: (getattr(self, name), getattr(other, name)) for name in fields},
        )


def check_tracked(kind: str, field: str, what: str, captured: Iterable, tracked: Iterable) -> None:
    """Refuse a capture whose *field* keys differ from what this pass tracks."""
    captured, tracked = set(captured), set(tracked)
    if captured != tracked:
        raise CheckpointError(
            f"{kind} state field {field!r} tracks {what} {sorted(captured)} but this "
            f"pass tracks {sorted(tracked)}; the pass was rebuilt from a different "
            "query batch"
        )


class ExactCounters:
    """The f2, f4 and edge-count answers of one pass, signed by ``delta``.

    Exact on both stream models: multiplicities stay in {0, 1}, and an
    insertion-only stream carries only +1 deltas
    (:func:`~repro.streams.stream.check_updates`), so the signed sums
    are the degrees, the pair multiplicities and m.  Sums are linear,
    so shard replicas :meth:`merge` by addition.
    """

    __slots__ = ("layout", "degrees", "pairs", "edges")

    def __init__(self, layout: QueryLayout) -> None:
        self.layout = layout
        self.degrees = np.zeros(len(layout.degree_members), dtype=np.int64)
        self.pairs = np.zeros(len(layout.pairs), dtype=np.int64)
        self.edges = 0

    @property
    def words(self) -> int:
        """Accounted words: one per counter."""
        return len(self.degrees) + len(self.pairs) + (1 if self.layout.count_positions else 0)

    def ingest(self, batch: EdgeBatch) -> None:
        """Add one batch: grouped sums of its deltas into the slot arrays."""
        layout = self.layout
        self.edges += int(batch.delta.sum())
        members = layout.degree_members
        if len(members):
            endpoint, _, index = batch.events()
            mask = members.mask(endpoint)
            if mask.any():
                np.add.at(self.degrees, members.slots(endpoint[mask]), batch.delta[index[mask]])
        if layout.pairs:
            ids = batch.edge_ids(layout.n)
            mask = sorted_member_mask(layout.pair_ids, ids)
            if mask.any():
                slots = np.searchsorted(layout.pair_ids, ids[mask])
                np.add.at(self.pairs, slots, batch.delta[mask])

    def answers(self) -> List[Any]:
        """A fresh answer list with the counters' answers in place."""
        layout = self.layout
        answers: List[Any] = [None] * layout.size
        degrees = self.degrees[layout.degree_slots].tolist()
        for position, degree in zip(layout.degree_positions, degrees):
            answers[position] = degree
        present = (self.pairs[layout.pair_slots] == 1).tolist()
        for position, flag in zip(layout.pair_positions, present):
            answers[position] = flag
        for position in layout.count_positions:
            answers[position] = self.edges
        return answers

    def merge(self, kind: str, other: "ExactCounters") -> None:
        """Add a replica's counters, after checking both passes share a layout."""
        self.layout.check_merge(kind, other.layout)
        self.edges += other.edges
        self.degrees += other.degrees
        self.pairs += other.pairs

    def state_dict(self) -> dict:
        """``size``, ``edge_count`` and ``degree_counts`` of a pass capture."""
        return {
            "size": self.layout.size,
            "edge_count": self.edges,
            "degree_counts": dict(
                zip(self.layout.degree_members.vertices.tolist(), self.degrees.tolist())
            ),
        }

    def pair_counts(self) -> List[Tuple[Tuple[int, int], int]]:
        """``(pair, count)`` per tracked pair, in sorted pair order."""
        return list(zip(self.layout.pairs, self.pairs.tolist()))

    def load_state_dict(self, kind: str, state: dict, field: str, pair_counts: dict) -> None:
        """Restore a capture whose *field* gave *pair_counts* (pair → count)."""
        layout = self.layout
        check_state_config(kind, state, size=layout.size)
        degree_counts = state_field(kind, state, "degree_counts")
        vertices = layout.degree_members.vertices.tolist()
        check_tracked(kind, "degree_counts", "vertices", degree_counts, vertices)
        check_tracked(kind, field, "adjacency pairs", pair_counts, layout.pairs)
        self.edges = int(state_field(kind, state, "edge_count"))
        self.degrees = np.array([int(degree_counts[v]) for v in vertices], dtype=np.int64)
        self.pairs = np.array([int(pair_counts[p]) for p in layout.pairs], dtype=np.int64)


class StreamOracle:
    """The bookkeeping of a stream oracle: one pass per query batch.

    *stream* may also be a :class:`~repro.engine.parallel.StreamHandle`:
    construction and ``begin_batch`` read only stream metadata (``n``,
    ``passes_used``), and only :meth:`answer_batch` iterates the stream,
    which a handle-backed oracle never reaches (the fused engine and the
    parallel driver own the iteration and feed the pass states
    directly).  That is what lets worker processes rebuild oracles from
    picklable specs without shipping the stream contents.  The oracle's
    own state (rng, accounting, space meter) pickles; in-flight pass
    states are transient and never cross a process boundary.
    """

    #: Whether indexed f3 queries (Definition 6) can be answered.
    indexed = True
    #: Whether the stream may carry deletions.
    deletions = True

    def __init__(
        self, stream, rng: RandomSource = None, space_meter: Optional[SpaceMeter] = None
    ) -> None:
        if stream.allows_deletions and not self.deletions:
            raise OracleError(
                f"{type(self).__name__} requires an insertion-only stream; "
                "use TurnstileStreamOracle for streams with deletions"
            )
        self._stream = stream
        self._rng = ensure_rng(rng)
        self._pass_index = 0
        self.accounting = QueryAccounting()
        self.space = space_meter if space_meter is not None else SpaceMeter()

    @property
    def passes_used(self) -> int:
        """Stream passes consumed so far."""
        return self._stream.passes_used

    def _open(self, batch: QueryBatch) -> QueryLayout:
        """Count *batch*, advance the pass index and lay the batch out.

        A query-object batch (a generator program's) is converted to
        :class:`~repro.oracle.base.QueryColumns` here, once.
        """
        n = self._stream.n
        self.accounting.record_batch(batch)
        self._pass_index += 1
        if not isinstance(batch, QueryColumns):
            try:
                batch = QueryColumns.from_queries(batch)
            except OverflowError:
                raise OracleError(f"a query vertex is outside [0, {n})") from None
        return QueryLayout(batch, n, self.indexed)

    def answer_batch(self, batch: QueryBatch) -> List[Any]:
        """Answer one round's batch in a single pass over the stream.

        The pass runs over the stream's cached columnar batches
        (:meth:`~repro.streams.stream.CachedBatchStream.batches`).
        """
        state = self.begin_batch(batch)
        for chunk in self._stream.batches():
            state.ingest_batch(chunk)
        return state.finish()

    def _config(self) -> dict:
        """Construction parameters a capture must echo."""
        return {}

    def state_dict(self) -> dict:
        """Oracle-level runtime state (rng position, accounting, space)."""
        return {
            "rng": rng_state(self._rng),
            "pass_index": self._pass_index,
            **self._config(),
            "accounting": self.accounting.state_dict(),
            "space": self.space.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a capture; future passes derive identical randomness."""
        kind = type(self).__name__
        check_state_config(kind, state, **self._config())
        set_rng_state(self._rng, state_field(kind, state, "rng"))
        self._pass_index = int(state_field(kind, state, "pass_index"))
        self.accounting.load_state_dict(state_field(kind, state, "accounting"))
        self.space.load_state_dict(state_field(kind, state, "space"))
