"""The arbitrary-order edge stream model.

A stream is a finite sequence of edge *updates* over a fixed vertex
set [n].  In the insertion-only (cash-register) setting every update
inserts an edge; in the turnstile setting updates carry a sign and the
graph is the result of applying all of them to the empty graph
(multiplicities must stay 0 or 1 — the paper's model is simple
graphs).  :func:`check_updates` is the single place that model is
enforced: stream construction, the live journal, the binary writer and
every stream's :meth:`~CachedBatchStream.final_graph` call it.

:class:`ColumnEdgeStream` holds an in-memory stream as three numpy
columns; :class:`EdgeStream` builds one from :class:`Update` objects.
Multi-pass algorithms call ``batches()`` (or ``updates()``) once per
pass; the stream counts passes so tests and experiments can assert the
pass complexity claimed by the theorems (3 passes for Theorem 1/17, 5r
for Theorem 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import StreamError
from repro.graph.graph import Edge, Graph, normalize_edge
from repro.streams.batch import EdgeBatch, sorted_member_mask
from repro.streams.cache import BatchCachePolicy, resolve_cache_policy
from repro.utils.rng import RandomSource, ensure_rng


#: Default elements per decoded chunk / columnar batch.
DEFAULT_CHUNK_SIZE = 4096


def check_batch_size(batch_size) -> int:
    """Validate a batch size: an integer >= 1 (``bool`` rejected).

    The single home of the check — :meth:`EdgeStream.batches`, the
    disk streams, and the engine all route through it, so a bad
    ``--batch-size`` fails with one clear :class:`ValueError` instead
    of a silent ``range`` misbehavior deep in the decode loop.
    """
    if isinstance(batch_size, bool) or not isinstance(batch_size, (int, np.integer)):
        raise StreamError(
            f"batch_size must be an int, got {type(batch_size).__name__} "
            f"({batch_size!r})"
        )
    if batch_size < 1:
        raise StreamError(f"batch_size must be >= 1, got {batch_size}")
    return int(batch_size)


class LiveEdges:
    """The edges present in a stream so far, as sorted integer keys.

    An edge ``(lo, hi)`` is keyed ``lo * n + hi``: an ``int64`` (8
    bytes per live edge) while ``n * n`` fits one, an exact Python int
    beyond.  The live set is the symmetric difference of a few sorted
    runs of keys: a checked chunk appends the keys whose presence it
    flips, and runs merge like a binary counter, so m updates cost
    O(m log m) in all rather than O(m) per chunk.
    """

    def __init__(self, n: int) -> None:
        self._n = int(n)
        self._dtype = np.int64 if self._n * self._n < 2 ** 63 else object
        self._runs: List[np.ndarray] = []
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def keys(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """The keys of the normalized edges ``(lo[i], hi[i])``."""
        return lo.astype(self._dtype) * self._n + hi

    def contains(self, keys: np.ndarray) -> np.ndarray:
        """Whether each of the distinct *keys* is live."""
        found = np.zeros(len(keys), dtype=bool)
        for run in self._runs:
            found ^= sorted_member_mask(run, keys)
        return found

    def toggle(self, keys: np.ndarray, change: int) -> None:
        """Flip the presence of the distinct *keys*; the live count moves by *change*."""
        self._size += change
        if len(keys):
            self._runs.append(np.sort(keys))
        while len(self._runs) > 1 and len(self._runs[-2]) <= 2 * len(self._runs[-1]):
            self._merge_last()

    def edges(self) -> List[Edge]:
        """The live edges as sorted ``(lo, hi)`` pairs."""
        while len(self._runs) > 1:
            self._merge_last()
        keys = self._runs[0] if self._runs else np.empty(0, dtype=self._dtype)
        lo, hi = keys // self._n, keys % self._n
        return list(zip(lo.tolist(), hi.tolist()))

    def _merge_last(self) -> None:
        """Replace the last two runs by their symmetric difference."""
        # Popping inside the call frees both runs once concatenated.
        keys = np.concatenate((self._runs.pop(-2), self._runs.pop()))
        keys.sort(kind="stable")  # timsort: one linear merge of two sorted runs
        twice = np.flatnonzero(keys[1:] == keys[:-1])
        if len(twice):
            keys = np.delete(keys, np.concatenate((twice, twice + 1)))
        self._runs.append(keys)


def check_updates(
    n: int,
    u,
    v,
    delta,
    allow_deletions: bool,
    live: Optional[LiveEdges] = None,
    offset=0,
) -> None:
    """Check ``(u, v, delta)`` columns against the simple-graph stream model.

    Each update, in stream order, must have no self-loop, both endpoints
    in ``[0, n)``, a delta of +1 or -1 (and +1 only unless
    *allow_deletions*), and leave its edge's multiplicity in {0, 1}.
    The first update that breaks a rule raises :class:`StreamError`
    naming its global index ``offset + i``; *offset* may also be an
    array with one entry per update, as for a shard's scattered rows.

    *live* holds the edges present before the first update.
    Multiplicities start from it, and once every update has passed it
    is updated in place to the edges present after the last one — a
    rejected chunk leaves it untouched.  ``None`` skips the
    multiplicity rule: the stateless checks a chunked writer can make
    without the stream's history.

    Multiplicities are checked without a per-update loop: a stable sort
    groups each edge's updates in stream order, and a cumulative sum
    per group gives the multiplicity after every update.
    """
    length = len(u)
    if not len(v) == len(delta) == length:
        raise StreamError("u/v/delta column lengths differ")
    if length == 0:
        return
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    bad = (lo == hi) | (lo < 0) | (hi >= n) | (np.abs(delta) != 1)
    if not allow_deletions:
        bad |= delta < 0
    first = int(np.argmax(bad)) if bad.any() else length
    if live is not None:
        # A bad update's key may collide with another edge's; that only
        # shifts the counts after it, and it is reported first anyway.
        keys = live.keys(lo, hi)
        order = np.argsort(keys, kind="stable")
        keys, steps = keys[order], np.asarray(delta, dtype=np.int64)[order]
        starts = np.concatenate(([True], keys[1:] != keys[:-1]))
        heads = np.flatnonzero(starts)
        before = live.contains(keys[heads]).astype(np.int64)
        totals = np.cumsum(steps)
        offsets = before - totals[heads] + steps[heads]
        counts = totals + offsets[np.cumsum(starts) - 1]
        over = (counts < 0) | (counts > 1)
        if over.any():
            first = min(first, int(order[over].min()))
    if first < length:
        u_i, v_i, d_i = int(u[first]), int(v[first]), int(delta[first])
        where = f"update #{int((np.arange(length) + offset)[first])}"
        if u_i == v_i:
            raise StreamError(f"{where} is a self-loop ({u_i}, {v_i})")
        if not (0 <= u_i < n and 0 <= v_i < n):
            raise StreamError(f"{where} touches a vertex outside [0, {n})")
        if d_i not in (1, -1):
            raise StreamError(f"{where} delta must be +1 or -1, got {d_i}")
        if d_i < 0 and not allow_deletions:
            raise StreamError(f"{where} is a deletion in an insertion-only stream")
        count = int(counts[np.flatnonzero(order == first)[0]])
        problem = "deletes absent edge" if count < 0 else "duplicates edge"
        raise StreamError(f"{where} {problem} {normalize_edge(u_i, v_i)}")
    if live is not None:
        flipped = (before + np.add.reduceat(steps, heads)) != before
        live.toggle(keys[heads][flipped], int(steps.sum()))


@dataclass(frozen=True)
class Update:
    """A single stream element: edge {u, v} with sign +1 or -1."""

    u: int
    v: int
    delta: int = 1

    def __post_init__(self) -> None:
        if self.u == self.v:
            raise StreamError(f"self-loop update ({self.u}, {self.v})")
        if self.delta not in (1, -1):
            raise StreamError(f"update delta must be +1 or -1, got {self.delta}")

    @property
    def edge(self) -> Edge:
        """The normalized (min, max) edge."""
        return normalize_edge(self.u, self.v)

    @property
    def is_insertion(self) -> bool:
        return self.delta == 1


class CachedBatchStream:
    """The stream surface shared by every stream class.

    Holds the metadata (``n``, ``length``, ``net_edge_count``,
    ``allows_deletions``), the pass counter and the batch cache, and
    defines ``updates()``, ``batches()`` and ``final_graph()`` once on
    top of one subclass hook, :meth:`_decode_batch`.  ``batches()``
    keeps one cache key per ``(batch_size, batch_index)``, decodes on
    miss and retains at the policy's discretion — keeping the loop in
    one place is what guarantees the in-memory, disk and shard streams
    can never drift apart on cache semantics.

    A stream whose updates were not checked when it was built (a disk
    file trusts its header) checks them during its first complete
    ``batches()`` or ``updates()`` pass: :func:`check_updates` runs over
    every batch against the edges live so far, and at the end of the
    pass the live edge count must equal ``net_edge_count``.  Either
    failure raises :class:`StreamError`, so no estimator finishes on a
    multigraph.
    """

    #: Whether the updates are known to satisfy the stream model.
    _checked = False

    def __init__(
        self, n: int, length: int, net_edge_count: int, allow_deletions: bool, cache
    ) -> None:
        self._n = int(n)
        self._length = int(length)
        self._net = int(net_edge_count)
        self._allow_deletions = bool(allow_deletions)
        self._passes = 0
        self._cache: BatchCachePolicy = resolve_cache_policy(cache)

    @property
    def n(self) -> int:
        """Vertex count of the underlying graph."""
        return self._n

    @property
    def length(self) -> int:
        """Number of stream elements (insertions + deletions)."""
        return self._length

    @property
    def net_edge_count(self) -> int:
        """m: edges of the final graph."""
        return self._net

    @property
    def allows_deletions(self) -> bool:
        return self._allow_deletions

    def __len__(self) -> int:
        return self._length

    def __repr__(self) -> str:
        kind = "turnstile" if self._allow_deletions else "insertion-only"
        return (
            f"{type(self).__name__}({kind}, n={self._n}, length={self._length}, "
            f"m={self._net}, passes_used={self._passes}, cache={self._cache.name!r})"
        )

    @property
    def passes_used(self) -> int:
        """How many passes have been read so far."""
        return self._passes

    def reset_pass_count(self) -> None:
        """Zero the pass counter (e.g. between estimator runs)."""
        self._passes = 0

    @property
    def cache_policy(self) -> BatchCachePolicy:
        """The active batch-cache policy (inspect for hit/byte meters)."""
        return self._cache

    def set_cache_policy(self, cache) -> BatchCachePolicy:
        """Replace the batch-cache policy (dropping retained batches).

        *cache* is any spec accepted by
        :func:`~repro.streams.cache.resolve_cache_policy`; the resolved
        policy is returned so callers can meter it.
        """
        self._cache.clear()
        self._cache = resolve_cache_policy(cache)
        return self._cache

    def updates(self) -> Iterator[Update]:
        """Read one pass as :class:`Update` objects, counting it."""
        self._passes += 1

        def generate() -> Iterator[Update]:
            for batch in self._checked_pass(self._windows(), DEFAULT_CHUNK_SIZE):
                for u, v, delta in zip(
                    batch.u.tolist(), batch.v.tolist(), batch.delta.tolist()
                ):
                    yield Update(u, v, delta)

        return generate()

    def batches(self, batch_size: int = DEFAULT_CHUNK_SIZE) -> Iterator["EdgeBatch"]:
        """Read one pass as columnar :class:`~repro.streams.batch.EdgeBatch`\\ es.

        Counts a pass, like ``updates()``.  Which batches (and their
        lazily materialized decoded views) survive between passes is
        the cache policy's call (see :mod:`repro.streams.cache`):
        under ``"all"`` every batch is decoded once per stream and
        reused by every later pass and every estimator sharing a fused
        pass; under ``"lru"`` a bounded working set is; under
        ``"none"`` nothing is.  Batches are immutable by convention;
        consumers must not mutate the arrays.
        """
        batch_size = check_batch_size(batch_size)
        self._passes += 1
        return self._checked_pass(self._iter_batches(batch_size), batch_size)

    def _iter_batches(self, batch_size: int) -> Iterator["EdgeBatch"]:
        cache = self._cache
        length = len(self)
        for index, start in enumerate(range(0, length, batch_size)):
            key = (batch_size, index)
            batch = cache.get(key)
            if batch is None:
                batch = self._decode_batch(start, min(start + batch_size, length))
                cache.put(key, batch)
            yield batch

    def _checked_pass(self, batches, batch_size: int) -> Iterator["EdgeBatch"]:
        """Yield one pass of *batches*, cut every *batch_size* updates.

        Until a pass has completed, checks each batch against the
        stream model and, at the end, the live edge count against
        ``net_edge_count`` (see the class docstring).
        """
        if self._checked:
            yield from batches
            return
        live = LiveEdges(self._n)
        for index, batch in enumerate(batches):
            start = index * batch_size
            check_updates(
                self._n, batch.u, batch.v, batch.delta, self._allow_deletions,
                live=live, offset=self._offset(start, start + len(batch)),
            )
            yield batch
        if len(live) != self._net:
            raise StreamError(
                f"{self!r}: the stream declares {self._net} net edges but "
                f"its updates leave {len(live)}"
            )
        self._checked = True

    def _offset(self, start: int, stop: int):
        """The :func:`check_updates` offset of updates ``[start, stop)``."""
        return start

    def _windows(self) -> Iterator["EdgeBatch"]:
        """The whole stream in fresh decoded windows (no pass, no cache)."""
        length = len(self)
        for start in range(0, length, DEFAULT_CHUNK_SIZE):
            yield self._decode_batch(start, min(start + DEFAULT_CHUNK_SIZE, length))

    def _decode_batch(self, start: int, stop: int) -> "EdgeBatch":
        """Decode updates ``[start, stop)`` into a fresh batch."""
        raise NotImplementedError

    def final_graph(self) -> Graph:
        """The graph the stream describes (updates applied in order).

        Checks the whole stream against the stream model on the way
        and does not count a pass.  O(m) memory: meant for small
        streams and tests — the estimators never need it.
        """
        live = LiveEdges(self._n)
        for index, batch in enumerate(self._windows()):
            check_updates(
                self._n, batch.u, batch.v, batch.delta, self._allow_deletions,
                live=live, offset=index * DEFAULT_CHUNK_SIZE,
            )
        return Graph(self._n, live.edges())


class ColumnEdgeStream(CachedBatchStream):
    """A replayable, pass-counting stream over ``(u, v, delta)`` columns.

    The in-memory stream: the contents live as three ``int64`` numpy
    columns and ``_decode_batch`` is a pure slice.  Used directly
    wherever updates already exist as arrays (the live engine's
    journaled prefix, scenario generators, ``.npz`` round trips), and
    through :class:`EdgeStream` for :class:`Update` sequences.

    *delta* defaults to all insertions; *allow_deletions* defaults to
    whether any delta is negative.  With ``validate=True`` (the
    default) the columns are checked by :func:`check_updates` at
    construction.  Callers that already validated the stream (the live
    journal validates incrementally) may pass ``validate=False`` with
    the *net_edge_count* they know.

    *cache* is the batch-cache policy for :meth:`batches` — ``"all"``
    (default: unbounded, right for small replayed streams), ``"lru"`` /
    ``"lru:<bytes>"`` (bounded by a byte budget), ``"none"``, or a
    :class:`~repro.streams.cache.BatchCachePolicy` instance.  Estimates
    are bit-identical across policies; the policy only trades decode
    work against resident memory.
    """

    #: Validated at construction, or vouched for by the caller.
    _checked = True

    def __init__(
        self,
        n: int,
        u,
        v,
        delta=None,
        allow_deletions: Optional[bool] = None,
        net_edge_count: Optional[int] = None,
        validate: bool = True,
        cache=None,
    ) -> None:
        if n < 1:
            raise StreamError(f"column stream needs n >= 1, got {n}")
        self._u = np.ascontiguousarray(u, dtype=np.int64)
        self._v = np.ascontiguousarray(v, dtype=np.int64)
        if delta is None:
            delta = np.ones(len(self._u), dtype=np.int64)
        self._delta = np.ascontiguousarray(delta, dtype=np.int64)
        if allow_deletions is None:
            allow_deletions = bool((self._delta < 0).any())
        if validate:
            check_updates(n, self._u, self._v, self._delta, allow_deletions, live=LiveEdges(n))
            net_edge_count = None
        elif not len(self._u) == len(self._v) == len(self._delta):
            raise StreamError("u/v/delta column lengths differ")
        if net_edge_count is None:
            net_edge_count = int(self._delta.sum())
        super().__init__(n, len(self._u), net_edge_count, allow_deletions, cache)

    def columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The whole stream as ``(u, v, delta)`` ``int64`` columns.

        Does **not** count a pass.  The public bridge to the
        array-based ingestion layer
        (:func:`repro.streams.datasets.write_binary_updates`, the
        scenario generators, the live engine's ``feed``) — callers must
        not mutate the arrays.
        """
        return self._u, self._v, self._delta

    def _decode_batch(self, start: int, stop: int) -> "EdgeBatch":
        return EdgeBatch(
            self._u[start:stop], self._v[start:stop], self._delta[start:stop]
        )


class EdgeStream(ColumnEdgeStream):
    """A :class:`ColumnEdgeStream` built from a sequence of :class:`Update`\\ s.

    *allow_deletions* ``False`` models the insertion-only setting and
    rejects any negative update at construction time, as does every
    other violation of the stream model (see :func:`check_updates`).
    *cache* is as for :class:`ColumnEdgeStream`.
    """

    def __init__(
        self,
        n: int,
        updates: Iterable[Update],
        allow_deletions: bool = False,
        cache=None,
    ) -> None:
        batch = EdgeBatch.from_updates(tuple(updates))
        super().__init__(
            n, batch.u, batch.v, batch.delta,
            allow_deletions=allow_deletions, cache=cache,
        )


#: A decoded stream element: ``(u, v, delta, normalized_edge)``.
DecodedUpdate = Tuple[int, int, int, Edge]


def insertion_stream(
    graph: Graph, rng: RandomSource = None, shuffle: bool = True
) -> EdgeStream:
    """An insertion-only stream of *graph*'s edges.

    With *shuffle* (the default) the arrival order is a uniformly
    random permutation drawn from *rng*; otherwise edges arrive in the
    graph's insertion order.  Note the algorithms are analyzed for
    arbitrary (adversarial) order — shuffling is just a convenient
    instance, and :func:`repro.streams.generators.adversarial_order_stream`
    provides nastier ones.
    """
    edges: List[Edge] = list(graph.edges())
    if shuffle:
        ensure_rng(rng).shuffle(edges)
    return EdgeStream(graph.n, [Update(u, v, 1) for u, v in edges], allow_deletions=False)


def turnstile_stream(
    n: int, updates: Iterable[Tuple[int, int, int]]
) -> EdgeStream:
    """A turnstile stream from raw ``(u, v, delta)`` triples."""
    return EdgeStream(n, [Update(u, v, d) for u, v, d in updates], allow_deletions=True)
