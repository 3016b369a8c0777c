"""Out-of-core dataset ingestion: real graphs as first-class workloads.

The paper's estimators are built for massive streams, yet the repro
only ever fed them small in-memory synthetic graphs.  This module
opens the disk-resident workload end to end:

* **chunked text readers** for SNAP-style edge lists
  (:func:`read_snap_chunks`) — comment lines, arbitrary raw vertex
  ids, duplicate/reversed edges, self-loops — never holding more than
  a chunk of text in memory at a time;
* a **compact binary update format** (:class:`BinaryUpdateWriter`,
  ``.reb``: one header + flat ``u``/``v`` ``int64`` and ``delta``
  ``int8`` columns) that :class:`DiskEdgeStream` memory-maps, plus an
  ``.npz`` twin for interchange (:func:`save_npz_updates`);
* **conversion** (:func:`convert_edge_list`, CLI ``repro convert``):
  SNAP text → binary, with vertex-id compaction to ``[0, n)`` and
  first-occurrence deduplication so the result is a valid simple-graph
  stream;
* **turnstile scenario generators** layered on top of any edge array
  (:func:`deletion_heavy_updates`, :func:`sliding_window_updates`,
  :func:`degree_adversarial_order`) for deletion-heavy, windowed, and
  adversarial arrival workloads at dataset scale;
* :class:`DiskEdgeStream` — the out-of-core counterpart of
  :class:`~repro.streams.stream.EdgeStream`: same pass-counting
  surface (``updates()`` / ``batches()`` / metadata), decoded in
  bounded chunks from the memmap, with batch retention governed by a
  :class:`~repro.streams.cache.BatchCachePolicy` (default ``"none"``:
  stream straight from disk; ``"lru:<bytes>"`` keeps a bounded hot
  set for multi-pass runs);
* **hash-partitioned shards** for scatter/merge ingestion
  (:mod:`repro.engine.sharded`): :func:`shard_route` assigns every
  update to a shard by its *normalized* edge — all updates touching an
  edge land on the same shard, in stream order, so each shard is
  itself a prefix-valid turnstile stream — and
  :func:`write_stream_shards` / :func:`open_stream_shards` materialize
  and reopen the partitions as ``base.shard-K-of-N.reb`` files whose
  headers are cross-checked at open (:class:`ShardView` is the
  zero-copy in-memory alternative).

Everything downstream — the fused engine, both execution backends, the
oracles — works unchanged on a :class:`DiskEdgeStream`, because they
only ever consume stream *metadata* plus the dispatched batches.
"""

from __future__ import annotations

import os
import re
import struct
import zlib
from typing import IO, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import StreamError
from repro.faults.plan import fire as fire_fault
from repro.utils.retry import RetryPolicy, retry_call
from repro.streams.batch import EdgeBatch
from repro.streams.stream import CachedBatchStream, check_updates

__all__ = [
    "BINARY_MAGIC",
    "BinaryUpdateWriter",
    "DiskEdgeStream",
    "ShardView",
    "compact_ids",
    "convert_edge_list",
    "degree_adversarial_order",
    "deletion_heavy_updates",
    "is_stream_path",
    "open_disk_stream",
    "open_stream_shards",
    "read_snap_chunks",
    "save_npz_updates",
    "shard_path",
    "shard_route",
    "sliding_window_updates",
    "stream_shard_views",
    "write_binary_updates",
    "write_stream_shards",
]

#: Magic + version prefix of the ``.reb`` binary update format.
BINARY_MAGIC = b"REPROEB1"

#: Header layout after the magic: little-endian int64
#: ``(n, length, net_edge_count, flags)``; flag bit 0 = deletions.
_HEADER = struct.Struct("<4q")

_FLAG_DELETIONS = 1

#: Retry schedule for the atomic publish of a finished ``.reb`` file.
DISK_WRITE_RETRY = RetryPolicy(attempts=3, base_delay=0.02, max_delay=0.5)

#: Lines per text-parsing chunk of :func:`read_snap_chunks`.
DEFAULT_TEXT_CHUNK_LINES = 1 << 16


# -- SNAP-style text ingestion -------------------------------------------


def read_snap_chunks(
    path_or_file: Union[str, "os.PathLike[str]", IO[str]],
    chunk_lines: int = DEFAULT_TEXT_CHUNK_LINES,
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Stream a SNAP-style edge list as ``(u, v)`` ``int64`` chunk pairs.

    SNAP conventions: ``#`` or ``%`` comment lines anywhere, one edge
    per line as whitespace-separated integers (extra columns —
    timestamps, weights — are ignored), ids arbitrary non-negative
    integers (NOT compacted here; see :func:`compact_ids`).  Memory
    stays O(*chunk_lines*) regardless of file size.
    """
    if chunk_lines < 1:
        raise StreamError(f"chunk_lines must be >= 1, got {chunk_lines}")

    def chunks(handle: IO[str]) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        us: List[int] = []
        vs: List[int] = []
        for line_number, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line[0] in "#%":
                continue
            fields = line.split()
            if len(fields) < 2:
                raise StreamError(
                    f"line {line_number}: expected at least 'u v', got {line!r}"
                )
            try:
                u, v = int(fields[0]), int(fields[1])
            except ValueError as exc:
                raise StreamError(
                    f"line {line_number}: non-integer endpoint in {line!r}"
                ) from exc
            if u < 0 or v < 0:
                raise StreamError(f"line {line_number}: negative vertex id in {line!r}")
            us.append(u)
            vs.append(v)
            if len(us) >= chunk_lines:
                yield (
                    np.array(us, dtype=np.int64),
                    np.array(vs, dtype=np.int64),
                )
                us, vs = [], []
        if us:
            yield np.array(us, dtype=np.int64), np.array(vs, dtype=np.int64)

    if hasattr(path_or_file, "read"):
        return chunks(path_or_file)

    def from_path() -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        with open(path_or_file, "r", encoding="utf-8") as handle:
            for chunk in chunks(handle):
                yield chunk

    return from_path()


def compact_ids(
    u: np.ndarray, v: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Relabel raw vertex ids to dense ``[0, n)`` (sorted by raw id).

    Returns ``(u_compact, v_compact, raw_ids)`` where ``raw_ids[k]``
    is the original id of compact vertex ``k``.  Raw SNAP ids
    routinely exceed 2^31 — compaction is what keeps the dense
    edge-id encoding (:func:`repro.streams.batch.edge_id`) exact
    downstream.
    """
    raw_ids = np.unique(np.concatenate((u, v)))
    return (
        np.searchsorted(raw_ids, u).astype(np.int64),
        np.searchsorted(raw_ids, v).astype(np.int64),
        raw_ids,
    )


def _dedupe_first_occurrence(
    u: np.ndarray, v: np.ndarray, n: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Drop self-loops and repeated (normalized) edges, keeping order.

    Raw SNAP files list many edges twice (once per direction) and the
    stream model is a simple graph: every surviving edge appears once,
    at its first arrival position.
    """
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    proper = lo != hi
    lo, hi, u, v = lo[proper], hi[proper], u[proper], v[proper]
    if n <= 1 << 32:
        # Collision-free scalar key: n <= 2^32 (always true after
        # compaction) keeps lo * n + hi exact in uint64.
        keys = lo.astype(np.uint64) * np.uint64(n) + hi.astype(np.uint64)
        _, first = np.unique(keys, return_index=True)
    else:
        # Un-relabeled ids can be astronomically large; dedupe on the
        # pair columns directly (slower, but exact for any id range).
        _, first = np.unique(np.stack((lo, hi), axis=1), axis=0, return_index=True)
    first.sort()
    return u[first], v[first]


# -- binary update format ------------------------------------------------


class BinaryUpdateWriter:
    """Streaming writer of the ``.reb`` binary update format.

    Appends ``(u, v, delta)`` chunks without ever materializing the
    whole stream; :meth:`close` (or the context manager exit) seals
    the header with the final counts.  Used by
    :func:`convert_edge_list` and directly by scenario pipelines that
    generate updates chunk by chunk.

    The stream is assembled in a same-directory ``.part`` file and
    only renamed over *path* — after an fsync — once the header is
    sealed: a crash (or abort) at any point leaves either the
    previous complete file or nothing, never a torn ``.reb``.  The
    final publish fires the ``disk.write`` fault site and retries
    transient I/O errors.
    """

    def __init__(
        self,
        path: Union[str, "os.PathLike[str]"],
        n: int,
        allow_deletions: bool = False,
    ) -> None:
        if n < 1:
            raise StreamError(f"binary stream needs n >= 1, got {n}")
        self._path = os.fspath(path)
        self._n = int(n)
        self._allow_deletions = bool(allow_deletions)
        self._length = 0
        self._net = 0
        self._closed = False
        self._part = self._path + ".part"
        self._handle = open(self._part, "wb")
        self._handle.write(BINARY_MAGIC)
        self._handle.write(_HEADER.pack(0, 0, 0, 0))  # sealed on close
        self._tmp_v = self._path + ".v.tmp"
        self._tmp_d = self._path + ".d.tmp"
        self._v_handle = open(self._tmp_v, "wb")
        self._d_handle = open(self._tmp_d, "wb")

    def __enter__(self) -> "BinaryUpdateWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()

    def append(self, u, v, delta=None) -> None:
        """Append one chunk of updates.

        Each chunk gets the stateless checks of
        :func:`~repro.streams.stream.check_updates` (self-loops, vertex
        range, deltas, deletions); multiplicities span chunks, so they
        are checked when the stream is read back
        (:meth:`~repro.streams.stream.CachedBatchStream.final_graph`).
        """
        if self._closed:
            raise StreamError("writer already closed")
        u = np.ascontiguousarray(u, dtype=np.int64)
        v = np.ascontiguousarray(v, dtype=np.int64)
        delta = np.ones(len(u), dtype=np.int8) if delta is None else np.asarray(delta)
        check_updates(self._n, u, v, delta, self._allow_deletions, offset=self._length)
        if len(u) == 0:
            return
        delta = np.ascontiguousarray(delta, dtype=np.int8)
        self._handle.write(u.tobytes())
        self._v_handle.write(v.tobytes())
        self._d_handle.write(delta.tobytes())
        self._length += len(u)
        self._net += int(delta.sum(dtype=np.int64))

    def abort(self) -> None:
        """Discard the in-flight ``.part`` and spill files (failure path).

        A previous complete file at the target path is left untouched
        — the writer never opened it.
        """
        self._closed = True
        for handle in (self._handle, self._v_handle, self._d_handle):
            handle.close()
        for path in (self._part, self._tmp_v, self._tmp_d):
            if os.path.exists(path):
                os.remove(path)

    def close(self) -> str:
        """Seal the header and publish the file atomically; returns the path."""
        if self._closed:
            return self._path
        self._closed = True
        try:
            self._v_handle.close()
            self._d_handle.close()
            # u went straight after the header; v and delta columns are
            # appended from their spill files so each column is contiguous
            # (memmap-sliceable) without buffering the stream in memory.
            for tmp in (self._tmp_v, self._tmp_d):
                with open(tmp, "rb") as spill:
                    while True:
                        block = spill.read(1 << 22)
                        if not block:
                            break
                        self._handle.write(block)
                os.remove(tmp)
            flags = _FLAG_DELETIONS if self._allow_deletions else 0
            self._handle.seek(len(BINARY_MAGIC))
            self._handle.write(_HEADER.pack(self._n, self._length, self._net, flags))
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._handle.close()

            def publish() -> None:
                fire_fault("disk.write")
                os.replace(self._part, self._path)

            retry_call(
                publish,
                policy=DISK_WRITE_RETRY,
                retry_on=(OSError,),
                seed=zlib.crc32(self._path.encode()),
                label=f"publish {self._path}",
            )
        except BaseException:
            for handle in (self._handle, self._v_handle, self._d_handle):
                handle.close()
            for path in (self._part, self._tmp_v, self._tmp_d):
                if os.path.exists(path):
                    os.remove(path)
            raise
        directory = os.path.dirname(self._path) or "."
        try:
            dir_fd = os.open(directory, os.O_RDONLY)
        except OSError:  # pragma: no cover - platforms without dir fds
            return self._path
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
        return self._path


def write_binary_updates(
    path: Union[str, "os.PathLike[str]"],
    n: int,
    u: np.ndarray,
    v: np.ndarray,
    delta: Optional[np.ndarray] = None,
    allow_deletions: Optional[bool] = None,
) -> str:
    """One-shot :class:`BinaryUpdateWriter` for in-memory columns."""
    if allow_deletions is None:
        allow_deletions = delta is not None and bool((np.asarray(delta) < 0).any())
    with BinaryUpdateWriter(path, n, allow_deletions=allow_deletions) as writer:
        writer.append(u, v, delta)
    return os.fspath(path)


def save_npz_updates(
    path: Union[str, "os.PathLike[str]"],
    n: int,
    u: np.ndarray,
    v: np.ndarray,
    delta: Optional[np.ndarray] = None,
) -> str:
    """Archive an update stream as a compressed ``.npz`` document.

    The interchange twin of the ``.reb`` format: portable and
    self-describing, but decompressed eagerly on load —
    :class:`DiskEdgeStream` reads it whole, so use ``.reb`` for graphs
    that must stay out of core.
    """
    u = np.ascontiguousarray(u, dtype=np.int64)
    v = np.ascontiguousarray(v, dtype=np.int64)
    if delta is None:
        delta = np.ones(len(u), dtype=np.int8)
    delta = np.ascontiguousarray(delta, dtype=np.int8)
    net = int(delta.sum(dtype=np.int64))
    meta = np.array([int(n), len(u), net, int(bool((delta < 0).any()))], dtype=np.int64)
    np.savez_compressed(os.fspath(path), u=u, v=v, delta=delta, meta=meta)
    return os.fspath(path)


def is_stream_path(path: Union[str, "os.PathLike[str]"]) -> bool:
    """Whether *path* names a converted update stream (``.reb``/``.npz``)."""
    lowered = os.fspath(path).lower()
    return lowered.endswith(".reb") or lowered.endswith(".npz")


# -- the out-of-core stream ----------------------------------------------


class DiskEdgeStream(CachedBatchStream):
    """A pass-counting edge stream decoded on demand from disk.

    Drop-in for :class:`~repro.streams.stream.EdgeStream` wherever the
    consumer honors the stream protocol (metadata + ``updates()`` /
    ``batches()``): the fused engine, both backends, the oracles, and
    the one-shot counters all do.  The decoded batches are copies of
    memmap windows, so however long a pass is, resident memory is the
    cache policy's budget plus one in-flight batch.

    Parameters
    ----------
    path:
        A ``.reb`` file written by :class:`BinaryUpdateWriter` /
        ``repro convert``, or an ``.npz`` from
        :func:`save_npz_updates` (loaded eagerly).
    cache:
        Batch retention policy (see :mod:`repro.streams.cache`).
        Default ``"none"``: stream straight from disk each pass.
        ``"lru:<bytes>"`` bounds a reused working set for multi-pass
        estimators.
    """

    def __init__(
        self,
        path: Union[str, "os.PathLike[str]"],
        cache="none",
    ) -> None:
        self._path = os.fspath(path)
        columns = None
        if self._path.lower().endswith(".npz"):
            with np.load(self._path) as archive:
                n, length, net, deletions = (int(x) for x in archive["meta"][:4])
                columns = tuple(
                    np.ascontiguousarray(archive[name], dtype=dtype)
                    for name, dtype in (("u", np.int64), ("v", np.int64), ("delta", np.int8))
                )
        else:
            with open(self._path, "rb") as handle:
                magic = handle.read(len(BINARY_MAGIC))
                if magic != BINARY_MAGIC:
                    raise StreamError(
                        f"{self._path}: not a repro binary update file "
                        f"(bad magic {magic!r})"
                    )
                header = handle.read(_HEADER.size)
                if len(header) != _HEADER.size:
                    raise StreamError(f"{self._path}: truncated header")
                n, length, net, flags = _HEADER.unpack(header)
            deletions = flags & _FLAG_DELETIONS
        if n < 1 or length < 0:
            raise StreamError(
                f"{self._path}: nonsensical header (n={n}, length={length})"
            )
        if columns is None:
            base = len(BINARY_MAGIC) + _HEADER.size
            expected = base + length * (8 + 8 + 1)
            actual = os.path.getsize(self._path)
            if actual < expected:
                raise StreamError(
                    f"{self._path}: truncated columns ({actual} < {expected} bytes)"
                )
            columns = tuple(
                np.memmap(
                    self._path, dtype=dtype, mode="r", offset=base + 8 * k * length,
                    shape=(length,),
                )
                for k, dtype in enumerate((np.int64, np.int64, np.int8))
            )
        elif any(len(column) != length for column in columns):
            raise StreamError(f"{self._path}: column lengths disagree with header")
        self._u, self._v, self._delta = columns
        super().__init__(n, length, net, deletions, cache)

    @property
    def path(self) -> str:
        return self._path

    def _decode_batch(self, start: int, stop: int) -> EdgeBatch:
        # np.array copies the memmap window: the batch owns its
        # columns, so evicting it really releases the memory.
        return EdgeBatch(
            np.array(self._u[start:stop]),
            np.array(self._v[start:stop]),
            self._delta[start:stop],  # EdgeBatch widens to int64
        )


def open_disk_stream(
    path: Union[str, "os.PathLike[str]"], cache="none"
) -> DiskEdgeStream:
    """Open a converted stream file (``.reb`` or ``.npz``)."""
    return DiskEdgeStream(path, cache=cache)


# -- conversion ----------------------------------------------------------


def convert_edge_list(
    source: Union[str, "os.PathLike[str]", IO[str]],
    destination: Union[str, "os.PathLike[str]"],
    relabel: bool = True,
    dedupe: bool = True,
    chunk_lines: int = DEFAULT_TEXT_CHUNK_LINES,
) -> DiskEdgeStream:
    """Convert a SNAP-style text edge list into the binary format.

    Text parsing is chunked; the edge *columns* are accumulated in
    memory once (O(m) ints — compaction and first-occurrence
    deduplication are global decisions), then written out.  With
    ``relabel`` (the default) raw ids are compacted to ``[0, n)``,
    which is what keeps every downstream dense encoding exact however
    large the raw SNAP ids are.  Returns the opened
    :class:`DiskEdgeStream` (``cache="none"``).
    """
    chunks = list(read_snap_chunks(source, chunk_lines=chunk_lines))
    if chunks:
        u = np.concatenate([c[0] for c in chunks])
        v = np.concatenate([c[1] for c in chunks])
    else:
        u = np.empty(0, dtype=np.int64)
        v = np.empty(0, dtype=np.int64)
    if relabel:
        u, v, _ = compact_ids(u, v)
    n = 1 if not len(u) else int(max(u.max(), v.max())) + 1
    if dedupe:
        u, v = _dedupe_first_occurrence(u, v, n)
    else:
        if len(u) and (u == v).any():
            raise StreamError(
                "edge list contains self-loops; convert with dedupe=True"
            )
    destination = os.fspath(destination)
    if not is_stream_path(destination):
        raise StreamError(
            f"destination {destination!r} must end in .reb (memmap) or .npz; "
            "repro count recognizes converted streams by suffix"
        )
    if destination.lower().endswith(".npz"):
        save_npz_updates(destination, n, u, v)
    else:
        write_binary_updates(destination, n, u, v)
    return open_disk_stream(destination)


# -- turnstile scenario generators --------------------------------------


def _as_edge_columns(u, v) -> Tuple[np.ndarray, np.ndarray]:
    u = np.ascontiguousarray(u, dtype=np.int64)
    v = np.ascontiguousarray(v, dtype=np.int64)
    if len(u) != len(v):
        raise StreamError("u/v edge columns differ in length")
    if len(u) and (u == v).any():
        raise StreamError("scenario input contains self-loops")
    return u, v


def deletion_heavy_updates(
    u,
    v,
    churn_rounds: int = 2,
    churn_fraction: float = 0.5,
    seed: int = 0,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A deletion-heavy turnstile stream ending at the input edge set.

    Each selected edge (*churn_fraction* of them, chosen by *seed*) is
    inserted and deleted *churn_rounds* times before its final
    insertion — ``churn_rounds`` of its ``2·churn_rounds + 1`` updates
    are deletions — while the final graph stays exactly the input
    edges (which must be duplicate-free).  Returns ``(u, v, delta)``
    columns ready
    for :func:`write_binary_updates` or
    :class:`~repro.streams.stream.EdgeStream`.
    """
    u, v = _as_edge_columns(u, v)
    if churn_rounds < 0:
        raise StreamError(f"churn_rounds must be >= 0, got {churn_rounds}")
    if not 0.0 <= churn_fraction <= 1.0:
        raise StreamError(f"churn_fraction must be in [0, 1], got {churn_fraction}")
    if not len(u):
        return u, v, np.empty(0, dtype=np.int8)
    rng = np.random.default_rng(seed)
    churned = rng.random(len(u)) < churn_fraction
    events_per_edge = np.where(churned, 2 * churn_rounds + 1, 1)
    repeats = events_per_edge.astype(np.int64)
    out_u = np.repeat(u, repeats)
    out_v = np.repeat(v, repeats)
    delta = np.ones(len(out_u), dtype=np.int8)
    # Within each churned edge's contiguous run the signs alternate
    # + - + - ... +, which keeps multiplicity in {0, 1} at every prefix.
    offsets = np.concatenate(([0], np.cumsum(repeats)[:-1]))
    position = np.arange(len(out_u), dtype=np.int64) - np.repeat(offsets, repeats)
    delta[position % 2 == 1] = -1
    return out_u, out_v, delta


def sliding_window_updates(
    u, v, window: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A sliding-window turnstile stream over the input arrival order.

    Insertions follow the input arrival order; deletions are emitted
    in window-sized blocks (each block retires the previous window
    before the next one streams in), so at most *window* edges are
    ever live and the final graph is the last ``min(window, m)``
    edges.  Models expiring-data workloads (windowed monitoring) as a
    valid turnstile stream.  Input edges must be duplicate-free
    (conversion dedupes by default).
    """
    u, v = _as_edge_columns(u, v)
    if window < 1:
        raise StreamError(f"window must be >= 1, got {window}")
    m = len(u)
    expiring = max(0, m - window)
    total = m + expiring
    out_u = np.empty(total, dtype=np.int64)
    out_v = np.empty(total, dtype=np.int64)
    delta = np.empty(total, dtype=np.int8)
    # Every prefix stays valid: a block first deletes exactly the
    # edges the previous block inserted (all live), then inserts its
    # own, so multiplicities never leave {0, 1}.
    write = 0
    for start in range(0, m, window):
        stop = min(start + window, m)
        count = stop - start
        if start:
            expired = slice(start - window, stop - window)
            exp_count = count
            out_u[write : write + exp_count] = u[expired]
            out_v[write : write + exp_count] = v[expired]
            delta[write : write + exp_count] = -1
            write += exp_count
        out_u[write : write + count] = u[start:stop]
        out_v[write : write + count] = v[start:stop]
        delta[write : write + count] = 1
        write += count
    return out_u[:write], out_v[:write], delta[:write]


def degree_adversarial_order(
    u, v, n: Optional[int] = None, hide_high_degree_last: bool = True
) -> Tuple[np.ndarray, np.ndarray]:
    """Reorder edges so high-degree incidences arrive last (or first).

    The array-scale counterpart of
    :func:`repro.streams.generators.adversarial_order_stream`: edges
    are stably sorted by the larger endpoint degree, stressing
    reservoir samplers and the f3 arrival-index emulation on real
    graphs without materializing a :class:`~repro.graph.graph.Graph`.
    """
    u, v = _as_edge_columns(u, v)
    if n is None:
        n = 1 if not len(u) else int(max(u.max(), v.max())) + 1
    degrees = np.bincount(
        np.concatenate((u, v)), minlength=n
    )
    weight = np.maximum(degrees[u], degrees[v])
    order = np.argsort(weight, kind="stable")
    if not hide_high_degree_last:
        order = order[::-1]
    return u[order], v[order]


# -- hash-partitioned shards ---------------------------------------------

# Routing mix constants (64-bit golden-ratio / murmur3 finalizer odd
# multipliers).  The mix must be a pure function of the *normalized*
# edge so insertions and deletions of the same edge always land on the
# same shard — which is what keeps every shard a prefix-valid turnstile
# stream (per-edge multiplicities stay in {0, 1} on every shard prefix).
_SHARD_MIX_LO = np.uint64(0x9E3779B97F4A7C15)
_SHARD_MIX_HI = np.uint64(0xC2B2AE3D27D4EB4F)
_SHARD_MIX_FINAL = np.uint64(0xFF51AFD7ED558CCD)
_SHARD_MIX_SHIFT = np.uint64(33)

_SHARD_NAME = re.compile(r"\.shard-(\d+)-of-(\d+)\.reb$")


def shard_route(u, v, shards: int) -> np.ndarray:
    """Deterministic shard index of each update, from its normalized edge.

    Vectorized 64-bit multiply-mix over ``(min(u,v), max(u,v))`` —
    exact for any vertex id a stream can carry (the whole ``int64``
    range, not just 2^32), independent of update order and sign, and
    identical across platforms and runs.  Routing by edge (not by
    position) is load-balanced by the hash and, crucially, keeps all
    updates of one edge on one shard in their original order.
    """
    if shards < 1:
        raise StreamError(f"shard count must be >= 1, got {shards}")
    u = np.ascontiguousarray(u, dtype=np.int64)
    v = np.ascontiguousarray(v, dtype=np.int64)
    lo = np.minimum(u, v).astype(np.uint64)
    hi = np.maximum(u, v).astype(np.uint64)
    with np.errstate(over="ignore"):
        mix = lo * _SHARD_MIX_LO + hi * _SHARD_MIX_HI
        mix ^= mix >> _SHARD_MIX_SHIFT
        mix *= _SHARD_MIX_FINAL
        mix ^= mix >> _SHARD_MIX_SHIFT
    return (mix % np.uint64(shards)).astype(np.int64)


def shard_path(path: Union[str, "os.PathLike[str]"], index: int, shards: int) -> str:
    """The canonical file name of shard *index*: ``base.shard-K-of-N.reb``.

    The shard count is part of the name so a stale partition from an
    earlier ``--shards`` value can never be silently mixed into a
    newer one — :func:`open_stream_shards` requires the exact complete
    set for one N.
    """
    if shards < 1:
        raise StreamError(f"shard count must be >= 1, got {shards}")
    if not 0 <= index < shards:
        raise StreamError(f"shard index {index} outside [0, {shards})")
    root, extension = os.path.splitext(os.fspath(path))
    if extension.lower() != ".reb":
        root = os.fspath(path)
    return f"{root}.shard-{index}-of-{shards}.reb"


def _raw_columns(stream) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``(u, v, delta)`` columns backing any supported stream."""
    if hasattr(stream, "columns"):
        return stream.columns()
    return stream._u, stream._v, stream._delta


def write_stream_shards(
    source,
    shards: int,
    paths: Optional[Sequence[str]] = None,
    chunk_size: int = 1 << 20,
) -> List[str]:
    """Partition a converted stream into *shards* ``.reb`` shard files.

    *source* is a stream path (opened via :func:`open_disk_stream`) or
    any stream exposing raw columns.  Updates are routed by
    :func:`shard_route` in bounded chunks — memory stays
    O(*chunk_size*) however long the stream is — and each shard file
    is a complete, self-describing ``.reb``: same ``n`` and deletions
    flag as the source, its own length and net edge count (the
    per-shard sums reassemble the source's exactly, which
    :func:`open_stream_shards` re-verifies).  Publication inherits the
    writer's crash safety: every shard appears atomically or not at
    all.  Returns the shard paths in index order.
    """
    if shards < 1:
        raise StreamError(f"shard count must be >= 1, got {shards}")
    if isinstance(source, (str, os.PathLike)):
        source = open_disk_stream(source)
    if paths is None:
        base = getattr(source, "path", None)
        if base is None:
            raise StreamError(
                "source stream has no path; pass explicit shard paths"
            )
        paths = [shard_path(base, index, shards) for index in range(shards)]
    else:
        paths = [os.fspath(path) for path in paths]
        if len(paths) != shards:
            raise StreamError(f"{len(paths)} paths for {shards} shards")
    u, v, delta = _raw_columns(source)
    length = len(u)
    writers = [
        BinaryUpdateWriter(path, source.n, allow_deletions=source.allows_deletions)
        for path in paths
    ]
    try:
        for start in range(0, length, chunk_size):
            stop = min(start + chunk_size, length)
            chunk_u = np.asarray(u[start:stop])
            chunk_v = np.asarray(v[start:stop])
            chunk_delta = np.asarray(delta[start:stop])
            route = shard_route(chunk_u, chunk_v, shards)
            for index, writer in enumerate(writers):
                hit = route == index
                if hit.any():
                    writer.append(chunk_u[hit], chunk_v[hit], chunk_delta[hit])
    except BaseException:
        for writer in writers:
            writer.abort()
        raise
    for writer in writers:
        writer.close()
    return list(paths)


def open_stream_shards(
    path: Union[str, "os.PathLike[str]"],
    shards: Optional[int] = None,
    cache="none",
) -> List[DiskEdgeStream]:
    """Open the shard set written for *path*, cross-checking the headers.

    With *shards* the exact partition ``base.shard-*-of-shards.reb`` is
    opened; without it the count is discovered from the files next to
    *path*.  Opening fails loudly on an incomplete index set, on
    mixed shard counts, or on shards whose headers disagree on ``n``
    (shards of different streams can otherwise silently merge into
    garbage — the engine's config-echo checks would catch the seeds,
    not the data).  Returns the shard streams in index order.
    """
    base = os.fspath(path)
    if shards is None:
        directory = os.path.dirname(base) or "."
        prefix = os.path.basename(shard_path(base, 0, 1)).rsplit("0-of-1.reb", 1)[0]
        counts = set()
        for name in os.listdir(directory):
            match = _SHARD_NAME.search(name)
            if match and name.startswith(prefix):
                counts.add(int(match.group(2)))
        if not counts:
            raise StreamError(f"no shard files found next to {base!r}")
        if len(counts) > 1:
            raise StreamError(
                f"mixed shard counts {sorted(counts)} next to {base!r}; "
                "pass shards= explicitly or remove the stale partition"
            )
        shards = counts.pop()
    missing = [
        shard_path(base, index, shards)
        for index in range(shards)
        if not os.path.exists(shard_path(base, index, shards))
    ]
    if missing:
        raise StreamError(
            f"shard set for {base!r} is incomplete: missing {missing}"
        )
    streams = [
        DiskEdgeStream(shard_path(base, index, shards), cache=cache)
        for index in range(shards)
    ]
    n = streams[0].n
    for index, stream in enumerate(streams):
        if stream.n != n:
            raise StreamError(
                f"shard {index} of {base!r} has n={stream.n} but shard 0 has "
                f"n={n}; the files are not shards of one stream"
            )
    return streams


class ShardView(CachedBatchStream):
    """One shard of a stream as a filtered, pass-counting view.

    The in-memory counterpart of a materialized shard file: rows whose
    :func:`shard_route` equals *index* are located once (a chunked scan
    storing row positions — O(length/shards) ``int64`` per view, so
    prefer ``repro convert --shards`` for graphs that must stay out of
    core) and decoded on demand from the base stream's columns.  A view
    over shard ``k`` of ``N`` is bit-identical, update for update, to
    the file :func:`write_stream_shards` writes for ``(k, N)``.
    """

    def __init__(self, base, index: int, shards: int, cache="none") -> None:
        if shards < 1:
            raise StreamError(f"shard count must be >= 1, got {shards}")
        if not 0 <= index < shards:
            raise StreamError(f"shard index {index} outside [0, {shards})")
        self._base = base
        u, v, delta = _raw_columns(base)
        rows: List[np.ndarray] = []
        net = 0
        chunk = 1 << 20
        for start in range(0, len(u), chunk):
            stop = min(start + chunk, len(u))
            route = shard_route(u[start:stop], v[start:stop], shards)
            hit = np.flatnonzero(route == index)
            if len(hit):
                rows.append((hit + start).astype(np.int64))
                net += int(np.asarray(delta[start:stop])[hit].sum())
        self._rows = (
            np.concatenate(rows) if rows else np.empty(0, dtype=np.int64)
        )
        super().__init__(base.n, len(self._rows), net, base.allows_deletions, cache)
        # Shards route by edge, so checking one shard's updates is exact.
        self._checked = base._checked

    def _offset(self, start: int, stop: int) -> np.ndarray:
        # Local update i is the base stream's update rows[start + i].
        return self._rows[start:stop] - np.arange(stop - start)

    def _decode_batch(self, start: int, stop: int) -> EdgeBatch:
        rows = self._rows[start:stop]
        u, v, delta = _raw_columns(self._base)
        return EdgeBatch(
            np.asarray(u)[rows],
            np.asarray(v)[rows],
            np.asarray(delta)[rows],
        )


def stream_shard_views(stream, shards: int, cache="none") -> List["ShardView"]:
    """All *shards* views of one stream, in index order."""
    return [ShardView(stream, index, shards, cache=cache) for index in range(shards)]
