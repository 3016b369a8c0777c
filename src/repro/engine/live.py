"""The checkpointable live estimation engine.

Everything before this module is *pass-based*: a stream exists in
full, an engine iterates it, results come out.  Production traffic is
the opposite shape — an unbounded feed of updates that must be
ingested as it arrives, queried mid-stream, and survive process
restarts.  :class:`LiveEngine` is that layer:

* :meth:`LiveEngine.feed` applies a batch of updates incrementally to
  every registered estimator's open pass state (and journals it);
* :meth:`LiveEngine.estimate` answers **at any point** without
  consuming the live state: each estimator is *forked* — built from
  the frozen parts of a template estimator (or rebuilt from its spec),
  restored from its ``state_dict`` — and the fork finishes its
  remaining passes over the journaled prefix while the live estimators
  keep streaming;
* :meth:`LiveEngine.snapshot` serializes the full engine state
  (journal columns, estimator specs, sketch internals, reservoir
  banks, pass-state accumulators, rng positions) to a versioned
  on-disk checkpoint, and :meth:`LiveEngine.restore` rebuilds an
  engine that is **bit-identical** to one that never stopped —
  asserted across every estimator family in
  ``tests/test_live_checkpoint.py``.

Multi-pass estimators on an unbounded feed
------------------------------------------
A 3-pass counter cannot finish on data it has not seen twice more, so
the live engine keeps pass 0 open forever: the feed *is* pass 0.  A
query at time t forks the pass-0 state (cheap: the serialized sketch
state, not the data), closes the fork's pass, and replays the
journaled prefix for the remaining passes — exactly the passes the
one-shot engine would have run on the same prefix, so a fed-live
estimate equals the one-shot estimate on the prefix bit for bit (the
differential fuzz suite pins this).  Single-pass estimators (TRIEST,
Doulion, exact) need no replay beyond closing the fork's pass.

The journal is the price of multi-pass semantics on a live feed: the
engine retains the fed updates as compact numpy columns (O(m) ints,
the same asymptotics as the exact baseline).  Checkpoints embed the
journal, so a restored engine can still answer multi-pass queries.

Execution backends
------------------
``backend="serial"`` runs the estimators in-process.
``backend="process"`` shards the registered specs across a persistent
worker pool (the same worker protocol as :mod:`repro.engine.parallel`,
extended with ``state_dict`` / ``load_state`` commands): ``feed``
publishes each batch through the shared-memory batch ring,
``snapshot`` gathers every shard's states driver-side, and a
checkpoint taken under one backend restores under the other — the
state dicts are backend-agnostic.  The checkpoint commands ride the
same command queues as the batch references, so a snapshot always
captures a consistent point of the feed.

Registration goes through picklable
:class:`~repro.engine.parallel.EstimatorSpec` recipes only (a snapshot
must be able to *rebuild* every estimator before loading its state).
Stream-dependent constructor parameters must be pinned — pass an
explicit ``trials=`` budget to the FGP factories; a spec whose
structure depends on the evolving stream metadata fails the restore
replay with a :class:`~repro.errors.CheckpointError`.

Checkpoint format
-----------------
``REPROLIVE1\\n`` magic, a little-endian u64 format version
(currently 2), a u64 section count, then per section: a 1-byte name
length, the ASCII section name, a u64 payload length, a u32 CRC32 of
the payload, and the pickled payload itself.  Full checkpoints carry
three sections — ``engine`` (config), ``journal`` (the fed columns),
``estimators`` (specs + state dicts).  The per-section CRCs turn any
torn write, truncation, or bit-flip into a typed
:class:`~repro.errors.CheckpointError` naming the damaged section
(swept exhaustively in ``tests/test_checkpoint_corruption.py``);
:func:`checkpoint_manifest` exposes the byte layout those drills
target.  Version-1 checkpoints (magic + one bare pickled document)
are still read.  Pickle is what lets estimator specs (factory
references, pattern objects) and rng states round-trip exactly; load
checkpoints only from sources you trust, as with any pickle.  Writes
are atomic and durable (same-directory tmp file + fsync + rename +
directory fsync) and retried on transient I/O errors, so a crash or
injected disk fault mid-snapshot never corrupts the previous
checkpoint.

Delta checkpoints
-----------------
``snapshot(path, mode="delta")`` skips the full state capture and
writes only the journal tail since the last snapshot to
``<path>.delta.NNNNN`` — O(updates-since-base) bytes instead of
O(journal + sketches).  Each delta names its base by CRC and its
exact journal interval; :meth:`LiveEngine.restore` replays the
longest valid consecutive chain through :meth:`LiveEngine.feed`
(element order is all that matters for bit-equality, so the replayed
engine is bit-identical to one that never stopped) and **falls back
past a torn or mismatched tip** with a logged warning instead of
failing — the next delta overwrites the bad file.  After
``max_deltas`` tails the engine rotates: a fresh full base replaces
the chain.

Fault model
-----------
Worker loss (SIGKILL, OOM, a wedge past the reply timeout) is part of
the engine's contract, not an abort: with the default
``on_worker_loss="degrade"`` the pool quarantines the lost shard,
respawns a replacement up to ``respawn_budget`` times (replaying the
journaled prefix restores it bit-exactly), and on exhaustion the
engine keeps serving the median of the surviving copies with
:attr:`LiveEngine.degraded` raised.  Drills are driven by a seeded
:class:`~repro.faults.FaultPlan` passed as ``fault_plan=``.
"""

from __future__ import annotations

import io
import logging
import os
import pickle
import statistics
import struct
import zlib
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.core import (
    DEFAULT_BATCH_SIZE,
    EngineBackend,
    _drive_local,
    check_engine_config,
)
from repro.engine.parallel import (
    DEFAULT_REPLY_TIMEOUT,
    EstimatorSpec,
    StreamHandle,
    spec_pool,
)
from repro.errors import CheckpointError, EngineError, EstimationError, StreamError
from repro.faults.plan import FaultPlan, fire as fire_fault
from repro.streams.batch import EdgeBatch
from repro.streams.stream import ColumnEdgeStream, LiveEdges, Update, check_updates
from repro.utils.retry import RetryPolicy, retry_call

__all__ = [
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
    "DEFAULT_MAX_DELTAS",
    "LiveEngine",
    "UpdateJournal",
    "as_update_columns",
    "checkpoint_manifest",
    "median_estimate",
]

logger = logging.getLogger("repro.engine.live")

#: Magic prefix of the on-disk live-engine checkpoint format.
CHECKPOINT_MAGIC = b"REPROLIVE1\n"

#: Current checkpoint container version (bumped on layout changes).
#: Version 1 (magic + one bare pickled document) is still readable.
CHECKPOINT_VERSION = 2

#: Delta snapshots per full base before the chain rotates.
DEFAULT_MAX_DELTAS = 16

#: Retry schedule for transient checkpoint-write failures (NFS hiccup,
#: injected EIO); non-transient errors surface after the last attempt.
DISK_WRITE_RETRY = RetryPolicy(attempts=3, base_delay=0.02, max_delay=0.5)

_U64 = struct.Struct("<Q")
_U32 = struct.Struct("<I")

#: ``format`` marker of the engine section / legacy document.
_FORMAT_FULL = "repro-live-checkpoint"
#: ``format`` marker of a delta file's header section.
_FORMAT_DELTA = "repro-live-delta"


def as_update_columns(updates) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalize any accepted feed payload to ``(u, v, delta)`` columns.

    Accepted: an :class:`~repro.streams.batch.EdgeBatch`, a
    ``(u, v)`` / ``(u, v, delta)`` tuple of arrays, or an iterable of
    :class:`~repro.streams.stream.Update` objects / ``(u, v[, delta])``
    tuples.
    """
    if isinstance(updates, EdgeBatch):
        return updates.u, updates.v, updates.delta
    if (
        isinstance(updates, tuple)
        and len(updates) in (2, 3)
        and all(isinstance(value, (int, np.integer)) for value in updates)
    ):
        updates = [updates]
    if (
        isinstance(updates, tuple)
        and len(updates) in (2, 3)
        and all(isinstance(col, np.ndarray) for col in updates)
    ):
        u, v = updates[0], updates[1]
        delta = updates[2] if len(updates) == 3 else np.ones(len(u), dtype=np.int64)
        return (
            np.ascontiguousarray(u, dtype=np.int64),
            np.ascontiguousarray(v, dtype=np.int64),
            np.ascontiguousarray(delta, dtype=np.int64),
        )
    us: List[int] = []
    vs: List[int] = []
    deltas: List[int] = []
    for element in updates:
        if isinstance(element, Update):
            us.append(element.u)
            vs.append(element.v)
            deltas.append(element.delta)
            continue
        if len(element) == 2:
            u, v = element
            delta = 1
        elif len(element) >= 3:
            u, v, delta = element[0], element[1], element[2]
        else:
            raise StreamError(f"cannot interpret update element {element!r}")
        us.append(int(u))
        vs.append(int(v))
        deltas.append(int(delta))
    return (
        np.array(us, dtype=np.int64),
        np.array(vs, dtype=np.int64),
        np.array(deltas, dtype=np.int64),
    )


# -- checkpoint container codec ------------------------------------------


def _encode_sections(sections: Sequence[Tuple[str, Any]]) -> bytes:
    """Serialize named sections into the versioned, CRC-guarded container."""
    out = io.BytesIO()
    out.write(CHECKPOINT_MAGIC)
    out.write(_U64.pack(CHECKPOINT_VERSION))
    out.write(_U64.pack(len(sections)))
    for name, payload_obj in sections:
        payload = pickle.dumps(payload_obj, protocol=pickle.HIGHEST_PROTOCOL)
        encoded = name.encode("ascii")
        if not 0 < len(encoded) < 256:
            raise CheckpointError(f"section name {name!r} must be 1..255 bytes")
        out.write(struct.pack("<B", len(encoded)))
        out.write(encoded)
        out.write(_U64.pack(len(payload)))
        out.write(_U32.pack(zlib.crc32(payload)))
        out.write(payload)
    return out.getvalue()


def _take(buffer: io.BytesIO, nbytes: int, path: str, what: str) -> bytes:
    data = buffer.read(nbytes)
    if len(data) != nbytes:
        raise CheckpointError(
            f"{path!r}: truncated checkpoint while reading {what} "
            f"(wanted {nbytes} bytes, got {len(data)})"
        )
    return data


def _unpickle(data: bytes, path: str, what: str) -> Any:
    """Deserialize one payload, converting every failure mode to a typed
    :class:`~repro.errors.CheckpointError` — a corrupted or truncated
    pickle must never escape as a raw ``EOFError``/``UnpicklingError``.
    """
    try:
        return pickle.loads(data)
    except Exception as error:
        raise CheckpointError(
            f"{path!r}: checkpoint {what} failed to deserialize "
            f"({type(error).__name__}: {error})"
        ) from error


def _walk_sections(blob: bytes, path: str) -> Tuple[int, List[Dict[str, Any]]]:
    """Walk a checkpoint's section headers: ``(version, [section, ...])``.

    Each section is ``{"name", "offset", "payload_offset",
    "payload_length", "crc"}``, ``offset`` being where its header
    record starts.  Verifies the magic, the container version, the
    section count and that every header and payload lies inside the
    file; nothing is deserialized.  A legacy version-1 file (a bare
    pickled document after the magic) is one ``"document"`` section
    with no CRC.
    """
    buffer = io.BytesIO(blob)
    magic = buffer.read(len(CHECKPOINT_MAGIC))
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path!r} is not a live-engine checkpoint (bad magic)")
    if buffer.read(1) == b"\x80":  # a pickle opcode: the un-sectioned v1 layout
        start = len(CHECKPOINT_MAGIC)
        return 1, [{"name": "document", "offset": start, "payload_offset": start,
                    "payload_length": len(blob) - start, "crc": None}]
    buffer.seek(len(CHECKPOINT_MAGIC))
    version = _U64.unpack(_take(buffer, 8, path, "the container version"))[0]
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path!r}: checkpoint version {version!r} is not supported "
            f"(this build reads versions 1 and {CHECKPOINT_VERSION})"
        )
    count = _U64.unpack(_take(buffer, 8, path, "the section count"))[0]
    remaining = len(blob) - buffer.tell()
    if count > remaining:  # each section needs >= 14 header bytes
        raise CheckpointError(
            f"{path!r}: section count {count} exceeds what {remaining} "
            "remaining bytes could hold (corrupt header)"
        )
    sections: List[Dict[str, Any]] = []
    for index in range(count):
        offset = buffer.tell()
        name_len = _take(buffer, 1, path, f"section #{index}'s name length")[0]
        raw_name = _take(buffer, name_len, path, f"section #{index}'s name")
        try:
            name = raw_name.decode("ascii")
        except UnicodeDecodeError as error:
            raise CheckpointError(
                f"{path!r}: section #{index} has a non-ASCII name "
                f"(corrupt header)"
            ) from error
        payload_len = _U64.unpack(
            _take(buffer, 8, path, f"section {name!r}'s payload length")
        )[0]
        crc = _U32.unpack(_take(buffer, 4, path, f"section {name!r}'s CRC"))[0]
        payload_offset = buffer.tell()
        if payload_len > len(blob) - payload_offset:
            raise CheckpointError(
                f"{path!r}: truncated checkpoint while reading section "
                f"{name!r}'s payload (wanted {payload_len} bytes, got "
                f"{len(blob) - payload_offset})"
            )
        buffer.seek(payload_offset + payload_len)
        sections.append({"name": name, "offset": offset,
                         "payload_offset": payload_offset,
                         "payload_length": payload_len, "crc": crc})
    return version, sections


def _parse_container(blob: bytes, path: str) -> Tuple[int, Dict[str, Any]]:
    """Parse a checkpoint file's bytes into ``(version, {name: payload})``.

    On top of :func:`_walk_sections`' structural checks, verifies every
    section CRC and that no trailing bytes follow the last section; any
    violation is a :class:`~repro.errors.CheckpointError` naming what
    broke.  Legacy version-1 files come back as ``(1, {"document":
    ...})``.
    """
    version, layout = _walk_sections(blob, path)
    sections: Dict[str, Any] = {}
    end = len(CHECKPOINT_MAGIC) + 2 * _U64.size  # past the v2 header
    for section in layout:
        name = section["name"]
        start = section["payload_offset"]
        end = start + section["payload_length"]
        payload = blob[start:end]
        actual_crc = zlib.crc32(payload)
        if section["crc"] is not None and actual_crc != section["crc"]:
            raise CheckpointError(
                f"{path!r}: checkpoint section {name!r} failed its CRC32 "
                f"check (stored 0x{section['crc']:08x}, computed "
                f"0x{actual_crc:08x}); the file is corrupt"
            )
        what = "document" if version == 1 else f"section {name!r}"
        sections[name] = _unpickle(payload, path, what)
    if end != len(blob):
        raise CheckpointError(
            f"{path!r}: trailing bytes after the last checkpoint section "
            "(corrupt or doctored file)"
        )
    return version, sections


def _read_container(path: str) -> Tuple[int, Dict[str, Any], int]:
    """Read + parse a checkpoint; returns ``(version, sections, file CRC)``."""
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError as error:
        raise CheckpointError(f"cannot read checkpoint {path!r}: {error}") from error
    version, sections = _parse_container(blob, path)
    return version, sections, zlib.crc32(blob)


def checkpoint_manifest(path) -> Dict[str, Any]:
    """The byte layout of a checkpoint file, without deserializing it.

    Returns ``{"path", "version", "size", "sections": [{"name",
    "offset", "payload_offset", "payload_length", "crc"}, ...]}``
    (see :func:`_walk_sections`).  The corruption-matrix tests use this
    to aim truncations and bit-flips at every structural boundary;
    operators can use it to audit what a checkpoint contains without
    unpickling anything.
    """
    path = os.fspath(path)
    with open(path, "rb") as handle:
        blob = handle.read()
    version, sections = _walk_sections(blob, path)
    return {"path": path, "version": version, "size": len(blob), "sections": sections}


def _atomic_write(path: str, blob: bytes, fault_plan: Optional[FaultPlan]) -> None:
    """Durably replace *path* with *blob*; transient failures retry.

    Same-directory temp file + flush + fsync + atomic rename + parent
    directory fsync: a crash at any instant leaves either the old file
    or the new one, never a tear.  The ``disk.write`` fault site fires
    once per attempt, so an injected transient EIO exercises exactly
    this retry loop.
    """

    def attempt() -> None:
        fire_fault("disk.write", plan=fault_plan)
        tmp = path + ".tmp"
        try:
            with open(tmp, "wb") as handle:
                handle.write(blob)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.remove(tmp)
            raise
        directory = os.path.dirname(path) or "."
        try:
            dir_fd = os.open(directory, os.O_RDONLY)
        except OSError:  # pragma: no cover - platforms without dir fds
            return
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)

    retry_call(
        attempt,
        policy=DISK_WRITE_RETRY,
        retry_on=(OSError,),
        seed=zlib.crc32(path.encode()),
        label=f"checkpoint write {path}",
    )


def _delta_path(path: str, index: int) -> str:
    return f"{path}.delta.{index:05d}"


def _remove_deltas(path: str, start_index: int = 0) -> List[str]:
    """Delete ``<path>.delta.*`` files with index >= *start_index*.

    Returns the removed paths.  Scans consecutively from
    *start_index* — the same order restore scans — so anything a
    restore could see is covered.
    """
    removed: List[str] = []
    index = start_index
    while True:
        candidate = _delta_path(path, index)
        if not os.path.exists(candidate):
            return removed
        os.remove(candidate)
        removed.append(candidate)
        index += 1


def median_estimate(results) -> float:
    """The median over the ``.estimate`` fields of an estimate dict.

    The aggregation every consumer of :meth:`LiveEngine.estimate`
    wants (``repro live`` reports it, the service layer serves it) —
    with the empty case handled *once*: an empty result dict (every
    copy lost to degradation) raises a typed
    :class:`~repro.errors.EstimationError` instead of the bare
    ``statistics.StatisticsError`` that ``statistics.median`` would
    throw at zero data points.
    """
    values = [result.estimate for result in results.values()]
    if not values:
        raise EstimationError(
            "no estimates to aggregate: every estimator copy has been "
            "lost (the engine is fully degraded); restore a checkpoint "
            "taken before the losses or open a fresh engine"
        )
    return statistics.median(values)


class UpdateJournal:
    """The validated, append-only record of everything fed so far.

    Its metadata (``n`` / ``length`` / ``net_edge_count`` /
    ``allows_deletions``) tracks the feed; the live estimators are
    built against a :class:`~repro.engine.parallel.StreamHandle` of it,
    and :meth:`freeze_stream` materializes the journaled prefix as a
    replayable :class:`~repro.streams.stream.ColumnEdgeStream` for the
    estimate/restore forks.

    Validation is incremental and atomic per append: each chunk goes
    through :func:`~repro.streams.stream.check_updates` (the stream
    model every stream is held to) against the journal's live edges
    (:class:`~repro.streams.stream.LiveEdges`), and a rejected chunk
    leaves the journal untouched.
    """

    def __init__(self, n: int, allow_deletions: bool = False) -> None:
        if n < 1:
            raise StreamError(f"journal needs n >= 1, got {n}")
        self._n = int(n)
        self._allow_deletions = bool(allow_deletions)
        self._chunks: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._length = 0
        self._net = 0
        self._live = LiveEdges(self._n)
        self._columns: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    @property
    def n(self) -> int:
        return self._n

    @property
    def length(self) -> int:
        return self._length

    @property
    def net_edge_count(self) -> int:
        return self._net

    @property
    def allows_deletions(self) -> bool:
        return self._allow_deletions

    # -- appending --------------------------------------------------------

    def append(self, u: np.ndarray, v: np.ndarray, delta: np.ndarray) -> EdgeBatch:
        """Validate and record one fed chunk; returns it as an EdgeBatch.

        All-or-nothing: any invalid element rejects the whole chunk
        with a :class:`~repro.errors.StreamError` naming the first
        offending global update index, and no state changes.
        """
        u = np.ascontiguousarray(u, dtype=np.int64)
        v = np.ascontiguousarray(v, dtype=np.int64)
        delta = np.ascontiguousarray(delta, dtype=np.int64)
        check_updates(
            self._n, u, v, delta, self._allow_deletions, live=self._live,
            offset=self._length,
        )
        if len(u) == 0:
            return EdgeBatch(u, v, delta)
        self._chunks.append((u, v, delta))
        self._length += len(u)
        self._net += int(delta.sum())
        self._columns = None
        return EdgeBatch(u, v, delta)

    def columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The whole journal as contiguous ``(u, v, delta)`` columns."""
        if self._columns is None:
            if not self._chunks:
                empty = np.empty(0, dtype=np.int64)
                self._columns = (empty, empty.copy(), empty.copy())
            elif len(self._chunks) == 1:
                self._columns = self._chunks[0]
            else:
                self._columns = tuple(
                    np.concatenate([chunk[i] for chunk in self._chunks])
                    for i in range(3)
                )
        return self._columns

    def freeze_stream(self, cache=None) -> ColumnEdgeStream:
        """The journaled prefix as a replayable multi-pass stream.

        Shares the column buffers (appends never mutate them, they only
        add chunks), so freezing is O(1) after the first concatenation.
        Validation is skipped — the journal already enforced it.
        """
        u, v, delta = self.columns()
        return ColumnEdgeStream(
            self._n,
            u,
            v,
            delta,
            allow_deletions=self._allow_deletions,
            net_edge_count=self._net,
            validate=False,
            cache=cache,
        )


class LiveEngine:
    """Open-ended, queryable, checkpointable estimation over a live feed.

    Parameters
    ----------
    n:
        Vertex universe of the feed (fixed for the engine's lifetime).
    allow_deletions:
        Whether the feed is turnstile (deletions allowed).  Estimator
        specs incompatible with the feed kind fail at start, exactly as
        they would against a materialized stream.
    batch_size:
        Dispatch granularity: a fed chunk is re-split into batches of
        this size before reaching the estimators (results are invariant
        to it, as everywhere in the engine).
    backend:
        ``"serial"`` (default) or ``"process"`` (persistent worker
        pool; see module docstring).
    workers, start_method:
        Process-backend pool configuration, as in
        :class:`~repro.engine.core.StreamEngine`.
    on_worker_loss:
        Process backend only.  ``"degrade"`` (default): a silently
        dead or wedged worker is respawned and replayed from the
        journal (up to *respawn_budget* times); past the budget its
        shard is quarantined and the engine keeps serving the
        surviving estimators with :attr:`degraded` raised.
        ``"abort"``: the loss raises
        :class:`~repro.errors.WorkerLossError` and poisons the engine,
        the historical behavior.
    respawn_budget:
        How many worker respawns the engine will attempt over its
        lifetime before quarantining further losses.
    fault_plan:
        A :class:`~repro.faults.FaultPlan` threading the drill
        schedule through the workers and the checkpoint writes.
        ``None`` (default) disables injection.

    Notes
    -----
    Estimators are registered as picklable specs
    (:meth:`register_spec`) and built lazily at the first feed, so a
    snapshot can always rebuild them.  ``estimate()`` never perturbs
    the live state; ``snapshot()``/``restore()`` round-trip it
    bit-exactly.
    """

    def __init__(
        self,
        n: int,
        allow_deletions: bool = False,
        batch_size: int = DEFAULT_BATCH_SIZE,
        backend: str = EngineBackend.SERIAL,
        workers: Optional[int] = None,
        start_method: Optional[str] = None,
        reply_timeout: float = DEFAULT_REPLY_TIMEOUT,
        on_worker_loss: str = "degrade",
        respawn_budget: int = 2,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        batch_size = check_engine_config(
            batch_size, backend, on_worker_loss=on_worker_loss
        )
        if respawn_budget < 0:
            raise EngineError(
                f"respawn_budget must be >= 0, got {respawn_budget}"
            )
        self._journal = UpdateJournal(n, allow_deletions)
        self._batch_size = batch_size
        self._backend = backend
        self._workers = workers
        self._start_method = start_method
        self._reply_timeout = reply_timeout
        self._on_worker_loss = on_worker_loss
        self._respawns_left = int(respawn_budget)
        self._fault_plan = fault_plan
        self._specs: List[EstimatorSpec] = []
        self._spec_names: Dict[str, EstimatorSpec] = {}
        self._estimators: List[Any] = []
        #: Process backend: driver-side estimators that queries fork from.
        self._fork_templates: Dict[str, Any] = {}
        self._pool: Optional[Any] = None
        self._active_workers: List[int] = []
        self._started = False
        self._feeding = False
        self._closed = False
        #: Estimator names whose shard died past the respawn budget.
        self._lost_names: set = set()
        #: Journal prefix [0, _synced_elements) that every live worker
        #: has seen (or is guaranteed to receive from an in-flight
        #: publish) — the exact replay target for a respawned worker.
        self._synced_elements = 0
        #: True while _start() is mid-handshake: losses then are
        #: quarantined, not respawned (there is no coherent state to
        #: replay into a replacement yet).
        self._starting = False
        #: Per-target-path delta-chain bookkeeping for snapshot():
        #: {"base_crc", "elements", "next_index"}.
        self._delta_chains: Dict[str, Dict[str, Any]] = {}
        #: Set by restore(): what the engine came back from
        #: ({"path", "deltas_applied", "fell_back", "dropped"}).
        self.restore_info: Optional[Dict[str, Any]] = None

    # -- metadata ---------------------------------------------------------

    @property
    def n(self) -> int:
        return self._journal.n

    @property
    def allows_deletions(self) -> bool:
        return self._journal.allows_deletions

    @property
    def elements(self) -> int:
        """Updates fed (and journaled) so far."""
        return self._journal.length

    @property
    def net_edge_count(self) -> int:
        """Edges currently present in the fed graph."""
        return self._journal.net_edge_count

    @property
    def backend(self) -> str:
        return self._backend

    @property
    def started(self) -> bool:
        """Whether the first feed has opened the live pass."""
        return self._started

    @property
    def journal(self) -> UpdateJournal:
        return self._journal

    @property
    def estimator_names(self) -> List[str]:
        return [spec.name for spec in self._specs]

    @property
    def degraded(self) -> bool:
        """Whether any estimator shard was lost past the respawn budget."""
        return bool(self._lost_names)

    @property
    def lost_estimators(self) -> List[str]:
        """Names of the estimators written off with their workers."""
        return sorted(self._lost_names)

    @property
    def surviving_copies(self) -> int:
        """How many registered estimators are still being served."""
        return len(self._specs) - len(self._lost_names)

    @property
    def respawns_left(self) -> int:
        """Remaining worker-respawn budget before losses quarantine."""
        return self._respawns_left

    def status(self) -> Dict[str, Any]:
        """A queryable health summary (what ``repro live`` reports)."""
        return {
            "elements": self._journal.length,
            "net_edge_count": self._journal.net_edge_count,
            "backend": self._backend,
            "started": self._started,
            "degraded": self.degraded,
            "lost": self.lost_estimators,
            "surviving_copies": self.surviving_copies,
            "respawns_left": self._respawns_left,
        }

    # -- registration -----------------------------------------------------

    def register_spec(self, spec: EstimatorSpec) -> EstimatorSpec:
        """Register a picklable estimator recipe; returns it for chaining.

        Only specs are accepted — a live estimator object could be fed,
        but never checkpointed (a snapshot must rebuild it from the
        recipe before loading its state).  Stream-dependent structure
        must be pinned in the kwargs (explicit ``trials=`` for the FGP
        factories); see the module docstring.
        """
        if self._closed:
            raise EngineError("live engine is closed")
        if self._started:
            raise EngineError(
                "cannot register estimators after feeding has started: the "
                "live pass has already been partially dispatched, so a late "
                "estimator's pass accounting would be silently stale"
            )
        if not isinstance(spec, EstimatorSpec):
            raise EngineError(
                "LiveEngine.register_spec takes an EstimatorSpec (live "
                "estimator objects cannot be rebuilt by a checkpoint); wrap "
                "the factory in a spec"
            )
        if not spec.name:
            raise EngineError("estimator specs must carry a non-empty .name")
        if spec.name in self._spec_names:
            raise EngineError(f"estimator name {spec.name!r} already registered")
        self._spec_names[spec.name] = spec
        self._specs.append(spec)
        return spec

    def register_all(self, specs: Sequence[EstimatorSpec]) -> List[EstimatorSpec]:
        """Register every spec of an iterable, in order."""
        return [self.register_spec(spec) for spec in specs]

    # -- lifecycle --------------------------------------------------------

    def _alive_specs(self) -> List[EstimatorSpec]:
        """The registered specs whose shard has not been lost."""
        return [spec for spec in self._specs if spec.name not in self._lost_names]

    def _start(self, states: Optional[Dict[str, Any]] = None) -> None:
        """Build the estimators (or worker pool) and open the live pass.

        With *states* (the restore path) each freshly built estimator
        is loaded from its captured state instead of beginning pass 0.
        Estimators lost in a previous life (a degraded checkpoint)
        are excluded — the survivors shard as if the lost copies had
        never been configured.
        """
        if not self._specs:
            raise EngineError("no estimator specs registered")
        specs = self._alive_specs()
        if not specs:
            raise EngineError(
                "every registered estimator was lost with its worker; "
                "nothing left to start"
            )
        handle = StreamHandle.of(self._journal)
        if self._backend == EngineBackend.SERIAL:
            self._estimators = [spec.build(handle) for spec in specs]
            if states is None:
                for estimator in self._estimators:
                    if estimator.wants_pass():
                        estimator.begin_pass(0)
            else:
                for estimator in self._estimators:
                    estimator.load_state_dict(states[estimator.name])
                self._synced_elements = self._journal.length
            self._started = True
            return
        self._pool = spec_pool(
            specs,
            handle,
            self._workers,
            self._reply_timeout,
            start_method=self._start_method,
            batch_capacity=self._batch_size,
            fault_plan=self._fault_plan,
        )
        shards = list(self._pool.shards)
        if self._on_worker_loss == "degrade":
            self._pool.loss_handler = self._on_loss
        self._starting = True
        try:
            wants = self._pool.gather("ready", range(len(shards)))
            if states is None:
                self._active_workers = [
                    w for w in self._pool.live_ids() if wants.get(w, False)
                ]
                self._pool.broadcast(self._active_workers, ("begin_pass", 0))
            else:
                shard_states = [
                    {spec.name: states[spec.name] for spec in shard}
                    for shard in shards
                ]
                for worker_id, payload in enumerate(shard_states):
                    self._pool.send(worker_id, ("load_state", payload))
                loaded = self._pool.gather("loaded", self._pool.live_ids())
                self._active_workers = [
                    w for w in self._pool.live_ids() if loaded.get(w, False)
                ]
                self._synced_elements = self._journal.length
        finally:
            self._starting = False
        self._started = True

    # -- worker-loss recovery ---------------------------------------------

    def _quarantine(self, worker_id: int) -> None:
        """Write a worker's shard off permanently: the engine degrades."""
        names = sorted(spec.name for spec in self._pool.shards[worker_id])
        self._lost_names.update(names)
        logger.warning(
            "live engine degraded: worker %d lost with estimator(s) %s; "
            "serving the %d surviving copies",
            worker_id,
            ", ".join(names),
            len(self._alive_specs()),
        )

    def _on_loss(self, lost: List[int]) -> None:
        """Pool loss handler: respawn within budget, else quarantine.

        Runs inside whichever pool call detected the loss (a send, a
        gather, a ring-slot wait).  Every reported worker is discarded
        first — the pool contract — then each one is either replaced
        by a fresh worker replayed bit-exactly from the journal, or
        its shard is written off and the engine degrades.
        """
        self._pool.discard(lost)
        for worker_id in lost:
            was_active = worker_id in self._active_workers
            if was_active:
                self._active_workers.remove(worker_id)
            if self._starting or not was_active:
                # Mid-handshake (or a worker that never went live):
                # there is no coherent pass state to replay into a
                # replacement, so the shard is lost outright.
                self._quarantine(worker_id)
                continue
            if self._respawns_left <= 0:
                self._quarantine(worker_id)
                continue
            self._respawns_left -= 1
            try:
                self._respawn_and_replay(worker_id)
            except Exception as error:
                logger.warning(
                    "respawn of worker %d failed (%s); quarantining its shard",
                    worker_id,
                    error,
                )
                self._quarantine(worker_id)

    def _respawn_and_replay(self, worker_id: int) -> None:
        """Replace a lost worker and replay the synced journal prefix.

        The replacement rebuilds its estimators from the shard's specs
        and re-ingests journal elements ``[0, _synced_elements)`` in
        engine-batch-size slices — element order is all that matters
        for bit-equality, so the replayed shard is indistinguishable
        from one that never died.  Elements past the watermark are the
        in-flight publish the survivors are receiving right now; the
        replacement joins the active set and takes the *next* publish.
        """
        pool = self._pool
        new_id = pool.respawn(worker_id)
        ready = pool.gather("ready", [new_id])
        if not ready.get(new_id, False):
            raise EngineError(
                f"respawned worker {new_id} (for lost worker {worker_id}) "
                "did not come up ready"
            )
        pool.send(new_id, ("begin_pass", 0))
        u, v, delta = self._journal.columns()
        end = self._synced_elements
        for start in range(0, end, self._batch_size):
            stop = min(start + self._batch_size, end)
            chunk = EdgeBatch(u[start:stop], v[start:stop], delta[start:stop])
            # Plain pickled sends, not the shared ring: the ring's
            # sequence numbers belong to the live feed and must not be
            # consumed by a replay only one worker needs.
            if not pool.send(new_id, ("batch", chunk)):
                raise EngineError(
                    f"respawned worker {new_id} was lost again during "
                    "journal replay"
                )
        self._active_workers.append(new_id)
        logger.warning(
            "worker %d lost; respawned as worker %d and replayed %d "
            "journaled element(s) (%d respawn(s) left)",
            worker_id,
            new_id,
            end,
            self._respawns_left,
        )

    def feed(self, updates) -> int:
        """Apply a chunk of updates to every live estimator; returns its size.

        *updates* may be an :class:`~repro.streams.batch.EdgeBatch`, a
        ``(u, v[, delta])`` tuple of numpy columns, or an iterable of
        :class:`~repro.streams.stream.Update` objects / plain tuples.
        The chunk is journaled (with full stream-model validation),
        then dispatched in engine-batch-size slices, in order —
        element order is all that matters for bit-equality, so any
        feed chunking yields the same estimates.

        An **empty chunk is a no-op** returning 0: it is validated and
        accepted, but it neither opens the live pass nor touches the
        journal — in particular, an empty *first* feed does not start
        the engine, so estimators may still be registered afterwards
        (regression-pinned on both backends in
        ``tests/test_live_checkpoint.py``).
        """
        if self._closed:
            raise EngineError("live engine is closed")
        if self._feeding:
            raise EngineError("re-entrant feed(): the engine is mid-batch")
        self._feeding = True
        try:
            u, v, delta = as_update_columns(updates)
            batch = self._journal.append(u, v, delta)
            if not len(batch):
                return 0
            offset = self._journal.length - len(batch)
            if not self._started:
                self._synced_elements = offset
                try:
                    self._start()
                except BaseException:
                    # The journal is already ahead of the (unbuilt)
                    # estimators; no consistent continuation exists, so
                    # poison the engine instead of serving wrong answers.
                    self._closed = True
                    raise
            try:
                for start in range(0, len(batch), self._batch_size):
                    stop = min(start + self._batch_size, len(batch))
                    chunk = EdgeBatch(
                        batch.u[start:stop], batch.v[start:stop], batch.delta[start:stop]
                    )
                    if self._backend == EngineBackend.SERIAL:
                        for estimator in self._estimators:
                            if estimator.wants_pass():
                                estimator.ingest_batch(chunk)
                    else:
                        # Advance the replay watermark *before* the
                        # publish: every recipient either receives
                        # this chunk from the in-flight broadcast or
                        # is respawned with it replayed from the
                        # journal — never both, never neither.
                        self._synced_elements = offset + stop
                        self._pool.publish_batch(self._active_workers, chunk)
            except BaseException:
                # A dispatch failure tears the journal/estimator
                # agreement (the journal committed updates some
                # estimator never saw); no consistent continuation
                # exists, so poison the engine rather than serve
                # silently wrong estimates.
                self._closed = True
                raise
            return len(batch)
        finally:
            self._feeding = False

    # -- queries ----------------------------------------------------------

    def _gather_states(self, names: Optional[Sequence[str]] = None) -> Dict[str, Any]:
        """Current ``state_dict`` of the named estimators (all by default).

        Serial backend: only the requested estimators serialize.  The
        process backend gathers per shard (the worker command returns
        its whole shard), so a subset query still touches every worker
        but the driver keeps only what was asked for.

        A worker lost mid-gather triggers recovery, which may leave
        the round partial (a freshly respawned worker never saw this
        round's ``state_dict`` broadcast) — so the gather re-asks the
        surviving pool until every needed state is in hand, bounded to
        a handful of rounds (each round can only be disrupted by
        another loss, and losses are budgeted).
        """
        wanted = None if names is None else set(names)
        if self._backend == EngineBackend.SERIAL:
            return {
                e.name: e.state_dict()
                for e in self._estimators
                if wanted is None or e.name in wanted
            }
        needed = {
            spec.name
            for spec in self._alive_specs()
            if wanted is None or spec.name in wanted
        }
        states: Dict[str, Any] = {}
        for _ in range(4):
            # ``needed`` can drain to the empty set — every requested
            # estimator already lost, or lost during a previous round.
            # That is a *clean* exit here (the caller decides whether
            # an empty/partial gather is a typed refusal; estimate()
            # refuses), not an excuse for another broadcast round.
            if needed <= set(states):
                break
            live = self._pool.live_ids()
            self._pool.broadcast(live, ("state_dict",))
            for payload in self._pool.gather("state", live).values():
                for name, state in payload.items():
                    states[name] = state
            # Recovery during the round may have shrunk the ask.
            needed = {name for name in needed if name not in self._lost_names}
        else:
            raise EngineError(
                f"could not gather estimator state for "
                f"{sorted(needed - set(states))} after repeated worker "
                "losses"
            )
        return {
            name: state
            for name, state in states.items()
            if wanted is None or name in wanted
        }

    def _templates(self, specs: Sequence[EstimatorSpec]) -> Dict[str, Any]:
        """The estimators that queries fork from, by name.

        Serial backend: the live estimators themselves (a fork only
        reads them, and their pass 0 stays open).  Process backend: one
        driver-side estimator per spec, built on first use and opened
        at pass 0 as the workers' are, then kept for the engine's life.
        """
        if self._backend == EngineBackend.SERIAL:
            return {estimator.name: estimator for estimator in self._estimators}
        handle = StreamHandle.of(self._journal)
        for spec in specs:
            if spec.name not in self._fork_templates:
                template = spec.build(handle)
                if template.wants_pass():
                    template.begin_pass(0)
                self._fork_templates[spec.name] = template
        return self._fork_templates

    def estimate(self, names: Optional[Sequence[str]] = None) -> Dict[str, Any]:
        """Finish a *fork* of each estimator on the journaled prefix.

        Returns ``{name: result}`` for the requested estimators (all by
        default).  The live state is untouched: each estimator is forked
        from its template (:meth:`_templates`; an estimator that cannot
        fork is rebuilt from its spec) against the frozen prefix stream,
        loaded from its current ``state_dict``, its open pass is closed,
        and its remaining passes run over the journal.  A full-stream
        estimate is therefore bit-identical to the one-shot fused run
        with the same seeds; a mid-stream estimate equals the one-shot
        run on the prefix.
        """
        if self._closed:
            raise EngineError("live engine is closed")
        if self._feeding:
            raise EngineError("estimate() re-entered from a feed in flight")
        if not self._specs:
            raise EngineError("no estimator specs registered")
        selected = self._select(names)
        states = (
            self._gather_states([spec.name for spec in selected])
            if self._started
            else {}
        )
        # The gather itself can lose workers; anything quarantined
        # while we were asking drops out of the round.  With an
        # explicit name list that is a *refusal*, never a silently
        # partial answer: the caller asked for those copies by name.
        dropped = sorted(
            spec.name for spec in selected if spec.name in self._lost_names
        )
        selected = [
            spec for spec in selected if spec.name not in self._lost_names
        ]
        if dropped and names is not None:
            raise EngineError(
                f"estimator(s) {', '.join(dropped)} were lost with their "
                f"worker(s) during the state gather (the engine is "
                f"degraded; all lost: {', '.join(self.lost_estimators)}); "
                "query the survivors or restore a checkpoint taken before "
                "the loss"
            )
        if not selected:
            raise EngineError(
                "every requested estimator was lost with its worker "
                f"(lost: {', '.join(self.lost_estimators)}); no estimates "
                "survive — restore a checkpoint taken before the losses "
                "or open a fresh engine"
            )
        stream = self._journal.freeze_stream()
        # Before the first feed nothing is captured, and a fork's
        # unseeded oracle needs a capture: every estimator is rebuilt.
        templates = self._templates(selected) if self._started else {}
        results: Dict[str, Any] = {}
        for spec in selected:
            template = templates.get(spec.name)
            fork = template.fork(stream) if hasattr(template, "fork") else None
            if fork is None:
                fork = spec.build(stream)
            if self._started:
                state = states.get(spec.name)
                if state is None:
                    # A gather hole that recovery did not explain: fail
                    # loudly rather than serve a fork that silently
                    # restarted from scratch.
                    raise EngineError(
                        f"no live state could be gathered for estimator "
                        f"{spec.name!r} (its worker may have been lost "
                        "mid-gather); retry the query or restore a "
                        "checkpoint"
                    )
                fork.load_state_dict(state)
                if fork.wants_pass():
                    fork.end_pass()
            _drive_local([stream], [[fork]], self._batch_size, 0)
            results[spec.name] = fork.result()
        return results

    def _select(self, names: Optional[Sequence[str]]) -> List[EstimatorSpec]:
        if names is None:
            alive = self._alive_specs()
            if not alive:
                raise EngineError(
                    "every registered estimator was lost with its worker "
                    f"(lost: {', '.join(self.lost_estimators)}); no "
                    "estimates survive — restore a checkpoint taken "
                    "before the losses or open a fresh engine"
                )
            return alive
        selected = []
        for name in names:
            if name not in self._spec_names:
                raise EngineError(f"unknown estimator {name!r}")
            if name in self._lost_names:
                raise EngineError(
                    f"estimator {name!r} was lost with its worker (the "
                    f"engine is degraded; all lost: "
                    f"{', '.join(self.lost_estimators)}); query the "
                    "survivors or restore a checkpoint taken before the "
                    "loss"
                )
            selected.append(self._spec_names[name])
        return selected

    # -- checkpointing ----------------------------------------------------

    def _check_snapshot_allowed(self) -> None:
        if self._closed:
            raise EngineError("live engine is closed")
        if self._feeding:
            raise CheckpointError(
                "cannot snapshot mid-batch: a feed() is still in flight; "
                "snapshot between feed calls"
            )

    def snapshot(
        self,
        path,
        mode: str = "full",
        max_deltas: int = DEFAULT_MAX_DELTAS,
    ) -> str:
        """Write a checkpoint of the engine; returns the path written.

        ``mode="full"`` (default) captures everything — journal,
        specs, estimator states — into *path*.  ``mode="delta"``
        writes only the journal tail since the last snapshot of *path*
        to ``<path>.delta.NNNNN`` (O(updates-since-base) bytes, no
        state gather), falling back to a full snapshot when there is
        no base yet or the chain has reached *max_deltas* tails
        (rotation).  A delta with nothing new to record is a no-op
        returning *path*.

        Rejected while a feed is in flight (a mid-batch capture would
        tear the journal/estimator agreement); call between feeds.
        Writes are atomic and fsynced — a crash mid-write leaves any
        previous checkpoint intact.
        """
        if mode not in ("full", "delta"):
            raise CheckpointError(
                f"snapshot mode must be 'full' or 'delta', got {mode!r}"
            )
        if max_deltas < 1:
            raise CheckpointError(f"max_deltas must be >= 1, got {max_deltas}")
        self._check_snapshot_allowed()
        path = os.fspath(path)
        if mode == "delta":
            chain = self._delta_chains.get(path)
            if chain is None or not os.path.exists(path):
                # No base to diff against: this snapshot becomes one.
                return self._snapshot_full(path)
            if chain["next_index"] >= max_deltas:
                logger.info(
                    "delta chain for %r reached %d tails; rotating to a "
                    "fresh full base",
                    path,
                    chain["next_index"],
                )
                return self._snapshot_full(path)
            return self._snapshot_delta(path, chain)
        return self._snapshot_full(path)

    def _snapshot_full(self, path: str) -> str:
        states = self._gather_states() if self._started else {}
        u, v, delta = self._journal.columns()
        sections = [
            (
                "engine",
                {
                    "format": _FORMAT_FULL,
                    "n": self._journal.n,
                    "allow_deletions": self._journal.allows_deletions,
                    "batch_size": self._batch_size,
                    "backend": self._backend,
                    "workers": self._workers,
                    "started": self._started,
                    "lost": sorted(self._lost_names),
                },
            ),
            ("journal", {"u": u, "v": v, "delta": delta}),
            (
                "estimators",
                [
                    {"spec": spec, "state": states.get(spec.name)}
                    for spec in self._specs
                ],
            ),
        ]
        blob = _encode_sections(sections)
        _atomic_write(path, blob, self._fault_plan)
        # A fresh base obsoletes every delta of the previous chain.
        _remove_deltas(path)
        self._delta_chains[path] = {
            "base_crc": zlib.crc32(blob),
            "elements": self._journal.length,
            "next_index": 0,
        }
        return path

    def _snapshot_delta(self, path: str, chain: Dict[str, Any]) -> str:
        start = chain["elements"]
        stop = self._journal.length
        if stop == start:
            return path  # nothing fed since the last snapshot
        index = chain["next_index"]
        u, v, delta = self._journal.columns()
        sections = [
            (
                "delta",
                {
                    "format": _FORMAT_DELTA,
                    "base_crc": chain["base_crc"],
                    "start": start,
                    "stop": stop,
                    "index": index,
                },
            ),
            (
                "tail",
                {
                    "u": np.ascontiguousarray(u[start:stop]),
                    "v": np.ascontiguousarray(v[start:stop]),
                    "delta": np.ascontiguousarray(delta[start:stop]),
                },
            ),
        ]
        target = _delta_path(path, index)
        _atomic_write(target, _encode_sections(sections), self._fault_plan)
        # Anything past this index is debris from a longer pre-restore
        # chain; restore would refuse it (interval mismatch), but
        # removing it keeps the directory honest.
        _remove_deltas(path, index + 1)
        chain["elements"] = stop
        chain["next_index"] = index + 1
        return target

    @classmethod
    def restore(
        cls,
        path,
        backend: Optional[str] = None,
        workers: Optional[int] = None,
        start_method: Optional[str] = None,
    ) -> "LiveEngine":
        """Rebuild a live engine from a checkpoint written by :meth:`snapshot`.

        The restored engine continues bit-identically to one that never
        stopped.  *backend*/*workers* override the checkpointed
        execution backend — the state dicts are backend-agnostic, so a
        serial checkpoint restores onto the process backend and vice
        versa.  A checkpoint that names a backend this build does not
        run is refused with :class:`~repro.errors.EngineError` unless
        *backend* overrides it.

        If delta files accompany the base (``<path>.delta.NNNNN``),
        the longest valid consecutive chain is replayed through
        :meth:`feed`; a torn, corrupt, or mismatched delta stops the
        replay there with a logged warning — the engine comes back at
        the last trustworthy point instead of failing, and the next
        delta snapshot overwrites the bad tip.  ``restore_info`` on
        the returned engine records what happened.

        Checkpoints are pickled documents: restore only files you
        trust (same caveat as any pickle).
        """
        path = os.fspath(path)
        version, sections, base_crc = _read_container(path)
        if version == 1:
            document = sections["document"]
            if not isinstance(document, dict):
                raise CheckpointError(
                    f"{path!r}: checkpoint document is not a mapping"
                )
            if document.get("format") != _FORMAT_FULL:
                raise CheckpointError(f"{path!r}: unknown checkpoint format")
            doc_version = document.get("version")
            if doc_version != 1:
                raise CheckpointError(
                    f"{path!r}: checkpoint version {doc_version!r} is not "
                    f"supported (this build reads versions 1 and "
                    f"{CHECKPOINT_VERSION})"
                )
        else:
            document = dict(sections)
            engine_section = document.get("engine")
            if not isinstance(engine_section, dict) or (
                engine_section.get("format") != _FORMAT_FULL
            ):
                raise CheckpointError(
                    f"{path!r}: unknown checkpoint format (the engine "
                    "section is missing or mislabeled — is this a delta "
                    "file restored as a base?)"
                )
        try:
            config = document["engine"]
            journal = document["journal"]
            estimators = document["estimators"]
            engine = cls(
                n=config["n"],
                allow_deletions=config["allow_deletions"],
                batch_size=config["batch_size"],
                backend=backend if backend is not None else config["backend"],
                workers=workers if workers is not None else config["workers"],
                start_method=start_method,
            )
            engine._lost_names = set(config.get("lost", ()))
            if len(journal["u"]):
                engine._journal.append(journal["u"], journal["v"], journal["delta"])
            states: Dict[str, Any] = {}
            for entry in estimators:
                engine.register_spec(entry["spec"])
                states[entry["spec"].name] = entry["state"]
            started = config["started"]
        except (KeyError, TypeError, IndexError) as error:
            raise CheckpointError(
                f"{path!r}: checkpoint is structurally incomplete "
                f"({type(error).__name__}: {error})"
            ) from error
        if started:
            engine._start(states)
        info = engine._apply_delta_chain(path, base_crc)
        engine.restore_info = info
        return engine

    def _apply_delta_chain(self, path: str, base_crc: int) -> Dict[str, Any]:
        """Replay the valid consecutive delta chain of *path*, if any.

        Stops — with a logged warning, not an error — at the first
        delta that is unreadable, corrupt, bound to a different base,
        or discontiguous with the journal; everything before it is
        applied and everything from it on is dropped (the chain
        bookkeeping points the next delta snapshot at the bad index,
        so it gets overwritten).
        """
        applied = 0
        dropped: List[str] = []
        index = 0
        while True:
            target = _delta_path(path, index)
            if not os.path.exists(target):
                break
            try:
                _, sections, _ = _read_container(target)
                header = sections.get("delta")
                tail = sections.get("tail")
                if not isinstance(header, dict) or tail is None:
                    raise CheckpointError(
                        f"{target!r}: not a delta checkpoint (missing "
                        "delta/tail sections)"
                    )
                if header.get("format") != _FORMAT_DELTA:
                    raise CheckpointError(
                        f"{target!r}: unknown delta checkpoint format"
                    )
                if header.get("base_crc") != base_crc:
                    raise CheckpointError(
                        f"{target!r}: delta belongs to a different base "
                        f"checkpoint (base CRC 0x{header.get('base_crc', 0):08x}"
                        f" != 0x{base_crc:08x})"
                    )
                if header.get("index") != index:
                    raise CheckpointError(
                        f"{target!r}: delta header index "
                        f"{header.get('index')!r} does not match its "
                        f"filename index {index}"
                    )
                if header.get("start") != self._journal.length:
                    raise CheckpointError(
                        f"{target!r}: delta covers journal elements "
                        f"[{header.get('start')!r}, {header.get('stop')!r}) "
                        f"but the journal holds {self._journal.length}"
                    )
                expected = header.get("stop", 0) - header.get("start", 0)
                if len(tail["u"]) != expected:
                    raise CheckpointError(
                        f"{target!r}: delta tail holds {len(tail['u'])} "
                        f"update(s) but its header promises {expected}"
                    )
                self.feed((tail["u"], tail["v"], tail["delta"]))
            except (CheckpointError, StreamError, KeyError, TypeError) as error:
                logger.warning(
                    "dropping delta checkpoint tip %r (and any later "
                    "deltas): %s; restored through %d applied delta(s) "
                    "at %d element(s)",
                    target,
                    error,
                    applied,
                    self._journal.length,
                )
                probe = index
                while os.path.exists(_delta_path(path, probe)):
                    dropped.append(_delta_path(path, probe))
                    probe += 1
                break
            applied += 1
            index += 1
        self._delta_chains[path] = {
            "base_crc": base_crc,
            "elements": self._journal.length,
            "next_index": index,
        }
        return {
            "path": path,
            "deltas_applied": applied,
            "fell_back": bool(dropped),
            "dropped": dropped,
        }

    # -- teardown ---------------------------------------------------------

    def close(self) -> None:
        """Release the worker pool (no-op for the serial backend)."""
        if self._closed:
            return
        self._closed = True
        self._fork_templates = {}
        if self._pool is not None:
            self._pool.shutdown(graceful=True)
            self._pool = None

    def __enter__(self) -> "LiveEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
