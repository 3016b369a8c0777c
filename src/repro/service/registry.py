"""The stream registry: many named live engines, one owner.

A :class:`StreamRegistry` maps stream names to
:class:`~repro.engine.live.LiveEngine` instances and carries the three
service concerns the engine itself stays ignorant of:

* **Durability placement** — each stream checkpoints into its own
  subdirectory of the registry root (``<root>/<name>/checkpoint.reb``
  plus the engine's ``.delta.NNNNN`` tails), and :meth:`StreamRegistry.
  open` *restores-on-open*: if a checkpoint exists for the name, the
  stream comes back from it bit-identical to a tenant that never
  stopped.
* **Checkpoint scheduling** — a per-stream :class:`CheckpointPolicy`
  (every N elements and/or every T seconds, delta mode with base
  rotation) is evaluated after each feed, reusing
  :meth:`~repro.engine.live.LiveEngine.snapshot` unchanged.
* **Admission and backpressure** — :class:`ServiceLimits` bound the
  number of open streams, the bytes of feed payload in flight, and the
  per-stream journal length.  Hitting a limit raises a typed
  :class:`~repro.errors.ServiceError` and leaves the registry exactly
  as it was: refusals are non-destructive by contract.

The registry is thread-safe for its table operations (open/close/kill/
status), but **per-stream calls are not serialized here** — callers
that interleave feeds and estimates concurrently on one stream must
order them (the asyncio server does this with one writer task per
stream).
"""

from __future__ import annotations

import os
import re
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.engine.core import EngineBackend
from repro.engine.estimators import copy_specs, fgp_estimator
from repro.engine.live import (
    DEFAULT_MAX_DELTAS,
    LiveEngine,
    as_update_columns,
    median_estimate,
)
from repro.engine.parallel import EstimatorSpec, build_triest
from repro.errors import EngineError, EstimationError, ReproError, ServiceError
from repro.streaming.counters import FGP_COUNTERS, is_turnstile

__all__ = [
    "CheckpointPolicy",
    "ServiceLimits",
    "StreamConfig",
    "StreamRegistry",
    "feed_nbytes",
]

#: Stream names double as checkpoint directory names, so they are
#: restricted to a single safe path component.
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

CHECKPOINT_FILENAME = "checkpoint.reb"


def _check_name(name: str) -> str:
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise ServiceError(
            f"invalid stream name {name!r}: names are 1-64 characters of "
            f"[A-Za-z0-9_.-] starting with an alphanumeric (they double "
            f"as checkpoint directory names)"
        )
    return name


def feed_nbytes(updates) -> int:
    """Approximate payload bytes of a feed chunk (for admission).

    Counts 8 bytes per int64 column element for array-like columns and
    falls back to the same figure for plain sequences; the point is a
    stable, cheap bound for the in-flight budget, not an exact size.
    """
    if isinstance(updates, tuple) and len(updates) in (2, 3):
        columns = list(updates)
    else:
        columns = [updates]
    total = 0
    for column in columns:
        nbytes = getattr(column, "nbytes", None)
        if nbytes is not None:
            total += int(nbytes)
        else:
            try:
                total += 8 * len(column)
            except TypeError:
                total += 8
    return total


@dataclass(frozen=True)
class CheckpointPolicy:
    """When and how a stream checkpoints itself.

    ``every_elements`` triggers after that many journaled updates since
    the last snapshot; ``every_seconds`` after that much wall time.
    Either, both, or neither may be set — with neither, only explicit
    ``checkpoint`` commands (and the final snapshot on ``close``) write
    anything.  ``mode="delta"`` (the default) writes O(updates-since-
    base) journal tails with base rotation after ``max_deltas`` tails,
    exactly as :meth:`~repro.engine.live.LiveEngine.snapshot` does.
    """

    every_elements: Optional[int] = None
    every_seconds: Optional[float] = None
    mode: str = "delta"
    max_deltas: int = DEFAULT_MAX_DELTAS

    def __post_init__(self) -> None:
        if self.every_elements is not None and self.every_elements < 1:
            raise ServiceError(
                f"checkpoint every_elements must be >= 1, "
                f"got {self.every_elements}"
            )
        if self.every_seconds is not None and self.every_seconds <= 0:
            raise ServiceError(
                f"checkpoint every_seconds must be > 0, "
                f"got {self.every_seconds}"
            )
        if self.mode not in ("full", "delta"):
            raise ServiceError(
                f"checkpoint mode must be 'full' or 'delta', got {self.mode!r}"
            )
        if self.max_deltas < 1:
            raise ServiceError(
                f"checkpoint max_deltas must be >= 1, got {self.max_deltas}"
            )

    @classmethod
    def from_wire(cls, doc: Dict[str, Any]) -> "CheckpointPolicy":
        if not isinstance(doc, dict):
            raise ServiceError(
                f"checkpoint policy must be an object, got {type(doc).__name__}"
            )
        known = {"every_elements", "every_seconds", "mode", "max_deltas"}
        unknown = sorted(set(doc) - known)
        if unknown:
            raise ServiceError(
                f"unknown checkpoint policy field(s): {', '.join(unknown)}"
            )
        return cls(**doc)


@dataclass(frozen=True)
class ServiceLimits:
    """Admission/backpressure knobs enforced by the registry.

    * ``max_streams`` — open refuses once this many streams exist.
    * ``max_feed_bytes`` — total feed payload bytes *in flight* (queued
      or being applied); the asyncio server reserves at enqueue time
      via :meth:`StreamRegistry.reserve_feed_bytes` so a flood of
      writers is refused before it is buffered, not after OOM.
    * ``max_journal_elements`` — per-stream high watermark on the
      journal length: a feed that would push a stream past it is
      refused whole (the journal is the engine's replay source, so it
      grows without bound unless the tenant is closed or bounded here).
    """

    max_streams: int = 64
    max_feed_bytes: int = 64 << 20
    max_journal_elements: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_streams < 1:
            raise ServiceError(
                f"max_streams must be >= 1, got {self.max_streams}"
            )
        if self.max_feed_bytes < 1:
            raise ServiceError(
                f"max_feed_bytes must be >= 1, got {self.max_feed_bytes}"
            )
        if (self.max_journal_elements is not None
                and self.max_journal_elements < 1):
            raise ServiceError(
                f"max_journal_elements must be >= 1, "
                f"got {self.max_journal_elements}"
            )


#: Declarative estimator names accepted over the wire, mapped to the
#: spec factories the engine rebuilds workers from.
@dataclass(frozen=True)
class StreamConfig:
    """Everything needed to create a stream's engine from scratch.

    In-process callers pass explicit :class:`~repro.engine.parallel.
    EstimatorSpec` recipes; wire callers send the declarative form
    (``estimator``/``copies``/``pattern``/``seed``/...) which
    :meth:`from_wire` expands through
    :func:`~repro.engine.estimators.copy_specs`, as ``repro live`` does.
    """

    n: int
    allow_deletions: bool = False
    batch_size: int = 4096
    specs: Tuple[EstimatorSpec, ...] = ()
    backend: str = "serial"
    workers: Optional[int] = None
    checkpoint: Optional[CheckpointPolicy] = None

    def __post_init__(self) -> None:
        if not self.specs:
            raise ServiceError(
                "a stream config must register at least one estimator spec"
            )
        object.__setattr__(self, "specs", tuple(self.specs))

    @classmethod
    def from_wire(cls, doc: Dict[str, Any]) -> "StreamConfig":
        """Build a config from the JSON ``open`` payload.

        Required: ``n``, ``estimator`` (one of ``insertion``,
        ``turnstile``, ``two-pass``, ``triest``).  Optional:
        ``copies`` (default 3), ``seed`` (default 0), ``pattern``
        (zoo name, default ``triangle``), ``trials`` (FGP counters),
        ``capacity`` (triest reservoir, default 256),
        ``allow_deletions``, ``batch_size``, ``backend``, ``workers``,
        ``checkpoint`` (a :class:`CheckpointPolicy` object).
        """
        if not isinstance(doc, dict):
            raise ServiceError(
                f"stream config must be an object, got {type(doc).__name__}"
            )
        known = {"n", "estimator", "copies", "seed", "pattern", "trials",
                 "capacity", "allow_deletions", "batch_size", "backend",
                 "workers", "checkpoint"}
        unknown = sorted(set(doc) - known)
        if unknown:
            raise ServiceError(
                f"unknown stream config field(s): {', '.join(unknown)}"
            )
        missing = sorted({"n", "estimator"} - set(doc))
        if missing:
            raise ServiceError(
                f"stream config is missing required field(s): "
                f"{', '.join(missing)}"
            )
        backend = doc.get("backend", EngineBackend.SERIAL)
        if backend not in EngineBackend._ALL:
            raise ServiceError(
                f"unknown backend {backend!r}; expected one of "
                f"{', '.join(EngineBackend._ALL)}"
            )
        workers = doc.get("workers")
        if workers is not None and (
            isinstance(workers, bool) or not isinstance(workers, int) or workers < 1
        ):
            raise ServiceError(f"workers must be an integer >= 1, got {workers!r}")
        kind = doc["estimator"]
        if kind not in FGP_COUNTERS and kind != "triest":
            raise ServiceError(
                f"unknown estimator {kind!r}; expected one of "
                f"{sorted([*FGP_COUNTERS, 'triest'])}"
            )
        copies = int(doc.get("copies", 3))
        if copies < 1:
            raise ServiceError(f"copies must be >= 1, got {copies}")
        seed = int(doc.get("seed", 0))
        if kind == "triest":
            factory, options = build_triest, dict(capacity=int(doc.get("capacity", 256)))
        else:
            from repro.cli import parse_pattern

            factory, options = fgp_estimator, dict(
                kind=kind,
                pattern=parse_pattern(doc.get("pattern", "triangle")),
                trials=doc.get("trials"),
            )
        specs = copy_specs(factory, options, copies, seed)
        allow_deletions = bool(doc.get("allow_deletions", is_turnstile(kind)))
        policy = doc.get("checkpoint")
        if isinstance(policy, dict):
            policy = CheckpointPolicy.from_wire(policy)
        elif policy is not None and not isinstance(policy, CheckpointPolicy):
            raise ServiceError(
                f"stream config 'checkpoint' must be a policy object, "
                f"got {type(policy).__name__}"
            )
        try:
            return cls(
                n=int(doc["n"]),
                allow_deletions=allow_deletions,
                batch_size=int(doc.get("batch_size", 4096)),
                specs=tuple(specs),
                backend=backend,
                workers=workers,
                checkpoint=policy,
            )
        except (TypeError, ValueError) as error:
            raise ServiceError(f"invalid stream config: {error}") from error


@dataclass
class _StreamEntry:
    name: str
    engine: LiveEngine
    policy: Optional[CheckpointPolicy]
    checkpoint_path: Optional[str]
    opened_monotonic: float
    restored: bool = False
    elements_at_checkpoint: int = 0
    last_checkpoint_monotonic: float = 0.0
    checkpoints_written: int = 0
    checkpoint_stall_s: float = 0.0
    feeds: int = 0
    queries: int = 0
    refusals: int = 0


class StreamRegistry:
    """Owns many named live engines; see the module docstring.

    *root* is the checkpoint directory (one subdirectory per stream);
    ``None`` disables durability — ``checkpoint`` commands then refuse
    and ``close`` skips the final snapshot.  *default_policy* applies
    to streams whose config carries no policy of its own.
    """

    def __init__(
        self,
        root: Optional[str] = None,
        limits: Optional[ServiceLimits] = None,
        default_policy: Optional[CheckpointPolicy] = None,
        clock=time.monotonic,
    ) -> None:
        self._root = None if root is None else os.fspath(root)
        self.limits = limits if limits is not None else ServiceLimits()
        self._default_policy = default_policy
        self._clock = clock
        self._streams: Dict[str, _StreamEntry] = {}
        self._lock = threading.RLock()
        self._inflight_bytes = 0
        self._closed = False

    # -- table ------------------------------------------------------------

    @property
    def root(self) -> Optional[str]:
        return self._root

    @property
    def streams(self) -> List[str]:
        with self._lock:
            return sorted(self._streams)

    @property
    def inflight_bytes(self) -> int:
        with self._lock:
            return self._inflight_bytes

    def _entry(self, name: str) -> _StreamEntry:
        with self._lock:
            entry = self._streams.get(name)
        if entry is None:
            raise ServiceError(
                f"stream {name!r} is not open (open it first; open "
                f"restores from its checkpoint if one exists)"
            )
        return entry

    def _checkpoint_path(self, name: str) -> Optional[str]:
        if self._root is None:
            return None
        return os.path.join(self._root, name, CHECKPOINT_FILENAME)

    def has_checkpoint(self, name: str) -> bool:
        """Whether a prior life of *name* left a restorable checkpoint."""
        path = self._checkpoint_path(_check_name(name))
        return path is not None and os.path.exists(path)

    # -- admission accounting (used by the async server) ------------------

    def reserve_feed_bytes(self, nbytes: int) -> None:
        """Admit *nbytes* of feed payload into the in-flight budget.

        Raises :class:`~repro.errors.ServiceError` (reserving nothing)
        when the budget would be exceeded; pair every successful
        reservation with :meth:`release_feed_bytes`.
        """
        nbytes = int(nbytes)
        if nbytes < 0:
            raise ServiceError(f"cannot reserve {nbytes} bytes")
        with self._lock:
            budget = self.limits.max_feed_bytes
            if self._inflight_bytes + nbytes > budget:
                raise ServiceError(
                    f"feed of {nbytes} bytes refused: {self._inflight_bytes} "
                    f"bytes already in flight against a max_feed_bytes "
                    f"budget of {budget}; drain pending feeds and retry"
                )
            self._inflight_bytes += nbytes

    def release_feed_bytes(self, nbytes: int) -> None:
        with self._lock:
            self._inflight_bytes = max(0, self._inflight_bytes - int(nbytes))

    # -- lifecycle --------------------------------------------------------

    def open(
        self,
        name: str,
        config: Optional[StreamConfig] = None,
    ) -> Dict[str, Any]:
        """Open (or lazily restore) the named stream; returns its status.

        If the registry root holds a checkpoint for *name*, the stream
        is **restored from it** — bit-identical to a tenant that never
        stopped — and *config* (if any) only supplies the execution
        backend.  Otherwise *config* is required and a fresh engine is
        built from its specs.  Refuses (non-destructively) when the
        name is taken or ``max_streams`` is reached.
        """
        _check_name(name)
        with self._lock:
            if self._closed:
                raise ServiceError("the registry has been closed")
            if name in self._streams:
                raise ServiceError(
                    f"stream {name!r} is already open (close it first, or "
                    f"query it with status/estimate)"
                )
            if len(self._streams) >= self.limits.max_streams:
                raise ServiceError(
                    f"cannot open stream {name!r}: {len(self._streams)} "
                    f"stream(s) already open against a max_streams limit "
                    f"of {self.limits.max_streams}"
                )
            path = self._checkpoint_path(name)
            restored = False
            if path is not None and os.path.exists(path):
                engine = LiveEngine.restore(
                    path,
                    backend=None if config is None else config.backend,
                    workers=None if config is None else config.workers,
                )
                restored = True
            else:
                if config is None:
                    raise ServiceError(
                        f"stream {name!r} has no checkpoint to restore "
                        f"from; opening it needs a config"
                    )
                engine = LiveEngine(
                    n=config.n,
                    allow_deletions=config.allow_deletions,
                    batch_size=config.batch_size,
                    backend=config.backend,
                    workers=config.workers,
                )
                for spec in config.specs:
                    engine.register_spec(spec)
            policy = (config.checkpoint if config is not None
                      and config.checkpoint is not None
                      else self._default_policy)
            now = self._clock()
            entry = _StreamEntry(
                name=name,
                engine=engine,
                policy=policy,
                checkpoint_path=path,
                opened_monotonic=now,
                restored=restored,
                elements_at_checkpoint=engine.elements,
                last_checkpoint_monotonic=now,
            )
            self._streams[name] = entry
        return self.status(name)

    def close(self, name: str, checkpoint: bool = True) -> Dict[str, Any]:
        """Checkpoint (unless told otherwise) and shut the stream down.

        Returns ``{"stream": name, "checkpoint": path-or-None}``.  The
        final snapshot uses the stream's policy mode, so the next
        ``open`` restores exactly where this tenant left off.
        """
        entry = self._entry(name)
        written = None
        if checkpoint and entry.checkpoint_path is not None:
            written = self._snapshot(entry)
        entry.engine.close()
        with self._lock:
            self._streams.pop(name, None)
        return {"stream": name, "checkpoint": written}

    def kill(self, name: str) -> Dict[str, Any]:
        """Chaos drill: drop the stream *without* a final checkpoint.

        Whatever the scheduler (or an explicit ``checkpoint`` command)
        last wrote is what a later ``open`` restores — exactly the
        crash the restore-on-open contract is for.
        """
        entry = self._entry(name)
        entry.engine.close()
        with self._lock:
            self._streams.pop(name, None)
        return {"stream": name, "killed": True}

    def close_all(self, checkpoint: bool = True) -> None:
        for name in self.streams:
            try:
                self.close(name, checkpoint=checkpoint)
            except ReproError:
                with self._lock:
                    self._streams.pop(name, None)
        with self._lock:
            self._closed = True

    # -- per-stream operations --------------------------------------------

    def feed(self, name: str, updates) -> Dict[str, Any]:
        """Journal a chunk into the named stream, then run the scheduler.

        Refuses whole (feeding nothing) when the chunk would push the
        stream past ``max_journal_elements``.  Returns the fed count,
        the stream's new length, and the checkpoint path if the
        scheduler fired.
        """
        entry = self._entry(name)
        updates = as_update_columns(updates)
        chunk_len = len(updates[0])
        watermark = self.limits.max_journal_elements
        if watermark is not None and entry.engine.elements + chunk_len > watermark:
            entry.refusals += 1
            raise ServiceError(
                f"feed of {chunk_len} update(s) refused: stream "
                f"{name!r} holds {entry.engine.elements} journaled "
                f"update(s) against a max_journal_elements watermark "
                f"of {watermark}; checkpoint+close the stream or "
                f"raise the limit"
            )
        fed = entry.engine.feed(updates)
        entry.feeds += 1
        written = self._maybe_checkpoint(entry)
        return {"stream": name, "fed": fed,
                "elements": entry.engine.elements, "checkpoint": written}

    def estimate(self, name: str, names: Optional[Sequence[str]] = None):
        """Mid-stream estimates for the named stream (engine results)."""
        entry = self._entry(name)
        results = entry.engine.estimate(names)
        entry.queries += 1
        return results

    def checkpoint(self, name: str, mode: Optional[str] = None) -> str:
        """Force a snapshot now; returns the path written."""
        entry = self._entry(name)
        if entry.checkpoint_path is None:
            raise ServiceError(
                f"cannot checkpoint stream {name!r}: the registry has no "
                f"root directory (start it with one to enable durability)"
            )
        return self._snapshot(entry, mode=mode)

    def status(self, name: Optional[str] = None,
               estimate: bool = False) -> Dict[str, Any]:
        """Health of one stream, or of every stream keyed by name.

        With ``estimate=True`` each stream also reports the guarded
        median over its surviving copies: a fully degraded stream gets
        ``median: None`` plus an ``estimate_error`` message instead of
        an unhandled ``StatisticsError``.
        """
        if name is None:
            with self._lock:
                names = sorted(self._streams)
                inflight = self._inflight_bytes
            return {
                "streams": {n: self.status(n, estimate=estimate)
                            for n in names},
                "open_streams": len(names),
                "max_streams": self.limits.max_streams,
                "inflight_bytes": inflight,
                "max_feed_bytes": self.limits.max_feed_bytes,
            }
        entry = self._entry(name)
        engine = entry.engine
        doc = dict(engine.status())
        doc.update(
            stream=name,
            restored=entry.restored,
            checkpoint_path=entry.checkpoint_path,
            checkpoints_written=entry.checkpoints_written,
            checkpoint_stall_s=entry.checkpoint_stall_s,
            elements_since_checkpoint=(engine.elements
                                       - entry.elements_at_checkpoint),
            feeds=entry.feeds,
            queries=entry.queries,
            refusals=entry.refusals,
        )
        if estimate:
            try:
                doc["median"] = median_estimate(engine.estimate())
            except (EngineError, EstimationError) as error:
                doc["median"] = None
                doc["estimate_error"] = str(error)
        return doc

    # -- checkpoint scheduling --------------------------------------------

    def _snapshot(self, entry: _StreamEntry,
                  mode: Optional[str] = None) -> str:
        policy = entry.policy
        if mode is None:
            mode = policy.mode if policy is not None else "delta"
        max_deltas = (policy.max_deltas if policy is not None
                      else DEFAULT_MAX_DELTAS)
        assert entry.checkpoint_path is not None
        os.makedirs(os.path.dirname(entry.checkpoint_path), exist_ok=True)
        before = self._clock()
        written = entry.engine.snapshot(entry.checkpoint_path, mode=mode,
                                        max_deltas=max_deltas)
        after = self._clock()
        entry.checkpoint_stall_s += after - before
        entry.checkpoints_written += 1
        entry.elements_at_checkpoint = entry.engine.elements
        entry.last_checkpoint_monotonic = after
        return written

    def _maybe_checkpoint(self, entry: _StreamEntry) -> Optional[str]:
        policy = entry.policy
        if policy is None or entry.checkpoint_path is None:
            return None
        due = False
        if policy.every_elements is not None:
            grown = entry.engine.elements - entry.elements_at_checkpoint
            due = due or grown >= policy.every_elements
        if policy.every_seconds is not None:
            waited = self._clock() - entry.last_checkpoint_monotonic
            due = due or waited >= policy.every_seconds
        if not due:
            return None
        return self._snapshot(entry)
