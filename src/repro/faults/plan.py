"""Deterministic, seedable fault injection for the engines.

A :class:`FaultPlan` is a picklable list of :class:`FaultRule` entries,
each naming a **site** — a choke point the production code funnels its
risky operations through — and the call ordinal at which the fault
fires.  The plan travels two ways:

* **driver side**: :func:`activate` installs it as the process-global
  active plan; the disk-write and snapshot paths consult
  :func:`active_plan` on every call;
* **worker side**: the pools ship the plan to every worker as part of
  the (picklable) worker arguments, so a rule can SIGKILL or wedge a
  specific worker at its Nth ingested batch even under the ``spawn``
  start method, where module globals do not cross the boundary.

Counters are plain per-rule call counts inside each process, so a
drill's outcome is a pure function of the plan and the call sequence —
no wall clock, no entropy.  The *seed* names the drill (printed on
failure by the chaos smoke suite) and seeds any derived randomness a
drill wants (:meth:`FaultPlan.rng`), e.g. choosing corruption offsets.

Fault sites wired into the library
----------------------------------
``"worker.batch"``
    Fired by the pool worker loop once per ingested batch (before the
    estimators see it).  Supports ``action="kill"`` (a real
    ``SIGKILL`` of the worker process) and ``action="wedge"`` (sleep
    ``wedge_seconds`` mid-batch).
``"disk.write"``
    Fired per checkpoint/``.reb`` write call.  ``action="io_error"``
    raises a transient ``OSError(EIO)`` — exactly what the retry
    layer treats as weather — for ``count`` consecutive calls.
``"shm.attach"``
    Fired per worker-side shared-memory segment attach;
    ``action="io_error"`` models the attach racing segment creation.

Sites are strings on purpose: drills may introduce new ones without
touching this module, and an inactive plan costs one ``None`` check
at each site.
"""

from __future__ import annotations

import contextlib
import errno
import os
import random
import signal
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import FaultInjected

__all__ = [
    "FaultRule",
    "FaultPlan",
    "activate",
    "active_plan",
    "fire",
]

#: Actions a rule may take when it triggers.
ACTIONS = ("kill", "wedge", "io_error", "raise")


@dataclass(frozen=True)
class FaultRule:
    """One deterministic fault: at the *nth* call of *site*, act.

    ``nth`` is 1-based over the calls matching this rule inside one
    process; ``count`` widens the window to ``[nth, nth + count)`` so
    transient errors can fail several consecutive calls (the retry
    drills use ``count=2`` against a 3-attempt policy).  ``worker``
    restricts the rule to one worker id (``None``: any site caller).
    """

    site: str
    action: str
    nth: int = 1
    count: int = 1
    worker: Optional[int] = None
    wedge_seconds: float = 3600.0

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise FaultInjected(
                f"unknown fault action {self.action!r}; expected one of {ACTIONS}"
            )
        if self.nth < 1:
            raise FaultInjected(f"fault rule nth must be >= 1, got {self.nth}")
        if self.count < 1:
            raise FaultInjected(f"fault rule count must be >= 1, got {self.count}")


@dataclass
class FaultPlan:
    """A seeded, picklable schedule of deterministic faults.

    Equality-of-outcome is the contract: running the same drill twice
    with plans built from the same seed and rules produces the same
    kills, the same injected errors, and therefore the same final
    estimates (asserted in ``tests/test_faults.py``).
    """

    seed: int = 0
    rules: List[FaultRule] = field(default_factory=list)
    #: per-rule-index call counters (process-local; reset on unpickle
    #: so each worker process counts its own calls from zero).
    _counts: Dict[int, int] = field(default_factory=dict, repr=False, compare=False)

    def __getstate__(self):
        return {"seed": self.seed, "rules": list(self.rules)}

    def __setstate__(self, state):
        self.seed = state["seed"]
        self.rules = list(state["rules"])
        self._counts = {}

    # -- authoring helpers -------------------------------------------------

    def kill_worker(self, worker: int, nth_batch: int = 1) -> "FaultPlan":
        """Add a SIGKILL-at-the-Nth-batch rule; returns self for chaining."""
        self.rules.append(
            FaultRule(site="worker.batch", action="kill", nth=nth_batch, worker=worker)
        )
        return self

    def wedge_worker(
        self, worker: int, nth_batch: int = 1, seconds: float = 3600.0
    ) -> "FaultPlan":
        """Add a wedge-at-the-Nth-batch rule (the worker stops draining)."""
        self.rules.append(
            FaultRule(
                site="worker.batch",
                action="wedge",
                nth=nth_batch,
                worker=worker,
                wedge_seconds=seconds,
            )
        )
        return self

    def fail_disk_write(self, nth: int = 1, count: int = 1) -> "FaultPlan":
        """Fail the Nth (and ``count-1`` following) disk write transiently."""
        self.rules.append(
            FaultRule(site="disk.write", action="io_error", nth=nth, count=count)
        )
        return self

    def fail_shm_attach(self, nth: int = 1, count: int = 1) -> "FaultPlan":
        """Fail the Nth (and ``count-1`` following) shm attach transiently."""
        self.rules.append(
            FaultRule(site="shm.attach", action="io_error", nth=nth, count=count)
        )
        return self

    def rng(self, label: str = "") -> random.Random:
        """A deterministic RNG derived from the plan seed and *label*.

        Drills use it to pick corruption offsets/victims so the whole
        drill remains a function of one printed seed.  The label is
        folded in via CRC32, not ``hash()`` — string hashing is
        per-process randomized and would break cross-run determinism.
        """
        import zlib

        return random.Random(self.seed * 0x1_0000_0000 + zlib.crc32(label.encode()))

    # -- firing ------------------------------------------------------------

    def fire(self, site: str, worker: Optional[int] = None) -> None:
        """Count this call against every matching rule; act if one trips.

        Triggered actions: ``io_error`` raises ``OSError(EIO)``;
        ``raise`` raises :class:`~repro.errors.FaultInjected`;
        ``kill`` SIGKILLs the current process; ``wedge`` sleeps
        ``wedge_seconds``.
        """
        for index, rule in enumerate(self.rules):
            if rule.site != site:
                continue
            if rule.worker is not None and rule.worker != worker:
                continue
            calls = self._counts.get(index, 0) + 1
            self._counts[index] = calls
            if not (rule.nth <= calls < rule.nth + rule.count):
                continue
            if rule.action == "io_error":
                raise OSError(
                    errno.EIO,
                    f"injected transient I/O error at {site!r} call #{calls}"
                    f" (fault plan seed {self.seed})",
                )
            if rule.action == "raise":
                raise FaultInjected(
                    f"injected fault at {site!r} call #{calls}"
                    f" (fault plan seed {self.seed})"
                )
            if rule.action == "wedge":
                time.sleep(rule.wedge_seconds)
                continue
            if rule.action == "kill":
                os.kill(os.getpid(), signal.SIGKILL)


#: The driver-side active plan (None: injection disabled, the
#: production default; every site then costs a single global read).
_ACTIVE: Optional[FaultPlan] = None


def active_plan() -> Optional[FaultPlan]:
    """The process-global plan installed by :func:`activate`, if any."""
    return _ACTIVE


@contextlib.contextmanager
def activate(plan: Optional[FaultPlan]):
    """Install *plan* as the process-global active plan for a scope."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = plan
    try:
        yield plan
    finally:
        _ACTIVE = previous


def fire(site: str, worker: Optional[int] = None, plan: Optional[FaultPlan] = None) -> None:
    """Fire *site* against *plan* (explicit or the active global).

    The one-line hook production code plants at each site; with no
    plan anywhere it returns immediately.
    """
    target = plan if plan is not None else _ACTIVE
    if target is not None:
        target.fire(site, worker=worker)
