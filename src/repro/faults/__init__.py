"""repro.faults — deterministic fault injection and corruption drills.

The robustness layer's test harness *and* the vocabulary its recovery
paths are specified in.  A seeded :class:`FaultPlan` schedules process
faults (kill/wedge a worker at its Nth batch, fail the Nth disk write
or shm attach transiently) at named sites threaded through
:mod:`repro.engine.parallel`, :mod:`repro.engine.live`, and
:mod:`repro.streams.datasets`; :mod:`repro.faults.corrupt` tears,
truncates, and bit-flips checkpoint bytes at chosen offsets.

Quick drill::

    from repro.faults import FaultPlan, activate

    plan = FaultPlan(seed=7).kill_worker(1, nth_batch=3)
    engine = LiveEngine(n=100, backend="process", workers=4,
                        fault_plan=plan)
    ...feed...                      # worker 1 takes a SIGKILL mid-batch
    engine.degraded                 # True once the respawn budget is spent
    engine.estimate()               # median of the surviving copies

Same seed, same rules → same kills, same recovery, same estimates:
determinism is the contract (``tests/test_faults.py`` asserts it, and
the CI ``chaos-smoke`` job prints the seed of any failing drill).
"""

from repro.faults.corrupt import (
    append_garbage,
    flip_bit,
    overwrite_bytes,
    truncate_file,
)
from repro.faults.plan import (
    ACTIONS,
    FaultPlan,
    FaultRule,
    activate,
    active_plan,
    fire,
)

__all__ = [
    "ACTIONS",
    "FaultPlan",
    "FaultRule",
    "activate",
    "active_plan",
    "fire",
    "truncate_file",
    "flip_bit",
    "overwrite_bytes",
    "append_garbage",
]
