"""Machine-speed probe: a fixed CPU kernel timed between measured calls.

On a small shared host the same code runs up to 1.6x slower in some
stretches of a minute than in others (on a 2-vCPU VM, one count call took
2.4 s in one 30-s stretch and 4.2 s in the next, with a fixed kernel
slowing alike), so the medians of whole runs drift far more than the
program does.  The benchmark therefore times :func:`kernel` just before
and just after every timed call and reports each timing scaled by
``REFERENCE_S / probe``: the time the call would take on a machine where
the kernel takes ``REFERENCE_S``.  A change to the program moves the
scaled times; a change in the machine's speed moves the call and the
kernel alike and cancels.

The kernel imports nothing from the program, so later changes to the
program cannot move it.  It mixes what the program spends its time on:
element-wise ``uint64`` arithmetic on small numpy arrays (the limb-split
multiply mod 2^61 - 1 of the sketches), scatter-adds, and Python-level
dict and tuple work.
"""

import time

import numpy as np

#: Probe time that defines the reference speed; the kernel's typical time
#: on the 2-vCPU VM the bounds were set on.
REFERENCE_S = 0.3

_P = np.uint64((1 << 61) - 1)
_MASK32 = np.uint64(0xFFFFFFFF)
_MASK29 = np.uint64((1 << 29) - 1)
_U3, _U29, _U32, _U61 = (np.uint64(shift) for shift in (3, 29, 32, 61))
ROUNDS, SIZE, LEVELS = 8000, 64, 40


def _mulmod(a, b):
    """``(a * b) mod (2^61 - 1)`` element-wise on ``uint64`` arrays < p."""
    a_hi, a_lo = a >> _U32, a & _MASK32
    b_hi, b_lo = b >> _U32, b & _MASK32
    mid = a_hi * b_lo + a_lo * b_hi
    low = a_lo * b_lo
    out = ((a_hi * b_hi) << _U3) + (mid >> _U29) + ((mid & _MASK29) << _U32) \
        + (low >> _U61) + (low & _P)
    out = (out >> _U61) + (out & _P)
    return np.where(out >= _P, out - _P, out)


def kernel():
    """A fixed amount of work; returns a checksum so none of it is skipped."""
    rng = np.random.default_rng(12345)
    a = rng.integers(0, (1 << 61) - 1, size=SIZE, dtype=np.uint64)
    b = rng.integers(0, (1 << 61) - 1, size=SIZE, dtype=np.uint64)
    levels = np.sort(rng.integers(0, LEVELS, size=SIZE))
    sums = np.zeros(LEVELS, dtype=np.uint64)
    table = {}
    for step in range(ROUNDS):
        a = _mulmod(a, b)
        np.add.at(sums, levels, a & _MASK32)
        for level in range(LEVELS):
            table[(step, level)] = level * step ^ (level + 1)
        if len(table) > 4000:
            table.clear()
    return int(sums.sum() & _MASK32) + len(table)


def probe():
    """Wall seconds of one :func:`kernel` run."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def factors(probes):
    """Scale of the call between each pair of consecutive probes:
    ``REFERENCE_S`` over the mean of the probes around it."""
    return [2 * REFERENCE_S / (before + after) for before, after in zip(probes, probes[1:])]
