"""Driver for round-adaptive algorithms (Definition 8).

An algorithm instance is a generator: it yields a batch (sequence) of
query objects for round ℓ and is sent the positionally matching list
of answers; its ``return`` value is the algorithm's output.

The driver runs *many* instances in lockstep — the paper's "parallel
for" — merging all round-ℓ batches into a single oracle call, so a
streaming oracle spends exactly one pass per round regardless of how
many instances run concurrently.  This is how Theorem 17 runs
k = Θ((2m)^ρ / (ε² #H)) samplers in the same three passes.

A *lockstep program* is anything with :class:`LockstepState`'s four
members (``live``, ``merge()``, ``dispatch(answers)``, ``outputs``).
:class:`LockstepState` makes one of a list of generators; the FGP
sampler is one natively (:class:`repro.fgp.bank.FgpTrialBank`, whose
merged batches are :class:`~repro.oracle.base.QueryColumns`).  The
drivers accept either a lockstep program or a list of generators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Sequence

from repro.errors import OracleError
from repro.oracle.base import Query, QueryAccounting

#: A round-adaptive algorithm instance.
RoundAdaptive = Generator[Sequence[Query], List[Any], Any]


@dataclass
class RoundRunResult:
    """Outcome of driving a set of round-adaptive instances."""

    outputs: List[Any]
    rounds: int
    accounting: QueryAccounting = field(default_factory=QueryAccounting)

    @property
    def total_queries(self) -> int:
        return self.accounting.total


class LockstepState:
    """The merge/dispatch bookkeeping of one set of lockstep instances.

    The single home of the bit-identity-critical "parallel for" logic:
    prime every generator, merge the live instances' round-ℓ batches in
    index order, and slice one answer list back to them positionally.
    :func:`run_round_adaptive`, :func:`parallel_rounds`, and the fused
    engine's ``RoundAdaptiveEstimator`` all drive rounds through this
    class, so merge order and answer routing cannot drift apart between
    the sequential and fused paths.
    """

    __slots__ = ("outputs", "_pending", "_live", "_order", "_offsets", "merged_size")

    def __init__(self, algorithms: Sequence[RoundAdaptive]) -> None:
        self.outputs: List[Any] = [None] * len(algorithms)
        self._pending: Dict[int, Sequence[Query]] = {}
        self._live: Dict[int, RoundAdaptive] = {}
        for index, generator in enumerate(algorithms):
            try:
                self._pending[index] = next(generator)
                self._live[index] = generator
            except StopIteration as stop:
                self.outputs[index] = stop.value
        self._order: List[int] = []
        self._offsets: Dict[int, int] = {}
        self.merged_size = 0

    @property
    def live(self) -> bool:
        """Whether any instance still has rounds to run."""
        return bool(self._live)

    def merge(self) -> List[Query]:
        """The union of the live instances' next batches, in index order."""
        order = sorted(self._live)
        merged: List[Query] = []
        offsets: Dict[int, int] = {}
        for index in order:
            offsets[index] = len(merged)
            merged.extend(self._pending[index])
        self._order = order
        self._offsets = offsets
        self.merged_size = len(merged)
        return merged

    def dispatch(self, answers: List[Any]) -> None:
        """Route one round's answers back; retire finished instances."""
        if len(answers) != self.merged_size:
            raise OracleError(
                f"oracle answered {len(answers)} of {self.merged_size} queries"
            )
        pending = self._pending
        live = self._live
        offsets = self._offsets
        for index in self._order:
            begin = offsets[index]
            end = begin + len(pending[index])
            generator = live[index]
            try:
                pending[index] = generator.send(answers[begin:end])
            except StopIteration as stop:
                self.outputs[index] = stop.value
                del live[index]
                del pending[index]


def lockstep(program):
    """*program* if it is a lockstep program, else a :class:`LockstepState` of its generators."""
    return program if hasattr(program, "dispatch") else LockstepState(program)


def parallel_rounds(algorithms: Sequence[RoundAdaptive]):
    """Compose round-adaptive sub-algorithms into one round-adaptive step.

    A generator-based mini-driver: merges the sub-algorithms' round-ℓ
    batches into a single yielded batch and dispatches the answers
    back, so a parent generator can run children in lockstep with

        outputs = yield from parallel_rounds(children)

    Children finishing early simply drop out; the composite runs for
    ``max_i rounds(child_i)`` rounds.  This is the "parallel for" of
    the paper's pseudo code (e.g. the per-ordering activity cascades
    of StrIsAssigned all share the same passes).
    """
    state = LockstepState(algorithms)
    while state.live:
        answers = yield state.merge()
        state.dispatch(list(answers))
    return state.outputs


def run_round_adaptive(algorithms, oracle) -> RoundRunResult:
    """Drive *algorithms* against *oracle*, one oracle call per round.

    *algorithms* is a list of generators or a lockstep program (see
    :func:`lockstep`).
    The oracle must expose ``answer_batch(batch) -> list``.  For the
    stream-backed oracles each call consumes one pass — read through
    the stream's cached columnar batches
    (:meth:`repro.streams.stream.CachedBatchStream.batches`) — so the returned
    ``rounds`` equals the number of passes used, the quantity
    Theorems 9 and 11 bound by the algorithms' round-adaptivity.
    """
    accounting = QueryAccounting()
    state = lockstep(algorithms)
    rounds = 0
    while state.live:
        rounds += 1
        merged = state.merge()
        accounting.record_batch(merged)
        state.dispatch(oracle.answer_batch(merged))
    return RoundRunResult(outputs=state.outputs, rounds=rounds, accounting=accounting)
