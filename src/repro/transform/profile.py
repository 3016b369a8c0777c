"""Round-adaptivity profiling (Definition 8, made observable).

The paper's transformation prices a query algorithm by its *round
structure*: the number of rounds becomes the pass count (Theorems 9
and 11) and the per-round query volume becomes the per-pass space
(O(q log n) resp. O(q log⁴ n)).  This module measures both for any
round-adaptive generator, so users designing their own algorithms can
read off the streaming cost before ever touching a stream:

    >>> from repro.transform.profile import profile_rounds
    >>> from repro.fgp.bank import FgpTrialBank
    >>> from repro.patterns.pattern import triangle
    >>> report = profile_rounds(lambda: FgpTrialBank(triangle(), [1]), oracle)
    >>> report.rounds            # -> 3: a 3-pass streaming algorithm
    >>> report.round_profiles    # per-round query-type histograms

The profiler drives the algorithm against a real oracle (answers are
needed to reach later rounds), recording the batch shape of each
round.  The algorithm is a generator, whose batches are lists of query
objects, or a lockstep program such as the FGP trial bank, whose
batches are :class:`~repro.oracle.base.QueryColumns`; the histogram
reads either.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List

from repro.oracle.base import QueryAccounting
from repro.transform.driver import lockstep


@dataclass
class RoundProfile:
    """Query shape of one round: counts per query type."""

    index: int
    query_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def total_queries(self) -> int:
        return sum(self.query_counts.values())

    def describe(self) -> str:
        inner = ", ".join(
            f"{name}×{count}" for name, count in sorted(self.query_counts.items())
        )
        return f"round {self.index}: {self.total_queries} queries ({inner})"


@dataclass
class AdaptivityReport:
    """Round structure of one algorithm run."""

    round_profiles: List[RoundProfile]
    output: object = None

    @property
    def rounds(self) -> int:
        """The algorithm's round-adaptivity == its streaming pass count."""
        return len(self.round_profiles)

    @property
    def total_queries(self) -> int:
        """q — drives the space bound O(q log n) of Theorem 9."""
        return sum(profile.total_queries for profile in self.round_profiles)

    def describe(self) -> str:
        lines = [
            f"{self.rounds}-round adaptive "
            f"(=> {self.rounds}-pass streaming via Theorem 9/11); "
            f"q = {self.total_queries} queries total"
        ]
        lines.extend(profile.describe() for profile in self.round_profiles)
        return "\n".join(lines)


def profile_rounds(algorithm_factory: Callable[[], object], oracle) -> AdaptivityReport:
    """Run one instance against *oracle*, recording each round's shape.

    *algorithm_factory* builds a fresh generator, or a lockstep program
    of one instance (profiling consumes it).  The oracle must expose
    ``answer_batch``; any of the library's oracles (direct, insertion,
    turnstile) works.
    """
    algorithm = algorithm_factory()
    state = lockstep(algorithm if hasattr(algorithm, "dispatch") else [algorithm])
    profiles: List[RoundProfile] = []
    while state.live:
        batch = state.merge()
        accounting = QueryAccounting()
        accounting.record_batch(batch)
        counts: Dict[str, int] = {
            name.replace("Query", ""): count for name, count in accounting.counts.items()
        }
        profiles.append(RoundProfile(index=len(profiles) + 1, query_counts=counts))
        state.dispatch(oracle.answer_batch(batch))
    return AdaptivityReport(round_profiles=profiles, output=state.outputs[0])
