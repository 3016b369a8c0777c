"""Pinned shared-mode estimates of every FGP counter kind.

Shared mode merges a group of copies into one oracle, so its estimates
are not comparable with any one-shot run; the other suites only check
that it is deterministic.  These values were recorded before the
counters were folded into one program builder
(:func:`repro.streaming.counters.fgp_counter_program`), for each kind
on one serial run and one 2-worker pooled run (recorded on the
retired thread pool; the process pool reproduces them exactly): each
copy's ``(estimate, successes, space_words)``.  A change to how shared groups
are built, seeded or finalized shows up here as a changed number.
"""

import statistics

import pytest

from repro import generators, insertion_stream, patterns
from repro.engine import (
    count_subgraphs_insertion_only_fused,
    count_subgraphs_turnstile_fused,
    count_subgraphs_two_pass_fused,
)
from repro.streams.generators import turnstile_churn_stream

COUNTERS = {
    "insertion": count_subgraphs_insertion_only_fused,
    "turnstile": count_subgraphs_turnstile_fused,
    "two-pass": count_subgraphs_two_pass_fused,
}

PINNED = {
    "insertion/serial": [
        (489.4535936250749, 1, 144),
        (489.4535936250749, 1, 144),
        (978.9071872501498, 2, 144),
        (0.0, 0, 144),
    ],
    "insertion/process": [
        (978.9071872501498, 2, 200),
        (0.0, 0, 200),
        (1468.3607808752247, 3, 195),
        (978.9071872501498, 2, 195),
    ],
    "turnstile/serial": [
        (978.9071872501498, 2, 28673),
        (489.4535936250749, 1, 28673),
        (978.9071872501498, 2, 28673),
        (489.4535936250749, 1, 28673),
    ],
    "turnstile/process": [
        (489.4535936250749, 1, 28673),
        (0.0, 0, 28673),
        (1468.3607808752247, 3, 28673),
        (0.0, 0, 28673),
    ],
    "two-pass/serial": [
        (12246.125, 1, 129),
        (0.0, 0, 129),
        (24492.25, 2, 129),
        (24492.25, 2, 129),
    ],
    "two-pass/process": [
        (12246.125, 1, 165),
        (12246.125, 1, 165),
        (0.0, 0, 158),
        (0.0, 0, 158),
    ],
}


def _fixture(kind):
    graph = generators.gnp(40, 0.4, rng=3)
    if kind == "turnstile":
        return turnstile_churn_stream(graph, churn_edges=25, rng=4), patterns.triangle()
    pattern = patterns.triangle() if kind == "insertion" else patterns.cycle(4)
    return insertion_stream(graph, rng=4), pattern


@pytest.mark.parametrize("key", sorted(PINNED))
def test_shared_mode_matches_pinned_values(key):
    kind, backend = key.split("/")
    stream, pattern = _fixture(kind)
    result = COUNTERS[kind](
        stream, pattern, copies=4, trials=32, rng=29, mode="shared",
        backend=backend, workers=2 if backend == "process" else None,
    )
    observed = [(copy.estimate, copy.successes, copy.space_words) for copy in result.copies]
    assert observed == PINNED[key]
    assert result.estimate == statistics.median(row[0] for row in PINNED[key])
    assert result.estimate > 0
