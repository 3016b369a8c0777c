"""The FGP trial bank against the per-trial reference generator.

:class:`repro.fgp.bank.FgpTrialBank` runs the k attempts of one FGP
estimator as one array program.  Each case below drives a bank and a
:class:`~repro.transform.driver.LockstepState` over
:func:`reference.subgraph_sampler_rounds` generators with the same
trial seeds, side by side, each against its own identically seeded
oracle, and asserts per round that the merged batches are the same
queries and the answers agree, then that every trial's output agrees.
Every case must contain at least one success, so the copy resolution
and the slot draw are compared too, not only the rejections.
"""

import pytest
from reference import subgraph_sampler_rounds

from repro.errors import OracleError, SketchError
from repro.fgp.bank import FgpTrialBank
from repro.fgp.rounds import WEDGE_BOTH, WEDGE_HIGH_ONLY, WEDGE_LOW_ONLY, SamplerMode
from repro.graph import generators as gen
from repro.graph.graph import Graph
from repro.oracle.base import QueryColumns, RandomEdgeQuery
from repro.oracle.direct import DirectAugmentedOracle, DirectRelaxedOracle
from repro.patterns import pattern as zoo
from repro.streams.generators import turnstile_churn_stream
from repro.streams.stream import insertion_stream, turnstile_stream
from repro.transform.driver import LockstepState
from repro.transform.insertion import InsertionStreamOracle
from repro.transform.turnstile import TurnstileStreamOracle

AUGMENTED, RELAXED = SamplerMode.AUGMENTED, SamplerMode.RELAXED

PATTERNS = {
    "triangle": zoo.triangle,
    "C5": lambda: zoo.cycle(5),
    "house": zoo.house,
    "bowtie": zoo.bowtie,
    "P3": lambda: zoo.path(3),
}

#: Dense enough for every pattern; all its vertices are low-degree.
DENSE = gen.gnp(10, 0.8, rng=3)


def hub_graph(leaves):
    """A clique of hubs, hub i carrying ``leaves[i]`` degree-1 leaves."""
    hubs = len(leaves)
    graph = Graph(hubs + sum(leaves))
    for a in range(hubs):
        for b in range(a + 1, hubs):
            graph.add_edge(a, b)
    leaf = hubs
    for hub, count in enumerate(leaves):
        for _ in range(count):
            graph.add_edge(hub, leaf)
            leaf += 1
    return graph


#: Hub degrees 13 to 15 against √(2m) ≈ 12.8: every triangle takes the
#: high branch, and its closing vertex need not be as heavy as its anchor.
HUBS = hub_graph([6, 6, 6, 6, 7, 7, 8, 8])
#: Hub degrees 11 to 14 against √(2m) = 12 exactly: both branches, and
#: anchors of degree 12 sit on the threshold (they take the low branch).
MIXED = hub_graph([4, 4, 5, 5, 6, 6, 7, 7])
#: On DENSE a 5-cycle can witness several houses, more than f_T(house)
#: = 1, so house runs on a single house.
HOUSE = zoo.house().graph

#: (oracle, sampler mode) pairs; turnstile streams speak only the relaxed dialect.
ORACLES = [
    ("direct", AUGMENTED),
    ("direct", RELAXED),
    ("insertion", AUGMENTED),
    ("insertion", RELAXED),
    ("turnstile", RELAXED),
]


def make_oracle(kind, mode, graph, seed):
    if kind == "direct":
        if mode == RELAXED:
            return DirectRelaxedOracle(graph, seed, failure_probability=0.1)
        return DirectAugmentedOracle(graph, seed)
    if kind == "insertion":
        return InsertionStreamOracle(insertion_stream(graph, rng=seed), rng=seed)
    stream = turnstile_churn_stream(graph, 3, rng=seed)
    return TurnstileStreamOracle(stream, rng=seed, sampler_repetitions=2)


def run_side_by_side(pattern, kind, mode, graph, trials, branches=WEDGE_BOTH, skip=False, seed=5):
    """Drive bank and reference in lockstep; return (outputs, rounds, failed f1 answers)."""
    seeds = [seed * 1000 + i for i in range(trials)]
    bank = FgpTrialBank(
        pattern, seeds, mode=mode, wedge_branches=branches, skip_empty_wedge_round=skip
    )
    reference = LockstepState([
        subgraph_sampler_rounds(
            pattern, rng=s, mode=mode, wedge_branches=branches, skip_empty_wedge_round=skip
        )
        for s in seeds
    ])
    bank_oracle = make_oracle(kind, mode, graph, seed)
    reference_oracle = make_oracle(kind, mode, graph, seed)
    rounds = failed = 0
    while reference.live:
        assert bank.live, f"bank finished before round {rounds + 1}"
        columns, queries = bank.merge(), reference.merge()
        assert isinstance(columns, QueryColumns)
        assert tuple(columns) == tuple(queries), f"round {rounds + 1} batches differ"
        answers = bank_oracle.answer_batch(columns)
        expected = reference_oracle.answer_batch(queries)
        assert answers == expected, f"round {rounds + 1} answers differ"
        failed += sum(
            answer is None
            for query, answer in zip(queries, expected)
            if isinstance(query, RandomEdgeQuery)
        )
        bank.dispatch(answers)
        reference.dispatch(expected)
        rounds += 1
    assert not bank.live
    assert bank.outputs == reference.outputs
    return bank.outputs, rounds, failed


def _cases():
    for name in PATTERNS:
        for kind, mode in ORACLES:
            host, trials = (HOUSE, 2000) if name == "house" else (DENSE, 400)
            yield pytest.param(name, kind, mode, WEDGE_BOTH, False, host, trials,
                               id=f"{name}-{kind}-{mode}")
    for kind, mode in ORACLES:
        yield pytest.param("bowtie", kind, mode, WEDGE_LOW_ONLY, False, DENSE, 400,
                           id=f"bowtie-{kind}-{mode}-low_only")
        for branches in (WEDGE_BOTH, WEDGE_LOW_ONLY):
            yield pytest.param("triangle", kind, mode, branches, False, MIXED, 400,
                               id=f"triangle-mixed-{kind}-{mode}-{branches}")
        for branches in (WEDGE_BOTH, WEDGE_HIGH_ONLY):
            yield pytest.param("triangle", kind, mode, branches, False, HUBS, 400,
                               id=f"triangle-hubs-{kind}-{mode}-{branches}")
    for name in ("P3", "triangle"):
        for kind, mode in ORACLES:
            yield pytest.param(name, kind, mode, WEDGE_BOTH, True, DENSE, 400,
                               id=f"{name}-{kind}-{mode}-skip")


@pytest.mark.parametrize("name, kind, mode, branches, skip, host, trials", _cases())
def test_bank_matches_reference(name, kind, mode, branches, skip, host, trials):
    pattern = PATTERNS[name]()
    outputs, rounds, failed = run_side_by_side(
        pattern, kind, mode, host, trials, branches, skip
    )
    assert any(output is not None for output in outputs)
    star_only = not pattern.decomposition().cycle_lengths
    assert rounds == (2 if skip and star_only else 3)
    if kind == "turnstile" or (kind == "direct" and mode == RELAXED):
        assert failed, "no failed f1 sample was exercised"


@pytest.mark.parametrize("kind, mode", ORACLES, ids=[f"{k}-{m}" for k, m in ORACLES])
def test_empty_graph_ends_after_round_one(kind, mode):
    """Edge count 0: every trial ends after round 1, drawing nothing."""
    if kind == "turnstile":
        # One edge inserted and deleted again: the final graph is empty.
        stream = turnstile_stream(6, [(0, 1, 1), (0, 1, -1)])
        oracles = [TurnstileStreamOracle(stream, rng=1) for _ in range(2)]
    else:
        oracles = [make_oracle(kind, mode, Graph(6), 1) for _ in range(2)]
    bank = FgpTrialBank(zoo.triangle(), range(5), mode=mode)
    reference = LockstepState(
        [subgraph_sampler_rounds(zoo.triangle(), rng=s, mode=mode) for s in range(5)]
    )
    answers = oracles[0].answer_batch(bank.merge())
    assert answers == oracles[1].answer_batch(reference.merge())
    bank.dispatch(answers)
    reference.dispatch(answers)
    assert not bank.live and not reference.live
    assert bank.outputs == reference.outputs == [None] * 5


def test_triangle_free_host_never_succeeds():
    outputs, rounds, _ = run_side_by_side(
        zoo.triangle(), "insertion", AUGMENTED, gen.grid_graph(4, 4), 300
    )
    assert rounds == 3
    assert outputs == [None] * 300


@pytest.mark.parametrize(
    "options",
    [{"mode": "bogus"}, {"wedge_branches": "sideways"}],
    ids=["mode", "wedge_branches"],
)
def test_bad_settings_raise_sketch_error(options):
    with pytest.raises(SketchError):
        FgpTrialBank(zoo.triangle(), [1], **options)
    with pytest.raises(SketchError):
        list(subgraph_sampler_rounds(zoo.triangle(), rng=1, **options))


def test_wrong_answer_count_is_refused():
    bank = FgpTrialBank(zoo.triangle(), [1, 2])
    with pytest.raises(OracleError, match="answered 1 of 6"):
        bank.dispatch([3])
