"""The stream oracles' shared query layout (``repro.transform.stream_oracle``).

Both emulations parse a batch through one :class:`QueryLayout`, so a
batch is validated the same way on insertion-only and turnstile
streams: a query naming a vertex outside ``[0, n)`` is refused with a
typed :class:`~repro.errors.OracleError` instead of being answered for
an aliased edge id or failing with a raw ``IndexError``/``KeyError``.
"""

import pytest

from repro.errors import OracleError
from repro.graph import generators as gen
from repro.oracle.base import (
    AdjacencyQuery,
    DegreeQuery,
    EdgeCountQuery,
    NeighborQuery,
    RandomNeighborQuery,
)
from repro.streams.generators import turnstile_churn_stream
from repro.streams.stream import insertion_stream
from repro.transform.insertion import InsertionStreamOracle
from repro.transform.turnstile import TurnstileStreamOracle

N = 8

ORACLES = {
    "insertion": lambda graph: InsertionStreamOracle(insertion_stream(graph, rng=2), rng=3),
    "turnstile": lambda graph: TurnstileStreamOracle(
        turnstile_churn_stream(graph, 3, rng=2), rng=3
    ),
}

OUT_OF_RANGE = [
    AdjacencyQuery(-1, N),
    AdjacencyQuery(0, N),
    AdjacencyQuery(-1, 3),
    DegreeQuery(-1),
    DegreeQuery(N),
    RandomNeighborQuery(-1),
    RandomNeighborQuery(N),
    DegreeQuery(2 ** 63),
    AdjacencyQuery(0, 2 ** 63),
]


@pytest.fixture
def graph():
    return gen.gnp(N, 0.6, rng=1)


@pytest.mark.parametrize("kind", sorted(ORACLES))
@pytest.mark.parametrize("query", OUT_OF_RANGE, ids=repr)
def test_out_of_range_vertex_is_refused(graph, kind, query):
    oracle = ORACLES[kind](graph)
    with pytest.raises(OracleError, match=r"outside \[0, 8\)"):
        oracle.answer_batch([DegreeQuery(0), query, EdgeCountQuery()])


@pytest.mark.parametrize("query", [NeighborQuery(-1, 0), NeighborQuery(N, 0)], ids=repr)
def test_out_of_range_indexed_neighbor_is_refused(graph, query):
    oracle = ORACLES["insertion"](graph)
    with pytest.raises(OracleError, match="outside"):
        oracle.answer_batch([query])


@pytest.mark.parametrize("kind", sorted(ORACLES))
def test_boundary_vertices_are_answered_exactly(graph, kind):
    last = N - 1
    batch = [DegreeQuery(0), DegreeQuery(last), AdjacencyQuery(last, 0),
             AdjacencyQuery(0, last - 1), EdgeCountQuery()]
    answers = ORACLES[kind](graph).answer_batch(batch)
    assert answers == [
        graph.degree(0), graph.degree(last), graph.has_edge(0, last),
        graph.has_edge(0, last - 1), graph.m,
    ]
