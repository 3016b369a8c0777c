"""Query types of the (relaxed) augmented general graph model.

Definition 6 allows four query types on a graph G = (V, E):

* f1 — return a uniformly random edge;
* f2(v) — return the degree of v;
* f3(v, i) — return the i-th neighbor of v;
* f4(u, v) — return whether (u, v) ∈ E.

Definition 10 (the relaxed model, used for turnstile streams) replaces
f1 with an approximately uniform edge sample that may fail, and f3
with an approximately uniform random *neighbor* query.

A round-adaptive algorithm (Definition 8) communicates with an oracle
exclusively through *batches* of these queries: it hands over one
batch per round and receives positionally matching answers.  Both the
direct oracles (:mod:`repro.oracle.direct`) and the stream emulators
(:mod:`repro.transform`) answer the same queries — that shared
vocabulary is the transformation of Theorems 9/11.  A batch is either
a sequence of query objects (what a generator program yields) or a
:class:`QueryColumns` (what the FGP trial bank issues): a kind code
and two int64 operand columns, which the stream oracles lay out with
array operations and the direct oracles iterate as query objects.

All query types are frozen dataclasses of plain ints, so batches (and
their answers: ints, bools, vertex/edge tuples, ``None``) are cheaply
picklable.  The process backend (:mod:`repro.engine.parallel`) keeps
query traffic worker-local today — only estimator *specs* and decoded
stream batches cross the boundary — but this property is what a
future distributed oracle (queries shipped to a remote answering
service) would rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Sequence, Union

import numpy as np

from repro.errors import OracleError


@dataclass(frozen=True)
class RandomEdgeQuery:
    """f1: a uniformly random edge.  Answer: ``(u, v)`` or ``None``.

    In the augmented model the answer is exactly uniform and never
    fails; in the relaxed model it is near-uniform and may be ``None``.
    """


@dataclass(frozen=True)
class DegreeQuery:
    """f2: the degree of *vertex*.  Answer: ``int``."""

    vertex: int


@dataclass(frozen=True)
class NeighborQuery:
    """f3 (augmented): the *index*-th neighbor of *vertex* (0-based).

    Answer: neighbor id, or ``None`` when ``index >= degree``.
    Definition 6 requires ``i ∈ [dg(v)]``; we return ``None`` for
    out-of-range indices instead of raising, because the FGP sampler
    deliberately draws the index from [√(2m)] *before* knowing the
    degree and treats an out-of-range draw as a failed sample.
    """

    vertex: int
    index: int


@dataclass(frozen=True)
class RandomNeighborQuery:
    """f3 (relaxed): a near-uniform random neighbor of *vertex*.

    Answer: neighbor id or ``None`` (failure / isolated vertex).
    """

    vertex: int


@dataclass(frozen=True)
class AdjacencyQuery:
    """f4: whether the edge {u, v} is present.  Answer: ``bool``."""

    u: int
    v: int


@dataclass(frozen=True)
class EdgeCountQuery:
    """The number of edges m.

    The sublinear-time literature assumes m is known; a streaming
    algorithm obtains it by counting during its first pass.  Modelled
    as an explicit query so the transformation stays mechanical.
    """


Query = Union[
    RandomEdgeQuery,
    DegreeQuery,
    NeighborQuery,
    RandomNeighborQuery,
    AdjacencyQuery,
    EdgeCountQuery,
]

#: The query kinds in code order: ``QueryColumns.kinds`` indexes this tuple.
QUERY_KINDS = (
    AdjacencyQuery,
    DegreeQuery,
    RandomEdgeQuery,
    NeighborQuery,
    RandomNeighborQuery,
    EdgeCountQuery,
)
ADJACENCY, DEGREE, RANDOM_EDGE, NEIGHBOR, RANDOM_NEIGHBOR, EDGE_COUNT = range(len(QUERY_KINDS))
_CODES = {kind: code for code, kind in enumerate(QUERY_KINDS)}


class QueryColumns:
    """One round's query batch as columns: a kind code and two int64 operands.

    Query ``i`` is ``QUERY_KINDS[kinds[i]]`` with operands ``a[i]`` and
    ``b[i]``: ``AdjacencyQuery(u=a, v=b)``, ``NeighborQuery(vertex=a,
    index=b)``, ``DegreeQuery(vertex=a)`` and
    ``RandomNeighborQuery(vertex=a)``; operands a kind does not take
    are 0.  Iterating yields the query objects, so an oracle that
    answers one query at a time reads columns and object lists alike.
    """

    __slots__ = ("kinds", "a", "b")

    def __init__(self, kinds: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
        self.kinds = kinds
        self.a = a
        self.b = b

    @classmethod
    def from_queries(cls, batch: Sequence[Query]) -> "QueryColumns":
        """Columns of a query-object batch.

        Raises :class:`~repro.errors.OracleError` for an object that is
        not one of :data:`QUERY_KINDS`, and ``OverflowError`` for an
        operand outside int64.
        """
        kinds: List[int] = []
        a: List[int] = []
        b: List[int] = []
        for query in batch:
            code = _CODES.get(type(query))
            if code is None:
                raise OracleError(f"unsupported query type {type(query).__name__}")
            kinds.append(code)
            if code == ADJACENCY:
                a.append(query.u)
                b.append(query.v)
            elif code == NEIGHBOR:
                a.append(query.vertex)
                b.append(query.index)
            elif code in (DEGREE, RANDOM_NEIGHBOR):
                a.append(query.vertex)
                b.append(0)
            else:
                a.append(0)
                b.append(0)
        return cls(
            np.array(kinds, dtype=np.int8),
            np.array(a, dtype=np.int64),
            np.array(b, dtype=np.int64),
        )

    def __len__(self) -> int:
        return len(self.kinds)

    def __iter__(self) -> Iterator[Query]:
        for code, a, b in zip(self.kinds.tolist(), self.a.tolist(), self.b.tolist()):
            if code == ADJACENCY:
                yield AdjacencyQuery(a, b)
            elif code == NEIGHBOR:
                yield NeighborQuery(a, b)
            elif code == DEGREE:
                yield DegreeQuery(a)
            elif code == RANDOM_NEIGHBOR:
                yield RandomNeighborQuery(a)
            else:
                yield QUERY_KINDS[code]()

    def counts(self) -> Dict[str, int]:
        """Queries per kind name, kinds in order of first appearance."""
        codes, first, totals = np.unique(self.kinds, return_index=True, return_counts=True)
        order = np.argsort(first)
        return {
            QUERY_KINDS[code].__name__: count
            for code, count in zip(codes[order].tolist(), totals[order].tolist())
        }


QueryBatch = Union[Sequence[Query], QueryColumns]


@dataclass
class QueryAccounting:
    """Counts queries by type; ``q`` drives the space bound O(q log n)."""

    counts: Dict[str, int] = field(default_factory=dict)

    def record(self, query: Query) -> None:
        self.record_batch((query,))

    def record_batch(self, batch: QueryBatch) -> None:
        counts = self.counts
        get = counts.get
        if isinstance(batch, QueryColumns):
            for name, count in batch.counts().items():
                counts[name] = get(name, 0) + count
            return
        for query in batch:
            name = type(query).__name__
            counts[name] = get(name, 0) + 1

    @property
    def total(self) -> int:
        """Total number of queries asked so far."""
        return sum(self.counts.values())

    def by_type(self) -> Dict[str, int]:
        return dict(self.counts)

    def state_dict(self) -> Dict[str, int]:
        """The per-type counters (checkpoint protocol)."""
        return dict(self.counts)

    def load_state_dict(self, state: Dict[str, int]) -> None:
        """Restore counters captured by :meth:`state_dict`."""
        self.counts = {str(k): int(v) for k, v in dict(state).items()}
