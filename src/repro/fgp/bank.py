"""The k attempts of one FGP estimator as one array program (Lemma 16).

Theorem 17 (and Theorem 1) run k independent FGP sampler attempts in
the same three passes.  The round structure of an attempt
(:mod:`repro.fgp.rounds`) does not depend on the input, so
:class:`FgpTrialBank` holds all k attempts ("trials") as ``(k, ·)``
arrays and issues each round as one
:class:`~repro.oracle.base.QueryColumns` batch: trial by trial, in
trial order, the queries one attempt would ask.

Every draw a trial makes is a uniform ``random()``, taken in the
attempt's order: the orientation coins of its unfailed pieces and (in
the augmented model) one neighbor index per odd cycle after round 1,
then per odd cycle the branch or acceptance coin SampleWedge needs,
then the copy slot.  So a trial makes at most D = (round-1 slots) +
(augmented: one per odd cycle) + (one coin per odd cycle) + 1 draws,
D = 5 for the triangle in the augmented model.  The bank draws each
trial's first D uniforms off its randomness source at construction
into a read-only ``(k, D)`` *tape* and keeps a per-trial cursor into
it; it holds no ``random.Random`` afterwards.  Trials are independent,
so only the order within a trial matters, and a tape row is exactly
the sequence the trial would have drawn.  The rejections that need no
randomness beyond those coins — failed samples, a ``None`` wedge, a
disabled branch, a failed coin, repeated vertices, a missing cycle
edge, stars without a common center — are array masks; the
canonicality checks (Definitions 13–14), the copy resolution and the
slot draw run in Python for the few trials that survive them.

The bank exposes the lockstep protocol of
:class:`~repro.transform.driver.LockstepState` (``live``, ``merge()``,
``dispatch(answers)``, ``outputs``), so the drivers and the engine's
``RoundAdaptiveEstimator`` run it where they would run generators.
:meth:`FgpTrialBank.fork` starts a fresh run over the same tape and
structure, which is how a live query forks an estimator without
re-seeding its trials.
"""

from __future__ import annotations

import itertools
from typing import Any, List, Optional, Sequence

import numpy as np

from repro.errors import OracleError, SketchError
from repro.fgp.rounds import (
    WEDGE_BOTH,
    WEDGE_HIGH_ONLY,
    WEDGE_LOW_ONLY,
    SampledCopy,
    SamplerMode,
)
from repro.graph.graph import Graph, normalize_edge
from repro.graph.order import VertexOrder
from repro.oracle.base import (
    ADJACENCY,
    DEGREE,
    EDGE_COUNT,
    NEIGHBOR,
    RANDOM_EDGE,
    RANDOM_NEIGHBOR,
    QueryColumns,
)
from repro.patterns.canonical import is_canonical_cycle, is_canonical_star
from repro.patterns.isomorphism import enumerate_spanning_copies
from repro.patterns.pattern import Pattern
from repro.utils.rng import RandomSource, ensure_rng

#: Fills the vertex slots a trial does not use; sorts after every vertex.
_ABSENT = np.iinfo(np.int64).max
_NO_EDGE = (-1, -1)


def _columns(kinds: np.ndarray, a: np.ndarray, b: np.ndarray, mask: np.ndarray) -> QueryColumns:
    """The masked cells of ``(trials, width)`` query matrices, row by row."""
    kinds = np.broadcast_to(kinds, mask.shape)
    return QueryColumns(kinds[mask].astype(np.int8), a[mask], b[mask])


class FgpTrialBank:
    """The trials of one FGP estimator, driven in lockstep as arrays.

    Parameters
    ----------
    pattern:
        The pattern H whose copies the trials sample.
    rngs:
        One randomness source per trial (seed or ``random.Random``).
        Each is read once, here: it advances by exactly D ``random()``
        draws (see the module docstring), however many the trial
        later uses.
    mode:
        :attr:`SamplerMode.AUGMENTED` (indexed f3) or
        :attr:`SamplerMode.RELAXED` (random-neighbor f3 plus an
        acceptance coin).
    wedge_branches:
        Ablation knob: ``"low_only"`` / ``"high_only"`` disable one
        branch of SampleWedge (Algorithm 6) — experiment A1.
    skip_empty_wedge_round:
        Elide round 2 when H's decomposition has no odd cycles, making
        the attempt 2-round adaptive (the basis of
        :mod:`repro.streaming.two_pass`).

    ``outputs[t]`` is trial t's :data:`~repro.fgp.rounds.SampledCopy`
    or ``None`` once the bank is no longer :attr:`live`.  Round 1 holds
    every trial; a trial whose edge count answer is 0 ends there.
    Trials whose samples failed still ask rounds 2 and 3, so the round
    structure stays input-independent.
    """

    #: What :meth:`fork` shares: set at construction, never written after.
    _FROZEN = (
        "_pattern", "_family_count", "_tape", "_relaxed", "_branches", "_piece_starts",
        "_piece_of_slot", "_cycles", "_stars", "_wedge_round", "_first_round",
    )

    def __init__(
        self,
        pattern: Pattern,
        rngs: Sequence[RandomSource],
        mode: str = SamplerMode.AUGMENTED,
        wedge_branches: str = WEDGE_BOTH,
        skip_empty_wedge_round: bool = False,
    ) -> None:
        if mode not in (SamplerMode.AUGMENTED, SamplerMode.RELAXED):
            raise SketchError(f"unknown sampler mode {mode!r}")
        if wedge_branches not in (WEDGE_BOTH, WEDGE_LOW_ONLY, WEDGE_HIGH_ONLY):
            raise SketchError(f"unknown wedge branch setting {wedge_branches!r}")
        self._pattern = pattern
        # Computed up front, as each attempt did: the pattern's cache is
        # part of every estimator spec a checkpoint pickles.
        self._family_count = pattern.family_count()
        self._relaxed = mode == SamplerMode.RELAXED
        self._branches = wedge_branches
        decomposition = pattern.decomposition()
        cycles = list(decomposition.cycle_lengths)
        # One trial's round-1 edge slots: per odd cycle of length
        # 2h + 1 its extra edge, then its h path edges; per star its
        # petal edges.
        sizes = [(length - 1) // 2 + 1 for length in cycles] + list(decomposition.star_petals)
        starts = list(itertools.accumulate(sizes, initial=0))
        self._piece_starts = starts[:-1]
        self._piece_of_slot = np.repeat(np.arange(len(sizes)), sizes)
        self._cycles = [(starts[i], size - 1) for i, size in enumerate(sizes[: len(cycles)])]
        self._stars = [range(starts[i], starts[i + 1]) for i in range(len(cycles), len(sizes))]
        self._wedge_round = bool(cycles) or not skip_empty_wedge_round
        slots = len(self._piece_of_slot)
        draws = slots + (0 if self._relaxed else len(cycles)) + len(cycles) + 1
        uniforms = [ensure_rng(rng).random for rng in rngs]
        trials = len(uniforms)
        self._tape = np.fromiter(
            (draw() for draw in uniforms for _ in range(draws)),
            dtype=np.float64,
            count=trials * draws,
        ).reshape(trials, draws)
        kinds = np.tile(np.array([EDGE_COUNT] + [RANDOM_EDGE] * slots, dtype=np.int8), trials)
        zeros = np.zeros(trials * (slots + 1), dtype=np.int64)
        for array in (self._tape, kinds, zeros):
            array.flags.writeable = False
        self._first_round = QueryColumns(kinds, zeros, zeros) if trials else None
        self._reset()

    def _reset(self) -> None:
        """Start the run: every trial alive, nothing drawn, round 1 pending."""
        trials = len(self._tape)
        self.outputs: List[Optional[SampledCopy]] = [None] * trials
        self._round = 0  # rounds dispatched so far
        self._alive = np.ones(trials, dtype=bool)
        self._cursor = np.zeros(trials, dtype=np.int64)  # uniforms drawn per trial
        self._pending: Optional[QueryColumns] = self._first_round

    def fork(self) -> "FgpTrialBank":
        """A fresh run over this bank's tape and structure.

        The fork shares the read-only parts (tape, pattern structure,
        round-1 columns) and has its own cursors and round state, so it
        equals a bank rebuilt from the same sources, and this bank is
        never written.
        """
        bank = object.__new__(FgpTrialBank)
        for name in self._FROZEN:
            setattr(bank, name, getattr(self, name))
        bank._reset()
        return bank

    # -- the lockstep protocol --------------------------------------------

    @property
    def live(self) -> bool:
        """Whether any trial still has rounds to run."""
        return self._pending is not None

    def merge(self) -> QueryColumns:
        """The live trials' next queries, trial by trial."""
        return self._pending

    def dispatch(self, answers: List[Any]) -> None:
        """Take one round's answers (positional to :meth:`merge`)."""
        expected = 0 if self._pending is None else len(self._pending)
        if len(answers) != expected:
            raise OracleError(f"oracle answered {len(answers)} of {expected} queries")
        if self._pending is not None:
            # Looked up per call: a stored bound method would make the
            # bank a reference cycle, freed only by the cyclic collector.
            (self._take_edges, self._take_wedges, self._take_pool)[self._round](answers)

    # -- rounds ------------------------------------------------------------

    def _draw(self, trials: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """The next ``counts[i]`` uniforms of distinct trials ``trials[i]``, flattened."""
        firsts = np.cumsum(counts) - counts  # each trial's first flat position
        columns = np.arange(counts.sum()) - np.repeat(firsts - self._cursor[trials], counts)
        self._cursor[trials] += counts
        return self._tape[np.repeat(trials, counts), columns]

    def _take_edges(self, answers: List[Any]) -> None:
        """Round 1: edge count and samples; orient, then ask for wedges."""
        trials = len(self._tape)
        slots = len(self._piece_of_slot)
        width = slots + 1
        m = np.fromiter(answers[::width], dtype=np.int64, count=trials)
        self._alive = alive = m != 0
        ends = np.full((trials, slots, 2), -1, dtype=np.int64)
        for slot in range(slots):
            column = [edge or _NO_EDGE for edge in answers[1 + slot :: width]]
            ends[:, slot] = np.fromiter(
                itertools.chain.from_iterable(column), dtype=np.int64, count=2 * trials
            ).reshape(trials, 2)
        if slots:
            pieces = np.logical_and.reduceat(ends[:, :, 0] >= 0, self._piece_starts, axis=1)
        else:
            pieces = np.zeros((trials, 0), dtype=bool)
        pieces &= alive[:, None]
        self._failed = ~pieces.all(axis=1)
        self._good = good = pieces[:, self._piece_of_slot]
        # Orientation coins for the unfailed pieces' slots, then (in the
        # augmented model) one neighbor index per odd cycle.
        indexed = 0 if self._relaxed else len(self._cycles)
        drawn = np.concatenate((good, np.repeat(alive[:, None], indexed, axis=1)), axis=1)
        coins = np.zeros(drawn.shape)
        coins[drawn] = self._draw(np.arange(trials), drawn.sum(axis=1))
        flip = coins[:, :slots] >= 0.5
        self._tail = np.where(flip, ends[:, :, 1], ends[:, :, 0])
        self._head = np.where(flip, ends[:, :, 0], ends[:, :, 1])
        self._sqrt_2m = np.sqrt(2.0 * m)
        if not alive.any():
            self._pending = None
            return
        if not self._wedge_round:
            self._wedges = np.zeros((trials, 0), dtype=np.int64)
            self._ask_pool()
            return
        # Cycles are the first pieces; a failed cycle's anchor u_{i,1} is vertex 0.
        cycles = len(self._cycles)
        firsts = [start + 1 for start, _ in self._cycles]
        anchors = np.where(pieces[:, :cycles], self._tail[:, firsts], 0)
        if self._relaxed:
            kind, indices = RANDOM_NEIGHBOR, np.zeros_like(anchors)
        else:
            kind = NEIGHBOR
            indices = (coins[:, slots:] * self._sqrt_2m[:, None]).astype(np.int64)
        mask = np.repeat(alive[:, None], cycles, axis=1)
        self._pending = _columns(np.int8(kind), anchors, indices, mask)
        self._round = 1

    def _take_wedges(self, answers: List[Any]) -> None:
        """Round 2: the wedge vertices (``-1`` for ``None``)."""
        cycles = len(self._cycles)
        wedges = np.full((len(self._tape), cycles), -1, dtype=np.int64)
        wedges[self._alive] = np.fromiter(
            (-1 if vertex is None else vertex for vertex in answers),
            dtype=np.int64,
            count=len(answers),
        ).reshape(int(self._alive.sum()), cycles)
        self._wedges = wedges
        self._ask_pool()

    def _ask_pool(self) -> None:
        """Round 3: all-pairs adjacency, then degrees, of each trial's vertices."""
        good = self._good
        pool = np.concatenate(
            (np.where(good, self._tail, -1), np.where(good, self._head, -1), self._wedges),
            axis=1,
        )
        pool[pool < 0] = _ABSENT
        pool.sort(axis=1)
        pool[:, 1:][pool[:, 1:] == pool[:, :-1]] = _ABSENT
        pool.sort(axis=1)
        self._pool = pool
        self._sizes = sizes = (pool != _ABSENT).sum(axis=1)
        width = pool.shape[1]
        self._pairs = first, second = np.triu_indices(width, 1)
        columns = np.arange(width)
        self._mask = mask = np.concatenate(
            (second[None, :] < sizes[:, None], columns[None, :] < sizes[:, None]), axis=1
        ) & self._alive[:, None]
        kinds = np.array([ADJACENCY] * len(first) + [DEGREE] * width, dtype=np.int8)
        a = np.concatenate((pool[:, first], pool), axis=1)
        b = np.concatenate((pool[:, second], np.zeros_like(pool)), axis=1)
        self._pending = _columns(kinds, a, b, mask)
        self._round = 2

    def _take_pool(self, answers: List[Any]) -> None:
        """Round 3's answers: reject in bulk, resolve the survivors' copies."""
        self._pending = None
        values = np.zeros(self._mask.shape, dtype=np.int64)
        values[self._mask] = np.fromiter(answers, dtype=np.int64, count=len(answers))
        first, second = self._pairs
        pairs = len(first)
        trials, width = self._pool.shape
        adjacent = np.zeros((trials, width, width), dtype=bool)
        adjacent[:, first, second] = adjacent[:, second, first] = values[:, :pairs] != 0
        self._adjacent = adjacent
        self._degrees = values[:, pairs:]
        survivors = np.flatnonzero(self._alive & ~self._failed & (self._sizes > 0))
        sequences: List[np.ndarray] = []
        for cycle, (start, half) in enumerate(self._cycles):
            survivors, sequences = self._close_cycle(survivors, sequences, cycle, start, half)
        for petals in self._stars:
            centers = self._tail[survivors][:, petals]
            sequence = np.concatenate((centers[:, :1], self._head[survivors][:, petals]), axis=1)
            keep = (centers == centers[:, :1]).all(axis=1) & self._distinct(sequence)
            survivors = survivors[keep]
            sequences = [s[keep] for s in sequences] + [sequence[keep]]
        for row, trial in enumerate(survivors.tolist()):
            self.outputs[trial] = self._resolve(trial, [s[row].tolist() for s in sequences])

    # -- postprocessing ----------------------------------------------------

    def _local(self, trials: np.ndarray, vertices: np.ndarray) -> np.ndarray:
        """Each vertex's slot in its trial's sorted pool (vertices: ``(t, ·)``)."""
        return (self._pool[trials][:, None, :] == vertices[:, :, None]).argmax(axis=2)

    @staticmethod
    def _distinct(sequences: np.ndarray) -> np.ndarray:
        ordered = np.sort(sequences, axis=1)
        return ~(ordered[:, 1:] == ordered[:, :-1]).any(axis=1)

    def _close_cycle(self, survivors, sequences, cycle: int, start: int, half: int):
        """SampleWedge for odd cycle *cycle*: branch, coins, then the checks.

        The coin is drawn before this cycle's checks and after the
        previous cycle's, so the canonicality test runs here, per cycle.
        """
        tail, head = self._tail[survivors], self._head[survivors]
        sqrt_2m = self._sqrt_2m[survivors]
        anchor = tail[:, start + 1]
        extra = tail[:, start]
        wedge = self._wedges[survivors, cycle]
        local = self._local(survivors, np.stack((anchor, extra), axis=1))
        degrees = self._degrees[survivors]
        anchor_degree = degrees[np.arange(len(survivors)), local[:, 0]]
        low = anchor_degree <= sqrt_2m
        keep = ~(low & (wedge < 0))
        if self._branches == WEDGE_HIGH_ONLY:
            keep &= ~low
        elif self._branches == WEDGE_LOW_ONLY:
            keep &= low
        # Low branch: the wedge vertex, thinned by deg/√(2m) in the
        # relaxed model.  High branch: the extra edge's head, a
        # degree-proportional sample thinned to 1/√(2m).
        closing = np.where(low, wedge, extra)
        tossed = keep & (~low | self._relaxed)
        coins = np.zeros(len(survivors))
        coins[tossed] = self._draw(survivors[tossed], np.ones(tossed.sum(), dtype=np.int64))
        extra_degree = degrees[np.arange(len(survivors)), local[:, 1]]
        accepted = np.where(low, coins * sqrt_2m < anchor_degree, coins * extra_degree < sqrt_2m)
        keep &= ~tossed | accepted
        path = slice(start + 1, start + 1 + half)
        walk = np.stack((tail[:, path], head[:, path]), axis=2).reshape(len(survivors), 2 * half)
        sequence = np.concatenate((walk, closing[:, None]), axis=1)
        keep &= self._distinct(sequence)
        rows = np.flatnonzero(keep)
        slots = self._local(survivors[rows], sequence[rows])
        edges = self._adjacent[survivors[rows][:, None], slots, np.roll(slots, -1, axis=1)]
        keep[rows[~edges.all(axis=1)]] = False
        for row in np.flatnonzero(keep).tolist():
            order, has_edge = self._view(int(survivors[row]))
            if not is_canonical_cycle(sequence[row].tolist(), order, has_edge):
                keep[row] = False
        return survivors[keep], [s[keep] for s in sequences] + [sequence[keep]]

    def _view(self, trial: int):
        """Trial *trial*'s ≺ order and adjacency predicate over its pool."""
        size = int(self._sizes[trial])
        vertices = self._pool[trial, :size].tolist()
        slot = {vertex: index for index, vertex in enumerate(vertices)}
        rows = self._adjacent[trial, :size, :size].tolist()

        def has_edge(u: int, v: int) -> bool:
            if u == v or u not in slot or v not in slot:
                return False
            return rows[slot[u]][slot[v]]

        order = VertexOrder(dict(zip(vertices, self._degrees[trial, :size].tolist())))
        return order, has_edge

    def _resolve(self, trial: int, sequences: List[List[int]]) -> Optional[SampledCopy]:
        """Canonical stars, the support check, copy resolution and the slot draw."""
        order, has_edge = self._view(trial)
        cycles = len(self._cycles)
        family_vertices: List[int] = []
        family_edges = []
        for index, sequence in enumerate(sequences):
            if index < cycles:
                family_edges.extend(
                    normalize_edge(sequence[i], sequence[(i + 1) % len(sequence)])
                    for i in range(len(sequence))
                )
            else:
                if not is_canonical_star(sequence, order, has_edge):
                    return None
                family_edges.extend(normalize_edge(sequence[0], petal) for petal in sequence[1:])
            family_vertices.extend(sequence)
        pattern = self._pattern
        support = sorted(set(family_vertices))
        if len(support) != pattern.num_vertices or len(support) != len(family_vertices):
            return None
        local_of = {v: i for i, v in enumerate(support)}
        view = Graph(len(support))
        for u, v in itertools.combinations(support, 2):
            if has_edge(u, v):
                view.add_edge(local_of[u], local_of[v])
        required_local = {normalize_edge(local_of[u], local_of[v]) for u, v in family_edges}
        candidates = enumerate_spanning_copies(
            view, pattern.graph, list(range(len(support))), required_edges=required_local
        )
        if not candidates:
            return None
        family_count = self._family_count
        if len(candidates) > family_count:
            raise SketchError(
                f"family witnesses {len(candidates)} copies, exceeding f_T(H) = "
                f"{family_count}; per-copy probability accounting would break"
            )
        candidates.sort(key=sorted)
        slot = int(self._draw(np.array([trial]), np.ones(1, dtype=np.int64))[0] * family_count)
        if slot >= len(candidates):
            return None
        chosen = candidates[slot]
        return frozenset(normalize_edge(support[u], support[v]) for u, v in chosen)
