"""Scalar-vs-vectorized bit-equality for the columnar pipeline.

The columnar edge-batch pipeline (``repro.streams.batch`` + the
vectorized sketch kernels) promises *bit-identical* results to the
scalar definitions it implements.  These tests pin that promise down
at every layer: the field-arithmetic kernels and the batched sketch
entry points against their scalar methods, and the oracle pass states
and the fused engine end to end against the per-element reference of
``tests/reference.py`` — under seeded fuzz over batch sizes (including
0, 1, and uneven splits of the same stream), negative turnstile
deltas, and duplicate items inside one batch.
"""

import random

import numpy as np
import pytest

from repro import generators, insertion_stream, patterns
from repro.engine import (
    StreamEngine,
    count_subgraphs_insertion_only_fused,
    count_subgraphs_turnstile_fused,
    fgp_insertion_estimator,
    fgp_turnstile_estimator,
)
from repro.oracle.base import (
    AdjacencyQuery,
    DegreeQuery,
    EdgeCountQuery,
    NeighborQuery,
    RandomEdgeQuery,
    RandomNeighborQuery,
)
from repro.errors import SketchError
from repro.sketch.hashing import (
    MERSENNE_PRIME,
    PolynomialHash,
    geometric_level,
    hash_levels,
    horner,
    horner_vec,
    mulmod32_vec,
    mulmod_vec,
    power_tables,
    powmod_rows,
)
from repro.sketch.l0 import L0Sampler
from repro.sketch.reservoir import SkipAheadReservoirBank
from repro.streams.batch import EdgeBatch, sorted_member_mask
from repro.streams.generators import turnstile_churn_stream
from repro.streams.stream import EdgeStream, Update
from repro.transform.insertion import InsertionStreamOracle
from repro.transform.turnstile import TurnstileStreamOracle

from reference import ReferenceOracle, reference_fgp_run


class TestFieldKernels:
    def test_mulmod_matches_python_ints(self):
        rng = random.Random(7)
        a = np.array([rng.randrange(MERSENNE_PRIME) for _ in range(4096)], dtype=np.uint64)
        b = np.array([rng.randrange(MERSENNE_PRIME) for _ in range(4096)], dtype=np.uint64)
        out = mulmod_vec(a, b)
        for i in range(0, 4096, 97):
            assert int(out[i]) == (int(a[i]) * int(b[i])) % MERSENNE_PRIME

    def test_mulmod_boundary_values(self):
        p = MERSENNE_PRIME
        edge = np.array([0, 1, 2, p - 1, p - 2, (1 << 32) - 1, 1 << 32], dtype=np.uint64)
        for x in edge.tolist():
            out = mulmod_vec(np.full(len(edge), x, dtype=np.uint64), edge)
            for i, y in enumerate(edge.tolist()):
                assert int(out[i]) == (x * y) % p

    def test_narrow_and_wide_mulmod_agree_at_the_boundaries(self):
        # mulmod32_vec takes a second factor below 2^32; at and around
        # that bound (and at the field's ends) it must equal the wide
        # kernel and Python ints, with and without an addend.
        p = MERSENNE_PRIME
        wide = [0, 1, 2, (1 << 31), (1 << 32) - 1, 1 << 32, (1 << 32) + 1, p - 2, p - 1]
        narrow = [0, 1, 2, (1 << 31), (1 << 32) - 2, (1 << 32) - 1]
        a = np.array([x for x in wide for _ in narrow], dtype=np.uint64)
        x = np.array(narrow * len(wide), dtype=np.uint64)
        for addend in (None, 0, 1, p - 1):
            expected = [
                (int(ai) * int(xi) + (addend or 0)) % p for ai, xi in zip(a, x)
            ]
            assert mulmod32_vec(a, x, addend).tolist() == expected
            assert mulmod_vec(a, x, addend).tolist() == expected

    @pytest.mark.parametrize(
        "item", [0, (1 << 32) - 2, (1 << 32) - 1, 1 << 32, 1 << 40, MERSENNE_PRIME - 1]
    )
    def test_horner_switches_kernels_exactly_at_two_to_the_32(self, item):
        # A block whose largest item is 2^32 - 1 steps with the narrow
        # kernel, one reaching 2^32 with the wide one; both equal the
        # scalar Horner.
        hashes = [PolynomialHash(8, rng=seed) for seed in range(4)]
        coefficients = np.array([h.coefficients for h in hashes], dtype=np.uint64).T
        items = [item, 0, 1, 12345]
        x = np.array(items, dtype=np.uint64) % np.uint64(MERSENNE_PRIME)
        block = horner_vec(coefficients[:, :, None], x[None, :])
        assert block.tolist() == [[horner(h.coefficients, i) for i in items] for h in hashes]

    @pytest.mark.parametrize("max_level", [1, 2, 12, 45, 52, 53, 60, 61])
    def test_hash_levels_match_scalar_at_thresholds(self, max_level):
        # Both sides of every threshold p >> k, plus the field's ends.
        p = MERSENNE_PRIME
        raw = {0, 1, p - 2, p - 1}
        for k in range(1, 62):
            raw.update(value for value in ((p >> k) - 1, p >> k, (p >> k) + 1) if value >= 0)
        raw = sorted(raw)
        levels = hash_levels(np.array(raw, dtype=np.uint64), max_level)
        assert levels.tolist() == [geometric_level(value, max_level) for value in raw]

    @pytest.mark.parametrize("bits", [1, 6, 11, 39, 63])
    def test_powmod_rows_matches_builtin_pow(self, bits):
        rng = random.Random(bits)
        bases = [1, 2, MERSENNE_PRIME - 1] + [rng.randrange(MERSENNE_PRIME) for _ in range(4)]
        exponents = [0, 1, (1 << bits) - 1] + [rng.randrange(1 << bits) for _ in range(60)]
        tables = power_tables(np.array(bases, dtype=np.uint64), bits)
        block = powmod_rows(
            tables, np.arange(len(bases))[:, None], np.array(exponents, dtype=np.uint64)[None, :]
        )
        for row, base in enumerate(bases):
            assert block[row].tolist() == [pow(base, e, MERSENNE_PRIME) for e in exponents]
        rows = np.repeat(np.arange(len(bases)), len(exponents))
        flat = powmod_rows(tables, rows, np.tile(np.array(exponents, dtype=np.uint64), len(bases)))
        assert flat.tolist() == block.ravel().tolist()

    def test_mulmod_addend_and_row_horner_match_python_ints(self):
        rng = random.Random(13)
        p = MERSENNE_PRIME
        values = [0, 1, p - 1, (1 << 32) - 1] + [rng.randrange(p) for _ in range(200)]
        a, b, c = (np.array(rng.sample(values, len(values)), dtype=np.uint64) for _ in range(3))
        assert mulmod_vec(a, b, c).tolist() == [
            (int(x) * int(y) + int(z)) % p for x, y, z in zip(a, b, c)
        ]
        hashes = [PolynomialHash(8, rng=seed) for seed in range(5)]
        coefficients = np.array([h.coefficients for h in hashes], dtype=np.uint64).T
        items = [rng.randrange(1 << 62) for _ in range(50)]
        x = np.array(items, dtype=np.uint64) % np.uint64(p)
        block = horner_vec(coefficients[:, :, None], x[None, :])
        assert block.tolist() == [[h.value(i) for i in items] for h in hashes]

    def test_polynomial_hash_values_and_levels_match_scalar(self):
        rng = random.Random(3)
        for independence in (1, 2, 8):
            hash_function = PolynomialHash(independence, rng=rng.randrange(1 << 30))
            items = [rng.randrange(1 << 48) for _ in range(600)] + [0, MERSENNE_PRIME]
            vec = hash_function.values_many(np.array(items, dtype=np.uint64))
            assert [int(x) for x in vec] == [hash_function.value(i) for i in items]
            for max_level in (0, 1, 7, 40):
                lv = hash_function.levels_many(np.array(items, dtype=np.uint64), max_level)
                assert [int(x) for x in lv] == [
                    hash_function.level(i, max_level) for i in items
                ]

    def test_sorted_member_mask_matches_isin(self):
        rng = np.random.default_rng(5)
        haystack = np.unique(rng.integers(0, 1000, 64)).astype(np.int64)
        needles = rng.integers(0, 1000, 512).astype(np.int64)
        assert (sorted_member_mask(haystack, needles) == np.isin(needles, haystack)).all()


def _random_updates(rng, universe, count, allow_negative=True):
    """(item, delta) pairs with duplicates and (optionally) deletions."""
    updates = []
    for _ in range(count):
        item = rng.randrange(universe)
        delta = rng.choice([1, -1]) if allow_negative else 1
        updates.append((item, delta))
        if rng.random() < 0.3:  # force duplicate items inside the batch
            updates.append((item, -delta if allow_negative else 1))
    return updates


class TestBatchedSketches:
    @pytest.mark.parametrize("split", [[200], [1, 199], [0, 77, 123], [200] * 1])
    def test_l0_update_many_arrays_matches_scalar_across_splits(self, split):
        universe = 5000
        rng = random.Random(sum(split))
        updates = _random_updates(rng, universe, 200)[:200]
        scalar = L0Sampler(universe, rng=9, repetitions=4)
        vector = L0Sampler(universe, rng=9, repetitions=4)
        scalar.update_many(updates)
        cursor = 0
        for size in split:
            chunk = updates[cursor : cursor + size]
            cursor += size
            vector.update_many_arrays(
                np.array([i for i, _ in chunk], dtype=np.int64),
                np.array([d for _, d in chunk], dtype=np.int64),
            )
        # Remaining tail (splits may not cover all 200)
        tail = updates[cursor:]
        if tail:
            vector.update_many_arrays(
                np.array([i for i, _ in tail], dtype=np.int64),
                np.array([d for _, d in tail], dtype=np.int64),
            )
        # Every level's weight, weighted sum and fingerprint, per repetition.
        assert scalar.state_dict() == vector.state_dict()
        assert scalar.sample() == vector.sample()

    @pytest.mark.parametrize("case", [
        "repeated-items",
        "cancelling-pairs",
        "all-cancel",
        "sampler-indexed",
        "sampler-indexed-cancel",
        "heavy-deltas",
        "universe-2^32",
        "universe-past-2^32",
    ])
    def test_l0_update_many_arrays_matches_scalar(self, case):
        # One array call against the scalar reference, per sampler.
        rng = random.Random(case)
        universe = {"universe-2^32": 1 << 32, "universe-past-2^32": (1 << 32) + 5}.get(
            case, 3000
        )
        samplers = 3
        items = [rng.randrange(universe) for _ in range(60)]
        deltas = [rng.choice([1, -1, 2]) for _ in items]
        owners = [rng.randrange(samplers) for _ in items]
        if case == "repeated-items":
            items = [items[i % 7] for i in range(len(items))]
        elif case in ("cancelling-pairs", "sampler-indexed-cancel"):
            items, owners = items + items[::2], owners + owners[::2]
            deltas = deltas + [-d for d in deltas[::2]]
        elif case == "all-cancel":
            items, owners = items + items[::-1], owners + owners[::-1]
            deltas = deltas + [-d for d in deltas[::-1]]
        elif case == "heavy-deltas":
            deltas = [d << 26 for d in deltas]
        elif case.startswith("universe"):
            extra = [((1 << 32) - 1, 1), (0, 1), ((1 << 32) - 1, 1), (1, -1)]
            if universe > 1 << 32:
                extra += [(1 << 32, 1), (universe - 1, -1), (1 << 32, 2)]
            items += [item for item, _ in extra]
            deltas += [delta for _, delta in extra]
            owners += [rng.randrange(samplers) for _ in extra]
        rngs = [11, 12, 13]
        scalar = L0Sampler.bank(universe, rngs, repetitions=4)
        vector = L0Sampler.bank(universe, rngs, repetitions=4)
        if case.startswith("sampler-indexed"):
            for sampler in range(samplers):
                scalar.update_many(
                    [(i, d) for i, d, o in zip(items, deltas, owners) if o == sampler], sampler
                )
            vector.update_many_arrays(np.array(items), np.array(deltas), np.array(owners))
        else:
            scalar.update_many(zip(items, deltas))
            vector.update_many_arrays(np.array(items), np.array(deltas))
        assert scalar.state_dict() == vector.state_dict()
        for sampler in range(samplers):
            assert scalar.sample(sampler) == vector.sample(sampler)
        if case == "all-cancel":
            assert vector.state_dict() == L0Sampler.bank(universe, rngs, 4).state_dict()

    def test_l0_update_many_arrays_refuses_ragged_columns(self):
        # A length-1 delta column must not broadcast over the items, and
        # a short sampler column must not reach numpy: both are typed
        # refusals that leave every cell unchanged.
        bank = L0Sampler.bank(100, [1, 2], repetitions=2)
        before = bank.state_dict()
        with pytest.raises(SketchError, match="differ in length"):
            bank.update_many_arrays(np.array([1, 2, 3]), np.array([1]))
        with pytest.raises(SketchError, match="differ in length"):
            bank.update_many_arrays(np.array([1, 2, 3]), np.array([1, 1, 1]), np.array([0, 1]))
        with pytest.raises(SketchError, match="differ in length"):
            bank.update_many_arrays(np.array([], dtype=np.int64), np.array([1]))
        assert bank.state_dict() == before

    def test_l0_large_deltas_take_the_exact_path(self):
        # max|delta| × batch beyond 2^30 could wrap the int64 limb sums;
        # the guard must route such batches to the exact scalar path.
        items = [(1 << 31) - 1, 7, (1 << 31) - 1]
        deltas = [1 << 29, 1 << 29, -(1 << 29)]
        scalar = L0Sampler(1 << 40, rng=3, repetitions=2)
        vector = L0Sampler(1 << 40, rng=3, repetitions=2)
        scalar.update_many(zip(items, deltas))
        vector.update_many_arrays(
            np.array(items, dtype=np.int64), np.array(deltas, dtype=np.int64)
        )
        assert scalar.state_dict() == vector.state_dict()
        assert scalar.sample() == vector.sample() == 7

    def test_l0_update_many_arrays_validates_universe(self):
        sampler = L0Sampler(10, rng=1, repetitions=1)
        from repro.errors import SketchError

        with pytest.raises(SketchError):
            sampler.update_many_arrays(
                np.array([3, 10], dtype=np.int64), np.array([1, 1], dtype=np.int64)
            )

    @pytest.mark.parametrize("sizes", [[0, 1, 499], [500], [250, 250], [13] * 38 + [6]])
    def test_skip_ahead_bank_matches_per_element_across_batch_sizes(self, sizes):
        assert sum(sizes) == 500
        reference = SkipAheadReservoirBank(29, rng=4)
        batched = SkipAheadReservoirBank(29, rng=4)
        items = list(range(500))
        for item in items:
            reference.offer(item)
        cursor = 0
        for size in sizes:
            batched.offer_many(items[cursor : cursor + size])
            cursor += size
        assert reference.items() == batched.items()
        assert reference.count == batched.count

    def test_skip_ahead_bank_accepts_lazy_views_and_iterators(self):
        bank = SkipAheadReservoirBank(5, rng=8)
        bank.offer_many(iter(range(100)))  # non-indexable iterable
        other = SkipAheadReservoirBank(5, rng=8)
        other.offer_many(list(range(100)))
        assert bank.items() == other.items()
        assert bank.count == other.count == 100


def _query_mix(rng, n):
    """A batch exercising every insertion-oracle query type."""
    batch = [EdgeCountQuery(), RandomEdgeQuery(), RandomEdgeQuery()]
    for _ in range(4):
        batch.append(DegreeQuery(rng.randrange(n)))
        batch.append(AdjacencyQuery(rng.randrange(n), rng.randrange(n - 1) + 1))
        batch.append(NeighborQuery(rng.randrange(n), rng.randrange(3)))
        batch.append(RandomNeighborQuery(rng.randrange(n)))
    return batch


def _answers(oracle, queries, stream, batch_size):
    """One production pass over *stream* in batches of *batch_size*."""
    state = oracle.begin_batch(queries)
    for chunk in stream.batches(batch_size):
        state.ingest_batch(chunk)
    return state.finish()


class TestOraclePassStates:
    @pytest.mark.parametrize("batch_size", [1, 3, 64, 10_000])
    def test_insertion_pass_state_scalar_vs_columnar(self, batch_size):
        rng = random.Random(batch_size)
        graph = generators.gnp(40, 0.2, rng=1)
        stream = insertion_stream(graph, rng=2)
        queries = _query_mix(rng, stream.n)
        columnar = _answers(InsertionStreamOracle(stream, rng=77), queries, stream, batch_size)
        assert columnar == ReferenceOracle(stream, rng=77).answer_batch(queries)

    @pytest.mark.parametrize("batch_size", [1, 7, 4096])
    def test_turnstile_pass_state_scalar_vs_columnar(self, batch_size):
        rng = random.Random(batch_size)
        graph = generators.gnp(30, 0.3, rng=3)
        stream = turnstile_churn_stream(graph, churn_edges=25, rng=4)
        assert stream.allows_deletions  # negative deltas exercised
        queries = [
            EdgeCountQuery(),
            RandomEdgeQuery(),
            DegreeQuery(rng.randrange(stream.n)),
            AdjacencyQuery(0, 1),
            RandomNeighborQuery(rng.randrange(stream.n)),
        ]
        oracle = TurnstileStreamOracle(stream, rng=31, sampler_repetitions=4)
        columnar = _answers(oracle, queries, stream, batch_size)
        reference = ReferenceOracle(stream, rng=31, sampler_repetitions=4)
        assert columnar == reference.answer_batch(queries)

    def test_empty_stream_pass_state(self):
        stream = EdgeStream(5, [], allow_deletions=True)
        oracle = TurnstileStreamOracle(stream, rng=1)
        state = oracle.begin_batch([EdgeCountQuery(), RandomEdgeQuery()])
        for chunk in stream.batches():
            state.ingest_batch(chunk)
        assert state.finish() == [0, None]


class TestEndToEnd:
    @pytest.mark.parametrize("batch_size", [1, 7, 64, 100_000])
    def test_fused_insertion_scalar_vs_columnar_engine(self, batch_size):
        graph = generators.barabasi_albert(150, 4, rng=11)
        stream = insertion_stream(graph, rng=12)
        engine = StreamEngine(stream, batch_size=batch_size)
        fgp = engine.register(
            fgp_insertion_estimator(stream, patterns.triangle(), trials=40, rng=61, name="fgp")
        )
        result = engine.run()["fgp"]
        estimate, passes = reference_fgp_run(stream, patterns.triangle(), 40, 61)
        assert result.estimate == estimate
        assert fgp.state_dict()["history"] == passes

    def test_fused_turnstile_scalar_vs_columnar_engine(self):
        graph = generators.gnp(30, 0.3, rng=13)
        stream = turnstile_churn_stream(graph, churn_edges=20, rng=14)
        engine = StreamEngine(stream, batch_size=13)
        fgp = engine.register(
            fgp_turnstile_estimator(stream, patterns.triangle(), trials=8, rng=71, name="fgp")
        )
        result = engine.run()["fgp"]
        estimate, passes = reference_fgp_run(
            stream, patterns.triangle(), 8, 71, sampler_repetitions=8
        )
        assert result.estimate == estimate
        assert fgp.state_dict()["history"] == passes

    def test_fused_entry_point_matches_reference(self):
        # A triangle-dense graph: the median is nonzero, so the
        # per-copy equality is not a comparison of 0.0 with 0.0.
        graph = generators.power_law_cluster(300, 5, 0.8, 11)
        stream = insertion_stream(graph, rng=12)
        seeds = [13, 14, 15, 16]
        fused = count_subgraphs_insertion_only_fused(
            stream, patterns.triangle(), copies=4, trials=40, copy_rngs=seeds, mode="mirror"
        )
        assert fused.passes == 3
        assert fused.estimate > 0
        assert fused.estimates == [
            reference_fgp_run(stream, patterns.triangle(), 40, seed)[0] for seed in seeds
        ]

    def test_fused_turnstile_entry_point_matches_reference(self):
        # Dense enough that both 6-trial copies find a triangle, so the
        # equality below compares nonzero estimates.
        graph = generators.gnp(16, 0.8, rng=23)
        stream = turnstile_churn_stream(graph, churn_edges=15, rng=24)
        seeds = [7, 8]
        fused = count_subgraphs_turnstile_fused(
            stream, patterns.triangle(), copies=2, trials=6, copy_rngs=seeds, mode="mirror"
        )
        assert fused.estimate > 0
        assert fused.estimates == [
            reference_fgp_run(stream, patterns.triangle(), 6, seed, sampler_repetitions=8)[0]
            for seed in seeds
        ]

    def test_process_backend_ships_columnar_batches_bit_identically(self):
        graph = generators.barabasi_albert(100, 4, rng=31)
        stream = insertion_stream(graph, rng=32)
        serial = count_subgraphs_insertion_only_fused(
            stream, patterns.triangle(), copies=2, trials=15, rng=3, mode="mirror"
        )
        process = count_subgraphs_insertion_only_fused(
            stream,
            patterns.triangle(),
            copies=2,
            trials=15,
            rng=3,
            mode="mirror",
            backend="process",
            workers=2,
        )
        assert serial.estimates == process.estimates


class TestEdgeBatch:
    def test_sequence_protocol_matches_decoded_tuples(self):
        updates = [Update(0, 3), Update(2, 1), Update(4, 0)]
        batch = EdgeBatch.from_updates(updates)
        expected = [(u.u, u.v, u.delta, u.edge) for u in updates]
        assert list(batch) == expected
        assert batch[1] == expected[1]
        assert len(batch) == 3
        assert batch.edge_list() == [u.edge for u in updates]
        assert all(isinstance(x, int) for tup in batch for x in tup[:3])

    def test_slicing_returns_batches(self):
        batch = EdgeBatch.from_updates([Update(0, 1), Update(1, 2), Update(2, 3)])
        tail = batch[1:]
        assert isinstance(tail, EdgeBatch)
        assert list(tail) == list(batch)[1:]

    def test_pickle_drops_caches_and_round_trips(self):
        import pickle

        batch = EdgeBatch.from_updates([Update(0, 5), Update(3, 1)])
        batch.tuples()  # materialize caches
        batch.edge_ids(6)
        clone = pickle.loads(pickle.dumps(batch))
        assert clone._tuples is None and clone._edge_ids is None
        assert list(clone) == list(batch)

    def test_edge_ids_match_turnstile_encoding(self):
        from repro.streams.batch import edge_id

        batch = EdgeBatch.from_updates([Update(4, 1), Update(0, 5), Update(2, 3)])
        ids = batch.edge_ids(6).tolist()
        assert ids == [edge_id(u, v, 6) for u, v, _, _ in batch]

    def test_events_interleave_in_stream_order(self):
        batch = EdgeBatch.from_updates([Update(1, 2), Update(3, 0)])
        endpoint, other, index = batch.events()
        assert endpoint.tolist() == [1, 2, 3, 0]
        assert other.tolist() == [2, 1, 0, 3]
        assert index.tolist() == [0, 0, 1, 1]

    def test_stream_batches_cache_and_count_passes(self):
        graph = generators.gnp(20, 0.3, rng=2)
        stream = insertion_stream(graph, rng=3)
        stream.reset_pass_count()
        first = list(stream.batches(7))
        second = list(stream.batches(7))
        assert stream.passes_used == 2
        assert all(a is b for a, b in zip(first, second))  # cached objects
        flat = [tup for batch in first for tup in batch]
        assert flat == [(u.u, u.v, u.delta, u.edge) for u in stream.updates()]
