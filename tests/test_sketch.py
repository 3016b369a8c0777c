"""Tests for hashing, 1-sparse recovery, ℓ0-sampling, reservoirs."""

import random
from collections import Counter

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.errors import SketchError
from repro.sketch.hashing import MERSENNE_PRIME, PolynomialHash
from repro.sketch.l0 import CELL_BOUND, L0Sampler
from repro.sketch.onesparse import OneSparseRecovery
from repro.sketch.reservoir import (
    ReservoirSampler,
    SingleReservoir,
    SkipAheadReservoirBank,
)


class TestPolynomialHash:
    def test_deterministic(self):
        a = PolynomialHash(4, rng=7)
        b = PolynomialHash(4, rng=7)
        assert all(a.value(x) == b.value(x) for x in range(100))

    def test_range_reduction(self):
        h = PolynomialHash(4, rng=1)
        assert all(0 <= h.to_range(x, 10) < 10 for x in range(200))

    def test_unit_interval(self):
        h = PolynomialHash(4, rng=2)
        assert all(0.0 <= h.to_unit(x) < 1.0 for x in range(200))

    def test_level_distribution_roughly_geometric(self):
        h = PolynomialHash(8, rng=3)
        levels = Counter(h.level(x, 20) for x in range(20000))
        # About half the items at level 0, quarter at level 1, ...
        assert 0.4 <= levels[0] / 20000 <= 0.6
        assert 0.15 <= levels[1] / 20000 <= 0.35

    def test_invalid_independence(self):
        with pytest.raises(ValueError):
            PolynomialHash(0)

    def test_pairwise_collision_rate(self):
        h = PolynomialHash(2, rng=5)
        values = [h.to_range(x, 1000) for x in range(1000)]
        collisions = len(values) - len(set(values))
        assert collisions < 1000 * 0.6  # birthday-ish, loose sanity bound


class TestOneSparseRecovery:
    def test_empty(self):
        sketch = OneSparseRecovery(100, rng=1)
        assert sketch.is_empty
        assert sketch.recover() is None

    def test_single_item(self):
        sketch = OneSparseRecovery(100, rng=2)
        sketch.update(42, 3)
        assert sketch.recover() == (42, 3)

    def test_two_items_rejected(self):
        sketch = OneSparseRecovery(100, rng=3)
        sketch.update(10, 1)
        sketch.update(20, 1)
        assert sketch.recover() is None

    def test_delete_back_to_single(self):
        sketch = OneSparseRecovery(100, rng=4)
        sketch.update(10, 1)
        sketch.update(20, 1)
        sketch.update(10, -1)
        assert sketch.recover() == (20, 1)

    def test_delete_to_empty(self):
        sketch = OneSparseRecovery(100, rng=5)
        sketch.update(7, 1)
        sketch.update(7, -1)
        assert sketch.is_empty
        assert sketch.recover() is None

    def test_out_of_universe_rejected(self):
        sketch = OneSparseRecovery(10, rng=6)
        with pytest.raises(ValueError):
            sketch.update(10, 1)

    @given(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=30), st.sampled_from([1, -1])),
            max_size=40,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_never_reports_wrong_singleton(self, updates):
        """If recovery succeeds, the reported item is the true support."""
        sketch = OneSparseRecovery(31, rng=9)
        truth = Counter()
        for item, delta in updates:
            sketch.update(item, delta)
            truth[item] += delta
        support = {i: c for i, c in truth.items() if c != 0}
        recovered = sketch.recover()
        if len(support) == 1:
            ((item, count),) = support.items()
            assert recovered == (item, count)
        elif recovered is not None:
            # A false positive needs a fingerprint collision (prob ~2^-61).
            assert dict([recovered]) == support


class TestL0Sampler:
    def _fill(self, sampler, items):
        for item in items:
            sampler.update(item, 1)

    def test_single_item(self):
        sampler = L0Sampler(1000, rng=1, repetitions=4)
        sampler.update(77, 1)
        assert sampler.sample() == 77

    def test_empty_returns_none(self):
        sampler = L0Sampler(1000, rng=2)
        assert sampler.sample() is None
        assert sampler.is_empty()

    def test_sample_in_support(self):
        items = list(range(0, 500, 7))
        sampler = L0Sampler(512, rng=3, repetitions=6)
        self._fill(sampler, items)
        result = sampler.sample()
        assert result in set(items)

    def test_deleted_items_never_returned(self):
        sampler = L0Sampler(256, rng=4, repetitions=6)
        for item in range(40):
            sampler.update(item, 1)
        for item in range(20):
            sampler.update(item, -1)
        for _ in range(5):
            result = sampler.sample()
            assert result is None or 20 <= result < 40

    def test_rough_uniformity(self):
        support = [3, 50, 99, 140, 200, 255]
        counts = Counter()
        for seed in range(800):
            sampler = L0Sampler(256, rng=seed, repetitions=6)
            self._fill(sampler, support)
            result = sampler.sample()
            if result is not None:
                counts[result] += 1
        assert set(counts) <= set(support)
        total = sum(counts.values())
        assert total > 700  # high success rate
        for item in support:
            assert counts[item] / total > 0.5 / len(support)

    def test_space_words_positive_and_monotone_in_repetitions(self):
        small = L0Sampler(1024, rng=1, repetitions=2)
        big = L0Sampler(1024, rng=1, repetitions=8)
        assert 0 < small.space_words < big.space_words

    def test_invalid_args(self):
        with pytest.raises(SketchError):
            L0Sampler(0)
        with pytest.raises(SketchError):
            L0Sampler(10, repetitions=0)
        sampler = L0Sampler(10, rng=1)
        with pytest.raises(SketchError):
            sampler.update(10, 1)


def _bank_and_singles(universe, count, repetitions=3, seed=40):
    """A bank of *count* samplers and the same samplers built alone."""
    seeds = [seed + s for s in range(count)]
    bank = L0Sampler.bank(universe, seeds, repetitions)
    return bank, [L0Sampler(universe, s, repetitions) for s in seeds]


def _feed_arrays(bank, rows, splits, routed=False):
    """Feed ``(item, delta[, sampler])`` rows through update_many_arrays in *splits*."""
    columns = np.array(rows, dtype=np.int64).reshape(len(rows), -1)
    cursor = 0
    for size in splits + [len(rows)]:
        part = columns[cursor : cursor + size]
        cursor += len(part)
        bank.update_many_arrays(part[:, 0], part[:, 1], part[:, 2] if routed else None)


class TestL0SamplerBank:
    """A bank equals its samplers built alone and fed the scalar path."""

    SPLITS = [[], [1, 0, 57], [13] * 9]

    @pytest.mark.parametrize("splits", SPLITS)
    def test_shared_items_match_single_samplers(self, splits):
        rng = random.Random(len(splits))
        universe = 3000
        updates = []
        for _ in range(150):
            item = rng.randrange(universe)
            updates.append((item, rng.choice([1, -1, 3])))
            if rng.random() < 0.3:  # duplicates and deletions in one batch
                updates.append((item, -1))
        bank, singles = _bank_and_singles(universe, 5)
        _feed_arrays(bank, updates, splits)
        for single in singles:
            single.update_many(updates)
        assert bank.state_dict()["samplers"] == [s.sampler_state() for s in singles]
        assert [bank.sample(i) for i in range(5)] == [s.sample() for s in singles]

    @pytest.mark.parametrize("splits", SPLITS)
    def test_routed_pairs_match_single_samplers(self, splits):
        rng = random.Random(7 + len(splits))
        universe = 64
        routed = [
            (rng.randrange(universe), rng.choice([1, -1]), rng.randrange(4))
            for _ in range(160)
        ]
        routed += [(item, -delta, sampler) for item, delta, sampler in routed[:40]]
        bank, singles = _bank_and_singles(universe, 4)
        _feed_arrays(bank, routed, splits, routed=True)
        for index, single in enumerate(singles):
            single.update_many([(i, d) for i, d, s in routed if s == index])
        assert bank.state_dict()["samplers"] == [s.sampler_state() for s in singles]
        assert [bank.is_empty(i) for i in range(4)] == [s.is_empty() for s in singles]

    @pytest.mark.parametrize("n", [10**5, 2**32])
    def test_edge_ids_above_2_32(self, n):
        from repro.streams.batch import edge_id

        universe = n * (n - 1) // 2
        rng = random.Random(n % 1009)
        ids = [edge_id(0, 1, n), edge_id(n - 2, n - 1, n), edge_id(1, n - 1, n)]
        ids += [rng.randrange(universe) for _ in range(40)]
        updates = [(item, rng.choice([1, -1])) for item in ids]
        assert max(ids) >= 1 << 32 or n < 2**32
        bank, singles = _bank_and_singles(universe, 3, repetitions=2)
        _feed_arrays(bank, updates, [7])
        for single in singles:
            single.update_many(updates)
        assert bank.state_dict()["samplers"] == [s.sampler_state() for s in singles]

    def test_two_shard_merge_equals_one_bank(self):
        rng = random.Random(5)
        updates = [(rng.randrange(800), rng.choice([1, -1])) for _ in range(120)]
        whole, _ = _bank_and_singles(800, 3)
        left, _ = _bank_and_singles(800, 3)
        right, _ = _bank_and_singles(800, 3)
        _feed_arrays(whole, updates, [])
        _feed_arrays(left, updates[:50], [])
        _feed_arrays(right, updates[50:], [])
        left.merge(right)
        assert left.state_dict() == whole.state_dict()

    def test_state_dict_round_trip_continues_identically(self):
        rng = random.Random(9)
        updates = [(rng.randrange(500), rng.choice([1, -1])) for _ in range(80)]
        original, _ = _bank_and_singles(500, 3)
        _feed_arrays(original, updates[:40], [])
        # A bank built from other seeds adopts the captured frozen randomness.
        restored, _ = _bank_and_singles(500, 3, seed=99)
        restored.load_state_dict(original.state_dict())
        assert restored.state_dict() == original.state_dict()
        _feed_arrays(original, updates[40:], [])
        _feed_arrays(restored, updates[40:], [])
        assert restored.state_dict() == original.state_dict()
        assert [restored.sample(i) for i in range(3)] == [original.sample(i) for i in range(3)]

    def test_limb_bound_raises_typed_error_and_leaves_cells(self):
        universe = 1 << 62
        top = universe - 1
        bank = L0Sampler(universe, rng=3, repetitions=2)
        state = bank.sampler_state()
        for levels in state["sketches"]:
            for cell in levels:  # high limb exactly at the bound: still legal
                cell["weighted_sum"] = CELL_BOUND << 32
        bank.load_sampler_state(0, state)
        before = bank.state_dict()
        with pytest.raises(SketchError, match="limb bound"):
            bank.update_many_arrays(np.array([top]), np.array([1]))
        with pytest.raises(SketchError, match="limb bound"):
            bank.update(top, 1)
        assert bank.state_dict() == before
        with pytest.raises(SketchError, match="limb bound"):
            L0Sampler(universe, rng=3).update(5, CELL_BOUND + 1)
        state["sketches"][0][0]["weighted_sum"] = (CELL_BOUND + 1) << 32
        with pytest.raises(SketchError, match="limb bound"):
            bank.load_sampler_state(0, state)

    def test_sampler_index_routing_and_field_values_are_validated(self):
        from repro.errors import CheckpointError

        bank, _ = _bank_and_singles(100, 2)
        state = bank.sampler_state(1)
        state["sketches"][0][2]["fingerprint"] = MERSENNE_PRIME
        with pytest.raises(CheckpointError, match="outside"):
            bank.load_sampler_state(1, state)
        with pytest.raises(SketchError):
            bank.sample(2)
        with pytest.raises(SketchError):
            bank.update_many_arrays(np.array([1]), np.array([1]), np.array([2]))
        assert bank.space_words == 2 * L0Sampler(100, rng=1, repetitions=3).space_words


class TestReservoirs:
    def test_single_reservoir_uniform(self):
        counts = Counter()
        for seed in range(4000):
            reservoir = SingleReservoir(rng=seed)
            for item in range(10):
                reservoir.offer(item)
            counts[reservoir.item] += 1
        for item in range(10):
            assert 0.06 <= counts[item] / 4000 <= 0.145

    def test_single_reservoir_empty(self):
        assert SingleReservoir(rng=1).item is None

    def test_reservoir_sampler_capacity(self):
        sampler = ReservoirSampler(5, rng=2)
        for item in range(100):
            sampler.offer(item)
        assert len(sampler.items) == 5
        assert sampler.count == 100

    def test_reservoir_keeps_everything_under_capacity(self):
        sampler = ReservoirSampler(10, rng=3)
        for item in range(6):
            sampler.offer(item)
        assert sorted(sampler.items) == list(range(6))
        assert sampler.contains_all_offered()

    def test_reservoir_inclusion_probability(self):
        hits = Counter()
        for seed in range(3000):
            sampler = ReservoirSampler(3, rng=seed)
            for item in range(12):
                sampler.offer(item)
            for item in sampler.items:
                hits[item] += 1
        # Every item should be included with probability ~3/12 = 0.25.
        for item in range(12):
            assert 0.18 <= hits[item] / 3000 <= 0.32

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ReservoirSampler(0)


class TestSkipAheadReservoirBank:
    def test_empty_bank_accepts_offers(self):
        bank = SkipAheadReservoirBank(0, rng=1)
        bank.offer("x")
        assert bank.size == 0
        assert bank.count == 1
        assert bank.items() == []

    def test_no_elements_yields_none(self):
        bank = SkipAheadReservoirBank(3, rng=2)
        assert [bank.item(slot) for slot in range(3)] == [None, None, None]

    def test_single_element_fills_every_slot(self):
        bank = SkipAheadReservoirBank(5, rng=3)
        bank.offer("only")
        assert bank.items() == ["only"] * 5

    def test_deterministic_under_seed(self):
        def run(seed):
            bank = SkipAheadReservoirBank(8, rng=seed)
            for item in range(200):
                bank.offer(item)
            return list(bank.items())

        assert run(11) == run(11)
        assert run(11) != run(12)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            SkipAheadReservoirBank(-1)

    def test_marginal_uniformity(self):
        # Each slot must hold a uniform sample of the stream; pool
        # slots across seeds and check the empirical marginal.
        stream_length = 12
        slots = 4
        counts = Counter()
        runs = 1500
        for seed in range(runs):
            bank = SkipAheadReservoirBank(slots, rng=seed)
            for item in range(stream_length):
                bank.offer(item)
            for slot in range(slots):
                counts[bank.item(slot)] += 1
        total = runs * slots
        expected = 1.0 / stream_length
        for item in range(stream_length):
            assert counts[item] / total == pytest.approx(expected, rel=0.25)

    def test_slots_are_independent(self):
        # P(slot0 == slot1) should be ~1/len(stream) for independent
        # uniform samples, not ~1 (which a shared-sample bug gives).
        stream_length = 10
        matches = 0
        runs = 3000
        for seed in range(runs):
            bank = SkipAheadReservoirBank(2, rng=seed)
            for item in range(stream_length):
                bank.offer(item)
            if bank.item(0) == bank.item(1):
                matches += 1
        assert matches / runs == pytest.approx(1.0 / stream_length, rel=0.35)

    def test_matches_naive_reservoir_distribution(self):
        # Kolmogorov-style comparison: the bank's marginal acceptance
        # behaviour must match K independent SingleReservoirs.
        stream_length = 30
        naive = Counter()
        banked = Counter()
        runs = 2000
        for seed in range(runs):
            single = SingleReservoir(rng=seed)
            for item in range(stream_length):
                single.offer(item)
            naive[single.item] += 1
            bank = SkipAheadReservoirBank(1, rng=seed + runs)
            for item in range(stream_length):
                bank.offer(item)
            banked[bank.item(0)] += 1
        # Compare coarse thirds of the stream to keep the test stable.
        def thirds(counts):
            return [
                sum(counts[i] for i in range(0, 10)),
                sum(counts[i] for i in range(10, 20)),
                sum(counts[i] for i in range(20, 30)),
            ]

        for a, b in zip(thirds(naive), thirds(banked)):
            assert a == pytest.approx(b, rel=0.15)

    @given(
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_sample_is_from_stream(self, slots, length, seed):
        bank = SkipAheadReservoirBank(slots, rng=seed)
        for item in range(length):
            bank.offer(item)
        assert bank.count == length
        for slot in range(slots):
            sample = bank.item(slot)
            if length == 0:
                assert sample is None
            else:
                assert sample in range(length)
