"""Batch-cache policies: bounded memory, validation, and bit-equality.

The regression core of the ingestion PR: the old ``EdgeStream`` batch
cache retained every decoded batch per batch size forever.  These
tests pin the replacement policies — LRU stays under its byte budget
across multi-pass runs, ``batch_size`` is validated with a clear
``ValueError``, and every policy yields bit-identical mirror-mode
estimates on both execution backends.
"""

import os

import numpy as np
import pytest

from repro.engine import FusionMode, count_subgraphs_insertion_only_fused
from repro.errors import EngineError, StreamError
from repro.graph import generators
from repro.patterns import pattern as zoo
from repro.streams.cache import (
    AllBatchCache,
    LRUBatchCache,
    NoBatchCache,
    parse_byte_size,
    resolve_cache_policy,
)
from repro.streams.datasets import DiskEdgeStream, write_binary_updates
from repro.streams.stream import EdgeStream, Update, insertion_stream


def _graph_stream(seed=3, n=40, p=0.2):
    return insertion_stream(generators.gnp(n, p, rng=seed), rng=seed + 1)


class TestPolicyPrimitives:
    def test_parse_byte_size(self):
        assert parse_byte_size(4096) == 4096
        assert parse_byte_size("64k") == 64 << 10
        assert parse_byte_size("64M") == 64 << 20
        assert parse_byte_size("1gb") == 1 << 30
        assert parse_byte_size("17") == 17
        for bad in ("", "x", "-3", "3tb", 0, -1, 2.5, True):
            with pytest.raises((StreamError, ValueError)):
                parse_byte_size(bad)

    def test_resolve_specs(self):
        assert isinstance(resolve_cache_policy(None), AllBatchCache)
        assert isinstance(resolve_cache_policy("all"), AllBatchCache)
        assert isinstance(resolve_cache_policy("none"), NoBatchCache)
        assert isinstance(resolve_cache_policy("lru"), LRUBatchCache)
        policy = resolve_cache_policy("lru:2M")
        assert policy.budget_bytes == 2 << 20
        assert resolve_cache_policy(policy) is policy
        with pytest.raises(StreamError):
            resolve_cache_policy("mru")
        with pytest.raises(StreamError):
            resolve_cache_policy(42)

    def test_lru_eviction_order_and_budget(self):
        policy = LRUBatchCache(100)

        class Fake:
            def __init__(self, nbytes):
                self.nbytes = nbytes

        a, b, c = Fake(40), Fake(40), Fake(40)
        policy.put((1, 0), a)
        policy.put((1, 1), b)
        assert policy.get((1, 0)) is a  # refresh a
        policy.put((1, 2), c)  # evicts b (LRU), not a
        assert policy.get((1, 1)) is None
        assert policy.get((1, 0)) is a
        assert policy.get((1, 2)) is c
        assert policy.resident_bytes == 80
        assert policy.peak_resident_bytes <= 100
        # An over-budget batch is served uncached.
        policy.put((9, 9), Fake(1000))
        assert policy.get((9, 9)) is None
        assert policy.peak_resident_bytes <= 100


class TestBatchSizeValidation:
    def test_rejects_non_positive(self):
        stream = _graph_stream()
        for bad in (0, -1, -100):
            with pytest.raises(ValueError):
                stream.batches(bad)

    def test_rejects_non_int(self):
        stream = _graph_stream()
        for bad in (2.5, "64", None, True):
            with pytest.raises(ValueError):
                stream.batches(bad)

    def test_numpy_integer_accepted(self):
        stream = _graph_stream()
        assert sum(len(b) for b in stream.batches(np.int64(7))) == stream.length

    def test_engine_rejects_bad_batch_size(self):
        from repro.engine.core import StreamEngine

        stream = _graph_stream()
        for bad in (0, 2.5, "big"):
            with pytest.raises(EngineError):
                StreamEngine(stream, batch_size=bad)

    def test_disk_stream_rejects_bad_batch_size(self, tmp_path):
        path = write_binary_updates(
            tmp_path / "s.reb", 4, np.array([0, 1]), np.array([1, 2])
        )
        stream = DiskEdgeStream(path)
        with pytest.raises(ValueError):
            stream.batches(0)
        with pytest.raises(ValueError):
            stream.batches(3.5)


class TestBoundedResidency:
    def test_lru_multi_pass_peak_stays_under_budget(self, tmp_path):
        # The regression for the unbounded _batch_cache: a multi-pass
        # run over a stream far larger than the budget must keep peak
        # resident batch bytes under the budget (per policy metering).
        m = 20_000
        rng = np.random.default_rng(0)
        u = rng.integers(0, 1_000_000, size=m)
        v = u + 1 + rng.integers(0, 1000, size=m)  # no self-loops
        path = write_binary_updates(tmp_path / "big.reb", 2_000_000, u, v)
        budget = 64 << 10  # 64 KiB ≪ 20k edges × 24 B ≈ 480 KiB
        stream = DiskEdgeStream(path, cache=f"lru:{budget}")
        for _ in range(3):  # a 3-pass estimator's worth of traffic
            total = sum(len(batch) for batch in stream.batches(512))
            assert total == m
        policy = stream.cache_policy
        assert policy.peak_resident_bytes <= budget
        assert policy.misses > 0
        assert stream.passes_used == 3

    def test_all_policy_reuses_objects_across_passes(self):
        stream = _graph_stream()
        first = list(stream.batches(16))
        second = list(stream.batches(16))
        assert all(a is b for a, b in zip(first, second))

    def test_none_policy_rebuilds_objects_each_pass(self):
        stream = _graph_stream()
        stream.set_cache_policy("none")
        first = list(stream.batches(16))
        second = list(stream.batches(16))
        assert all(a is not b for a, b in zip(first, second))
        # ... but with identical contents.
        for a, b in zip(first, second):
            assert a.tuples() == b.tuples()

    def test_multiple_batch_sizes_all_policy_counts_bytes(self):
        stream = _graph_stream()
        list(stream.batches(8))
        list(stream.batches(16))
        # 'all' retains both size families — exactly the old behavior,
        # now at least metered.
        assert stream.cache_policy.resident_bytes >= stream.length * 24 * 2

    def test_set_cache_policy_clears_retained_batches(self):
        stream = _graph_stream()
        list(stream.batches(8))
        assert stream.cache_policy.resident_bytes > 0
        stream.set_cache_policy("lru:1M")
        assert stream.cache_policy.resident_bytes == 0


class TestCachePolicyBitEquality:
    """Golden: mirror estimates identical across policies and backends."""

    POLICIES = ("all", "lru:32k", "none")

    def _run(self, tmp_path, backend, cache, disk=True):
        graph = generators.gnp(30, 0.25, rng=7)
        stream = insertion_stream(graph, rng=8)
        if disk:
            # Same stream content on disk, in stream order, so disk and
            # memory runs see identical bytes.
            u, v, _ = stream.columns()
            path = write_binary_updates(
                tmp_path / f"{backend}-{cache.split(':')[0]}.reb", graph.n, u, v
            )
            stream = DiskEdgeStream(path)
        result = count_subgraphs_insertion_only_fused(
            stream,
            zoo.triangle(),
            copies=3,
            trials=12,
            rng=99,
            mode=FusionMode.MIRROR,
            backend=backend,
            workers=2,
            batch_size=64,
            cache=cache,
        )
        return result.estimates

    def test_identical_across_policies_serial(self, tmp_path):
        memory = self._run(tmp_path, "serial", "all", disk=False)
        assert any(memory)  # not a comparison of 0.0 with 0.0
        runs = {cache: self._run(tmp_path, "serial", cache) for cache in self.POLICIES}
        assert all(estimates == memory for estimates in runs.values())

    @pytest.mark.slow
    def test_identical_across_policies_process(self, tmp_path):
        serial = self._run(tmp_path, "serial", "all")
        runs = {cache: self._run(tmp_path, "process", cache) for cache in self.POLICIES}
        assert all(estimates == serial for estimates in runs.values())


@pytest.mark.statistical
class TestAtScale:
    def test_ten_million_edge_disk_stream_bounded_memory(self, tmp_path):
        """Acceptance: ≥10M-edge on-disk stream, 3-pass K=32, LRU bound.

        Opt-in (``-m statistical``) because it writes a ~170 MB file
        and streams 30M+ update dispatches.  Asserts the three fused
        passes complete, the estimates are finite, and the LRU policy
        never exceeded its byte budget.
        """
        from repro.streams.datasets import BinaryUpdateWriter

        m = 10_000_000
        n = 5_000_000
        budget = 32 << 20  # 32 MiB ≪ 10M × 24 B = 240 MB of columns
        path = tmp_path / "ten_million.reb"
        # Distinct pair ids (an affine bijection of [0, span), the
        # multiplier coprime to span) decoded to u < v <= u + 1000: a
        # scattered simple graph, which the stream's first-pass model
        # check requires.
        span = (n - 1001) * 1000
        with BinaryUpdateWriter(path, n) as writer:
            chunk = 1 << 20
            for start in range(0, m, chunk):
                index = np.arange(start, min(start + chunk, m), dtype=np.int64)
                pair = (2654435761 * index + 12345) % span
                cu = pair // 1000
                writer.append(cu, cu + 1 + pair % 1000)
        stream = DiskEdgeStream(path, cache=f"lru:{budget}")
        result = count_subgraphs_insertion_only_fused(
            stream,
            zoo.triangle(),
            copies=32,
            trials=1,
            rng=5,
            mode=FusionMode.MIRROR,
            batch_size=1 << 16,
        )
        assert result.passes == 3
        assert len(result.estimates) == 32
        assert all(np.isfinite(e) for e in result.estimates)
        assert stream.cache_policy.peak_resident_bytes <= budget
        os.remove(path)
