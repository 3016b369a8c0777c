"""The merge protocol: scatter/merge laws from sketches to estimators.

Turnstile state is linear — exact integer / modular sums over the
updates, with all randomness frozen at construction — so replicas built
from the same seeds merge by aggregate addition: commutatively,
associatively, with the empty replica as identity, bit-identical to
one object ingesting the whole stream.  This suite pins those laws at
every layer:

* sketch level (:class:`OneSparseRecovery`, :class:`L0Sampler`) —
  merge == single-stream ingestion, associativity, empty identity,
  incompatible configurations rejected with a :class:`MergeError`
  naming the mismatched field;
* reservoir level — every reservoir class refuses to merge (draws
  depend on the global stream order), with the documented reason;
* transform level (:class:`TurnstilePassState`,
  :class:`TurnstileStreamOracle`, and the insertion counterparts) —
  replica pass states fold exactly, non-replicas and insertion paths
  fail loudly;
* estimator level (:class:`RoundAdaptiveEstimator`) — replica checks
  (name, history lockstep, open pass) and answer adoption;
* frozen replicas — a replica pass opened over shard 0's pass shares
  its layout and ℓ0 coefficients, bases and power tables read-only,
  keeps its own cells, and a restore into one replica leaves its
  siblings untouched;
* end to end — sharded turnstile runs are bit-equal to the unsharded
  mirror run at shard counts {1, 2, 3, 8} on every backend, and the
  acceptance rail ``repro count --shards N`` works from the CLI.
"""

import numpy as np
import pytest

from repro import generators, patterns
from repro.engine import (
    EngineBackend,
    EstimatorSpec,
    FusionMode,
    ShardedRunner,
    StreamHandle,
    count_subgraphs_turnstile_fused,
    count_subgraphs_turnstile_sharded,
    fgp_insertion_estimator,
    fgp_turnstile_estimator,
    sharded_stream_handle,
)
from repro.errors import EngineError, MergeError, SketchError
from repro.oracle.base import (
    AdjacencyQuery,
    DegreeQuery,
    EdgeCountQuery,
    RandomEdgeQuery,
    RandomNeighborQuery,
)
from repro.sketch.l0 import L0Sampler
from repro.sketch.onesparse import OneSparseRecovery
from repro.sketch.reservoir import (
    ReservoirSampler,
    SingleReservoir,
    SkipAheadReservoirBank,
)
from repro.streams.generators import turnstile_churn_stream
from repro.streams.stream import ColumnEdgeStream
from repro.transform.turnstile import TurnstileStreamOracle
from repro.utils.rng import ensure_rng, seed_fingerprint


def _turnstile_fixture():
    graph = generators.gnp(36, 0.25, rng=3)
    return turnstile_churn_stream(graph, churn_edges=25, rng=4)


def _dense_turnstile_fixture():
    # Dense enough that the 3 × 32-trial triangle run below succeeds:
    # its unsharded per-copy estimates are nonzero (median > 0).
    graph = generators.gnp(40, 0.4, rng=3)
    return turnstile_churn_stream(graph, churn_edges=25, rng=4)


def _hash_shards(stream, count):
    from repro.streams.datasets import stream_shard_views

    return stream_shard_views(stream, count)


UPDATES = [(3, 1), (17, -1), (3, -1), (99, 1), (17, 1), (42, 1), (99, -1)]


class TestOneSparseMerge:
    def test_merge_equals_single_stream_ingestion(self):
        for cut in range(len(UPDATES) + 1):
            reference = OneSparseRecovery(128, rng=7)
            left = OneSparseRecovery(128, rng=7)
            right = OneSparseRecovery(128, rng=7, z=left.z)
            reference.update_many(UPDATES)
            left.update_many(UPDATES[:cut])
            right.update_many(UPDATES[cut:])
            left.merge(right)
            assert left.state_dict() == reference.state_dict(), f"cut={cut}"

    def test_associative_and_commutative(self):
        def build(rows):
            sketch = OneSparseRecovery(128, rng=11)
            sketch.update_many(rows)
            return sketch

        a_bc = build(UPDATES[:2])
        bc = build(UPDATES[2:5])
        bc.merge(build(UPDATES[5:]))
        a_bc.merge(bc)

        ab_c = build(UPDATES[:2])
        ab_c.merge(build(UPDATES[2:5]))
        ab_c.merge(build(UPDATES[5:]))
        assert a_bc.state_dict() == ab_c.state_dict()

        reversed_order = build(UPDATES[2:])
        reversed_order.merge(build(UPDATES[:2]))
        assert reversed_order.state_dict() == ab_c.state_dict()

    def test_empty_shard_is_identity(self):
        loaded = OneSparseRecovery(128, rng=5)
        loaded.update_many(UPDATES)
        before = loaded.state_dict()
        loaded.merge(OneSparseRecovery(128, rng=5, z=loaded.z))
        assert loaded.state_dict() == before

    def test_incompatible_universe_names_field(self):
        left = OneSparseRecovery(128, rng=1)
        right = OneSparseRecovery(256, rng=1)
        with pytest.raises(MergeError, match="universe"):
            left.merge(right)

    def test_incompatible_z_names_field(self):
        left = OneSparseRecovery(128, rng=1)
        right = OneSparseRecovery(128, rng=2)
        if left.z == right.z:  # pragma: no cover - 1/(p-1) chance
            pytest.skip("independently drawn z collided")
        with pytest.raises(MergeError, match=r"\bz\b"):
            left.merge(right)

    def test_wrong_type_rejected(self):
        with pytest.raises(MergeError, match="OneSparseRecovery"):
            OneSparseRecovery(128, rng=1).merge(object())


class TestL0SamplerMerge:
    def test_merge_equals_single_stream_ingestion(self):
        for cut in (0, 3, len(UPDATES)):
            reference = L0Sampler(4096, rng=9, repetitions=4)
            left = L0Sampler(4096, rng=9, repetitions=4)
            right = L0Sampler(4096, rng=9, repetitions=4)
            reference.update_many(UPDATES)
            left.update_many(UPDATES[:cut])
            right.update_many(UPDATES[cut:])
            left.merge(right)
            assert left.state_dict() == reference.state_dict(), f"cut={cut}"
            assert left.sample() == reference.sample()

    def test_empty_shard_is_identity(self):
        loaded = L0Sampler(4096, rng=2, repetitions=4)
        loaded.update_many(UPDATES)
        before = loaded.state_dict()
        loaded.merge(L0Sampler(4096, rng=2, repetitions=4))
        assert loaded.state_dict() == before

    def test_different_seeds_name_coefficients(self):
        # Replicas must share frozen randomness; independently seeded
        # samplers have different hash coefficients / bases and the
        # error says which field disagreed.
        left = L0Sampler(4096, rng=1, repetitions=4)
        right = L0Sampler(4096, rng=2, repetitions=4)
        with pytest.raises(MergeError, match="coefficients|bases"):
            left.merge(right)

    def test_different_shape_names_field(self):
        left = L0Sampler(4096, rng=1, repetitions=4)
        with pytest.raises(MergeError, match="repetitions"):
            left.merge(L0Sampler(4096, rng=1, repetitions=8))
        with pytest.raises(MergeError, match="universe"):
            left.merge(L0Sampler(1024, rng=1, repetitions=4))


class TestReservoirsRefuse:
    @pytest.mark.parametrize("build", [
        lambda: SingleReservoir(rng=1),
        lambda: SkipAheadReservoirBank(3, rng=1),
        lambda: ReservoirSampler(5, rng=1),
    ])
    def test_reservoirs_raise_with_reason(self, build):
        left, right = build(), build()
        with pytest.raises(MergeError, match="global stream order"):
            left.merge(right)


class TestPassStateMerge:
    def _program(self, stream, rng_seed):
        estimator = fgp_turnstile_estimator(
            stream, patterns.triangle(), trials=16, rng=rng_seed,
            name="fgp-turnstile",
        )
        return estimator

    def test_replica_pass_states_fold_exactly(self):
        stream = _turnstile_fixture()
        handle = StreamHandle.of(stream)
        reference = self._program(stream, 5)
        left = self._program(handle, 5)
        right = self._program(handle, 5)
        batches = list(stream.batches(64))
        cut = len(batches) // 2
        for estimator in (reference, left, right):
            estimator.begin_pass(0)
        for batch in batches:
            reference.ingest_batch(batch)
        for batch in batches[:cut]:
            left.ingest_batch(batch)
        for batch in batches[cut:]:
            right.ingest_batch(batch)
        left.merge(right)
        assert left.end_pass() == reference.end_pass()

    def test_divergent_seeds_fail_loudly(self):
        stream = _turnstile_fixture()
        left = self._program(stream, 5)
        right = self._program(stream, 6)
        left.begin_pass(0)
        right.begin_pass(0)
        with pytest.raises(MergeError):
            left.merge(right)

    def test_history_lockstep_enforced(self):
        stream = _turnstile_fixture()
        left = self._program(stream, 5)
        right = self._program(stream, 5)
        batches = list(stream.batches(64))
        left.begin_pass(0)
        for batch in batches:
            left.ingest_batch(batch)
        left.end_pass()
        left.begin_pass(1)
        right.begin_pass(0)
        with pytest.raises(MergeError, match="histories diverged|round"):
            left.merge(right)

    def test_merge_requires_open_pass(self):
        stream = _turnstile_fixture()
        left = self._program(stream, 5)
        right = self._program(stream, 5)
        with pytest.raises(MergeError, match="open pass"):
            left.merge(right)

    def test_insertion_paths_raise_documented_reason(self):
        graph = generators.gnp(30, 0.2, rng=1)
        from repro.streams.stream import insertion_stream

        stream = insertion_stream(graph, rng=2)
        left = fgp_insertion_estimator(
            stream, patterns.triangle(), trials=8, rng=3, name="fgp-insertion"
        )
        right = fgp_insertion_estimator(
            stream, patterns.triangle(), trials=8, rng=3, name="fgp-insertion"
        )
        left.begin_pass(0)
        right.begin_pass(0)
        with pytest.raises(MergeError, match="reservoir"):
            left.merge(right)

    def test_name_mismatch_rejected(self):
        stream = _turnstile_fixture()
        left = fgp_turnstile_estimator(
            stream, patterns.triangle(), trials=8, rng=3, name="a")
        right = fgp_turnstile_estimator(
            stream, patterns.triangle(), trials=8, rng=3, name="b")
        left.begin_pass(0)
        right.begin_pass(0)
        with pytest.raises(MergeError, match="same spec"):
            left.merge(right)


_FROZEN = ("_coefficients", "_bases", "_tables")

_REPLICA_BATCH = [
    RandomEdgeQuery(), RandomNeighborQuery(3), DegreeQuery(2), RandomEdgeQuery(),
    AdjacencyQuery(0, 5), RandomNeighborQuery(7), EdgeCountQuery(), RandomNeighborQuery(3),
]


def _bank(seed):
    return L0Sampler.bank(4096, [seed, seed + 1], repetitions=4)


def _fed(bank, updates):
    bank.update_many_arrays(
        np.array([i for i, _ in updates]), np.array([d for _, d in updates])
    )
    return bank


class TestFrozenReplicas:
    """Replica passes open over shard 0's frozen structure (``like=``)."""

    def _passes(self, stream, seeds=(5, 5, 5)):
        """An oracle and its open pass per seed; passes after the first are replicas."""
        handle = StreamHandle.of(stream)
        oracles = [TurnstileStreamOracle(handle, rng=seed) for seed in seeds]
        primary = oracles[0].begin_batch(_REPLICA_BATCH)
        others = [oracle.begin_batch(_REPLICA_BATCH, like=primary) for oracle in oracles[1:]]
        return oracles, [primary] + others

    def test_replica_frozen_arrays_are_read_only_and_shared(self):
        bank = _bank(1)
        replica = bank.replica()
        for name in _FROZEN:
            assert getattr(replica, name) is getattr(bank, name)
            assert not getattr(replica, name).flags.writeable
        assert not np.shares_memory(replica._weight, bank._weight)
        with pytest.raises(ValueError, match="read-only"):
            replica._coefficients[0, 0] = 1

        oracles, (primary, replica_pass) = self._passes(_turnstile_fixture(), (5, 5))
        assert replica_pass._layout is primary._layout
        for bank_name in ("_edge_bank", "_neighbor_bank"):
            for name in _FROZEN:
                frozen = getattr(getattr(replica_pass, bank_name), name)
                assert frozen is getattr(getattr(primary, bank_name), name)
                assert not frozen.flags.writeable
        # The replica drew (and dropped) the same seeds as the primary.
        assert seed_fingerprint(oracles[0]._rng) == seed_fingerprint(oracles[1]._rng)

    def test_replica_pass_equals_a_pass_built_alone(self):
        stream = _turnstile_fixture()
        batches = list(stream.batches(64))
        cut = len(batches) // 2
        _, (primary, whole, second) = self._passes(stream)
        alone = TurnstileStreamOracle(stream, rng=5).begin_batch(_REPLICA_BATCH)
        for batch in batches:
            whole.ingest_batch(batch)
            alone.ingest_batch(batch)
        assert whole.state_dict() == alone.state_dict()
        # Replicas fed the two halves merge into the whole pass exactly.
        for batch in batches[:cut]:
            primary.ingest_batch(batch)
        for batch in batches[cut:]:
            second.ingest_batch(batch)
        primary.merge(second)
        assert primary.state_dict() == alone.state_dict()
        answers = alone.finish()
        assert primary.finish() == whole.finish() == answers
        assert any(answer not in (None, 0, False) for answer in answers)

    def test_loading_one_replica_leaves_its_siblings_unchanged(self):
        # The restore path of checkpoints and of the process backend's
        # merge: the loaded replica takes the capture's frozen arrays,
        # the shared ones are never written.
        bank = _fed(_bank(1), [(3, 1), (17, 1)])
        first, second = _fed(bank.replica(), [(5, 1)]), _fed(bank.replica(), [(99, -1)])
        stranger = _fed(_bank(40), [(42, 1), (3, -1)])
        before = [bank.state_dict(), second.state_dict()]
        first.load_state_dict(stranger.state_dict())
        assert first.state_dict() == stranger.state_dict()
        assert [bank.state_dict(), second.state_dict()] == before
        for name in ("_coefficients", "_bases"):
            assert not np.shares_memory(getattr(first, name), getattr(bank, name))
            assert getattr(second, name) is getattr(bank, name)
            assert not getattr(first, name).flags.writeable

        stream = _turnstile_fixture()
        batches = list(stream.batches(64))
        _, passes = self._passes(stream)
        for index, state in enumerate(passes):
            for batch in batches[index::3]:
                state.ingest_batch(batch)
        captured = TurnstileStreamOracle(stream, rng=11).begin_batch(_REPLICA_BATCH)
        for batch in batches:
            captured.ingest_batch(batch)
        before = [passes[0].state_dict(), passes[2].state_dict()]
        passes[1].load_state_dict(captured.state_dict())
        assert passes[1].state_dict() == captured.state_dict()
        assert [passes[0].state_dict(), passes[2].state_dict()] == before
        assert passes[1].finish() == captured.finish()

    def test_restore_refused_part_way_leaves_no_stale_power_tables(self):
        # Sampler 0 of the capture loads before sampler 1 is refused; its
        # new bases must not be paired with the old bases' power tables.
        from repro.errors import CheckpointError

        bank = _fed(_bank(1), [(3, 1)])
        capture = _fed(_bank(50), [(8, 1)]).state_dict()
        capture["samplers"][1]["sketches"] = capture["samplers"][1]["sketches"][:1]
        with pytest.raises((CheckpointError, SketchError)):
            bank.load_state_dict(capture)
        alone = _fed(_bank(1), [(3, 1)])
        alone.load_sampler_state(0, capture["samplers"][0])
        for target in (bank, alone):
            target.update_many_arrays(np.array([5, 9]), np.array([1, 1]))
        assert bank.sampler_state(0) == alone.sampler_state(0)

    def test_differently_seeded_replicas_name_coefficients(self):
        with pytest.raises(MergeError, match="coefficients"):
            _bank(1).replica().merge(_bank(3))
        stream = _turnstile_fixture()
        _, (primary, replica) = self._passes(stream, (5, 5))
        stranger = TurnstileStreamOracle(StreamHandle.of(stream), rng=6).begin_batch(
            _REPLICA_BATCH
        )
        for state in (primary, replica):
            with pytest.raises(MergeError, match="coefficients"):
                state.merge(stranger)
        primary.merge(replica)


class TestShardedEndToEnd:
    @pytest.mark.parametrize("shards", [1, 2, 3, 8])
    def test_shard_count_invariance(self, shards):
        # The acceptance rail: sharded turnstile runs are bit-equal to
        # the unsharded mirror run at shard counts {1, 2, 3, 8}.
        stream = _dense_turnstile_fixture()
        pattern = patterns.triangle()
        unsharded = count_subgraphs_turnstile_fused(
            stream, pattern, copies=3, trials=32, rng=9, mode=FusionMode.MIRROR
        )
        assert unsharded.estimate > 0
        sharded = count_subgraphs_turnstile_sharded(
            _hash_shards(stream, shards), pattern, copies=3, trials=32, rng=9
        )
        assert sharded.estimates == unsharded.estimates
        assert sharded.estimate == unsharded.estimate
        assert sharded.passes == unsharded.passes
        assert sharded.details["shards"] == float(shards)
        for mine, theirs in zip(sharded.copies, unsharded.copies):
            assert mine.estimate == theirs.estimate
            assert mine.successes == theirs.successes
            assert mine.details == theirs.details

    def test_process_backend_matches(self):
        stream = _turnstile_fixture()
        pattern = patterns.triangle()
        serial = count_subgraphs_turnstile_sharded(
            _hash_shards(stream, 2), pattern, copies=2, trials=16, rng=9
        )
        pooled = count_subgraphs_turnstile_sharded(
            _hash_shards(stream, 2), pattern, copies=2, trials=16, rng=9,
            backend=EngineBackend.PROCESS,
        )
        assert pooled.estimates == serial.estimates
        from repro.engine.parallel import leaked_shm_segments

        assert leaked_shm_segments() == []

    @pytest.mark.parametrize("backend", ["thread", "threads"])
    def test_unknown_backend_refused_before_any_work(self, backend):
        stream = _turnstile_fixture()
        shards = _hash_shards(stream, 2)
        with pytest.raises(EngineError, match="'serial', 'process'"):
            ShardedRunner(shards, backend=backend)
        with pytest.raises(EngineError, match="'serial', 'process'"):
            count_subgraphs_turnstile_sharded(
                shards, patterns.triangle(), copies=2, trials=16, rng=9,
                backend=backend,
            )
        assert all(shard.passes_used == 0 for shard in shards)

    def test_triangle_dense_stream_across_views_disk_shards_and_processes(
        self, tmp_path
    ):
        # A nonzero reference, so every equality below is not a
        # comparison of 0.0 with 0.0.
        from repro.engine.parallel import leaked_shm_segments
        from repro.streams.datasets import (
            open_stream_shards,
            write_binary_updates,
            write_stream_shards,
        )

        graph = generators.power_law_cluster(300, 5, 0.8, 11)
        stream = turnstile_churn_stream(graph, churn_edges=200, rng=12)
        pattern = patterns.triangle()

        def sharded(shards, **kwargs):
            return count_subgraphs_turnstile_sharded(
                shards, pattern, copies=4, trials=48, rng=7, batch_size=128,
                **kwargs,
            )

        reference = count_subgraphs_turnstile_fused(
            stream, pattern, copies=4, trials=48, rng=7, mode=FusionMode.MIRROR
        )
        assert reference.estimate > 0
        for shards in (2, 3):
            assert sharded(_hash_shards(stream, shards)).estimates == reference.estimates

        u, v, delta = stream.columns()
        path = write_binary_updates(
            tmp_path / "stream.reb", stream.n, u, v, delta, allow_deletions=True
        )
        write_stream_shards(path, 3)
        disk_shards = open_stream_shards(path, 3, cache="lru:64k")
        assert sharded(disk_shards).estimates == reference.estimates
        peak = max(shard.cache_policy.peak_resident_bytes for shard in disk_shards)
        assert 0 < peak <= 64 * 1024

        pooled = sharded(open_stream_shards(path, 3), backend=EngineBackend.PROCESS)
        assert pooled.estimates == reference.estimates
        assert leaked_shm_segments() == []

    def test_insertion_only_sharding_raises_merge_error(self):
        graph = generators.gnp(30, 0.2, rng=1)
        from repro.streams.stream import insertion_stream

        stream = insertion_stream(graph, rng=2)
        runner = ShardedRunner(_hash_shards(stream, 2))
        for index in range(2):
            runner.register(EstimatorSpec(
                name=f"copy-{index}", factory=fgp_insertion_estimator,
                kwargs=dict(pattern=patterns.triangle(), trials=8, rng=index,
                            name=f"copy-{index}"),
            ))
        with pytest.raises(MergeError):
            runner.run()

    def test_unmergeable_estimators_refused_before_any_pass(self):
        from repro.engine.parallel import build_triest

        stream = _turnstile_fixture()
        for backend in (EngineBackend.SERIAL, EngineBackend.PROCESS):
            shards = _hash_shards(stream, 2)
            runner = ShardedRunner(shards, backend=backend)
            runner.register(EstimatorSpec(
                name="triest", factory=build_triest, kwargs=dict(capacity=10, rng=1),
            ))
            with pytest.raises(MergeError, match="cannot merge shard replicas"):
                runner.run()
            assert [shard.passes_used for shard in shards] == [0, 0]

    def test_union_handle_carries_global_metadata(self):
        stream = _turnstile_fixture()
        shards = _hash_shards(stream, 3)
        handle = sharded_stream_handle(shards)
        assert handle.n == stream.n
        assert handle.length == stream.length
        assert handle.net_edge_count == stream.net_edge_count
        assert handle.allows_deletions == stream.allows_deletions

    def test_mismatched_n_rejected(self):
        left = ColumnEdgeStream(5, [0], [1])
        right = ColumnEdgeStream(6, [2], [3])
        with pytest.raises(EngineError, match="n="):
            sharded_stream_handle([left, right])

    def test_live_rng_kwargs_rejected_at_registration(self):
        stream = _turnstile_fixture()
        runner = ShardedRunner(_hash_shards(stream, 2))
        with pytest.raises(EngineError, match="integer seed"):
            runner.register(EstimatorSpec(
                name="copy-0", factory=fgp_turnstile_estimator,
                kwargs=dict(pattern=patterns.triangle(), trials=8,
                            rng=ensure_rng(1), name="copy-0"),
            ))

    def test_duplicate_spec_rejected(self):
        stream = _turnstile_fixture()
        runner = ShardedRunner(_hash_shards(stream, 2))
        spec = EstimatorSpec(
            name="copy-0", factory=fgp_turnstile_estimator,
            kwargs=dict(pattern=patterns.triangle(), trials=8, rng=1,
                        name="copy-0"),
        )
        runner.register(spec)
        with pytest.raises(EngineError, match="already registered"):
            runner.register(spec)


class TestShardedCli:
    def test_count_shards_cli_round_trip(self, tmp_path):
        # convert --shards materializes the partition; count --shards
        # must produce the same median as the unsharded fused run.
        from repro.cli import main
        from repro.graph.io import write_edge_list

        graph = generators.gnp(30, 0.2, rng=5)
        edge_list = tmp_path / "g.txt"
        write_edge_list(graph, edge_list)
        reb = tmp_path / "g.reb"
        assert main(["convert", str(edge_list), str(reb), "--shards", "2"]) == 0
        for index in range(2):
            assert (tmp_path / f"g.shard-{index}-of-2.reb").exists()
        assert main([
            "count", str(reb), "triangle", "--algorithm", "turnstile",
            "--copies", "2", "--trials", "16", "--shards", "2",
        ]) == 0

    def test_count_shards_rejects_insertion(self, capsys):
        from repro.cli import main

        code = main([
            "count", "whatever.reb", "triangle", "--shards", "2",
        ])
        assert code == 2
        assert "turnstile" in capsys.readouterr().err
