"""Snapshot / resume / continuous-query tests for the live engine.

The golden contract: **snapshot → restore → continue is bit-identical
to a run that never stopped**, for every estimator family (FGP 3-pass
insertion, 3-pass turnstile, 2-pass star-decomposable, TRIEST,
Doulion, ERS, exact), across both execution backends, and against all
three fused one-shot entry points.  Plus the guard rails: mid-batch
checkpoint rejection, stale-estimator registration rejection, and
checkpoint format validation.
"""

import os
import pickle

import pytest

from repro import generators, insertion_stream, patterns
from repro.engine import (
    EstimatorSpec,
    FusionMode,
    LiveEngine,
    StreamEngine,
    count_subgraphs_insertion_only_fused,
    count_subgraphs_turnstile_fused,
    count_subgraphs_two_pass_fused,
    ers_clique_estimator,
    fgp_insertion_estimator,
    fgp_turnstile_estimator,
    fgp_two_pass_estimator,
)
from repro.engine.live import CHECKPOINT_MAGIC
from repro.engine.parallel import build_doulion, build_exact_stream, build_triest
from repro.errors import CheckpointError, EngineError
from repro.oracle.base import (
    AdjacencyQuery,
    DegreeQuery,
    EdgeCountQuery,
    NeighborQuery,
    RandomEdgeQuery,
    RandomNeighborQuery,
)
from repro.streams.batch import EdgeBatch
from repro.streams.generators import turnstile_churn_stream
from repro.transform.insertion import InsertionStreamOracle
from repro.transform.turnstile import TurnstileStreamOracle


def _assert_same_result(left, right):
    assert left.algorithm == right.algorithm
    assert left.estimate == right.estimate
    assert left.trials == right.trials
    assert left.successes == right.successes
    assert left.details == right.details


def _insertion_fixture():
    graph = generators.barabasi_albert(140, 4, rng=11)
    return graph, insertion_stream(graph, rng=12)


def _feed_interrupted(engine_factory, stream, checkpoint_path, cut=None):
    """Feed *stream* through a live engine with a snapshot/restore at *cut*.

    Returns the restored engine's estimates after the full feed.
    """
    u, v, d = stream.columns()
    if cut is None:
        cut = len(u) // 2
    engine = engine_factory()
    engine.feed((u[:cut], v[:cut], d[:cut]))
    engine.snapshot(checkpoint_path)
    engine.close()
    restored = LiveEngine.restore(checkpoint_path)
    restored.feed((u[cut:], v[cut:], d[cut:]))
    results = restored.estimate()
    restored.close()
    return results


def _mirror_specs(factory, pattern, trials, seeds):
    return [
        EstimatorSpec(
            name=f"copy-{index}",
            factory=factory,
            kwargs=dict(pattern=pattern, trials=trials, rng=seed, name=f"copy-{index}"),
        )
        for index, seed in enumerate(seeds)
    ]


class TestGoldenContinuity:
    """Acceptance: interrupted live == uninterrupted fused, both backends."""

    def _check_entry_point(self, stream, pattern, factory, fused_entry, tmp_path,
                           trials=30, allow_deletions=False):
        seeds = [100, 101, 102]
        serial = fused_entry(
            stream, pattern, copies=3, trials=trials,
            mode=FusionMode.MIRROR, copy_rngs=list(seeds),
        )
        process = fused_entry(
            stream, pattern, copies=3, trials=trials,
            mode=FusionMode.MIRROR, copy_rngs=list(seeds),
            backend="process", workers=2,
        )

        def build():
            engine = LiveEngine(n=stream.n, allow_deletions=allow_deletions)
            engine.register_all(_mirror_specs(factory, pattern, trials, seeds))
            return engine

        results = _feed_interrupted(build, stream, tmp_path / "ckpt.bin")
        for index in range(3):
            live_copy = results[f"copy-{index}"]
            _assert_same_result(live_copy, serial.copies[index])
            _assert_same_result(live_copy, process.copies[index])

    def test_insertion_entry_point(self, tmp_path):
        _, stream = _insertion_fixture()
        self._check_entry_point(
            stream, patterns.triangle(), fgp_insertion_estimator,
            count_subgraphs_insertion_only_fused, tmp_path,
        )

    def test_turnstile_entry_point(self, tmp_path):
        graph = generators.gnp(32, 0.25, rng=3)
        stream = turnstile_churn_stream(graph, churn_edges=25, rng=4)
        assert stream.allows_deletions
        self._check_entry_point(
            stream, patterns.triangle(), fgp_turnstile_estimator,
            count_subgraphs_turnstile_fused, tmp_path,
            trials=10, allow_deletions=True,
        )

    def test_two_pass_entry_point(self, tmp_path):
        _, stream = _insertion_fixture()
        self._check_entry_point(
            stream, patterns.cycle(4), fgp_two_pass_estimator,
            count_subgraphs_two_pass_fused, tmp_path,
        )


class TestSnapshotRoundTripFamilies:
    """state_dict → serialize → restore → continue, per estimator family."""

    def _roundtrip(self, stream, spec, tmp_path, allow_deletions=False, cut=None):
        def build():
            engine = LiveEngine(n=stream.n, allow_deletions=allow_deletions)
            engine.register_spec(spec)
            return engine

        # Uninterrupted reference: one engine, full feed, no snapshot.
        u, v, d = stream.columns()
        reference = build()
        reference.feed((u, v, d))
        expected = reference.estimate()[spec.name]
        reference.close()

        interrupted = _feed_interrupted(build, stream, tmp_path / "ckpt.bin", cut=cut)
        _assert_same_result(interrupted[spec.name], expected)
        return expected

    def test_fgp_insertion(self, tmp_path):
        _, stream = _insertion_fixture()
        result = self._roundtrip(
            stream,
            EstimatorSpec(
                name="fgp",
                factory=fgp_insertion_estimator,
                kwargs=dict(pattern=patterns.triangle(), trials=120, rng=9, name="fgp"),
            ),
            tmp_path,
        )
        assert result.passes == 3

    def test_fgp_turnstile(self, tmp_path):
        graph = generators.gnp(30, 0.3, rng=3)
        stream = turnstile_churn_stream(graph, churn_edges=20, rng=4)
        result = self._roundtrip(
            stream,
            EstimatorSpec(
                name="fgp-t",
                factory=fgp_turnstile_estimator,
                kwargs=dict(pattern=patterns.triangle(), trials=60, rng=9, name="fgp-t"),
            ),
            tmp_path,
            allow_deletions=True,
        )
        assert result.estimate > 0  # non-vacuous equality

    def test_fgp_two_pass(self, tmp_path):
        _, stream = _insertion_fixture()
        result = self._roundtrip(
            stream,
            EstimatorSpec(
                name="fgp-2p",
                factory=fgp_two_pass_estimator,
                kwargs=dict(pattern=patterns.cycle(4), trials=120, rng=9, name="fgp-2p"),
            ),
            tmp_path,
        )
        assert result.passes == 2

    def test_triest(self, tmp_path):
        _, stream = _insertion_fixture()
        result = self._roundtrip(
            stream,
            EstimatorSpec(
                name="triest", factory=build_triest,
                kwargs=dict(capacity=120, rng=7, name="triest"),
            ),
            tmp_path,
        )
        assert result.estimate > 0

    def test_doulion(self, tmp_path):
        _, stream = _insertion_fixture()
        result = self._roundtrip(
            stream,
            EstimatorSpec(
                name="doulion", factory=build_doulion,
                kwargs=dict(keep_probability=0.5, rng=7, name="doulion"),
            ),
            tmp_path,
        )
        assert result.estimate >= 0

    def test_exact(self, tmp_path):
        graph, stream = _insertion_fixture()
        result = self._roundtrip(
            stream,
            EstimatorSpec(
                name="exact", factory=build_exact_stream,
                kwargs=dict(pattern=patterns.triangle(), name="exact"),
            ),
            tmp_path,
        )
        from repro.exact.subgraphs import count_subgraphs

        assert result.estimate == count_subgraphs(graph, patterns.triangle())

    def test_ers(self, tmp_path):
        graph = generators.planted_cliques(60, 4, 5, noise_edges=40, rng=5)
        stream = insertion_stream(graph, rng=6)
        self._roundtrip(
            stream,
            EstimatorSpec(
                name="ers",
                factory=ers_clique_estimator,
                kwargs=dict(r=3, degeneracy_bound=10, lower_bound=5.0, rng=77,
                            name="ers"),
            ),
            tmp_path,
        )

    def test_every_cut_point_is_equivalent(self, tmp_path):
        """Bit-equality holds wherever the interruption lands, batch-unaligned."""
        graph = generators.gnp(25, 0.3, rng=8)
        stream = insertion_stream(graph, rng=9)
        spec = EstimatorSpec(
            name="fgp", factory=fgp_insertion_estimator,
            kwargs=dict(pattern=patterns.triangle(), trials=40, rng=5, name="fgp"),
        )
        expected = None
        for cut in (1, 7, len(stream) - 1):
            result = self._roundtrip(stream, spec, tmp_path, cut=cut)
            if expected is None:
                expected = result
            else:
                _assert_same_result(result, expected)


class TestContinuousQueries:
    def test_mid_stream_estimate_equals_one_shot_on_prefix(self):
        _, stream = _insertion_fixture()
        pattern = patterns.triangle()
        u, v, d = stream.columns()
        cut = len(u) // 3

        engine = LiveEngine(n=stream.n)
        engine.register_all(_mirror_specs(fgp_insertion_estimator, pattern, 40, [55]))
        engine.feed((u[:cut], v[:cut], d[:cut]))
        mid = engine.estimate()["copy-0"]

        from repro.streams.stream import ColumnEdgeStream

        prefix = ColumnEdgeStream(stream.n, u[:cut], v[:cut], d[:cut])
        one_shot = count_subgraphs_insertion_only_fused(
            prefix, pattern, copies=1, trials=40,
            mode=FusionMode.MIRROR, copy_rngs=[55],
        )
        _assert_same_result(mid, one_shot.copies[0])

        # The query did not perturb the live state: finish the feed and
        # compare against an engine that was never queried.
        engine.feed((u[cut:], v[cut:], d[cut:]))
        queried = engine.estimate()["copy-0"]

        quiet = LiveEngine(n=stream.n)
        quiet.register_all(_mirror_specs(fgp_insertion_estimator, pattern, 40, [55]))
        quiet.feed((u, v, d))
        _assert_same_result(queried, quiet.estimate()["copy-0"])

    def test_estimate_is_idempotent(self):
        _, stream = _insertion_fixture()
        engine = LiveEngine(n=stream.n)
        engine.register_spec(EstimatorSpec(
            name="triest", factory=build_triest, kwargs=dict(capacity=64, rng=3),
        ))
        engine.feed(stream.columns())
        first = engine.estimate()["triest"]
        second = engine.estimate()["triest"]
        _assert_same_result(first, second)


class TestProcessBackendLive:
    def test_process_feed_snapshot_restore_matches_serial(self, tmp_path):
        _, stream = _insertion_fixture()
        pattern = patterns.triangle()
        seeds = [100, 101]
        u, v, d = stream.columns()
        cut = len(u) // 2

        serial = LiveEngine(n=stream.n)
        serial.register_all(_mirror_specs(fgp_insertion_estimator, pattern, 25, seeds))
        serial.feed((u, v, d))
        expected = serial.estimate()

        proc = LiveEngine(n=stream.n, backend="process", workers=2)
        proc.register_all(_mirror_specs(fgp_insertion_estimator, pattern, 25, seeds))
        proc.feed((u[:cut], v[:cut], d[:cut]))
        path = tmp_path / "proc.ckpt"
        proc.snapshot(path)
        proc.feed((u[cut:], v[cut:], d[cut:]))
        full = proc.estimate()
        proc.close()
        for name in expected:
            _assert_same_result(full[name], expected[name])

        # Cross-backend restore: the process checkpoint resumes serially.
        restored = LiveEngine.restore(path, backend="serial")
        restored.feed((u[cut:], v[cut:], d[cut:]))
        resumed = restored.estimate()
        for name in expected:
            _assert_same_result(resumed[name], expected[name])


class _SnapshotDuringIngest:
    """Test double: an estimator that snapshots its own engine mid-batch."""

    name = "hook"
    engine = None
    path = None
    action = "snapshot"

    def wants_pass(self):
        return True

    def begin_pass(self, pass_index):
        pass

    def ingest_batch(self, batch):
        if type(self).action == "snapshot":
            type(self).engine.snapshot(type(self).path)
        else:
            type(self).engine.feed([(0, 1)])

    def end_pass(self):
        pass

    def result(self):
        return None


def _build_hook(stream, **kwargs):
    return _SnapshotDuringIngest()


class TestMidBatchRejection:
    def _hooked_engine(self, tmp_path, action):
        engine = LiveEngine(n=10)
        engine.register_spec(EstimatorSpec(name="hook", factory=_build_hook))
        _SnapshotDuringIngest.engine = engine
        _SnapshotDuringIngest.path = os.fspath(tmp_path / "mid.ckpt")
        _SnapshotDuringIngest.action = action
        return engine

    def test_snapshot_mid_batch_is_rejected(self, tmp_path):
        engine = self._hooked_engine(tmp_path, "snapshot")
        with pytest.raises(CheckpointError, match="mid-batch"):
            engine.feed([(0, 1), (1, 2)])
        assert not os.path.exists(_SnapshotDuringIngest.path)

    def test_reentrant_feed_is_rejected(self, tmp_path):
        engine = self._hooked_engine(tmp_path, "feed")
        with pytest.raises(EngineError, match="mid-batch"):
            engine.feed([(2, 3)])

    def test_dispatch_failure_poisons_the_engine(self):
        """A feed that dies mid-dispatch tears the journal/estimator
        agreement; the engine must refuse to keep serving answers."""
        from repro.errors import EstimationError

        engine = LiveEngine(n=8, allow_deletions=True)
        # TRIEST rejects deletions mid-ingest — after the journal
        # already committed the chunk.
        engine.register_spec(EstimatorSpec(
            name="triest", factory=build_triest, kwargs=dict(capacity=16, rng=1),
        ))
        engine.feed([(0, 1), (1, 2)])
        with pytest.raises(EstimationError):
            engine.feed([(0, 1, -1)])
        with pytest.raises(EngineError, match="closed"):
            engine.estimate()
        with pytest.raises(EngineError, match="closed"):
            engine.feed([(2, 3)])


class TestRegistrationGuards:
    """Regression: stale/late registration raises instead of mis-accounting."""

    def test_register_estimator_that_already_consumed_passes(self):
        _, stream = _insertion_fixture()
        from repro.baselines import TriestEstimator

        estimator = TriestEstimator(capacity=32, rng=1)
        first = StreamEngine(stream)
        first.register(estimator)
        first.run()
        assert estimator.passes_consumed == 1

        second = StreamEngine(stream)
        with pytest.raises(EngineError, match="already consumed"):
            second.register(estimator)

    def test_register_after_run_completed(self):
        _, stream = _insertion_fixture()
        from repro.baselines import TriestEstimator

        engine = StreamEngine(stream)
        engine.register(TriestEstimator(capacity=32, rng=1))
        engine.run()
        with pytest.raises(EngineError, match="after run"):
            engine.register(TriestEstimator(capacity=32, rng=2, name="late"))

    def test_register_while_run_in_progress(self):
        _, stream = _insertion_fixture()
        engine = StreamEngine(stream)

        class Registering:
            name = "registering"

            def __init__(self):
                self._done = False

            def wants_pass(self):
                return not self._done

            def begin_pass(self, pass_index):
                pass

            def ingest_batch(self, batch):
                from repro.baselines import TriestEstimator

                engine.register(TriestEstimator(capacity=32, rng=3, name="late"))

            def end_pass(self):
                self._done = True

            def result(self):
                return None

        engine.register(Registering())
        with pytest.raises(EngineError, match="in progress"):
            engine.run()

    def test_live_register_after_feed_started(self):
        engine = LiveEngine(n=8)
        engine.register_spec(EstimatorSpec(
            name="triest", factory=build_triest, kwargs=dict(capacity=16, rng=1),
        ))
        engine.feed([(0, 1), (1, 2)])
        with pytest.raises(EngineError, match="after feeding has started"):
            engine.register_spec(EstimatorSpec(
                name="late", factory=build_triest,
                kwargs=dict(capacity=16, rng=2, name="late"),
            ))


class TestCheckpointFormat:
    def test_bad_magic_is_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(CheckpointError, match="bad magic"):
            LiveEngine.restore(path)

    def test_unsupported_version_is_rejected(self, tmp_path):
        path = tmp_path / "future.ckpt"
        with open(path, "wb") as handle:
            handle.write(CHECKPOINT_MAGIC)
            pickle.dump({"format": "repro-live-checkpoint", "version": 99}, handle)
        with pytest.raises(CheckpointError, match="version"):
            LiveEngine.restore(path)

    def test_snapshot_is_atomic_over_existing_checkpoint(self, tmp_path):
        engine = LiveEngine(n=8)
        engine.register_spec(EstimatorSpec(
            name="triest", factory=build_triest, kwargs=dict(capacity=16, rng=1),
        ))
        engine.feed([(0, 1)])
        path = tmp_path / "ckpt.bin"
        engine.snapshot(path)
        assert not os.path.exists(str(path) + ".tmp")
        restored = LiveEngine.restore(path)
        assert restored.elements == 1

    def test_checkpoint_naming_a_removed_backend(self, tmp_path):
        # An engine section that names a backend this build does not run
        # is refused before any work; overriding the backend restores
        # the checkpoint bit-identically.
        from repro.engine.live import _encode_sections, _read_container

        _, stream = _insertion_fixture()
        u, v, d = stream.columns()
        half = len(u) // 2
        engine = LiveEngine(n=stream.n)
        engine.register_all(
            _mirror_specs(fgp_insertion_estimator, patterns.triangle(), 200, [100, 101])
        )
        engine.feed((u[:half], v[:half], d[:half]))
        path = str(tmp_path / "serial.ckpt")
        engine.snapshot(path)
        _, sections, _ = _read_container(path)
        sections["engine"]["backend"] = "thread"
        old = tmp_path / "old.ckpt"
        old.write_bytes(_encode_sections(list(sections.items())))

        with pytest.raises(EngineError, match="'serial', 'process'"):
            LiveEngine.restore(old)
        restored = LiveEngine.restore(old, backend="serial")
        for live in (engine, restored):
            live.feed((u[half:], v[half:], d[half:]))
        expected = engine.estimate()
        assert all(result.estimate > 0 for result in expected.values())
        resumed = restored.estimate()
        for name, result in expected.items():
            _assert_same_result(resumed[name], result)

    def test_mismatched_state_configuration_raises(self):
        from repro.baselines import TriestEstimator

        small = TriestEstimator(capacity=16, rng=1)
        big = TriestEstimator(capacity=64, rng=1)
        with pytest.raises(CheckpointError, match="capacity"):
            big.load_state_dict(small.state_dict())

    def test_structural_drift_fails_replay(self):
        """A spec with a different trial budget cannot absorb the state."""
        _, stream = _insertion_fixture()
        pattern = patterns.triangle()
        original = fgp_insertion_estimator(stream, pattern, trials=10, rng=4)
        original.begin_pass(0)
        for batch in stream.batches(64):
            original.ingest_batch(batch)
        original.end_pass()
        state = original.state_dict()

        drifted = fgp_insertion_estimator(stream, pattern, trials=20, rng=4)
        with pytest.raises(CheckpointError, match="different structure"):
            drifted.load_state_dict(state)

    def test_load_into_used_estimator_raises(self):
        _, stream = _insertion_fixture()
        pattern = patterns.triangle()
        original = fgp_insertion_estimator(stream, pattern, trials=5, rng=4)
        state = original.state_dict()
        used = fgp_insertion_estimator(stream, pattern, trials=5, rng=4)
        used.begin_pass(0)
        with pytest.raises(CheckpointError, match="freshly built"):
            used.load_state_dict(state)


#: A v2 checkpoint written by the one-object-per-sampler ℓ0 code: a
#: turnstile FGP estimator (gnp(14, 0.8, rng=3), churn 8 edges with
#: rng=4, triangle, trials=8, rng=9) snapshotted after 41 of 82 updates,
#: mid pass 1 with 16 live edge samplers.
GOLDEN_TURNSTILE_CHECKPOINT = os.path.join(
    os.path.dirname(__file__), "data", "turnstile_live_mid_pass1.ckpt"
)


class TestGoldenCheckpointBackCompat:
    def test_pre_bank_checkpoint_restores_and_continues_bit_identically(self):
        graph = generators.gnp(14, 0.8, rng=3)
        stream = turnstile_churn_stream(graph, churn_edges=8, rng=4)
        u, v, d = stream.columns()
        cut = 41
        spec = EstimatorSpec(
            name="fgp-t",
            factory=fgp_turnstile_estimator,
            kwargs=dict(pattern=patterns.triangle(), trials=8, rng=9, name="fgp-t"),
        )
        reference = LiveEngine(n=stream.n, allow_deletions=True)
        reference.register_spec(spec)
        reference.feed((u, v, d))
        expected = reference.estimate()["fgp-t"]
        reference.close()

        restored = LiveEngine.restore(GOLDEN_TURNSTILE_CHECKPOINT)
        assert restored.elements == cut
        restored.feed((u[cut:], v[cut:], d[cut:]))
        result = restored.estimate()["fgp-t"]
        restored.close()
        _assert_same_result(result, expected)
        # The estimate the writing code produced for this run.
        assert result.estimate == 568.7117020072649



def _column_batches(stream, start, stop, size=5):
    u, v, d = stream.columns()
    for first in range(start, stop, size):
        last = min(first + size, stop)
        yield EdgeBatch(u[first:last], v[first:last], d[first:last])


def _golden_insertion_pass():
    stream = insertion_stream(generators.gnp(12, 0.5, rng=5), rng=6)
    batch = [
        RandomEdgeQuery(), RandomEdgeQuery(),
        RandomNeighborQuery(8), RandomNeighborQuery(8), RandomNeighborQuery(3),
        DegreeQuery(8), DegreeQuery(2), DegreeQuery(0),
        NeighborQuery(8, 0), NeighborQuery(8, 3), NeighborQuery(3, 1),
        NeighborQuery(2, 2), NeighborQuery(1, 50),
        AdjacencyQuery(2, 9), AdjacencyQuery(10, 3), AdjacencyQuery(0, 11),
        AdjacencyQuery(0, 1),
        EdgeCountQuery(),
    ]
    return stream, InsertionStreamOracle(stream, rng=7).begin_batch(batch)


def _golden_turnstile_pass():
    stream = turnstile_churn_stream(generators.gnp(12, 0.5, rng=3), churn_edges=10, rng=4)
    batch = [
        RandomEdgeQuery(), RandomEdgeQuery(),
        RandomNeighborQuery(0), RandomNeighborQuery(0), RandomNeighborQuery(4),
        DegreeQuery(0), DegreeQuery(6),
        AdjacencyQuery(9, 0), AdjacencyQuery(0, 2), AdjacencyQuery(2, 3),
        AdjacencyQuery(4, 6), AdjacencyQuery(1, 3),
        EdgeCountQuery(),
    ]
    return stream, TurnstileStreamOracle(stream, rng=8).begin_batch(batch)


#: ``state_dict()`` captures of one pass state per oracle, pickled
#: (protocol 4) after the first half of the stream, in batches of 5,
#: by the code that still kept a scalar ingest loop beside the columnar
#: one.  The passes are the ones the two functions above construct; every
#: query kind the oracle supports is in the batch, so the degree,
#: adjacency, indexed-neighbor and neighbor-sampler layouts are pinned.
#: The answers are what the writing code returned for an uninterrupted
#: pass over the whole stream.
GOLDEN_PASS_STATES = {
    "insertion": (
        _golden_insertion_pass,
        [(4, 11), (0, 2), 5, 5, 8, 6, 5, 4, 9, 4, 6, 10, None,
         True, True, True, False, 30],
    ),
    "turnstile": (
        _golden_turnstile_pass,
        [(2, 8), (2, 3), 10, 10, 8, 4, 3,
         False, False, True, False, False, 32],
    ),
}


class TestGoldenPassStateCaptures:
    @pytest.mark.parametrize("kind", sorted(GOLDEN_PASS_STATES))
    def test_capture_restores_and_continues_bit_identically(self, kind):
        build, written_answers = GOLDEN_PASS_STATES[kind]
        path = os.path.join(
            os.path.dirname(__file__), "data", f"{kind}_pass_state_half.pkl"
        )
        with open(path, "rb") as handle:
            captured = pickle.load(handle)

        stream, uninterrupted = build()
        for batch in _column_batches(stream, 0, len(stream)):
            uninterrupted.ingest_batch(batch)
        expected = uninterrupted.finish()
        assert expected == written_answers

        stream, restored = build()
        restored.load_state_dict(captured)
        assert restored.state_dict() == captured
        for batch in _column_batches(stream, len(stream) // 2, len(stream)):
            restored.ingest_batch(batch)
        assert restored.finish() == expected


class TestPassStateRestoreRefusals:
    """A capture of one query batch never loads into a pass built from another."""

    def test_turnstile_pass_refuses_other_adjacency_pairs(self):
        stream = turnstile_churn_stream(generators.gnp(8, 0.5, rng=1), churn_edges=3, rng=2)
        source = TurnstileStreamOracle(stream, rng=3).begin_batch([AdjacencyQuery(0, 1)])
        target = TurnstileStreamOracle(stream, rng=3).begin_batch([AdjacencyQuery(2, 3)])
        with pytest.raises(CheckpointError, match="adjacency pairs"):
            target.load_state_dict(source.state_dict())

    def test_insertion_pass_refuses_untracked_present_pairs(self):
        graph = generators.gnp(8, 0.5, rng=1)
        stream = insertion_stream(graph, rng=2)
        edge = next(iter(graph.edges()))
        other = next(
            (a, b) for a in range(8) for b in range(a + 1, 8) if (a, b) != edge
        )
        source = InsertionStreamOracle(stream, rng=3).begin_batch([AdjacencyQuery(*edge)])
        for batch in stream.batches():
            source.ingest_batch(batch)
        assert source.state_dict()["present_pairs"] == [edge]
        target = InsertionStreamOracle(stream, rng=3).begin_batch([AdjacencyQuery(*other)])
        with pytest.raises(CheckpointError, match="present_pairs"):
            target.load_state_dict(source.state_dict())


class TestEmptyFeed:
    """A zero-length chunk is a validated no-op on every backend.

    Regression tier: an empty *first* feed used to trigger ``_start()``
    anyway — locking estimator registration and building worker pools
    for an engine that had journaled nothing.
    """

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_empty_first_feed_does_not_start_the_engine(self, backend):
        import numpy as np

        _, stream = _insertion_fixture()
        pattern = patterns.triangle()
        empty = np.array([], dtype=np.int64)

        reference = LiveEngine(n=stream.n)
        reference.register_all(
            _mirror_specs(fgp_insertion_estimator, pattern, 25, [100, 101])
        )
        u, v, d = stream.columns()
        reference.feed((u, v, d))
        expected = reference.estimate()
        reference.close()

        engine = LiveEngine(n=stream.n, backend=backend, workers=2)
        engine.register_all(
            _mirror_specs(fgp_insertion_estimator, pattern, 25, [100])
        )
        assert engine.feed((empty, empty, empty)) == 0
        assert engine.started is False
        assert engine.elements == 0
        # Registration stays open after the no-op...
        engine.register_spec(EstimatorSpec(
            name="copy-1",
            factory=fgp_insertion_estimator,
            kwargs=dict(pattern=pattern, trials=25, rng=101, name="copy-1"),
        ))
        # ...and later empty chunks mid-stream are equally invisible.
        engine.feed((u, v, d))
        assert engine.feed((empty, empty, empty)) == 0
        assert engine.elements == len(u)
        results = engine.estimate()
        for name in expected:
            _assert_same_result(results[name], expected[name])
        engine.close()
