"""The multi-tenant service tier (:mod:`repro.service`).

Contracts under test:

* **Tenant isolation** — two registry streams fed alternately are
  bit-identical to two isolated :class:`~repro.engine.live.LiveEngine`
  instances fed the same columns; a tenant cannot perturb its
  neighbor.
* **Restore-on-open** — killing a tenant mid-traffic (no final
  checkpoint) and reopening it resumes from the last scheduled
  snapshot, and re-feeding the tail reconverges bit-identical to an
  uninterrupted tenant.
* **Admission is typed and non-destructive** — every refusal
  (``max_streams``, journal watermark, in-flight byte budget, bad
  names, unknown streams, double opens) raises
  :class:`~repro.errors.ServiceError` and leaves the registry exactly
  as it was.
* **The wire adds nothing** — feeding through ``repro serve``'s
  protocol (ServerThread + ServiceClient over localhost) produces the
  same estimates as driving the engine directly, including across a
  kill → reopen drill; malformed lines are answered, not fatal.
* **The CLI server is the same server** — a real ``repro serve``
  subprocess serves interleaved tenants, typed refusals and the
  kill → reopen drill with the same answers.

The stream seeds are offset by ``REPRO_SERVICE_SEED`` (default 0); the
CI service job rotates it per run and logs the repro command::

    REPRO_SERVICE_SEED=<printed seed> pytest tests/test_service.py
"""

import json
import os
import re
import socket
import subprocess
import sys

import numpy as np
import pytest

from repro import generators, insertion_stream
from repro.engine import EstimatorSpec, LiveEngine, median_estimate
from repro.engine.parallel import build_triest
from repro.errors import EngineError, ServiceError
from repro.service import (
    CheckpointPolicy,
    ServerThread,
    ServiceClient,
    ServiceLimits,
    StreamConfig,
    StreamRegistry,
    feed_nbytes,
)
from repro.service.protocol import (
    decode_request,
    encode_message,
    error_response,
    updates_from_wire,
)
from repro.streams.batch import EdgeBatch


#: Offset of every stream seed here; the CI service job rotates it.
SEED = int(os.environ.get("REPRO_SERVICE_SEED", "0"))


def _columns(seed_graph=SEED + 11, seed_stream=SEED + 12, n=120):
    graph = generators.barabasi_albert(n, 4, rng=seed_graph)
    return insertion_stream(graph, rng=seed_stream).columns()


def _specs(copies=3, capacity=80, base_rng=31):
    return tuple(
        EstimatorSpec(
            name=f"t{index}",
            factory=build_triest,
            kwargs=dict(capacity=capacity, rng=base_rng + index,
                        name=f"t{index}"),
        )
        for index in range(copies)
    )


def _config(n, base_rng=31, **kwargs):
    return StreamConfig(n=n, specs=_specs(base_rng=base_rng), **kwargs)


def _reference_estimates(u, v, d, n, base_rng=31):
    engine = LiveEngine(n=n)
    for spec in _specs(base_rng=base_rng):
        engine.register_spec(EstimatorSpec(spec.name, spec.factory,
                                           dict(spec.kwargs)))
    engine.feed((u, v, d))
    results = engine.estimate()
    engine.close()
    return {name: (result.estimate, result.details)
            for name, result in results.items()}


def _chunks(u, v, d, chunk=48):
    for start in range(0, len(u), chunk):
        yield u[start:start + chunk], v[start:start + chunk], \
            d[start:start + chunk]


class TestRegistryTenancy:
    def test_interleaved_streams_match_isolated_engines(self):
        u, v, d = _columns()
        n = 120
        registry = StreamRegistry()
        registry.open("a", _config(n, base_rng=31))
        registry.open("b", _config(n, base_rng=77))
        a_chunks = list(_chunks(u, v, d))
        # Tenant b sees the same updates in a different order (its own
        # stream order is all that matters to it).
        order = np.argsort(np.arange(len(u)) % 7, kind="stable")
        b_u, b_v, b_d = u[order], v[order], d[order]
        b_chunks = list(_chunks(b_u, b_v, b_d))
        for a_chunk, b_chunk in zip(a_chunks, b_chunks):
            registry.feed("a", a_chunk)
            registry.feed("b", b_chunk)
        expected_a = _reference_estimates(u, v, d, n, base_rng=31)
        expected_b = _reference_estimates(b_u, b_v, b_d, n, base_rng=77)
        got_a = registry.estimate("a")
        got_b = registry.estimate("b")
        for name, (estimate, details) in expected_a.items():
            assert got_a[name].estimate == estimate
            assert got_a[name].details == details
        for name, (estimate, details) in expected_b.items():
            assert got_b[name].estimate == estimate
            assert got_b[name].details == details
        registry.close_all(checkpoint=False)

    def test_kill_then_restore_on_open_matches_uninterrupted(self, tmp_path):
        u, v, d = _columns()
        n = 120
        policy = CheckpointPolicy(every_elements=100)
        registry = StreamRegistry(root=str(tmp_path), default_policy=policy)
        registry.open("tenant", _config(n))
        fed = 0
        for chunk in _chunks(u, v, d):
            registry.feed("tenant", chunk)
            fed += len(chunk[0])
            if fed >= len(u) // 2:
                break
        status = registry.status("tenant")
        assert status["checkpoints_written"] >= 1
        # Crash the tenant: no final checkpoint, state after the last
        # scheduled snapshot is lost.
        registry.kill("tenant")
        assert "tenant" not in registry.streams
        reopened = registry.open("tenant")
        assert reopened["restored"] is True
        resumed_at = reopened["elements"]
        # The scheduler fires on feed boundaries, so the snapshot sits
        # on a whole chunk somewhere behind the crash point.
        assert 0 < resumed_at <= fed
        assert resumed_at % 48 == 0
        # Re-feed everything the checkpoint had not seen.
        registry.feed("tenant", (u[resumed_at:], v[resumed_at:],
                                 d[resumed_at:]))
        expected = _reference_estimates(u, v, d, n)
        got = registry.estimate("tenant")
        for name, (estimate, details) in expected.items():
            assert got[name].estimate == estimate
            assert got[name].details == details
        registry.close_all(checkpoint=False)

    def test_close_checkpoints_and_reopen_restores(self, tmp_path):
        u, v, d = _columns()
        registry = StreamRegistry(root=str(tmp_path))
        registry.open("s", _config(120))
        cut = len(u) // 2
        registry.feed("s", (u[:cut], v[:cut], d[:cut]))
        closed = registry.close("s")
        assert closed["checkpoint"] is not None
        reopened = registry.open("s")
        assert reopened["restored"] is True
        assert reopened["elements"] == cut
        registry.feed("s", (u[cut:], v[cut:], d[cut:]))
        expected = _reference_estimates(u, v, d, 120)
        got = registry.estimate("s")
        for name, (estimate, _) in expected.items():
            assert got[name].estimate == estimate
        registry.close_all(checkpoint=False)

    def test_admission_refusals_are_typed_and_non_destructive(self):
        u, v, d = _columns()
        limits = ServiceLimits(max_streams=1, max_feed_bytes=1 << 20,
                               max_journal_elements=100)
        registry = StreamRegistry(limits=limits)
        registry.open("only", _config(120))
        registry.feed("only", (u[:60], v[:60], d[:60]))

        with pytest.raises(ServiceError, match="max_streams"):
            registry.open("second", _config(120))
        assert registry.streams == ["only"]

        with pytest.raises(ServiceError, match="already open"):
            registry.open("only", _config(120))

        with pytest.raises(ServiceError, match="invalid stream name"):
            registry.open("../escape", _config(120))

        with pytest.raises(ServiceError, match="not open"):
            registry.feed("ghost", (u[:2], v[:2], d[:2]))

        # The watermark refuses the whole chunk: nothing is journaled.
        before = registry.status("only")["elements"]
        with pytest.raises(ServiceError, match="max_journal_elements"):
            registry.feed("only", (u[60:], v[60:], d[60:]))
        assert registry.status("only")["elements"] == before
        assert registry.status("only")["refusals"] == 1

        # A chunk that fits under the watermark is still admitted.
        registry.feed("only", (u[60:100], v[60:100], d[60:100]))
        assert registry.status("only")["elements"] == 100

        # The in-flight byte budget reserves nothing when it refuses.
        registry.reserve_feed_bytes(1 << 19)
        with pytest.raises(ServiceError, match="max_feed_bytes"):
            registry.reserve_feed_bytes(1 << 20)
        assert registry.inflight_bytes == 1 << 19
        registry.release_feed_bytes(1 << 19)
        assert registry.inflight_bytes == 0

        # After every refusal the tenant still answers queries.
        assert len(registry.estimate("only")) == 3
        registry.close_all(checkpoint=False)

    def test_watermark_counts_updates_not_columns(self):
        registry = StreamRegistry(limits=ServiceLimits(max_journal_elements=3))
        registry.open("s", _config(120))
        # Six update tuples are six elements, whatever their arity.
        tuples = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]
        with pytest.raises(ServiceError, match=r"feed of 6 update\(s\) refused"):
            registry.feed("s", tuples)
        assert registry.status("s")["elements"] == 0
        # A two-element batch fits under the watermark.
        registry.feed("s", EdgeBatch(np.array([0, 1]), np.array([1, 2]),
                                     np.array([1, 1])))
        assert registry.status("s")["elements"] == 2
        registry.close_all(checkpoint=False)

    def test_checkpoint_scheduling_by_time(self, tmp_path):
        now = [0.0]
        policy = CheckpointPolicy(every_seconds=10.0)
        registry = StreamRegistry(root=str(tmp_path), default_policy=policy,
                                  clock=lambda: now[0])
        u, v, d = _columns()
        registry.open("s", _config(120))
        result = registry.feed("s", (u[:50], v[:50], d[:50]))
        assert result["checkpoint"] is None  # no time has passed
        now[0] = 11.0
        result = registry.feed("s", (u[50:60], v[50:60], d[50:60]))
        assert result["checkpoint"] is not None
        status = registry.status("s")
        assert status["checkpoints_written"] == 1
        assert status["elements_since_checkpoint"] == 0
        registry.close_all(checkpoint=False)

    def test_new_stream_requires_config(self, tmp_path):
        registry = StreamRegistry(root=str(tmp_path))
        with pytest.raises(ServiceError, match="needs a config"):
            registry.open("fresh")

    def test_checkpoint_without_root_refuses(self):
        registry = StreamRegistry()
        registry.open("s", _config(120))
        with pytest.raises(ServiceError, match="no root"):
            registry.checkpoint("s")
        registry.close_all(checkpoint=False)

    def test_status_estimate_guard_reports_degradation(self):
        registry = StreamRegistry()
        registry.open("s", _config(120))
        u, v, d = _columns()
        registry.feed("s", (u[:50], v[:50], d[:50]))
        status = registry.status("s", estimate=True)
        assert isinstance(status["median"], float)

        # Full degradation must answer with a message, not a traceback
        # (the `repro serve` status path reuses the live-report guard).
        entry = registry._entry("s")

        def all_lost(names=None):
            raise EngineError("every registered estimator was lost")

        entry.engine.estimate = all_lost
        status = registry.status("s", estimate=True)
        assert status["median"] is None
        assert "lost" in status["estimate_error"]
        registry.close_all(checkpoint=False)


class TestWireConfig:
    def test_from_wire_matches_cli_spec_layout(self):
        config = StreamConfig.from_wire({
            "n": 64, "estimator": "triest", "copies": 2, "capacity": 16,
            "seed": 9, "checkpoint": {"every_elements": 32},
        })
        assert [spec.name for spec in config.specs] == ["copy-0", "copy-1"]
        assert config.specs[0].kwargs["rng"] == 10  # seed + 1 + index
        assert config.checkpoint.every_elements == 32

    def test_from_wire_refusals(self):
        with pytest.raises(ServiceError, match="missing required"):
            StreamConfig.from_wire({"n": 64})
        with pytest.raises(ServiceError, match="unknown estimator"):
            StreamConfig.from_wire({"n": 64, "estimator": "oracle"})
        with pytest.raises(ServiceError, match="unknown stream config"):
            StreamConfig.from_wire({"n": 64, "estimator": "triest",
                                    "shards": 4})
        with pytest.raises(ServiceError, match="at least one estimator"):
            StreamConfig(n=64, specs=())

    @pytest.mark.parametrize("field, value, message", [
        ("backend", "thread", "unknown backend 'thread'; expected one of serial, process"),
        ("backend", None, "unknown backend None"),
        ("workers", 0, "workers must be an integer >= 1, got 0"),
        ("workers", "2", "workers must be an integer >= 1, got '2'"),
        ("workers", 1.5, "got 1.5"),
        ("workers", True, "got True"),
    ])
    def test_from_wire_refuses_bad_engine_options(self, field, value, message):
        # Refused as ServiceError by the config itself, before any
        # engine is built.
        with pytest.raises(ServiceError, match=re.escape(message)):
            StreamConfig.from_wire({"n": 64, "estimator": "triest", field: value})

    def test_from_wire_passes_good_engine_options_through(self):
        config = StreamConfig.from_wire({"n": 64, "estimator": "triest",
                                         "backend": "process", "workers": 2})
        assert (config.backend, config.workers) == ("process", 2)


class TestProtocol:
    def test_decode_request_refusals(self):
        with pytest.raises(ServiceError, match="malformed"):
            decode_request(b"not json\n")
        with pytest.raises(ServiceError, match="JSON object"):
            decode_request(b"[1, 2]\n")
        with pytest.raises(ServiceError, match="unknown command"):
            decode_request(encode_message({"cmd": "drop"}))
        with pytest.raises(ServiceError, match="requires a 'stream'"):
            decode_request(encode_message({"cmd": "feed"}))
        doc = decode_request(encode_message({"cmd": "status"}))
        assert doc["cmd"] == "status"

    def test_updates_from_wire_validation(self):
        u, v, delta = updates_from_wire({"u": [1, 2], "v": [3, 4]})
        assert delta == [1, 1]
        with pytest.raises(ServiceError, match="missing column"):
            updates_from_wire({"u": [1]})
        with pytest.raises(ServiceError, match="equal length"):
            updates_from_wire({"u": [1], "v": [2, 3]})
        with pytest.raises(ServiceError, match="non-integer"):
            updates_from_wire({"u": [1.5], "v": [2]})
        with pytest.raises(ServiceError, match="non-integer"):
            updates_from_wire({"u": [True], "v": [2]})
        with pytest.raises(ServiceError, match=r"\+1 or -1"):
            updates_from_wire({"u": [1], "v": [2], "delta": [2]})
        with pytest.raises(ServiceError, match="unknown feed column"):
            updates_from_wire({"u": [1], "v": [2], "w": [3]})

    def test_error_response_names_the_type(self):
        doc = error_response(ServiceError("nope"))
        assert doc == {"ok": False, "error": "ServiceError",
                       "message": "nope"}
        assert error_response(RuntimeError("x"))["error"] == "InternalError"

    def test_feed_nbytes_counts_columns(self):
        u = np.arange(10, dtype=np.int64)
        assert feed_nbytes((u, u, u)) == 240
        assert feed_nbytes(([1, 2], [3, 4], [1, 1])) == 48


class TestServiceEndToEnd:
    def _wire_config(self, base_rng=31, **extra):
        # The declarative wire form of _config(): same copy names come
        # from explicit registry configs; over the wire the estimator
        # copies are named copy-N, so compare by median and by order.
        doc = {"n": 120, "estimator": "triest", "capacity": 80,
               "copies": 3, "seed": base_rng - 1}
        doc.update(extra)
        return doc

    def test_wire_feed_matches_direct_engine(self, tmp_path):
        u, v, d = _columns()
        with ServerThread(root=str(tmp_path)) as server:
            with ServiceClient(server.host, server.port) as client:
                client.open("tenant", config=self._wire_config())
                for cu, cv, cd in _chunks(u, v, d):
                    client.feed("tenant", cu, cv, cd)
                wire = client.estimate("tenant")
                client.close_stream("tenant", checkpoint=False)
        # The wire's copy-N estimators mirror _specs' tN ones: the
        # factory kwargs (capacity, rng) are identical pairwise.
        expected = _reference_estimates(u, v, d, 120)
        by_order = sorted(expected)
        got = wire["estimates"]
        for index, name in enumerate(sorted(got)):
            assert got[name]["estimate"] == expected[by_order[index]][0]

    def test_kill_reopen_drill_over_the_wire(self, tmp_path):
        u, v, d = _columns()
        with ServerThread(root=str(tmp_path)) as server:
            with ServiceClient(server.host, server.port) as client:
                client.open("drill", config=self._wire_config(
                    checkpoint={"every_elements": 100}))
                fed = 0
                for cu, cv, cd in _chunks(u, v, d):
                    client.feed("drill", cu, cv, cd)
                    fed += len(cu)
                    if fed >= len(u) // 2:
                        break
                client.kill("drill")
                reopened = client.open("drill")
                assert reopened["restored"] is True
                resumed_at = reopened["elements"]
                assert 0 < resumed_at <= fed
                assert resumed_at % 48 == 0
                client.feed("drill", u[resumed_at:], v[resumed_at:],
                            d[resumed_at:])
                wire = client.estimate("drill")
                status = client.status("drill", estimate=True)
                client.close_stream("drill", checkpoint=False)
        expected = _reference_estimates(u, v, d, 120)
        by_order = sorted(expected)
        got = wire["estimates"]
        for index, name in enumerate(sorted(got)):
            assert got[name]["estimate"] == expected[by_order[index]][0]
        assert status["median"] == wire["median"]

    def test_refusals_over_the_wire_are_typed(self, tmp_path):
        with ServerThread(root=str(tmp_path)) as server:
            with ServiceClient(server.host, server.port) as client:
                with pytest.raises(ServiceError, match="not open"):
                    client.feed("ghost", [1], [2])
                with pytest.raises(ServiceError, match="ServiceError"):
                    client.open("bad name!")
                # The connection survives every refusal.
                assert client.status()["open_streams"] == 0

    def test_open_naming_a_removed_backend_is_refused(self, tmp_path):
        with ServerThread(root=str(tmp_path)) as server:
            with ServiceClient(server.host, server.port) as client:
                with pytest.raises(ServiceError,
                                   match="ServiceError: unknown backend 'thread'"
                                         ".*serial, process"):
                    client.open("old", config=self._wire_config(backend="thread"))
                assert client.status()["open_streams"] == 0
        assert not os.path.exists(tmp_path / "old")

    def test_malformed_lines_are_answered_not_fatal(self, tmp_path):
        with ServerThread(root=str(tmp_path)) as server:
            sock = socket.create_connection((server.host, server.port),
                                            timeout=30)
            try:
                stream = sock.makefile("rwb")
                stream.write(b"this is not json\n")
                stream.flush()
                answer = json.loads(stream.readline())
                assert answer["ok"] is False
                assert answer["error"] == "ServiceError"
                # Same connection keeps working afterwards.
                stream.write(encode_message({"cmd": "status"}))
                stream.flush()
                answer = json.loads(stream.readline())
                assert answer["ok"] is True
            finally:
                sock.close()

    def test_backpressure_refusal_over_the_wire(self, tmp_path):
        limits = ServiceLimits(max_feed_bytes=64)
        registry = StreamRegistry(root=str(tmp_path), limits=limits)
        with ServerThread(registry=registry) as server:
            with ServiceClient(server.host, server.port) as client:
                client.open("s", config=self._wire_config())
                with pytest.raises(ServiceError, match="max_feed_bytes"):
                    client.feed("s", list(range(10)),
                                list(range(10, 20)))
                # Refusal reserved nothing: a small feed is admitted.
                result = client.feed("s", [0, 1], [5, 6])
                assert result["fed"] == 2
                assert server.registry.inflight_bytes == 0


class TestServeProcess:
    """A real ``repro serve`` subprocess on an ephemeral localhost port."""

    N_VERTICES = 300
    COPIES = 3
    CAPACITY = 64
    CHUNK = 48
    # Misaligned with CHUNK, so the last scheduled snapshot sits
    # strictly before the kill and the reopen has a tail to re-feed.
    CHECKPOINT_EVERY = 150

    def _tenant_columns(self, seed):
        u, v, d = _columns(seed_graph=seed, seed_stream=seed + 1,
                           n=self.N_VERTICES)
        return u[:720], v[:720], d[:720]

    def _direct_median(self, u, v, d, seed):
        # The wire config's copy k is TRIEST with rng seed + 1 + k.
        engine = LiveEngine(n=self.N_VERTICES)
        engine.register_all(_specs(copies=self.COPIES, capacity=self.CAPACITY,
                                   base_rng=seed + 1))
        engine.feed((u, v, d))
        median = median_estimate(engine.estimate())
        engine.close()
        return median

    @staticmethod
    def _boot(root):
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--root", root, "--max-streams", "4"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env,
        )
        line = proc.stdout.readline()
        match = re.search(r"serving on ([\d.]+):(\d+)", line)
        if not match:
            proc.kill()
            proc.wait(timeout=15)
            pytest.fail(f"repro serve did not announce a port: {line!r}")
        return proc, match.group(1), int(match.group(2))

    def test_interleaved_tenants_refusals_and_kill_drill(self, tmp_path):
        seeds = {f"tenant-{i}": SEED + 50 * i for i in range(3)}
        tenants = {name: self._tenant_columns(seed)
                   for name, seed in seeds.items()}
        proc, host, port = self._boot(str(tmp_path))
        try:
            with ServiceClient(host, port) as client:
                for name, seed in seeds.items():
                    client.open(name, config={
                        "n": self.N_VERTICES, "estimator": "triest",
                        "copies": self.COPIES, "capacity": self.CAPACITY,
                        "seed": seed,
                        "checkpoint": {"every_elements": self.CHECKPOINT_EVERY},
                    })
                # Interleaved feeds with periodic mid-stream queries.
                for start in range(0, 720, self.CHUNK):
                    stop = start + self.CHUNK
                    for name, (u, v, d) in tenants.items():
                        client.feed(name, u[start:stop], v[start:stop],
                                    d[start:stop])
                        if (stop // self.CHUNK) % 3 == 0:
                            client.estimate(name)
                for name, (u, v, d) in tenants.items():
                    assert client.estimate(name)["median"] == \
                        self._direct_median(u, v, d, seeds[name])

                # Typed refusals leave the connection and every tenant up.
                with pytest.raises(ServiceError, match="not open"):
                    client.feed("ghost", [1], [2])
                client.open("tenant-overflow", config={
                    "n": 8, "estimator": "triest", "copies": 1})
                with pytest.raises(ServiceError, match="max_streams"):
                    client.open("tenant-overflow-2", config={
                        "n": 8, "estimator": "triest", "copies": 1})
                assert client.status()["open_streams"] == 4
                client.close_stream("tenant-overflow", checkpoint=False)

                # Kill without the final checkpoint, reopen from the
                # last scheduled snapshot, re-feed the tail.
                name = "tenant-0"
                u, v, d = tenants[name]
                client.kill(name)
                reopened = client.open(name)
                resumed_at = reopened["elements"]
                assert reopened["restored"] is True
                assert 0 < resumed_at < len(u)
                client.feed(name, u[resumed_at:], v[resumed_at:],
                            d[resumed_at:])
                assert client.estimate(name)["median"] == \
                    self._direct_median(u, v, d, seeds[name])
                for name in tenants:
                    client.close_stream(name, checkpoint=False)
        finally:
            proc.terminate()
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=15)
