"""Chaos smoke check for CI (no pytest, no benchmarks).

Runs the seeded fault drills end to end — the same recovery paths
``tests/test_faults.py`` exercises, but as one self-contained script a
human can re-run from a single printed seed.  Fails loudly (exit 1) if
any leg of the robustness contract breaks:

* **worker kill → respawn** — a live engine whose worker takes a
  SIGKILL mid-batch respawns it, replays the journal, and finishes
  bit-equal to an uninterrupted run;
* **worker kill → degrade** — with the respawn budget exhausted, the
  engine serves the median of the surviving copies, each bit-equal to
  its uninterrupted twin;
* **torn delta checkpoint** — a truncated delta tip is dropped with a
  warning; restore lands on the longest valid prefix and re-feeding
  reconverges bit-equal;
* **disk-error retry** — two injected transient ``EIO`` failures are
  absorbed by the three-attempt retry policy; a third surfaces.
* **tenant kill → restore-on-open** — a ``repro.service`` tenant
  dropped mid-feed without its final checkpoint reopens from the last
  scheduled snapshot; re-feeding from the reported element reconverges
  bit-equal to an uninterrupted engine.

The drill seed defaults to 0 and can be pinned for reproduction::

    PYTHONPATH=src REPRO_CHAOS_SEED=1234 python benchmarks/chaos_smoke.py
"""

import os
import sys
import tempfile

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.engine import EstimatorSpec, LiveEngine  # noqa: E402
from repro.engine.parallel import (  # noqa: E402
    build_triest,
    leaked_shm_segments,
    run_parallel_engine,
)
from repro.faults import FaultPlan, activate, truncate_file  # noqa: E402
from repro.graph import generators as gen  # noqa: E402
from repro.streams.stream import insertion_stream  # noqa: E402

SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))
FAILURES = []


def check(label, condition, detail=""):
    status = "ok" if condition else "FAIL"
    print(f"[chaos-smoke] {label}: {status}{(' — ' + detail) if detail else ''}")
    if not condition:
        FAILURES.append(label)


def _stream():
    graph = gen.power_law_cluster(200, 4, 0.6, SEED + 100)
    return insertion_stream(graph, rng=SEED + 101)


def _specs(copies=4):
    return [
        EstimatorSpec(
            name=f"t{index}",
            factory=build_triest,
            kwargs=dict(capacity=80, rng=SEED + 31 + index, name=f"t{index}"),
        )
        for index in range(copies)
    ]


def _reference_estimates(stream, copies=4):
    engine = LiveEngine(n=stream.n)
    engine.register_all(_specs(copies))
    engine.feed(stream.columns())
    results = {n: r.estimate for n, r in engine.estimate().items()}
    engine.close()
    return results


def _feed_chunks(engine, stream, chunk=64):
    u, v, d = stream.columns()
    for start in range(0, len(u), chunk):
        engine.feed((u[start:start + chunk], v[start:start + chunk],
                     d[start:start + chunk]))


def drill_kill_then_respawn(stream, reference):
    plan = FaultPlan(seed=SEED).kill_worker(1, nth_batch=3)
    engine = LiveEngine(n=stream.n, backend="thread", workers=4,
                        batch_size=64, respawn_budget=2, fault_plan=plan)
    engine.register_all(_specs())
    _feed_chunks(engine, stream)
    results = {n: r.estimate for n, r in engine.estimate().items()}
    check("respawned engine is not degraded", not engine.degraded,
          f"lost={engine.lost_estimators}")
    check("respawn consumed one budget slot", engine.respawns_left == 1,
          f"respawns_left={engine.respawns_left}")
    check("respawn replay is bit-equal to the uninterrupted run",
          results == reference, f"{results} vs {reference}")
    engine.close()


def drill_kill_then_degrade(stream, reference):
    plan = FaultPlan(seed=SEED).kill_worker(1, nth_batch=3)
    engine = LiveEngine(n=stream.n, backend="thread", workers=4,
                        batch_size=64, respawn_budget=0, fault_plan=plan)
    engine.register_all(_specs())
    _feed_chunks(engine, stream)
    results = {n: r.estimate for n, r in engine.estimate().items()}
    check("budget-exhausted engine is degraded", engine.degraded)
    check("exactly one estimator was lost",
          engine.lost_estimators == ["t1"],
          f"lost={engine.lost_estimators}")
    survivors_match = all(results[n] == reference[n] for n in results)
    check("surviving copies are bit-equal to their uninterrupted twins",
          survivors_match, f"{results} vs {reference}")
    engine.close()


def drill_sigkill_process_pool(stream):
    baseline = set(leaked_shm_segments())
    plan = FaultPlan(seed=SEED).kill_worker(0, nth_batch=2)
    report = run_parallel_engine(
        stream, _specs(copies=2), backend="process", workers=2, batch_size=64,
        on_worker_loss="degrade", fault_plan=plan,
    )
    check("process pool degrades after a real SIGKILL",
          report.degraded and report.lost == ("t0",),
          f"degraded={report.degraded} lost={report.lost}")
    leaked = set(leaked_shm_segments()) - baseline
    check("no leaked shm segments after the SIGKILL drill", not leaked,
          ", ".join(sorted(leaked)))


def drill_torn_delta_checkpoint(stream):
    from repro.engine.estimators import fgp_insertion_estimator
    from repro.patterns import pattern as zoo

    pattern = zoo.triangle()
    u, v, d = stream.columns()
    half, rest = len(u) // 2, 3 * len(u) // 4
    tmp = tempfile.mkdtemp(prefix="repro-chaos-")
    path = os.path.join(tmp, "live.ckpt")

    def build():
        engine = LiveEngine(n=stream.n)
        for index in range(2):
            engine.register_spec(EstimatorSpec(
                name=f"copy-{index}",
                factory=fgp_insertion_estimator,
                kwargs=dict(pattern=pattern, trials=150,
                            rng=SEED + 400 + index, name=f"copy-{index}"),
            ))
        return engine

    engine = build()
    engine.feed((u[:half], v[:half], d[:half]))
    engine.snapshot(path, mode="delta")  # the full base
    engine.feed((u[half:rest], v[half:rest], d[half:rest]))
    tip = engine.snapshot(path, mode="delta")
    engine.feed((u[rest:], v[rest:], d[rest:]))
    expected = {n: r.estimate for n, r in engine.estimate().items()}
    engine.close()

    # Tear the tip at a seed-chosen offset near the end.
    rng = FaultPlan(seed=SEED).rng("torn-delta")
    truncate_file(tip, -rng.randrange(1, 16))
    restored = LiveEngine.restore(path)
    info = restored.restore_info
    check("torn tip is dropped, not fatal",
          info["fell_back"] and info["dropped"] == [tip], f"info={info}")
    check("restore lands on the last valid point",
          restored.elements == half, f"elements={restored.elements}")
    restored.feed((u[half:], v[half:], d[half:]))
    results = {n: r.estimate for n, r in restored.estimate().items()}
    check("the equality check is not vacuous",
          any(value != 0 for value in expected.values()), f"{expected}")
    check("re-fed engine is bit-equal to the untorn run",
          results == expected, f"{results} vs {expected}")
    restored.close()


def drill_disk_error_retry(stream):
    tmp = tempfile.mkdtemp(prefix="repro-chaos-")
    path = os.path.join(tmp, "retry.ckpt")
    engine = LiveEngine(n=stream.n)
    engine.register_all(_specs(copies=2))
    u, v, d = stream.columns()
    engine.feed((u[:100], v[:100], d[:100]))

    with activate(FaultPlan(seed=SEED).fail_disk_write(nth=1, count=2)):
        try:
            engine.snapshot(path)
            check("two transient EIO failures are retried away", True)
        except OSError as error:
            check("two transient EIO failures are retried away", False,
                  str(error))
    restored = LiveEngine.restore(path)
    check("the retried checkpoint restores", restored.elements == 100)
    restored.close()

    with activate(FaultPlan(seed=SEED).fail_disk_write(nth=1, count=3)):
        try:
            engine.snapshot(path + ".doomed")
            check("a third consecutive EIO surfaces", False, "no error raised")
        except OSError:
            check("a third consecutive EIO surfaces", True)
    check("the failed write left no target behind",
          not os.path.exists(path + ".doomed")
          and not os.path.exists(path + ".doomed.tmp"))
    engine.close()


def drill_service_tenant_kill(stream):
    """Kill a service tenant mid-feed; restore-on-open must reconverge."""
    from repro.engine import median_estimate
    from repro.service import ServerThread, ServiceClient

    u, v, d = stream.columns()
    copies, capacity, chunk, every = 3, 80, 64, 150
    seed = SEED + 700
    # Crash after 5 chunks: past the first scheduled checkpoint (fires
    # at 192 elements with every=150 and 64-wide feeds) but strictly
    # before the next, so the reopen has a real tail to re-feed.
    crash = 5 * chunk
    if len(u) <= crash + chunk:
        check("stream is long enough for the service drill", False,
              f"{len(u)} elements")
        return

    engine = LiveEngine(n=stream.n)
    for index in range(copies):
        name = f"copy-{index}"
        engine.register_spec(EstimatorSpec(
            name=name, factory=build_triest,
            kwargs=dict(capacity=capacity, rng=seed + 1 + index, name=name)))
    engine.feed((u, v, d))
    expected = median_estimate(engine.estimate())
    engine.close()

    root = tempfile.mkdtemp(prefix="repro-chaos-service-")
    with ServerThread(root=root) as server:
        with ServiceClient(server.host, server.port) as client:
            client.open("victim", config={
                "n": stream.n, "estimator": "triest", "copies": copies,
                "capacity": capacity, "seed": seed,
                "checkpoint": {"every_elements": every}})
            for start in range(0, crash, chunk):
                client.feed("victim", u[start:start + chunk],
                            v[start:start + chunk], d[start:start + chunk])
            client.kill("victim")
            reopened = client.open("victim")
            resumed = reopened["elements"]
            check("killed tenant reopens from a mid-stream checkpoint",
                  reopened["restored"] is True and 0 < resumed < crash,
                  f"resumed_at={resumed}, crash point {crash}")
            for start in range(resumed, len(u), chunk):
                client.feed("victim", u[start:start + chunk],
                            v[start:start + chunk], d[start:start + chunk])
            wire = client.estimate("victim")["median"]
            check("re-fed tenant is bit-equal to the uninterrupted engine",
                  wire == expected, f"wire={wire} direct={expected}")
            client.close_stream("victim", checkpoint=False)


def main():
    print(f"[chaos-smoke] seed={SEED} (rerun with REPRO_CHAOS_SEED={SEED})")
    stream = _stream()
    reference = _reference_estimates(stream)
    drill_kill_then_respawn(stream, reference)
    drill_kill_then_degrade(stream, reference)
    drill_sigkill_process_pool(stream)
    drill_torn_delta_checkpoint(stream)
    drill_disk_error_retry(stream)
    drill_service_tenant_kill(stream)
    if FAILURES:
        print(f"[chaos-smoke] FAILED ({len(FAILURES)}): {', '.join(FAILURES)}")
        print(f"[chaos-smoke] reproduce with: PYTHONPATH=src "
              f"REPRO_CHAOS_SEED={SEED} python benchmarks/chaos_smoke.py")
        return 1
    print("[chaos-smoke] all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
