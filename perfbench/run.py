"""The repository benchmark: one workload, one run, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload insert_fused --seed 1 --seconds 10 --trace 0

``BENCHMARK.json`` gates ``turnstile_sharded`` and ``serve_mix``, which
between them reach every layer.  ``insert_fused`` and ``turnstile_fused``
stay runnable but are not gated: every gated workload shortens the runs
a fixed time budget allows, and these two reach no layer the other two
miss.  ``turnstile_fused`` is also run, untimed, inside every
``turnstile_sharded`` run as its bit-equality reference.

The program is imported from ``src/`` of the current directory; nothing
is installed or built, and a directory without ``src/repro`` exits with
status 2 before printing a result.  Scratch files go to
``.perfbench_work/`` and are removed before exit.  The last line of
standard output is the result::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, measured with no tracing
installed.  Every time among them is scaled to a reference machine speed
by the speed probes of ``speed.py``, which run between the timed calls
and mix cycles; the raw probe times are printed on a ``#`` line.  The
one exception is the batch workloads' ``setup_s``: a few ms of file
writes and fsyncs, whose time does not follow the CPU's speed (scaled,
its median doubled between two sets of ten runs), so it is reported as
measured.

* ``updates_per_s`` — batch workloads: calls x passes x stream length /
  wall seconds of all timed count calls; ``serve_mix``: updates fed in
  the timed mix loops / their wall seconds.
* ``setup_s`` — median of several set-ups: writing and opening the
  ``.reb`` file or shards (``insert_fused``, ``turnstile_sharded``),
  building the validated in-memory stream (``turnstile_fused``), or
  spawning ``repro serve`` until it accepts, opening every tenant and
  feeding each its first chunk, which builds its estimators
  (``serve_mix``).  Input generation and exact counting are excluded.
  Batch set-ups run before the first call and after every timed call,
  outside the timed region; ``serve_mix`` sets up a fresh server for
  every mix cycle.
* ``peak_rss_mb`` — peak RSS of the system under test.  Batch
  workloads: the high-water mark of this process over the timed calls
  only; it is reset (``/proc/self/clear_refs``) after input generation,
  exact counting, the reference run, the set-ups and an untimed warm-up
  call, so it is the resident floor left by those plus what the counter
  itself adds.
  ``serve_mix``: the largest peak of the ``repro serve`` subprocesses,
  each of which serves exactly one mix cycle.
* ``query_p50_ms`` / ``query_tail_ms`` — ``serve_mix``: latency of an
  ``estimate`` request; batch workloads: latency of one complete count
  call, the batch user's query.
* ``feed_p50_ms`` / ``feed_tail_ms`` — ``serve_mix``: latency of a
  ``feed`` request.  Batch workloads have no feed; ``BENCHMARK.json``
  asks every workload for every metric, so there they are simply
  ``query_*_ms / 3`` (the pass count), not an independent measurement,
  and move exactly with ``query_*_ms``.

A ``*_tail_ms`` value is the highest nearest-rank percentile with at
least ten samples beyond it; with fewer than 21 samples (the batch
workloads' few long calls) it is the maximum.  The percentile and
sample count are printed on a ``#`` line before the result.  Ratios
name their base on the same ``#`` lines.

``--trace 1`` alternates, for ``--seconds``, untraced calls (mix cycles
for ``serve_mix``) with calls traced by the layer wrappers of
``spans.py``, and reports the per-layer metrics (per count call for
batch workloads, per mix cycle for ``serve_mix``) plus
``trace.overhead_frac`` = (traced - untraced wall) / untraced wall.  It
also asserts layer coverage: each workload still reaches the layers it
was chosen for and bypasses the others.

Correctness is checked outside every timed region: estimates are
nonzero, each counter took 3 passes, repeated calls agree bit for bit,
``turnstile_sharded`` equals ``turnstile_fused`` per copy, and every
``serve_mix`` tenant's final median equals a standalone ``LiveEngine``
fed the same columns.  A failed check prints ``"correct": false`` and
exits with status 1.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("insert_fused", "turnstile_fused", "turnstile_sharded", "serve_mix")
#: Batch set-ups before the first call, and after each timed call.  Set-up
#: is a few ms of writes and fsyncs, some stalled by a busy disk; spreading
#: the samples over the run makes their median follow the run's whole
#: window, not one instant.
SETUP_REPEATS, SETUPS_PER_CALL = 9, 4

END_TO_END_UNITS = {
    "updates_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "feed_p50_ms": "ms",
    "feed_tail_ms": "ms",
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
}

LAYER_UNITS = {
    "streams.next_s": "s", "streams.batches": "count",
    "streams.cache_hit_frac": "frac", "streams.peak_resident_bytes": "B",
    "engine.self_s": "s", "engine.dispatches": "count", "engine.build_s": "s",
    "fgp.begin_pass_self_s": "s", "fgp.end_pass_self_s": "s",
    "fgp.success_frac": "frac", "fgp.rel_err": "frac",
    "transform.begin_batch_s": "s", "transform.ingest_self_s": "s",
    "transform.ingest_calls": "count", "transform.finish_s": "s",
    "transform.space_words": "words",
    "sketch.l0.update_s": "s", "sketch.l0.update_calls": "count",
    "sketch.l0.samplers": "count",
    "sketch.reservoir.offer_s": "s", "sketch.reservoir.offer_calls": "count",
    "engine.sharded.merge_s": "s", "engine.sharded.merge_calls": "count",
    "engine.live.feed_s": "s", "engine.live.estimate_s": "s",
    "engine.live.snapshot_s": "s", "engine.live.journal_elements": "count",
    "service.wait_ms": "ms", "service.checkpoint_stall_s": "s",
    "service.checkpoints_written": "count", "service.checkpoint_bytes": "B",
    "trace.overhead_frac": "frac",
}


class CheckFailed(Exception):
    """A correctness or coverage check failed."""


def note(text):
    print(f"# {text}", flush=True)


def tail(samples):
    """(value, percentile, count): highest percentile with >= 10 samples beyond.

    Below 21 samples that percentile would sit under the median, so the
    maximum is reported instead.
    """
    ordered = sorted(samples)
    count = len(ordered)
    index = count - 11 if count >= 21 else count - 1
    return ordered[index], 100.0 * (index + 1) / count, count


def latency_metrics(prefix, seconds):
    value, percentile, count = tail(seconds)
    note(f"{prefix}_tail_ms is p{percentile:.1f} of {count} samples "
         f"({count - round(percentile * count / 100)} beyond it)")
    return {f"{prefix}_p50_ms": 1e3 * statistics.median(seconds),
            f"{prefix}_tail_ms": 1e3 * value}


def timed_calls(call, seconds, after, probes):
    """Call until *seconds* have passed (at least once).

    A speed probe runs before the first call and after every call (each
    appended to *probes*); the calls' wall seconds are returned scaled to
    the reference speed by the probes around each.  *after* checks each
    result, after its probe and outside the timed region, and the result
    is dropped before the next call so results do not pile up in memory.
    """
    first = len(probes)
    probes.append(speed.probe())
    walls = []
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        gc.collect()
        start = time.perf_counter()
        result = call()
        walls.append(time.perf_counter() - start)
        probes.append(speed.probe())
        after(result)
        del result
    return [wall * factor for wall, factor in zip(walls, speed.factors(probes[first:]))]


def note_probes(probes):
    """Print the raw probe times behind the scaled timings."""
    note(f"speed: {len(probes)} probes, median {statistics.median(probes):.4f}s, "
         f"range {min(probes):.4f}-{max(probes):.4f}s; timings are scaled to "
         f"a {speed.REFERENCE_S}s probe")


def reset_peak_rss():
    """Restart this process's RSS high-water mark (``VmHWM``) from now."""
    with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
        handle.write("5")


def peak_rss_mb():
    """This process's ``VmHWM`` since the last :func:`reset_peak_rss`."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM missing from /proc/self/status")


def check(failures):
    if failures:
        raise CheckFailed("; ".join(failures))


# -- batch workloads ---------------------------------------------------------


def run_batch(name, seed, seconds, trace, workdir, counts):
    import spans as tracing
    import workloads as w

    make_input, setup, call = w.BATCH[name]
    data = make_input(seed)
    # Every call must reproduce these per-copy estimates bit for bit: the
    # unsharded run's for turnstile_sharded, else those of the untimed
    # first call, which also warms lazy imports and caches.
    expected = w.sharded_reference(data) if name == "turnstile_sharded" else None
    setups, probes = [], []

    def set_up():
        """One timed set-up in a fresh directory; returns the system under test."""
        target = os.path.join(workdir, f"setup-{len(setups)}")
        os.makedirs(target)
        gc.collect()
        start = time.perf_counter()
        sut = setup(data, target)
        setups.append(time.perf_counter() - start)
        return sut

    def checked(result):
        counts["attempted"] += 1
        failures = w.check_batch_result(name, data, result, expected)
        counts["failed"] += bool(failures)
        check(failures)

    def checked_then_set_up(result):
        checked(result)
        for _ in range(SETUPS_PER_CALL):
            set_up()

    for _ in range(SETUP_REPEATS):
        sut = set_up()

    first = call(data, sut)
    checked(first)
    expected = first.estimates

    if not trace:
        gc.collect()
        reset_peak_rss()
        walls = timed_calls(lambda: call(data, sut), seconds, checked_then_set_up,
                            probes)
        peak_mb = peak_rss_mb()
        note(f"{name}: n={data.n} stream={data.length} exact={data.truth} "
             f"estimate={first.estimate:.1f} rel_err="
             f"{w.relative_error(first.estimate, data.truth):.4f} calls={len(walls)}")
        note(f"updates_per_s base: {len(walls)} calls x {first.passes} passes x "
             f"{data.length} updates / {sum(walls):.3f}s of call walls at the "
             "reference speed")
        note_probes(probes)
        note(f"setup_s base: median of {len(setups)} set-ups")
        metrics = {
            "updates_per_s": len(walls) * first.passes * data.length / sum(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_mb,
        }
        metrics.update(latency_metrics("feed", [wall / first.passes for wall in walls]))
        metrics.update(latency_metrics("query", walls))
        return metrics

    # Untraced and traced calls alternate, so drift in the machine's speed
    # during the run falls on both sides of trace.overhead_frac alike.
    untraced, traced, per_call = [], [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        gc.collect()
        start = time.perf_counter()
        result = call(data, sut)
        untraced.append(time.perf_counter() - start)
        checked(result)
        del result
        gc.collect()
        recorder = tracing.Recorder()
        undo = tracing.install(recorder)
        try:
            span = recorder.open("workload.call")
            result = call(data, sut)
            traced.append(recorder.close(span))
        finally:
            tracing.uninstall(undo)
        checked(result)
        layers = tracing.layer_metrics(
            recorder.spans(), recorder.counters(), recorder.sampler_count,
            (recorder.cache_hits, recorder.cache_misses, recorder.cache_peak_bytes),
        )
        layers["fgp.success_frac"] = (
            sum(copy.successes for copy in result.copies)
            / sum(copy.trials for copy in result.copies)
        )
        layers["fgp.rel_err"] = w.relative_error(result.estimate, data.truth)
        layers["transform.space_words"] = sum(copy.space_words for copy in result.copies)
        per_call.append(layers)
    metrics = {key: statistics.median(layers[key] for layers in per_call)
               for key in per_call[0]}
    metrics.update({"service.wait_ms": 0.0, "service.checkpoint_stall_s": 0.0,
                    "service.checkpoints_written": 0})
    base = statistics.median(untraced)
    metrics["trace.overhead_frac"] = (statistics.median(traced) - base) / base
    note(f"trace.overhead_frac base: median untraced call wall {base:.4f}s over "
         f"{len(untraced)} calls; traced calls: {len(traced)}")
    return metrics


# -- serve_mix ---------------------------------------------------------------


def serve_cycles(tenants, references, seconds, workdir, src, counts, probes,
                 launcher=None):
    """Run mix cycles for *seconds* (at least one), each on a fresh server.

    Every cycle spawns ``repro serve`` in a new root, opens and starts
    the tenants (the timed set-up), runs one timed :func:`workloads.run_cycle`,
    checks the final medians and stops the server.  One cycle per server
    keeps each server's work, and so its peak RSS, the same however many
    cycles fit in the run, and spreads the set-up samples over the run.
    Speed probes (appended to *probes*) run before each set-up, between
    the set-up and the mix, and after the server stops; the probes around
    the set-up and around the mix give the cycle's ``setup_factor`` and
    ``factor``, which scale those timings to the reference speed.
    Returns one dict per cycle with its :class:`workloads.MixLog`; with
    *launcher* each also holds the traced server's dump.
    """
    import workloads as w

    cycles = []
    first_probe = len(probes)
    probes.append(speed.probe())
    deadline = time.perf_counter() + seconds
    while not cycles or time.perf_counter() < deadline:
        root = tempfile.mkdtemp(prefix="serve-", dir=workdir)
        spans_out = root + ".spans.json" if launcher else None
        names = [f"{os.path.basename(root)}-t{tenant}" for tenant in range(len(tenants))]
        log = w.MixLog()
        start = time.perf_counter()
        server = w.Server(root, src, launcher, spans_out)
        try:
            for name, tenant in zip(names, tenants):
                server.client.open(name, config=tenant.config())
            w.start_tenants(server.client, names, tenants, log)
            cycle = {"setup_s": time.perf_counter() - start, "stall_s": 0.0,
                     "written": 0, "log": log}
            probes.append(speed.probe())
            medians = w.run_cycle(server.client, names, tenants, log)
            failures = []
            for name, median, expected in zip(names, medians, references):
                if median != expected:
                    failures.append(f"serve_mix: tenant {name} median {median} "
                                    f"!= standalone LiveEngine {expected}")
                elif not median > 0:
                    failures.append(f"serve_mix: tenant {name} median {median} "
                                    "is not > 0")
            counts["attempted"] += log.attempted
            counts["failed"] += len(failures)
            check(failures)
            for name in names:
                status = server.client.status(name)
                cycle["stall_s"] += status["checkpoint_stall_s"]
                cycle["written"] += status["checkpoints_written"]
        finally:
            code = server.stop()
        if code != 0:
            raise CheckFailed(f"serve_mix: server exited with status {code}")
        probes.append(speed.probe())
        if launcher:
            with open(spans_out, encoding="utf-8") as handle:
                cycle["server"] = json.load(handle)
        cycles.append(cycle)
    factors = speed.factors(probes[first_probe:])
    for cycle, setup_factor, factor in zip(cycles, factors[::2], factors[1::2]):
        cycle["setup_factor"], cycle["factor"] = setup_factor, factor
    return cycles


def run_serve(seed, seconds, trace, workdir, src, counts):
    import spans as tracing
    import workloads as w

    tenants = w.serve_tenants(seed)
    standalone = [w.standalone_run(tenant) for tenant in tenants]
    references = [median for median, _ in standalone]
    note(f"serve_mix: {len(tenants)} tenants x {len(tenants[0].columns[0])} updates, "
         f"exact={[t.truth for t in tenants]} standalone medians={references}")
    probes = []
    if not trace:
        cycles = serve_cycles(tenants, references, seconds, workdir, src, counts, probes)
        updates = sum(cycle["log"].updates for cycle in cycles)
        wall = sum(cycle["log"].wall * cycle["factor"] for cycle in cycles)
        note(f"updates_per_s base: {updates} updates fed / {wall:.3f}s of "
             f"{len(cycles)} mix cycles at the reference speed; "
             f"{counts['attempted']} requests")
        note(f"setup_s base: median of {len(cycles)} server spawns + tenant opens "
             "and first feeds")
        note_probes(probes)
        metrics = {
            "updates_per_s": updates / wall,
            "setup_s": statistics.median(cycle["setup_s"] * cycle["setup_factor"]
                                         for cycle in cycles),
            # Every child has been waited for; each ran one mix cycle.
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        }
        for prefix, samples in (("feed", "feeds"), ("query", "queries")):
            metrics.update(latency_metrics(prefix, [
                seconds * cycle["factor"]
                for cycle in cycles for seconds in getattr(cycle["log"], samples)
            ]))
        return metrics

    # Untraced and traced cycles alternate, as the batch calls do.
    cycles, traced = [], []
    launcher = os.path.join(HERE, "serve_launcher.py")
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        cycles += serve_cycles(tenants, references, 0, workdir, src, counts, probes)
        traced += serve_cycles(tenants, references, 0, workdir, src, counts, probes,
                               launcher=launcher)
    per_cycle, waits = [], []
    for cycle in traced:
        server = cycle["server"]
        layers = tracing.layer_metrics(server["spans"], server["counters"],
                                       server["samplers"], server["cache"])
        counters = server["counters"]
        layers["fgp.success_frac"] = counters["fgp.successes"] / counters["fgp.trials"]
        layers["service.checkpoint_stall_s"] = cycle["stall_s"]
        layers["service.checkpoints_written"] = cycle["written"]
        per_cycle.append(layers)
        served = {(tenant, seq): seconds
                  for tenant, seq, _, seconds in server["registry_calls"]}
        waits.extend(client - served[(tenant, seq)]
                     for tenant, seq, _, client in cycle["log"].requests)
    metrics = {key: statistics.median(layers[key] for layers in per_cycle)
               for key in per_cycle[0]}
    # rel_err and space from the standalone engines, whose medians the
    # service's final answers were checked to equal.
    metrics["fgp.rel_err"] = statistics.median(
        w.relative_error(median, tenant.truth)
        for median, tenant in zip(references, tenants)
    )
    metrics["transform.space_words"] = sum(space for _, space in standalone)
    metrics["service.wait_ms"] = 1e3 * statistics.median(waits)
    untraced_cycle = sum(cycle["log"].wall for cycle in cycles) / len(cycles)
    traced_cycle = sum(cycle["log"].wall for cycle in traced) / len(traced)
    metrics["trace.overhead_frac"] = (traced_cycle - untraced_cycle) / untraced_cycle
    note(f"trace.overhead_frac base: untraced {untraced_cycle:.4f}s per mix cycle "
         f"over {len(cycles)} cycles; traced cycles: {len(traced)}")
    note(f"service.wait_ms base: median over {len(waits)} requests of client "
         "latency minus the matching StreamRegistry call span")
    return metrics


# -- coverage ------------------------------------------------------------------


def check_coverage(name, metrics):
    """Each workload still reaches its layers and bypasses the others."""
    turnstile = name.startswith("turnstile")
    live = [key for key in metrics if key.startswith(("engine.live.", "service."))
            and key != "service.wait_ms"]
    rules = [
        ("sketch.l0.update_calls", turnstile),
        ("sketch.reservoir.offer_calls", not turnstile),
        ("engine.sharded.merge_calls", name == "turnstile_sharded"),
        ("engine.dispatches", name != "serve_mix"),
    ] + [(key, name == "serve_mix") for key in live]
    failures = [
        f"{name}: {key}={metrics[key]} but the workload should "
        f"{'reach' if wanted else 'bypass'} that layer"
        for key, wanted in rules
        if bool(metrics[key] > 0) != wanted
    ]
    check(failures)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("error: run from the repository root: src/repro not found",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    os.makedirs(".perfbench_work", exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=".perfbench_work")
    counts = {"attempted": 0, "failed": 0}
    correct, metrics = True, {}
    try:
        if args.workload == "serve_mix":
            metrics = run_serve(args.seed, args.seconds, args.trace, workdir, src, counts)
        else:
            metrics = run_batch(args.workload, args.seed, args.seconds, args.trace,
                                workdir, counts)
        if args.trace:
            check_coverage(args.workload, metrics)
    except CheckFailed as failure:
        print(f"error: {failure}", file=sys.stderr)
        correct = False
    except Exception:
        traceback.print_exc()
        correct = False
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(".perfbench_work")
        except OSError:
            pass  # another run still uses it
    if correct:
        units = LAYER_UNITS if args.trace else END_TO_END_UNITS
        metrics = {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()}
    else:
        counts["failed"] = max(counts["failed"], 1)
        counts["attempted"] = max(counts["attempted"], counts["failed"])
        metrics = {}
    print(json.dumps({"correct": correct, **counts, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
