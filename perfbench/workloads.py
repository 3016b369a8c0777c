"""Inputs and runners of the four benchmark workloads.

Every input is a pure function of the ``--seed`` argument; the program
under test only ever receives the generated graphs, streams and configs.
All workloads use the serial backend.

``insert_fused``
    Theorem 17's 3-pass insertion-only triangle counter, K mirror copies,
    over a triangle-dense ``power_law_cluster`` graph read from a ``.reb``
    file through an LRU batch cache smaller than the stream.
``turnstile_fused``
    Theorem 1's 3-pass turnstile counter, K mirror copies, over an
    in-memory insert + churn-delete stream of a dense ``gnp`` graph.
``turnstile_sharded``
    The same stream and seeds, hash-partitioned into ``.reb`` shards and
    counted by ``count_subgraphs_turnstile_sharded``; must match ``turnstile_fused``
    bit for bit.
``serve_mix``
    A ``repro serve`` subprocess driven by one closed-loop client: T
    tenants of FGP ``insertion`` estimators fed round-robin in fixed
    chunks, an ``estimate`` every Q feeds, scheduled delta checkpoints.
"""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.engine import (
    EstimatorSpec,
    LiveEngine,
    count_subgraphs_insertion_only_fused,
    count_subgraphs_turnstile_fused,
    median_estimate,
)
from repro.engine.estimators import fgp_insertion_estimator
from repro.engine.sharded import count_subgraphs_turnstile_sharded
from repro.estimate.concentration import relative_error
from repro.exact.triangles import count_triangles
from repro.graph import generators as gen
from repro.patterns import pattern as zoo
from repro.service import ServiceClient
from repro.streams.datasets import (
    DiskEdgeStream,
    open_stream_shards,
    write_binary_updates,
    write_stream_shards,
)
from repro.streams.generators import turnstile_churn_stream
from repro.streams.stream import ColumnEdgeStream, insertion_stream

#: Passes the paper's counters take (Theorems 1 and 17).
PASSES = 3

# insert_fused: m ~ 10^4 edges, 3 batches of 4096 against a cache that
# holds one, 8 copies x 1500 trials (~4 successes per copy, so the
# median of 8 is nonzero on every seed tried).
INSERT_GRAPH = (2000, 5, 0.8)  # power_law_cluster(n, attach, p)
INSERT_COPIES, INSERT_TRIALS = 8, 1500
INSERT_CACHE = "lru:128k"

# turnstile_*: gnp(48, 0.85) has ~9k triangles on ~950 edges, a success
# rate near 0.12 per trial, so 40 trials give ~4.6 successes per copy and
# both copies come out empty with probability ~1e-4.  Churn inserts and
# later deletes half of the complement's edges.
TURNSTILE_GRAPH = (48, 0.85)
TURNSTILE_COPIES, TURNSTILE_TRIALS = 2, 40
# Two shards double the sampler calls of turnstile_fused; four took 3-4x
# as long per call and spread too widely between runs on a 2-CPU box.
# The cache holds a shard's single batch: pass 1 decodes from disk,
# passes 2 and 3 hit.
SHARDS = 2
SHARD_CACHE = "lru:16k"

# serve_mix: 4 tenants x one power_law_cluster(300, 12, 0.95) graph each
# (~3.4k edges, success rate ~0.013 per trial, so ~6.5 per copy).
SERVE_TENANTS = 4
SERVE_GRAPH = (300, 12, 0.95)
SERVE_COPIES, SERVE_TRIALS = 3, 500
SERVE_CHUNK = 256
SERVE_QUERY_EVERY = 4
SERVE_CHECKPOINT_EVERY = 1024
STOP_WAIT_S = 60


def seeds(seed: int, count: int) -> List[int]:
    """*count* independent sub-seeds derived from the workload seed."""
    source = random.Random(seed)
    return [source.randrange(1, 2**31) for _ in range(count)]


@dataclass
class StreamInput:
    """A generated stream: its columns, vertex count and exact count."""

    n: int
    u: Any
    v: Any
    delta: Any
    truth: int
    copy_seed: int

    @property
    def length(self) -> int:
        return len(self.u)


def insert_input(seed: int) -> StreamInput:
    graph_seed, order_seed, copy_seed = seeds(seed, 3)
    n, attach, p = INSERT_GRAPH
    graph = gen.power_law_cluster(n, attach, p, graph_seed)
    u, v, delta = insertion_stream(graph, rng=order_seed).columns()
    return StreamInput(n, u, v, delta, count_triangles(graph), copy_seed)


def turnstile_input(seed: int) -> StreamInput:
    graph_seed, churn_seed, copy_seed = seeds(seed, 3)
    n, p = TURNSTILE_GRAPH
    graph = gen.gnp(n, p, graph_seed)
    churn = (n * (n - 1) // 2 - graph.m) // 2
    stream = turnstile_churn_stream(graph, churn_edges=churn, rng=churn_seed)
    u, v, delta = stream.columns()
    return StreamInput(n, u, v, delta, count_triangles(graph), copy_seed)


# -- batch workloads ---------------------------------------------------------
#
# Each is (make inputs, set up the system under test, one timed call).
# Set-up writes/opens what the call reads; the call is what a user of the
# batch counter waits for.


def insert_setup(data: StreamInput, workdir: str):
    path = write_binary_updates(
        os.path.join(workdir, "insert.reb"), data.n, data.u, data.v, data.delta
    )
    return DiskEdgeStream(path, cache=INSERT_CACHE)


def insert_call(data: StreamInput, stream):
    # Passing the cache spec resets the policy, so every call starts cold.
    return count_subgraphs_insertion_only_fused(
        stream, zoo.triangle(), copies=INSERT_COPIES, trials=INSERT_TRIALS,
        rng=data.copy_seed, mode="mirror", cache=INSERT_CACHE,
    )


def turnstile_setup(data: StreamInput, workdir: str):
    return ColumnEdgeStream(data.n, data.u, data.v, data.delta, allow_deletions=True)


def turnstile_call(data: StreamInput, stream):
    return count_subgraphs_turnstile_fused(
        stream, zoo.triangle(), copies=TURNSTILE_COPIES, trials=TURNSTILE_TRIALS,
        rng=data.copy_seed, mode="mirror",
    )


def sharded_setup(data: StreamInput, workdir: str):
    path = write_binary_updates(
        os.path.join(workdir, "turnstile.reb"), data.n, data.u, data.v, data.delta,
        allow_deletions=True,
    )
    write_stream_shards(path, SHARDS)
    return open_stream_shards(path, SHARDS, cache=SHARD_CACHE)


def sharded_call(data: StreamInput, shards):
    return count_subgraphs_turnstile_sharded(
        shards, zoo.triangle(), copies=TURNSTILE_COPIES, trials=TURNSTILE_TRIALS,
        rng=data.copy_seed, cache=SHARD_CACHE,
    )


BATCH = {
    "insert_fused": (insert_input, insert_setup, insert_call),
    "turnstile_fused": (turnstile_input, turnstile_setup, turnstile_call),
    "turnstile_sharded": (turnstile_input, sharded_setup, sharded_call),
}


def check_batch_result(name: str, data: StreamInput, result, expected=None) -> List[str]:
    """Correctness failures of one batch call (empty when it is right)."""
    failures = []
    if not result.estimate > 0:
        failures.append(f"{name}: estimate {result.estimate} is not > 0")
    if result.passes != PASSES:
        failures.append(f"{name}: {result.passes} passes, expected {PASSES}")
    if expected is not None and result.estimates != expected:
        failures.append(
            f"{name}: per-copy estimates {result.estimates} differ from "
            f"the expected {expected}"
        )
    return failures


def sharded_reference(data: StreamInput) -> List[float]:
    """``turnstile_fused``'s per-copy estimates at the same seed."""
    stream = turnstile_setup(data, "")
    return turnstile_call(data, stream).estimates


# -- serve_mix ---------------------------------------------------------------


@dataclass
class Tenant:
    columns: Tuple[Any, Any, Any]
    n: int
    truth: int
    seed: int

    def config(self) -> Dict[str, Any]:
        return {"n": self.n, "estimator": "insertion", "copies": SERVE_COPIES,
                "trials": SERVE_TRIALS, "seed": self.seed}


def serve_tenants(seed: int) -> List[Tenant]:
    tenants = []
    n, attach, p = SERVE_GRAPH
    derived = seeds(seed, 3 * SERVE_TENANTS)
    for index in range(SERVE_TENANTS):
        graph_seed, order_seed, config_seed = derived[3 * index:3 * index + 3]
        graph = gen.power_law_cluster(n, attach, p, graph_seed)
        columns = insertion_stream(graph, rng=order_seed).columns()
        tenants.append(Tenant(columns, n, count_triangles(graph), config_seed))
    return tenants


def standalone_run(tenant: Tenant) -> Tuple[float, int]:
    """A tenant's (median, summed space words) from a :class:`LiveEngine`
    fed directly, bypassing the service."""
    engine = LiveEngine(n=tenant.n)
    for index in range(SERVE_COPIES):
        name = f"copy-{index}"
        engine.register_spec(EstimatorSpec(
            name=name, factory=fgp_insertion_estimator,
            kwargs=dict(pattern=zoo.triangle(), trials=SERVE_TRIALS,
                        rng=tenant.seed + 1 + index, name=name),
        ))
    try:
        engine.feed(tenant.columns)
        results = engine.estimate()
        return (median_estimate(results),
                sum(result.space_words for result in results.values()))
    finally:
        engine.close()


def _default_sigint() -> None:
    """Give the server the default SIGINT disposition.

    A shell starts background jobs with SIGINT ignored, and an ignored
    signal stays ignored across ``exec``: a server spawned from such a
    job would never see the SIGINT that stops it.
    """
    signal.signal(signal.SIGINT, signal.SIG_DFL)


class Server:
    """A ``repro serve`` subprocess rooted in *root*.

    *launcher* (a script path) starts it through the traced launcher,
    which takes the same arguments after ``--``.
    """

    def __init__(self, root: str, src: str, launcher: Optional[str] = None,
                 spans_out: Optional[str] = None) -> None:
        serve = ["serve", "--root", root,
                 "--checkpoint-every", str(SERVE_CHECKPOINT_EVERY),
                 "--checkpoint-mode", "delta"]
        if launcher is None:
            argv = [sys.executable, "-m", "repro"] + serve
        else:
            argv = [sys.executable, launcher, "--spans-out", spans_out, "--"] + serve
        env = dict(os.environ, PYTHONPATH=src)
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, text=True,
                                     preexec_fn=_default_sigint)
        try:
            line = self.proc.stdout.readline()
            if not line.startswith("serving on "):
                raise RuntimeError(f"server failed to start: {line!r}")
            host, port = line.split()[2].rsplit(":", 1)
            self.client = ServiceClient(host, int(port))
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            self.proc.stdout.close()
            raise

    def stop(self) -> int:
        """Graceful shutdown (SIGINT, as ``repro serve`` expects); waits.

        A server still running ``STOP_WAIT_S`` after the signal is killed
        and reported as failed.
        """
        self.client.close()
        self.proc.send_signal(signal.SIGINT)
        try:
            return self.proc.wait(timeout=STOP_WAIT_S)
        except subprocess.TimeoutExpired:
            raise RuntimeError(
                f"server still running {STOP_WAIT_S}s after SIGINT") from None
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()


class MixLog:
    """Client-side record of every request of a serve mix."""

    def __init__(self) -> None:
        self.feeds: List[float] = []
        self.queries: List[float] = []
        self.requests: List[Tuple[str, int, str, float]] = []  # tenant, seq, op, s
        self.attempted = 0
        self.updates = 0
        self.wall = 0.0
        self._seq: Dict[str, int] = {}

    def call(self, tenant: str, op: str, send):
        """Run one per-tenant request and time it; a refusal raises."""
        self._seq[tenant] = seq = self._seq.get(tenant, 0) + 1
        self.attempted += 1
        start = time.perf_counter()
        reply = send()
        seconds = time.perf_counter() - start
        self.requests.append((tenant, seq, op, seconds))
        return reply, seconds


def start_tenants(client: ServiceClient, names: List[str], tenants: List[Tenant],
                  log: MixLog) -> None:
    """Feed every freshly opened tenant its first chunk.

    A stream's first feed builds its estimators (the live engine starts
    lazily) and fills their reservoirs: a once-per-stream cost about ten
    times a later feed's, so it is part of the set-up, and the mix's feed
    latencies are those of a running stream and its checkpoints.
    """
    for name, tenant in zip(names, tenants):
        u, v, delta = (column[:SERVE_CHUNK] for column in tenant.columns)
        log.call(name, "feed", lambda: client.feed(name, u, v, delta))


def run_cycle(client: ServiceClient, names: List[str], tenants: List[Tenant],
              log: MixLog) -> List[float]:
    """One closed-loop pass of the mix over tenants started by :func:`start_tenants`.

    Feeds the rest of every tenant's columns round-robin in
    ``SERVE_CHUNK`` chunks, with an ``estimate`` after every
    ``SERVE_QUERY_EVERY``-th feed of a tenant (the first chunk counts).
    Only this loop is timed; the final per-tenant medians are fetched
    afterwards and returned.
    """
    offsets = [SERVE_CHUNK] * len(names)
    feeds = [1] * len(names)
    start = time.perf_counter()
    while any(offset < len(t.columns[0]) for offset, t in zip(offsets, tenants)):
        for index, (name, tenant) in enumerate(zip(names, tenants)):
            u, v, delta = tenant.columns
            lo = offsets[index]
            if lo >= len(u):
                continue
            hi = min(lo + SERVE_CHUNK, len(u))
            _, seconds = log.call(name, "feed", lambda: client.feed(
                name, u[lo:hi], v[lo:hi], delta[lo:hi]))
            log.feeds.append(seconds)
            log.updates += hi - lo
            offsets[index] = hi
            feeds[index] += 1
            if feeds[index] % SERVE_QUERY_EVERY == 0:
                _, seconds = log.call(name, "estimate", lambda: client.estimate(name))
                log.queries.append(seconds)
    log.wall += time.perf_counter() - start
    medians = []
    for name in names:
        reply, _ = log.call(name, "estimate", lambda: client.estimate(name))
        medians.append(reply["median"])
    return medians
