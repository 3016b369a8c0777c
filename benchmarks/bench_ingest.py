"""Ingestion benches: disk-backed streams and batch-cache policies.

What the out-of-core layer costs and buys: decode throughput of a
binary memmap stream under each cache policy and the text→binary
conversion rate.  The archived ``ingest_policies`` JSON is the
machine-readable ingestion table.  The fused disk-backed count is
measured by the ``insert_fused`` workload of ``perfbench/run.py``.
"""

import os
import tempfile
import time

from conftest import emit_json, emit_table

from repro.experiments.tables import Table
from repro.graph import generators as gen
from repro.streams.datasets import (
    DiskEdgeStream,
    convert_edge_list,
    write_binary_updates,
)
from repro.streams.stream import insertion_stream


def _disk_stream(tmp, graph, seed=3, cache="none"):
    u, v, _ = insertion_stream(graph, rng=seed).columns()
    path = write_binary_updates(os.path.join(tmp, "bench.reb"), graph.n, u, v)
    return DiskEdgeStream(path, cache=cache)


def test_ingest_decode_throughput_by_policy(benchmark, capsys):
    graph = gen.barabasi_albert(20_000, 6, rng=7)
    passes = 4

    with tempfile.TemporaryDirectory() as tmp:
        stream = _disk_stream(tmp, graph)

        def run_passes():
            total = 0
            for _ in range(passes):
                total += sum(len(batch) for batch in stream.batches(4096))
            return total

        total = benchmark(run_passes)
        assert total == passes * stream.length

        rows = []
        for cache in ("none", "lru:1M", "all"):
            stream.set_cache_policy(cache)
            start = time.perf_counter()
            for _ in range(passes):
                consumed = sum(len(batch) for batch in stream.batches(4096))
            elapsed = time.perf_counter() - start
            policy = stream.cache_policy
            rows.append(
                {
                    "cache": cache,
                    "elements_per_sec": passes * consumed / elapsed,
                    "peak_resident_bytes": policy.peak_resident_bytes,
                    "hits": policy.hits,
                    "misses": policy.misses,
                }
            )

    table = Table(
        title=f"Disk decode throughput by cache policy (m={graph.m}, {passes} passes)",
        columns=["cache", "elements/s", "peak bytes", "hits", "misses"],
    )
    for row in rows:
        table.add_row(
            row["cache"],
            f"{row['elements_per_sec']:,.0f}",
            f"{row['peak_resident_bytes']:,}",
            row["hits"],
            row["misses"],
        )
    emit_table(table, "ingest_policies", capsys, json_twin=False)
    emit_json(
        "ingest_policies",
        params={"n": graph.n, "m": graph.m, "passes": passes, "batch_size": 4096},
        rows=rows,
    )


def test_ingest_conversion_rate(benchmark, capsys):
    graph = gen.gnm(5_000, 40_000, rng=9)
    lines = [f"{u} {v}\n" for u, v in graph.edges()]
    text = "# bench edge list\n" + "".join(lines)

    with tempfile.TemporaryDirectory() as tmp:
        source = os.path.join(tmp, "edges.txt")
        with open(source, "w", encoding="utf-8") as handle:
            handle.write(text)

        def convert():
            return convert_edge_list(source, os.path.join(tmp, "edges.reb"))

        stream = benchmark(convert)
        assert stream.net_edge_count == graph.m
