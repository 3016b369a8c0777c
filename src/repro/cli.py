"""Command-line interface: ``python -m repro`` (or the ``repro`` script).

Subcommands mirror the library's main entry points so the algorithms
can be driven without writing Python:

* ``generate`` — write a synthetic graph as an edge list;
* ``convert``  — ingest a SNAP-style text edge list into the compact
  binary update format (``.reb`` memmap or ``.npz``), compacting raw
  vertex ids to ``[0, n)`` and deduplicating reversed/self-loop rows
  (:mod:`repro.streams.datasets`).  The converted file can be passed
  straight to ``count`` as an out-of-core stream; ``--shards N``
  additionally writes N hash-partitioned ``.shard-K-of-N.reb`` files
  (updates routed by normalized edge) for partitioned ingestion;
* ``exact``    — exact #H of an edge-list graph (ground truth);
* ``count``    — the paper's streaming counters (3-pass insertion-only,
  3-pass turnstile, or the 2-pass star-decomposable variant) on an
  edge-list graph streamed in random order.  ``--copies K`` runs
  median-of-K amplification through the fused engine in the same 3
  (resp. 2) passes, and ``--backend process [--workers N]`` shards
  those K copies across a pool of worker processes fed through a
  shared-memory batch ring (:mod:`repro.engine.parallel`); ``--mode
  mirror`` (the default) keeps the estimates identical across
  backends and worker counts for a fixed ``--seed``, ``--mode
  shared`` trades that for speed;
  ``--batch-size`` sets the columnar dispatch granularity (results
  are invariant to it — it only trades loop overhead against peak
  batch memory).  The graph argument may also be a converted
  ``.reb``/``.npz`` stream file: it is then streamed out of core in
  its stored order, with batch retention governed by ``--cache
  {all,lru,none}`` and ``--cache-budget BYTES`` (e.g. ``64M``).
  ``--shards N`` (turnstile only) switches to **partitioned
  ingestion** (:mod:`repro.engine.sharded`): the stream is split into
  N hash-partitioned shards — the files ``convert --shards`` wrote,
  or on-the-fly views — each fed to an independent replica of every
  estimator copy, with the linear sketch states merged before each
  pass closes; estimates stay bit-identical to the unsharded mirror
  run at any shard count, while resident memory is bounded per shard
  (``--backend process`` runs one worker per shard, so ``--workers``
  is refused there);
* ``live``     — open-ended **live estimation** over an update feed
  (:mod:`repro.engine.live`): K mirror copies of a streaming counter
  ingest updates incrementally from a converted ``.reb``/``.npz``
  stream, an edge-list graph, or stdin (``u v [delta]`` lines,
  ``-``); ``--query-every N`` prints a running median estimate
  mid-stream, ``--checkpoint PATH --checkpoint-every N`` writes
  versioned snapshots, and ``--resume`` restores the checkpoint and
  continues bit-identically to a run that never stopped;
* ``worlds``   — GraphWorld-style **scenario sweeps**
  (:mod:`repro.worlds`): a validated grid of generator families
  (Erdős–Rényi, preferential attachment, small-world,
  power-law-cluster, stochastic Kronecker, configuration model) ×
  stream scenarios (insertion, degree-adversarial, deletion-heavy,
  sliding-window) × estimator × pattern × space budget, each cell
  materialized to a ``.reb`` file and streamed out-of-core through
  :class:`~repro.streams.datasets.DiskEdgeStream`, emitting one
  schema-validated JSON table (accuracy, ε-violation, peak resident
  bytes, updates/s per cell).  Shape the grid with flags or a
  ``--grid`` JSON file; ``--cells`` filters cells by key substring,
  ``--resume`` continues a partial sweep, ``--list-cells`` previews
  the product without running it;
* ``ers``      — Theorem 2's clique counter for low-degeneracy graphs;
* ``covers``   — ρ(H), β(H), the Lemma 4 decomposition and f_T(H) for
  a zoo pattern;
* ``experiments`` — regenerate the E1–E17/A1 tables (delegates to
  :mod:`repro.experiments.runner`); ``--parallel [--workers N]``
  passes a process-backend pool to the backend-aware experiments
  (e14).

Patterns are named as in the zoo: ``edge``, ``triangle``, ``P3``/
``P4``/..., ``C4``/``C5``/..., ``S2``/``S3``/..., ``K4``/``K5``/...,
``M2``/..., plus ``paw``, ``diamond``, ``bull``, ``house``, ``bowtie``,
``kite``, ``gem``, ``prism``, ``B2``/``B3`` (books), ``W4``/``W5``
(wheels).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.errors import ReproError
from repro.exact.subgraphs import count_subgraphs
from repro.graph import generators as gen
from repro.graph.degeneracy import degeneracy
from repro.graph.graph import Graph
from repro.graph.io import read_edge_list, write_edge_list
from repro.patterns import pattern as zoo
from repro.patterns.pattern import Pattern
from repro.streaming.counters import FGP_COUNTERS, is_turnstile


def parse_pattern(name: str) -> Pattern:
    """Resolve a zoo pattern from its CLI name (see module docstring)."""
    fixed = {
        "edge": zoo.edge,
        "triangle": zoo.triangle,
        "paw": zoo.paw,
        "diamond": zoo.diamond,
        "bull": zoo.bull,
        "house": zoo.house,
        "bowtie": zoo.bowtie,
        "kite": zoo.kite,
        "gem": zoo.gem,
        "prism": zoo.prism,
    }
    if name in fixed:
        return fixed[name]()
    families = {
        "P": lambda k: zoo.path(k),
        "C": lambda k: zoo.cycle(k),
        "S": lambda k: zoo.star(k),
        "K": lambda k: zoo.clique(k),
        "M": lambda k: zoo.matching(k),
        "B": lambda k: zoo.book(k),
        "W": lambda k: zoo.wheel(k),
    }
    prefix, suffix = name[:1], name[1:]
    if prefix in families and suffix.isdigit():
        return families[prefix](int(suffix))
    raise ReproError(
        f"unknown pattern {name!r}; see `repro covers --list` for options"
    )


def _known_pattern_names() -> List[str]:
    return sorted(p.name for p in zoo.extended_zoo())


def _generate(args: argparse.Namespace) -> int:
    builders = {
        "gnp": lambda: gen.gnp(args.n, args.p, rng=args.seed),
        "gnm": lambda: gen.gnm(args.n, args.m, rng=args.seed),
        "ba": lambda: gen.barabasi_albert(args.n, args.attach, rng=args.seed),
        "plc": lambda: gen.power_law_cluster(args.n, args.attach, args.p, args.seed),
        "ws": lambda: gen.watts_strogatz(args.n, args.attach, args.p, rng=args.seed),
        "rgg": lambda: gen.random_geometric(args.n, args.p, rng=args.seed),
        "grid": lambda: gen.grid_graph(args.n, args.m),
        "karate": gen.karate_club,
    }
    graph = builders[args.family]()
    write_edge_list(graph, args.output)
    print(
        f"wrote {args.family} graph: n={graph.n} m={graph.m} "
        f"degeneracy={degeneracy(graph)} -> {args.output}"
    )
    return 0


def _convert(args: argparse.Namespace) -> int:
    from repro.streams.datasets import convert_edge_list, write_stream_shards

    if args.shards is not None and args.shards < 1:
        print(f"error: --shards must be >= 1, got {args.shards}", file=sys.stderr)
        return 2
    stream = convert_edge_list(
        args.input,
        args.output,
        relabel=not args.no_relabel,
        dedupe=not args.keep_duplicates,
        chunk_lines=args.chunk_lines,
    )
    kind = "turnstile" if stream.allows_deletions else "insertion-only"
    print(
        f"wrote {kind} stream: n={stream.n} length={stream.length} "
        f"m={stream.net_edge_count} -> {stream.path}"
    )
    if args.shards is not None:
        paths = write_stream_shards(stream, args.shards)
        print(f"wrote {len(paths)} shard file(s): {paths[0]} .. {paths[-1]}")
    return 0


def _exact(args: argparse.Namespace) -> int:
    graph = read_edge_list(args.graph)
    pattern = parse_pattern(args.pattern)
    print(count_subgraphs(graph, pattern))
    return 0


def _resolve_cache_spec(args: argparse.Namespace) -> Optional[str]:
    """The cache-policy spec string from ``--cache``/``--cache-budget``
    (already validated by ``_count``'s usage checks)."""
    if args.cache is None:
        return None
    if args.cache == "lru" and args.cache_budget is not None:
        return f"lru:{args.cache_budget}"
    return args.cache


def _count(args: argparse.Namespace) -> int:
    from repro.streaming.adaptive import count_subgraphs_unknown
    from repro.streaming.counters import count_fgp
    from repro.streams.datasets import is_stream_path, open_disk_stream
    from repro.streams.generators import turnstile_churn_stream
    from repro.streams.stream import insertion_stream

    disk_input = is_stream_path(args.graph)
    pattern = parse_pattern(args.pattern)
    backend = args.backend or "serial"
    sharded = args.shards is not None
    # An explicit --copies (any value — bad ones get the library's
    # validation error), a parallel backend, or partitioned ingestion
    # selects the fused path; otherwise the plain single-copy counters
    # run.
    fused = args.copies is not None or backend != "serial" or sharded
    copies = args.copies if args.copies is not None else (
        8 if backend != "serial" or sharded else 1
    )
    if sharded and args.shards < 1:
        print(f"error: --shards must be >= 1, got {args.shards}", file=sys.stderr)
        return 2
    if sharded and not is_turnstile(args.algorithm):
        print("error: --shards requires --algorithm turnstile: the insertion "
              "paths answer from reservoir samplers whose draws depend on the "
              "global stream order, so per-shard states cannot be merged "
              "(MergeError); the turnstile L0-sketch state is linear and "
              "merges exactly", file=sys.stderr)
        return 2
    if sharded and args.adaptive:
        print("error: --adaptive cannot be combined with --shards",
              file=sys.stderr)
        return 2
    if sharded and args.workers is not None:
        print("error: --workers has no effect with --shards: a sharded "
              "process run starts one worker per shard", file=sys.stderr)
        return 2
    if sharded and args.mode == "shared":
        print("error: --shards runs mirror-mode replicas (merging requires "
              "identically seeded copies); drop --mode shared", file=sys.stderr)
        return 2
    if not fused and args.mode is not None:
        print("error: --mode requires a fused run (--copies K or --backend "
              "process)", file=sys.stderr)
        return 2
    if args.workers is not None and backend == "serial":
        print("error: --workers requires --backend process", file=sys.stderr)
        return 2
    if args.batch_size is not None and not fused:
        print("error: --batch-size requires a fused run (--copies K or "
              "--backend process)", file=sys.stderr)
        return 2
    if args.batch_size is not None and args.batch_size < 1:
        print(f"error: --batch-size must be >= 1, got {args.batch_size}",
              file=sys.stderr)
        return 2
    if args.workers is not None and args.workers < 1:
        print(f"error: --workers must be >= 1, got {args.workers}", file=sys.stderr)
        return 2
    if args.cache_budget is not None and args.cache != "lru":
        print("error: --cache-budget requires --cache lru", file=sys.stderr)
        return 2
    cache = _resolve_cache_spec(args)

    # Build the stream: a converted file IS the stream (stored order;
    # --seed shuffling does not apply), an edge-list graph is streamed
    # per --algorithm.  Everything after this block — the fused /
    # one-shot counter dispatch and the summary — is shared, so disk
    # and in-memory inputs can never drift apart.
    if disk_input:
        if args.adaptive:
            print("error: --adaptive is not supported on converted stream files",
                  file=sys.stderr)
            return 2
        if args.churn is not None:
            print("error: --churn shapes the synthetic turnstile workload and has "
                  "no effect on a converted stream file (its deletions are "
                  "already stored)", file=sys.stderr)
            return 2
        graph = None
        disk_cache_spec = cache or "none"
        stream = open_disk_stream(args.graph, cache=disk_cache_spec)
        # The engine's cache= knob would re-apply the same policy; the
        # disk stream already carries it, so the dispatch passes None.
        cache = None
        if stream.allows_deletions and not is_turnstile(args.algorithm):
            print("error: stream file contains deletions; use --algorithm turnstile",
                  file=sys.stderr)
            return 2
    else:
        graph = read_edge_list(args.graph)
        churn = args.churn if args.churn is not None else 50
        if is_turnstile(args.algorithm):
            stream = turnstile_churn_stream(graph, churn, rng=args.seed)
        else:
            stream = insertion_stream(graph, rng=args.seed)

    if args.adaptive:
        if fused:
            print("error: --adaptive cannot be combined with --copies or "
                  "--backend process", file=sys.stderr)
            return 2
        result = count_subgraphs_unknown(
            stream, pattern, epsilon=args.epsilon, rng=args.seed + 1
        )
    elif sharded:
        # Partitioned ingestion: feed hash-partitioned shards to
        # replica estimators and merge the linear sketch states before
        # each pass closes (repro.engine.sharded).  Materialized shard
        # files (convert --shards) are preferred; otherwise on-the-fly
        # views partition the opened stream.  Estimates are
        # bit-identical to the unsharded mirror run at any shard count.
        from repro.engine import count_subgraphs_turnstile_sharded
        from repro.engine.core import DEFAULT_BATCH_SIZE
        from repro.streams.datasets import open_stream_shards, stream_shard_views

        if disk_input:
            try:
                shard_streams = open_stream_shards(
                    args.graph, args.shards, cache=disk_cache_spec
                )
            except ReproError:
                shard_streams = stream_shard_views(
                    stream, args.shards, cache=disk_cache_spec
                )
        else:
            shard_streams = stream_shard_views(stream, args.shards)
        result = count_subgraphs_turnstile_sharded(
            shard_streams,
            pattern,
            copies=copies,
            trials=args.trials,
            rng=args.seed + 1,
            backend=backend,
            batch_size=args.batch_size or DEFAULT_BATCH_SIZE,
            cache=cache,
        )
    elif fused:
        # Median-of-K amplification through the fused engine; on the
        # process backend the K copies shard across a worker pool.  Mirror mode keeps the estimates identical across
        # backends and worker counts for a fixed seed.
        from repro.engine.core import DEFAULT_BATCH_SIZE
        from repro.engine.fused import count_fgp_fused

        result = count_fgp_fused(
            args.algorithm,
            stream,
            pattern,
            copies=copies,
            trials=args.trials,
            rng=args.seed + 1,
            mode=args.mode or "mirror",
            backend=backend,
            workers=args.workers,
            batch_size=args.batch_size or DEFAULT_BATCH_SIZE,
            cache=cache,
        )
    else:
        if cache is not None:
            stream.set_cache_policy(cache)
        result = count_fgp(
            args.algorithm, stream, pattern, trials=args.trials, rng=args.seed + 1
        )
    print(result.summary())
    if args.truth:
        truth = count_subgraphs(graph if graph is not None else stream.final_graph(),
                                pattern)
        print(f"exact=#{truth} rel_err={result.error_vs(truth):.4f}")
    return 0


def _live_feed_chunks(args, allow_deletions: bool):
    """Yield ``(u, v, delta)`` column chunks of the requested feed.

    Returns ``(n, allow_deletions, iterator)``; the iterator never
    holds more than ``--feed-chunk`` updates at a time.
    """
    import numpy as np

    from repro.graph.io import read_edge_list
    from repro.streams.datasets import is_stream_path, open_disk_stream
    from repro.streams.stream import insertion_stream

    chunk = args.feed_chunk

    if args.input == "-":
        if args.n is None:
            raise ReproError("feeding from stdin requires --n (vertex universe)")

        def stdin_chunks():
            us, vs, ds = [], [], []
            for line in sys.stdin:
                line = line.strip()
                if not line or line[0] in "#%":
                    continue
                fields = line.split()
                if len(fields) < 2:
                    raise ReproError(f"stdin line needs 'u v [delta]': {line!r}")
                us.append(int(fields[0]))
                vs.append(int(fields[1]))
                ds.append(int(fields[2]) if len(fields) > 2 else 1)
                if len(us) >= chunk:
                    yield (
                        np.array(us, dtype=np.int64),
                        np.array(vs, dtype=np.int64),
                        np.array(ds, dtype=np.int64),
                    )
                    us, vs, ds = [], [], []
            if us:
                yield (
                    np.array(us, dtype=np.int64),
                    np.array(vs, dtype=np.int64),
                    np.array(ds, dtype=np.int64),
                )

        return args.n, allow_deletions, stdin_chunks()

    if is_stream_path(args.input):
        stream = open_disk_stream(args.input, cache="none")
    else:
        stream = insertion_stream(read_edge_list(args.input), rng=args.seed)

    def stream_chunks():
        for batch in stream.batches(chunk):
            yield (batch.u, batch.v, batch.delta)

    return stream.n, stream.allows_deletions, stream_chunks()


class _FullyDegraded(Exception):
    """Internal: the live engine lost every estimator copy mid-run."""


def _live(args: argparse.Namespace) -> int:
    from repro.engine import LiveEngine, median_estimate
    from repro.engine.estimators import copy_specs, fgp_estimator
    from repro.errors import EngineError, EstimationError

    if args.checkpoint_every and not args.checkpoint:
        print("error: --checkpoint-every requires --checkpoint", file=sys.stderr)
        return 2
    if args.resume and not args.checkpoint:
        print("error: --resume requires --checkpoint", file=sys.stderr)
        return 2
    if args.max_deltas < 1:
        print(f"error: --max-deltas must be >= 1, got {args.max_deltas}",
              file=sys.stderr)
        return 2
    if args.copies < 1:
        print(f"error: --copies must be >= 1, got {args.copies}", file=sys.stderr)
        return 2

    pattern = parse_pattern(args.pattern)
    n, deletions, chunks = _live_feed_chunks(
        args, allow_deletions=is_turnstile(args.algorithm)
    )
    if deletions and not is_turnstile(args.algorithm):
        print("error: the feed contains deletions; use --algorithm turnstile",
              file=sys.stderr)
        return 2

    resumed = False
    if args.resume and args.checkpoint and os.path.exists(args.checkpoint):
        engine = LiveEngine.restore(args.checkpoint)
        resumed = True
        # The checkpoint's own specs win over --copies: resuming must
        # reproduce the interrupted run, not a differently sized one.
        print(f"resumed from {args.checkpoint}: elements={engine.elements} "
              f"m={engine.net_edge_count} copies={len(engine.estimator_names)}")
        info = engine.restore_info
        if info and info.get("deltas_applied"):
            print(f"resume applied {info['deltas_applied']} delta "
                  f"checkpoint(s)")
        if info and info.get("fell_back"):
            dropped = ", ".join(info.get("dropped", ()))
            print(f"warning: dropped corrupt delta tip ({dropped}); "
                  f"resuming from the last valid state and re-feeding "
                  f"the remainder", file=sys.stderr)
    else:
        engine = LiveEngine(
            n=n,
            allow_deletions=deletions or is_turnstile(args.algorithm),
            batch_size=args.batch_size or 4096,
        )
        options = dict(kind=args.algorithm, pattern=pattern, trials=args.trials)
        for spec in copy_specs(fgp_estimator, options, args.copies, args.seed):
            engine.register_spec(spec)

    def report(label: str) -> float:
        # Ask for every surviving estimator: naming a lost copy raises,
        # and under degradation the median over survivors is the answer.
        # With *no* survivors the gather raises a typed error; turn it
        # into the CLI's usage-error exit instead of a traceback.
        try:
            results = engine.estimate()
            median = median_estimate(results)
        except (EngineError, EstimationError) as exc:
            print(f"error: cannot report an estimate: {exc}", file=sys.stderr)
            raise _FullyDegraded() from exc
        suffix = ""
        if engine.degraded:
            suffix = (f" degraded=true surviving={engine.surviving_copies}"
                      f" lost={','.join(engine.lost_estimators)}")
        print(f"{label} elements={engine.elements} m={engine.net_edge_count} "
              f"median={median:.1f}{suffix}")
        return median

    skip = engine.elements if resumed else 0
    since_checkpoint = 0
    since_query = 0
    try:
        return _live_loop(args, engine, chunks, skip,
                          since_checkpoint, since_query, report)
    except _FullyDegraded:
        return 2


def _live_loop(args, engine, chunks, skip, since_checkpoint, since_query,
               report) -> int:
    for u, v, delta in chunks:
        if skip:
            take = min(skip, len(u))
            u, v, delta = u[take:], v[take:], delta[take:]
            skip -= take
            if not len(u):
                continue
        engine.feed((u, v, delta))
        since_checkpoint += len(u)
        since_query += len(u)
        if args.checkpoint_every and since_checkpoint >= args.checkpoint_every:
            written = engine.snapshot(args.checkpoint,
                                      mode=args.checkpoint_mode,
                                      max_deltas=args.max_deltas)
            print(f"checkpoint elements={engine.elements} -> {written}")
            since_checkpoint = 0
        if args.query_every and since_query >= args.query_every:
            report("query")
            since_query = 0

    if args.checkpoint:
        written = engine.snapshot(args.checkpoint,
                                  mode=args.checkpoint_mode,
                                  max_deltas=args.max_deltas)
        print(f"checkpoint elements={engine.elements} -> {written}")
    report("final")
    return 0


def _serve(args: argparse.Namespace) -> int:
    from repro.service import (
        CheckpointPolicy,
        ServiceLimits,
        StreamRegistry,
    )
    from repro.service.server import run_server
    from repro.streams.cache import parse_byte_size

    if args.max_streams < 1:
        print(f"error: --max-streams must be >= 1, got {args.max_streams}",
              file=sys.stderr)
        return 2
    if args.max_deltas < 1:
        print(f"error: --max-deltas must be >= 1, got {args.max_deltas}",
              file=sys.stderr)
        return 2
    scheduled = args.checkpoint_every or args.checkpoint_seconds
    if scheduled and not args.root:
        print("error: --checkpoint-every/--checkpoint-seconds require "
              "--root", file=sys.stderr)
        return 2
    try:
        max_feed_bytes = parse_byte_size(args.max_feed_bytes)
    except ReproError as error:
        print(f"error: --max-feed-bytes: {error}", file=sys.stderr)
        return 2
    limits = ServiceLimits(
        max_streams=args.max_streams,
        max_feed_bytes=max_feed_bytes,
        max_journal_elements=args.max_journal_elements,
    )
    policy = None
    if scheduled:
        policy = CheckpointPolicy(
            every_elements=args.checkpoint_every or None,
            every_seconds=args.checkpoint_seconds or None,
            mode=args.checkpoint_mode,
            max_deltas=args.max_deltas,
        )
    registry = StreamRegistry(root=args.root, limits=limits,
                              default_policy=policy)
    return run_server(registry, host=args.host, port=args.port)


def _worlds(args: argparse.Namespace) -> int:
    from repro.worlds import ESTIMATORS, WorldGrid, run_sweep

    shaping = {
        "--families": args.families,
        "--scenarios": args.scenarios,
        "--estimators": args.estimators,
        "--patterns": args.patterns,
        "--budgets": args.budgets,
        "--copies": args.copies,
        "--epsilon": args.epsilon,
        "--seed": args.seed,
        "--deletion-rate": args.deletion_rate,
        "--window-fraction": args.window_fraction,
        "--backend": args.backend,
    }
    if args.grid is not None:
        given = [flag for flag, value in shaping.items() if value is not None]
        if given:
            print(f"error: --grid carries the full spec; drop {', '.join(given)}",
                  file=sys.stderr)
            return 2
        grid = WorldGrid.from_file(args.grid)
    else:
        scenarios = []
        for kind in args.scenarios or ["insertion", "deletion_heavy"]:
            if kind == "deletion_heavy" and args.deletion_rate is not None:
                scenarios.append({"kind": kind,
                                  "deletion_rate": args.deletion_rate})
            elif kind == "sliding_window" and args.window_fraction is not None:
                scenarios.append({"kind": kind,
                                  "window_fraction": args.window_fraction})
            else:
                scenarios.append(kind)
        grid = WorldGrid(
            families=args.families or ["gnp", "ws", "kronecker", "config"],
            scenarios=scenarios,
            estimators=args.estimators or list(ESTIMATORS),
            patterns=args.patterns or ["triangle"],
            budgets=args.budgets or [200, 800],
            copies=args.copies if args.copies is not None else 3,
            epsilon=args.epsilon if args.epsilon is not None else 0.5,
            seed=args.seed if args.seed is not None else 2022,
            backend=args.backend or "serial",
        )
    cells = grid.cells()
    if args.cells:
        cells = [cell for cell in cells
                 if any(selector in cell.key for selector in args.cells)]
    if args.list_cells:
        for cell in cells:
            print(cell.key)
        print(f"{len(cells)} cell(s)")
        return 0
    document = run_sweep(
        grid,
        out_path=args.out,
        workdir=args.workdir,
        cells=args.cells,
        resume=args.resume,
        progress=print,
    )
    rows = document["rows"]
    violations = sum(1 for row in rows if row["eps_violation"])
    print(f"wrote {len(rows)} cell(s), {violations} eps-violation(s) "
          f"-> {args.out}")
    return 0


def _ers(args: argparse.Namespace) -> int:
    from repro.exact.cliques import count_cliques
    from repro.streaming.ers.counter import count_cliques_stream
    from repro.streams.stream import insertion_stream

    graph = read_edge_list(args.graph)
    lam = args.degeneracy if args.degeneracy else degeneracy(graph)
    lower = args.lower_bound if args.lower_bound else max(1, count_cliques(graph, args.r) // 2)
    stream = insertion_stream(graph, rng=args.seed)
    result = count_cliques_stream(
        stream,
        r=args.r,
        degeneracy_bound=lam,
        lower_bound=lower,
        epsilon=args.epsilon,
        rng=args.seed + 1,
    )
    print(result.summary())
    if args.truth:
        truth = count_cliques(graph, args.r)
        print(f"exact=#{truth} rel_err={result.error_vs(truth):.4f}")
    return 0


def _covers(args: argparse.Namespace) -> int:
    if args.list:
        print("\n".join(_known_pattern_names()))
        return 0
    if not args.pattern:
        print("a pattern name is required unless --list is given", file=sys.stderr)
        return 2
    pattern = parse_pattern(args.pattern)
    decomposition = pattern.decomposition()
    print(f"pattern        {pattern.name}")
    print(f"vertices/edges {pattern.num_vertices}/{pattern.num_edges}")
    print(f"rho (LP)       {pattern.rho()}")
    print(f"beta           {pattern.beta()}")
    print(f"odd cycles     {list(decomposition.cycle_lengths)}")
    print(f"star petals    {list(decomposition.star_petals)}")
    print(f"f_T(H)         {pattern.family_count()}")
    print(f"|Aut(H)|       {pattern.automorphism_count()}")
    return 0


def _experiments(args: argparse.Namespace) -> int:
    from repro.experiments.runner import resolve_pool, run_all

    try:
        workers = resolve_pool(args.parallel, args.workers)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    run_all(fast=not args.full, seed=args.seed, only=args.only or None,
            markdown=args.markdown, workers=workers)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Streaming subgraph counting (Fichtenberger & Peng, PODS 2022)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p_gen = commands.add_parser("generate", help="write a synthetic graph")
    p_gen.add_argument("family", choices=["gnp", "gnm", "ba", "plc", "ws", "rgg", "grid", "karate"])
    p_gen.add_argument("output", help="edge-list path to write")
    p_gen.add_argument("--n", type=int, default=100, help="vertices (grid: rows)")
    p_gen.add_argument("--m", type=int, default=300, help="edges (gnm) or grid cols")
    p_gen.add_argument("--p", type=float, default=0.1, help="probability / radius")
    p_gen.add_argument("--attach", type=int, default=4, help="BA/plc attachment, ws ring degree")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.set_defaults(handler=_generate)

    p_convert = commands.add_parser(
        "convert", help="SNAP-style edge list -> binary stream (.reb/.npz)"
    )
    p_convert.add_argument("input", help="text edge-list path (SNAP conventions)")
    p_convert.add_argument("output", help=".reb (memmap) or .npz path to write")
    p_convert.add_argument("--no-relabel", action="store_true",
                           help="keep raw vertex ids (default: compact to [0, n))")
    p_convert.add_argument("--keep-duplicates", action="store_true",
                           help="skip first-occurrence dedupe of reversed/repeated "
                                "edges (the stream model requires a simple graph)")
    p_convert.add_argument("--chunk-lines", type=int, default=1 << 16,
                           help="text lines parsed per chunk")
    p_convert.add_argument("--shards", type=int, default=None, metavar="N",
                           help="also write N hash-partitioned shard files "
                                "(base.shard-K-of-N.reb, routed by normalized "
                                "edge) for partitioned ingestion via "
                                "`count --shards N`")
    p_convert.set_defaults(handler=_convert)

    p_exact = commands.add_parser("exact", help="exact #H (ground truth)")
    p_exact.add_argument("graph", help="edge-list path")
    p_exact.add_argument("pattern", help="zoo pattern name")
    p_exact.set_defaults(handler=_exact)

    p_count = commands.add_parser("count", help="streaming #H estimate")
    p_count.add_argument("graph", help="edge-list path")
    p_count.add_argument("pattern", help="zoo pattern name")
    p_count.add_argument(
        "--algorithm",
        choices=list(FGP_COUNTERS),
        default="insertion",
    )
    p_count.add_argument("--trials", type=int, default=5000)
    p_count.add_argument("--adaptive", action="store_true",
                         help="no lower bound: AGM start + geometric search (Lemma 21)")
    p_count.add_argument("--epsilon", type=float, default=0.25,
                         help="accuracy target for --adaptive probes")
    p_count.add_argument("--churn", type=int, default=None,
                         help="turnstile churn edges (in-memory graphs only; "
                              "default 50)")
    p_count.add_argument("--seed", type=int, default=0)
    p_count.add_argument("--truth", action="store_true", help="also print exact #H")
    p_count.add_argument("--copies", type=int, default=None,
                         help="median-of-K fused copies (default: 1, or 8 on "
                              "the process backend or with --shards)")
    p_count.add_argument("--backend", choices=["serial", "process"],
                         default=None,
                         help="execution backend for the fused copies: serial "
                              "(default) or process (worker processes fed "
                              "through a shared-memory batch ring); mirror-mode "
                              "estimates are identical across both")
    p_count.add_argument("--workers", type=int, default=None,
                         help="pool size for --backend process (default: one "
                              "per CPU; refused with --shards, which runs one "
                              "worker per shard)")
    p_count.add_argument("--batch-size", type=int, default=None,
                         help="updates per dispatched engine batch (fused runs; "
                              "results are invariant to it)")
    p_count.add_argument("--cache", choices=["all", "lru", "none"], default=None,
                         help="batch-cache policy for the stream (default: the "
                              "stream's own — 'all' in memory, 'none' on disk); "
                              "estimates are identical across policies")
    p_count.add_argument("--cache-budget", default=None, metavar="BYTES",
                         help="LRU byte budget with --cache lru (e.g. 64M, 1gb)")
    p_count.add_argument("--mode", choices=["mirror", "shared"], default=None,
                         help="fusion mode for fused runs: mirror "
                         "(per-copy oracles, backend-independent estimates; the "
                         "default) or shared (merged oracles, fastest)")
    p_count.add_argument("--shards", type=int, default=None, metavar="N",
                         help="partitioned ingestion (turnstile only): split "
                              "the stream into N hash-partitioned shards, feed "
                              "each to replica estimators and merge the linear "
                              "sketch states before each pass closes; uses "
                              "materialized shard files (convert --shards) "
                              "when present, on-the-fly views otherwise; "
                              "estimates are bit-identical to the unsharded "
                              "mirror run at any N")
    p_count.set_defaults(handler=_count)

    p_live = commands.add_parser(
        "live", help="open-ended live estimation with checkpoints"
    )
    p_live.add_argument("input", help="converted .reb/.npz stream, edge-list path, "
                                      "or - for stdin 'u v [delta]' lines")
    p_live.add_argument("pattern", help="zoo pattern name")
    p_live.add_argument("--algorithm",
                        choices=list(FGP_COUNTERS),
                        default="insertion")
    p_live.add_argument("--copies", type=int, default=4,
                        help="mirror estimator copies (median reported)")
    p_live.add_argument("--trials", type=int, default=200,
                        help="FGP trials per copy (pinned explicitly: live "
                             "engines cannot resolve stream-dependent budgets)")
    p_live.add_argument("--seed", type=int, default=0)
    p_live.add_argument("--n", type=int, default=None,
                        help="vertex universe (required for stdin feeds)")
    p_live.add_argument("--batch-size", type=int, default=None,
                        help="engine dispatch granularity (results invariant)")
    p_live.add_argument("--feed-chunk", type=int, default=4096,
                        help="updates read and fed per chunk")
    p_live.add_argument("--checkpoint", default=None, metavar="PATH",
                        help="checkpoint file (written at least once at the end)")
    p_live.add_argument("--checkpoint-every", type=int, default=0, metavar="N",
                        help="snapshot every N fed updates (requires --checkpoint)")
    p_live.add_argument("--checkpoint-mode", choices=["full", "delta"],
                        default="full",
                        help="periodic snapshot kind: full (everything, the "
                             "default) or delta (journal tail only — "
                             "O(updates-since-base) bytes, rotating to a fresh "
                             "full base every --max-deltas tails)")
    p_live.add_argument("--max-deltas", type=int, default=16, metavar="K",
                        help="delta snapshots per full base before rotation")
    p_live.add_argument("--resume", action="store_true",
                        help="restore --checkpoint if present and continue, "
                             "skipping already-journaled updates; a torn delta "
                             "tip is dropped with a warning and the run "
                             "re-feeds from the last valid point")
    p_live.add_argument("--query-every", type=int, default=0, metavar="N",
                        help="print a running median estimate every N updates")
    p_live.set_defaults(handler=_live)

    p_serve = commands.add_parser(
        "serve", help="multi-tenant live service (JSON line protocol)"
    )
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="interface to bind (default 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=0,
                         help="TCP port; 0 (default) binds an ephemeral "
                              "port, printed on startup")
    p_serve.add_argument("--root", default=None, metavar="DIR",
                         help="checkpoint directory (one subdirectory per "
                              "stream); omitted = durability disabled")
    p_serve.add_argument("--max-streams", type=int, default=64,
                         help="admission limit on concurrently open streams")
    p_serve.add_argument("--max-feed-bytes", default="64M", metavar="BYTES",
                         help="in-flight feed payload budget (e.g. 64M, 1gb); "
                              "feeds past it are refused, not buffered")
    p_serve.add_argument("--max-journal-elements", type=int, default=None,
                         metavar="N",
                         help="per-stream journal high watermark; feeds that "
                              "would cross it are refused whole")
    p_serve.add_argument("--checkpoint-every", type=int, default=0,
                         metavar="N",
                         help="default policy: snapshot a stream every N fed "
                              "updates (requires --root)")
    p_serve.add_argument("--checkpoint-seconds", type=float, default=0,
                         metavar="T",
                         help="default policy: snapshot a stream every T "
                              "seconds of feeds (requires --root)")
    p_serve.add_argument("--checkpoint-mode", choices=["full", "delta"],
                         default="delta",
                         help="scheduled snapshot kind (delta = journal "
                              "tails with base rotation, the default)")
    p_serve.add_argument("--max-deltas", type=int, default=16, metavar="K",
                         help="delta snapshots per full base before rotation")
    p_serve.set_defaults(handler=_serve)

    p_worlds = commands.add_parser(
        "worlds", help="scenario sweep: generator grid x estimators -> JSON"
    )
    p_worlds.add_argument("--grid", default=None, metavar="FILE",
                          help="JSON grid spec (mutually exclusive with the "
                               "grid-shaping flags below)")
    p_worlds.add_argument("--out", default="worlds_sweep.json", metavar="PATH",
                          help="sweep JSON destination (rewritten after every "
                               "cell)")
    p_worlds.add_argument("--families", nargs="*", default=None,
                          help="generator families (gnp ba ws plc kronecker "
                               "config); default: gnp ws kronecker config")
    p_worlds.add_argument("--scenarios", nargs="*", default=None,
                          choices=["insertion", "adversarial",
                                   "deletion_heavy", "sliding_window"],
                          help="stream scenarios; default: insertion "
                               "deletion_heavy")
    p_worlds.add_argument("--estimators", nargs="*", default=None,
                          choices=list(FGP_COUNTERS),
                          help="estimators to sweep (default: all three)")
    p_worlds.add_argument("--patterns", nargs="*", default=None,
                          help="zoo pattern names (default: triangle)")
    p_worlds.add_argument("--budgets", nargs="*", type=int, default=None,
                          help="space budgets = FGP trials per copy "
                               "(default: 200 800)")
    p_worlds.add_argument("--copies", type=int, default=None,
                          help="median-of-K copies per cell (default: 3)")
    p_worlds.add_argument("--epsilon", type=float, default=None,
                          help="accuracy target scored per cell (default: 0.5)")
    p_worlds.add_argument("--seed", type=int, default=None,
                          help="grid seed; every cell derives from it "
                               "(default: 2022)")
    p_worlds.add_argument("--deletion-rate", type=float, default=None,
                          help="deletion_heavy churn fraction (default: 0.5)")
    p_worlds.add_argument("--window-fraction", type=float, default=None,
                          help="sliding_window size as a fraction of m "
                               "(default: 0.5)")
    p_worlds.add_argument("--backend", choices=["serial", "process"],
                          default=None,
                          help="engine backend cells run on (default: serial)")
    p_worlds.add_argument("--cells", nargs="*", default=None, metavar="SUBSTR",
                          help="run only cells whose key contains any SUBSTR")
    p_worlds.add_argument("--resume", action="store_true",
                          help="reuse completed cells already in --out")
    p_worlds.add_argument("--list-cells", action="store_true",
                          help="print the (filtered) cell keys and exit")
    p_worlds.add_argument("--workdir", default=None, metavar="DIR",
                          help="keep materialized .reb workloads here "
                               "(default: a temporary directory)")
    p_worlds.set_defaults(handler=_worlds)

    p_ers = commands.add_parser("ers", help="Theorem 2 clique counter")
    p_ers.add_argument("graph", help="edge-list path")
    p_ers.add_argument("--r", type=int, default=3, help="clique order")
    p_ers.add_argument("--degeneracy", type=int, default=0, help="λ bound (0: compute)")
    p_ers.add_argument("--lower-bound", type=float, default=0.0, help="L <= #K_r (0: exact/2)")
    p_ers.add_argument("--epsilon", type=float, default=0.25)
    p_ers.add_argument("--seed", type=int, default=0)
    p_ers.add_argument("--truth", action="store_true", help="also print exact #K_r")
    p_ers.set_defaults(handler=_ers)

    p_covers = commands.add_parser("covers", help="ρ/β/decomposition of a pattern")
    p_covers.add_argument("pattern", nargs="?", help="zoo pattern name")
    p_covers.add_argument("--list", action="store_true", help="list known patterns")
    p_covers.set_defaults(handler=_covers)

    p_exp = commands.add_parser("experiments", help="regenerate E1-E17/A1 tables")
    p_exp.add_argument("--only", nargs="*", help="experiment ids, e.g. e07 e14")
    p_exp.add_argument("--full", action="store_true", help="full (slow) configurations")
    p_exp.add_argument("--markdown", action="store_true")
    p_exp.add_argument("--seed", type=int, default=2022)
    p_exp.add_argument("--parallel", action="store_true",
                       help="run backend-aware experiments (e14) with the "
                       "process backend")
    p_exp.add_argument("--workers", type=int, default=None,
                       help="pool size for --parallel (default: 2)")
    p_exp.set_defaults(handler=_experiments)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
