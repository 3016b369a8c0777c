"""Out-of-core execution of a :class:`~repro.worlds.grid.WorldGrid`.

For every runnable cell the driver

1. **materializes the workload to disk**: the family's edges are
   generated (streaming families chunk-by-chunk, never holding the
   edge list) and the scenario's update transform is applied, landing
   in a ``.reb`` file via
   :class:`~repro.streams.datasets.BinaryUpdateWriter`; the file is
   shared by every cell over the same (family, scenario) pair;
2. **streams it back through the fused engine**: a
   :class:`~repro.streams.datasets.DiskEdgeStream` with the grid's
   bounded cache policy feeds the requested estimator
   (median-of-``copies``, ``trials=space_budget`` per copy) on the
   grid's backend, so cells run out-of-core with
   ``peak_resident_bytes`` metered by :mod:`repro.streams.cache`;
3. **scores it against exact truth** (computed once per workload x
   pattern) and emits one schema-validated row: accuracy, ε-violation,
   peak resident bytes, updates/s.

The JSON document (see :mod:`repro.worlds.schema`) is rewritten
atomically after *every* cell, so an interrupted sweep loses at most
the in-flight cell and ``resume=True`` (CLI ``--resume``) skips the
cells already on disk.  All randomness is derived per cell key from
the grid seed, so results are independent of cell order, filtering,
and resume points.

Truth-zero cells score **absolute** error in ``rel_err`` (a relative
error against zero is undefined); at sweep sizes the bundled families
keep pattern counts positive, so this is a corner-case guard, not the
normal path.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import tempfile
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import WorldsError
from repro.exact.subgraphs import count_subgraphs
from repro.graph import generators as gen
from repro.utils.rng import derive_seed
from repro.worlds.grid import FamilySpec, GridCell, ScenarioSpec, WorldGrid
from repro.worlds.schema import validate_sweep_document

#: The document's ``benchmark`` field; keeps sweep artifacts
#: recognizable next to the other benchmark JSONs.
SWEEP_BENCHMARK_NAME = "worlds_sweep"

ProgressFn = Callable[[str], None]


def _grid_seed(grid: WorldGrid, label: str) -> int:
    """A stable 64-bit seed for *label*, independent of call order."""
    return derive_seed(random.Random(grid.seed), label)


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


# -- workload materialization ---------------------------------------------


def _family_chunks(family: FamilySpec, seed: int):
    """``(n, iterator of (u, v) int64 chunks)`` in arrival order.

    The streaming families yield their generator chunks directly; the
    in-memory families build the graph, then emit its edges in a
    seed-shuffled arrival order (one chunk).
    """
    params = family.param_dict()
    if family.family == "kronecker":
        chunks = gen.stochastic_kronecker_chunks(
            params["power"], params["edges"],
            initiator=tuple(params["initiator"]), seed=seed,
        )
        return 1 << params["power"], chunks
    if family.family == "config":
        degrees = gen.powerlaw_degree_sequence(
            params["n"], params["exponent"],
            min_degree=params["min_degree"], max_degree=params["max_degree"],
            seed=seed,
        )
        return params["n"], gen.configuration_model_chunks(degrees, seed=seed)

    if family.family == "gnp":
        graph = gen.gnp(params["n"], params["p"], rng=seed)
    elif family.family == "ba":
        graph = gen.barabasi_albert(params["n"], params["attach"], rng=seed)
    elif family.family == "ws":
        graph = gen.watts_strogatz(
            params["n"], params["k"], params["rewire_p"], rng=seed
        )
    elif family.family == "plc":
        graph = gen.power_law_cluster(
            params["n"], params["attach"], params["triangle_p"], rng=seed
        )
    else:  # pragma: no cover - FamilySpec.create already rejected it
        raise WorldsError(f"unknown generator family {family.family!r}")

    edges = list(graph.edges())
    random.Random(seed ^ 0x5EED).shuffle(edges)

    def one_chunk():
        if edges:
            array = np.array(edges, dtype=np.int64)
            yield array[:, 0], array[:, 1]

    return graph.n, one_chunk()


def materialize_workload(
    family: FamilySpec,
    scenario: ScenarioSpec,
    seed: int,
    path: Union[str, "os.PathLike[str]"],
    scenario_seed: Optional[int] = None,
) -> str:
    """Write the (family, scenario) update stream to *path* (``.reb``).

    *seed* drives the family's edges, *scenario_seed* (default: derived
    from *seed*) the scenario transform — so every scenario over the
    same family churns/reorders the *identical* base graph and their
    rows compare like for like.  The insertion scenario spills
    generator chunks straight to disk; the reordering/turnstile
    scenarios need the whole edge list in memory once, at generation
    time only — the sweep itself then streams the file out-of-core.
    """
    from repro.streams.datasets import (
        BinaryUpdateWriter,
        degree_adversarial_order,
        deletion_heavy_updates,
        sliding_window_updates,
    )

    if scenario_seed is None:
        scenario_seed = derive_seed(random.Random(seed), f"scenario:{scenario.label}")
    n, chunks = _family_chunks(family, seed)
    if scenario.kind == "insertion":
        with BinaryUpdateWriter(path, n, allow_deletions=False) as writer:
            for u, v in chunks:
                writer.append(u, v)
        return os.fspath(path)

    collected = [(u, v) for u, v in chunks]
    if collected:
        u = np.concatenate([chunk[0] for chunk in collected])
        v = np.concatenate([chunk[1] for chunk in collected])
    else:
        u = np.empty(0, dtype=np.int64)
        v = np.empty(0, dtype=np.int64)
    params = scenario.param_dict()
    if scenario.kind == "adversarial":
        u, v = degree_adversarial_order(
            u, v, n=n, hide_high_degree_last=params["hide_high_degree_last"]
        )
        delta = None
        deletions = False
    elif scenario.kind == "deletion_heavy":
        u, v, delta = deletion_heavy_updates(
            u, v,
            churn_rounds=params["churn_rounds"],
            churn_fraction=params["deletion_rate"],
            seed=scenario_seed,
        )
        deletions = True
    elif scenario.kind == "sliding_window":
        window = max(1, int(len(u) * params["window_fraction"]))
        u, v, delta = sliding_window_updates(u, v, window)
        deletions = True
    else:  # pragma: no cover - ScenarioSpec.create already rejected it
        raise WorldsError(f"unknown scenario {scenario.kind!r}")

    with BinaryUpdateWriter(path, n, allow_deletions=deletions) as writer:
        for start in range(0, len(u), 1 << 14):
            stop = start + (1 << 14)
            writer.append(
                u[start:stop], v[start:stop],
                None if delta is None else delta[start:stop],
            )
    return os.fspath(path)


# -- the sweep -------------------------------------------------------------


def _filter_cells(
    cells: List[GridCell], selectors: Optional[Sequence[str]]
) -> List[GridCell]:
    if not selectors:
        return cells
    kept = [
        cell for cell in cells
        if any(selector in cell.key for selector in selectors)
    ]
    if not kept:
        raise WorldsError(
            f"--cells selector(s) {list(selectors)} match none of the "
            f"{len(cells)} grid cells"
        )
    return kept


def _load_resume_rows(
    out_path: str, grid_params: Dict, progress: Optional[ProgressFn]
) -> Dict[str, Dict]:
    if not os.path.exists(out_path):
        return {}
    with open(out_path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    validate_sweep_document(document)
    if document["params"] != grid_params:
        raise WorldsError(
            f"{out_path}: cannot resume — the existing sweep was run with a "
            "different grid spec; move it aside or drop --resume"
        )
    rows = {row["cell"]: row for row in document["rows"]}
    if progress and rows:
        progress(f"resuming: {len(rows)} cell(s) already in {out_path}")
    return rows


def _write_document(out_path: Optional[str], document: Dict) -> None:
    if out_path is None:
        return
    tmp_path = out_path + ".tmp"
    with open(tmp_path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp_path, out_path)


def run_cell(
    cell: GridCell,
    grid: WorldGrid,
    stream_path: str,
    truth: int,
) -> Dict:
    """Run one cell against its materialized ``.reb`` stream."""
    from repro.engine.fused import count_fgp_fused
    from repro.streams.datasets import DiskEdgeStream

    stream = DiskEdgeStream(stream_path, cache=grid.cache)
    pattern = grid.resolve_pattern(cell.pattern)
    started = time.perf_counter()
    result = count_fgp_fused(
        cell.estimator,
        stream,
        pattern,
        copies=grid.copies,
        trials=cell.budget,
        rng=_grid_seed(grid, f"cell:{cell.key}"),
        mode="shared",
        backend=grid.backend,
        batch_size=grid.batch_size,
    )
    elapsed = max(time.perf_counter() - started, 1e-9)

    if truth > 0:
        rel_err = result.error_vs(truth)
        copy_errors = [abs(est - truth) / truth for est in result.estimates]
    else:
        rel_err = abs(result.estimate - truth)
        copy_errors = [abs(est - truth) for est in result.estimates]
    violations = sum(1 for err in copy_errors if err > grid.epsilon)
    elements = int(result.details.get("elements", stream.length * result.passes))
    return {
        "cell": cell.key,
        "family": cell.family.label,
        "scenario": cell.scenario.label,
        "estimator": cell.estimator,
        "pattern": cell.pattern,
        "space_budget": cell.budget,
        "copies": grid.copies,
        "n": stream.n,
        "length": stream.length,
        "m": stream.net_edge_count,
        "truth": int(truth),
        "estimate": float(result.estimate),
        "rel_err": float(rel_err),
        "epsilon": grid.epsilon,
        "eps_violation": bool(rel_err > grid.epsilon),
        "copy_violation_rate": violations / len(copy_errors),
        "peak_resident_bytes": int(stream.cache_policy.peak_resident_bytes),
        "updates_per_s": elements / elapsed,
        "seconds": elapsed,
        "passes": int(result.passes),
    }


def run_sweep(
    grid: WorldGrid,
    out_path: Optional[Union[str, "os.PathLike[str]"]] = None,
    workdir: Optional[Union[str, "os.PathLike[str]"]] = None,
    cells: Optional[Sequence[str]] = None,
    resume: bool = False,
    progress: Optional[ProgressFn] = None,
) -> Dict:
    """Execute *grid* and return the validated sweep document.

    Parameters
    ----------
    out_path:
        JSON destination, rewritten atomically after every cell (so a
        partial sweep is always a valid document).  ``None`` keeps the
        document in memory only.
    workdir:
        Directory for the materialized ``.reb`` workloads (default: a
        temporary directory, removed afterwards).
    cells:
        Substring selectors over cell keys; a cell runs if any
        selector matches (CLI ``--cells``).
    resume:
        Reuse the rows already in *out_path* (must have been produced
        by the same grid spec) and run only the missing cells.
    progress:
        Optional callback receiving one human-readable line per event.
    """
    out_path = None if out_path is None else os.fspath(out_path)
    grid_params = json.loads(json.dumps(grid.to_dict()))
    selected = _filter_cells(grid.cells(), cells)
    done: Dict[str, Dict] = {}
    if resume:
        if out_path is None:
            raise WorldsError("resume=True needs an output path to resume from")
        done = _load_resume_rows(out_path, grid_params, progress)

    own_workdir = workdir is None
    if own_workdir:
        workdir_handle = tempfile.TemporaryDirectory(prefix="repro-worlds-")
        workdir = workdir_handle.name
    workdir = os.fspath(workdir)

    document: Dict = {
        "benchmark": SWEEP_BENCHMARK_NAME,
        "git_sha": _git_sha(),
        "created_unix": int(time.time()),
        "params": grid_params,
        "rows": [],
    }
    try:
        workload_paths: Dict[Tuple[str, str], str] = {}
        truths: Dict[Tuple[str, str, str], int] = {}
        for index, cell in enumerate(selected):
            if cell.key in done:
                document["rows"].append(done[cell.key])
                if progress:
                    progress(f"[{index + 1}/{len(selected)}] reused  {cell.key}")
                continue
            workload_key = (cell.family.label, cell.scenario.label)
            if workload_key not in workload_paths:
                path = os.path.join(
                    workdir, f"workload-{len(workload_paths):03d}.reb"
                )
                family_seed = _grid_seed(grid, f"family:{cell.family.label}")
                scenario_seed = _grid_seed(
                    grid, f"scenario:{cell.family.label}|{cell.scenario.label}"
                )
                materialize_workload(
                    cell.family, cell.scenario, family_seed, path,
                    scenario_seed=scenario_seed,
                )
                workload_paths[workload_key] = path
            stream_path = workload_paths[workload_key]

            truth_key = workload_key + (cell.pattern,)
            if truth_key not in truths:
                from repro.streams.datasets import DiskEdgeStream

                truths[truth_key] = count_subgraphs(
                    DiskEdgeStream(stream_path, cache="none").final_graph(),
                    grid.resolve_pattern(cell.pattern),
                )
            row = run_cell(cell, grid, stream_path, truths[truth_key])
            document["rows"].append(row)
            _write_document(out_path, document)
            if progress:
                progress(
                    f"[{index + 1}/{len(selected)}] ran     {cell.key}: "
                    f"estimate={row['estimate']:.1f} truth={row['truth']} "
                    f"rel_err={row['rel_err']:.3f} "
                    f"peak={row['peak_resident_bytes']}B "
                    f"{row['updates_per_s']:.0f} upd/s"
                )
    finally:
        if own_workdir:
            try:
                workdir_handle.cleanup()
            except OSError:  # pragma: no cover - best-effort on odd filesystems
                pass

    validate_sweep_document(document)
    _write_document(out_path, document)
    return document
