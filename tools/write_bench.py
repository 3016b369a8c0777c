#!/usr/bin/env python3
"""Write ``BENCH_<pr>.json``: one tree's benchmark trajectory point.

Run from the repository root (takes ~20 min on a 2-CPU box)::

    python3 tools/write_bench.py --pr N

For every workload of ``BENCHMARK.json`` it runs ``perfbench/run.py
--trace 0`` once per seed of ``SEEDS`` (one process at a time, at the
``run_seconds`` of ``BENCHMARK.json``) and records each end-to-end
metric's per-seed values, median, quartiles (``statistics.quantiles(n=4)``,
as ``perfbench/steady.py`` computes them) and IQR; then one ``--trace 1``
run at the first seed for the per-layer metrics.  Any run that is not
``correct`` aborts the write.

It also records accuracy: one fixed ``repro worlds`` grid (gnp,
Kronecker and configuration-model graphs, the triangle pattern, every
FGP estimator, insertion and deletion-heavy streams, two trial budgets,
three copies) and, per family, the median ``rel_err`` over its cells
and the share of cells that miss the ε target.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The perfbench seeds of every trajectory point.
SEEDS = (1, 2, 3, 4, 5)

#: The accuracy grid, as ``repro worlds`` flags.
WORLDS_FLAGS = [
    "--families", "gnp", "kronecker", "config",
    "--patterns", "triangle",
    "--scenarios", "insertion", "deletion_heavy",
    "--budgets", "1000", "3000",
    "--copies", "3",
]


def perfbench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The metrics of one ``perfbench/run.py`` run: name -> value."""
    argv = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=1800)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if done.returncode != 0 or not result.get("correct"):
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: run failed")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def accuracy() -> dict:
    """Per-family accuracy of the fixed worlds grid, plus its cell rows."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "sweep.json")
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        subprocess.run([sys.executable, "-m", "repro", "worlds", *WORLDS_FLAGS, "--out", out],
                       cwd=ROOT, env=env, check=True, capture_output=True, timeout=3600)
        with open(out, encoding="utf-8") as handle:
            document = json.load(handle)
    columns = ("family", "scenario", "estimator", "space_budget", "estimate", "truth",
               "rel_err", "eps_violation")
    rows = [{column: row[column] for column in columns} for row in document["rows"]]
    by_family = defaultdict(list)
    for row in rows:
        by_family[row["family"].split("(")[0]].append(row)
    families = {
        family: {
            "cells": len(cells),
            "rel_err": statistics.median(row["rel_err"] for row in cells),
            "eps_violation_rate": sum(row["eps_violation"] for row in cells) / len(cells),
        }
        for family, cells in by_family.items()
    }
    return {"pattern": "triangle", "epsilon": document["params"]["epsilon"],
            "grid": WORLDS_FLAGS, "families": families, "rows": rows}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--out", default=None, help="default: BENCH_<pr>.json")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    seconds = bench["run_seconds"]
    end_to_end = [metric["name"] for metric in bench["end_to_end"]]
    workloads = {}
    for workload in (entry["name"] for entry in bench["workloads"]):
        series = defaultdict(list)
        for seed in SEEDS:
            metrics = perfbench(workload, seed, seconds, trace=0)
            for name in end_to_end:
                series[name].append(metrics[name])
            print(f"{workload}: seed {seed} done", file=sys.stderr, flush=True)
        workloads[workload] = {
            "end_to_end": {name: spread(values) for name, values in series.items()},
            "layers": perfbench(workload, SEEDS[0], seconds, trace=1),
        }
    document = {
        "pr": args.pr,
        "machine": {"cpus": os.cpu_count(), "platform": platform.platform(),
                    "python": platform.python_version()},
        "run_seconds": seconds,
        "seeds": list(SEEDS),
        "workloads": workloads,
        "accuracy": accuracy(),
    }
    out = args.out or os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
