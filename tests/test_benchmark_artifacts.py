"""The committed benchmark artifacts and the traced run's boundary table.

Every archived JSON document under ``benchmarks/results/`` must pass the
shared schema of ``benchmarks/conftest.py`` (the keys of
``JSON_SCHEMA_KEYS``) and carry the columns its readers use.  A row with
an ``estimate`` but no ``truth`` column is a measurement whose estimate
is also the witness of the benchmark's bit-equality asserts, so it must
be nonzero: a 0.0 there means the benchmark compared 0.0 with 0.0.  Rows
with ``truth`` are accuracy rows (``worlds_sweep.json``), where a 0 is a
measured error.

Every ``BENCH_<pr>.json`` at the repository root (written by
``tools/write_bench.py``) must be measured at that tool's fixed seeds
and ``BENCHMARK.json``'s run length, cover each workload and metric of
``BENCHMARK.json`` and carry accuracy rows whose estimates are nonzero.

``perfbench/spans.py`` wraps ``vars(cls)[attr]`` of each boundary it
traces, so a boundary method that moves to a base class breaks the
traced run; the table is checked here, without running it.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARKS = ROOT / "benchmarks"
ARTIFACTS = sorted((BENCHMARKS / "results").glob("*.json"))
TRAJECTORY = sorted(ROOT.glob("BENCH_*.json"))

#: Per benchmark: the columns every row carries, and a check on the rows.
CONTRACTS = {
    "sharded_ingest": (
        {"shards", "seconds", "updates_per_sec", "peak_resident_bytes",
         "merge_seconds", "estimate"},
        lambda rows: len(rows) >= 2,
    ),
    "service_load": (
        {"streams", "feed_p50_ms", "feed_p99_ms", "query_p50_ms",
         "query_p99_ms", "checkpoint_stall_s", "peak_rss_bytes"},
        lambda rows: any(row["streams"] >= 8 for row in rows),
    ),
}


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _benchmark_conftest():
    return _load("benchmark_conftest", BENCHMARKS / "conftest.py")


@pytest.mark.parametrize("path", ARTIFACTS, ids=lambda path: path.name)
def test_committed_artifact(path):
    schema = _benchmark_conftest()
    document = json.loads(path.read_text(encoding="utf-8"))
    schema.validate_benchmark_json(document)  # the JSON_SCHEMA_KEYS contract
    assert document["benchmark"] == path.stem
    rows = document["rows"]
    assert rows, f"{path.name}: no rows"
    columns, check = CONTRACTS.get(path.stem, (set(), lambda rows: True))
    for row in rows:
        assert columns <= set(row), f"{path.name}: row lacks {columns - set(row)}"
        if "estimate" in row and "truth" not in row:
            assert row["estimate"] > 0, f"{path.name}: vacuous row {row}"
    assert check(rows), f"{path.name}: rows fail the contract check"


def test_trajectory_exists():
    assert TRAJECTORY, "no BENCH_*.json at the repository root"


@pytest.mark.parametrize("path", TRAJECTORY, ids=lambda path: path.name)
def test_trajectory_document(path):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    document = json.loads(path.read_text(encoding="utf-8"))
    assert document["pr"] == int(path.stem.split("_")[1])
    seeds = document["seeds"]
    assert seeds == list(_load("write_bench", ROOT / "tools" / "write_bench.py").SEEDS)
    assert document["run_seconds"] == bench["run_seconds"]
    for workload in (entry["name"] for entry in bench["workloads"]):
        runs = document["workloads"][workload]
        for metric in (entry["name"] for entry in bench["end_to_end"]):
            spread = runs["end_to_end"][metric]
            assert len(spread["values"]) == len(seeds), f"{workload}: {metric}"
            assert spread["q1"] <= spread["median"] <= spread["q3"]
            assert spread["iqr"] == pytest.approx(spread["q3"] - spread["q1"])
        assert {entry["name"] for entry in bench["per_layer"]} <= set(runs["layers"])
    accuracy = document["accuracy"]
    assert {"gnp", "kronecker", "config"} <= set(accuracy["families"])
    for family, summary in accuracy["families"].items():
        cells = [row for row in accuracy["rows"] if row["family"].startswith(family)]
        assert summary["cells"] == len(cells) > 0
        assert 0.0 <= summary["eps_violation_rate"] <= 1.0
    for row in accuracy["rows"]:
        assert row["estimate"] > 0, f"{path.name}: vacuous accuracy row {row}"


def test_perfbench_boundaries_are_own_methods():
    spans = _load("perfbench_spans", ROOT / "perfbench" / "spans.py")
    for module, owner, attribute, name in spans.BOUNDARIES:
        cls = getattr(importlib.import_module(module), owner)
        assert attribute in vars(cls), (
            f"{name}: {owner}.{attribute} is not defined in {owner}'s own body, "
            "so the traced run cannot wrap it"
        )
