"""The committed benchmark tables under ``benchmarks/results/``.

Every archived JSON document must pass the shared schema of
``benchmarks/conftest.py`` (the keys of ``JSON_SCHEMA_KEYS``) and carry
the columns its readers use.  A row with an ``estimate`` but no
``truth`` column is a measurement whose estimate is also the witness of
the benchmark's bit-equality asserts, so it must be nonzero: a 0.0 there
means the benchmark compared 0.0 with 0.0.  Rows with ``truth`` are
accuracy rows (``worlds_sweep.json``), where a 0 is a measured error.
"""

import importlib.util
import json
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
ARTIFACTS = sorted((BENCHMARKS / "results").glob("*.json"))

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


def _benchmark_conftest():
    spec = importlib.util.spec_from_file_location(
        "benchmark_conftest", BENCHMARKS / "conftest.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
