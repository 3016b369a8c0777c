"""Tests for update-log persistence and the experiments CLI runner."""

import io

import pytest

from repro.errors import StreamError
from repro.graph import generators as gen
from repro.streams.generators import turnstile_churn_stream
from repro.streams.io import read_update_log, write_update_log
from repro.streams.stream import insertion_stream


class TestUpdateLogIO:
    def test_round_trip_insertion_only(self, tmp_path):
        graph = gen.gnp(15, 0.3, rng=1)
        stream = insertion_stream(graph, rng=2)
        path = tmp_path / "log.txt"
        write_update_log(stream, path)
        loaded = read_update_log(path)
        assert loaded.n == stream.n
        assert loaded.final_graph() == graph
        assert not loaded.allows_deletions

    def test_round_trip_turnstile(self, tmp_path):
        graph = gen.gnp(12, 0.3, rng=3)
        stream = turnstile_churn_stream(graph, 10, rng=4)
        path = tmp_path / "log.txt"
        write_update_log(stream, path)
        loaded = read_update_log(path)
        assert loaded.allows_deletions
        assert loaded.final_graph() == graph
        assert loaded.length == stream.length

    def test_order_preserved(self, tmp_path):
        stream = insertion_stream(gen.path_graph(6), rng=5)
        original = [u.edge for u in stream.updates()]
        stream.reset_pass_count()
        path = tmp_path / "log.txt"
        write_update_log(stream, path)
        loaded = read_update_log(path)
        assert [u.edge for u in loaded.updates()] == original

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("* 0 1\n")
        with pytest.raises(StreamError):
            read_update_log(path)

    def test_non_integer_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("+ a b\n")
        with pytest.raises(StreamError):
            read_update_log(path)

    def test_infer_n_without_header(self, tmp_path):
        path = tmp_path / "log.txt"
        path.write_text("+ 0 9\n")
        assert read_update_log(path).n == 10


class TestExperimentRunner:
    def test_registry_complete(self):
        from repro.experiments.runner import EXPERIMENTS

        names = [name for name, _ in EXPERIMENTS]
        assert names == [
            "e01", "e02", "e03", "e04", "e05", "e06", "e07",
            "e08", "e09", "e10", "e11", "e12", "e13", "e14", "e15", "e16",
            "e17", "a01",
        ]

    def test_workers_forwarded_to_backend_aware_experiments(self):
        from repro.experiments.runner import run_all

        buffer = io.StringIO()
        tables = run_all(fast=True, seed=3, only=["e14"], stream=buffer, workers=2)
        assert len(tables) == 1
        text = buffer.getvalue()
        assert "E14" in text and "serial" in text and "process" in text
        # Every row of the mirror-mode comparison reports serial equality.
        assert "False" not in text

    def test_run_single_experiment_to_buffer(self):
        from repro.experiments.runner import run_all

        buffer = io.StringIO()
        tables = run_all(fast=True, seed=3, only=["e10"], stream=buffer)
        assert len(tables) == 1
        text = buffer.getvalue()
        assert "E10" in text
        assert "[e10:" in text

    def test_markdown_mode(self):
        from repro.experiments.runner import run_all

        buffer = io.StringIO()
        run_all(fast=True, seed=3, only=["e10"], stream=buffer, markdown=True)
        assert "| H |" in buffer.getvalue()

    def test_cli_rejects_unknown_id(self):
        from repro.experiments.runner import main

        with pytest.raises(SystemExit):
            main(["--only", "nope"])
