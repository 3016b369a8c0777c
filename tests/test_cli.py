"""Tests for the command-line interface (:mod:`repro.cli`)."""

import pytest

from repro.cli import build_parser, main, parse_pattern
from repro.errors import ReproError
from repro.graph import generators as gen
from repro.graph.io import write_edge_list


@pytest.fixture()
def karate_path(tmp_path):
    path = tmp_path / "karate.txt"
    write_edge_list(gen.karate_club(), path)
    return str(path)


class TestParsePattern:
    def test_fixed_names(self):
        assert parse_pattern("triangle").name == "triangle"
        assert parse_pattern("paw").name == "paw"
        assert parse_pattern("gem").name == "gem"

    def test_family_names(self):
        assert parse_pattern("P4").num_vertices == 4
        assert parse_pattern("C5").num_edges == 5
        assert parse_pattern("K4").num_edges == 6
        assert parse_pattern("S3").num_vertices == 4
        assert parse_pattern("M2").num_edges == 2
        assert parse_pattern("B2").name == "B2"
        assert parse_pattern("W4").name == "W4"

    def test_unknown_name(self):
        with pytest.raises(ReproError):
            parse_pattern("Q7")
        with pytest.raises(ReproError):
            parse_pattern("Px")


class TestCliCommands:
    def test_generate_and_exact(self, tmp_path, capsys):
        out = str(tmp_path / "g.txt")
        assert main(["generate", "gnp", out, "--n", "30", "--p", "0.2", "--seed", "5"]) == 0
        captured = capsys.readouterr().out
        assert "wrote gnp graph" in captured
        assert main(["exact", out, "triangle"]) == 0
        count = int(capsys.readouterr().out.strip())
        assert count >= 0

    def test_exact_karate_triangles(self, karate_path, capsys):
        assert main(["exact", karate_path, "triangle"]) == 0
        assert capsys.readouterr().out.strip() == "45"

    def test_count_insertion(self, karate_path, capsys):
        code = main(
            ["count", karate_path, "triangle", "--trials", "3000", "--seed", "3", "--truth"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "fgp-3pass-insertion" in output
        assert "passes=3" in output
        assert "exact=#45" in output

    def test_count_two_pass(self, karate_path, capsys):
        code = main(["count", karate_path, "P3", "--algorithm", "two-pass",
                     "--trials", "2000", "--seed", "4"])
        assert code == 0
        assert "passes=2" in capsys.readouterr().out

    def test_count_two_pass_rejects_triangle(self, karate_path, capsys):
        code = main(["count", karate_path, "triangle", "--algorithm", "two-pass",
                     "--trials", "10"])
        assert code == 1
        assert "star-only" in capsys.readouterr().err

    def test_count_adaptive(self, karate_path, capsys):
        code = main(["count", karate_path, "triangle", "--adaptive",
                     "--epsilon", "0.4", "--seed", "8", "--truth"])
        assert code == 0
        output = capsys.readouterr().out
        assert "fgp-3pass-geometric" in output
        assert "exact=#45" in output

    def test_count_parallel(self, karate_path, capsys):
        code = main(
            ["count", karate_path, "triangle", "--backend", "process", "--workers", "2",
             "--copies", "3", "--trials", "400", "--seed", "3", "--truth"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "backend=process" in output
        assert "mode=mirror" in output
        assert "copies=3" in output
        assert "passes=3" in output
        assert "exact=#45" in output

    def test_count_parallel_matches_serial_copies(self, karate_path, capsys):
        # Mirror mode: the backend must not change the estimate.
        assert main(["count", karate_path, "triangle", "--copies", "3",
                     "--trials", "400", "--seed", "3"]) == 0
        serial = capsys.readouterr().out
        for flags in (["--backend", "process", "--workers", "2"],
                      ["--backend", "process"]):
            assert main(["count", karate_path, "triangle", "--copies", "3",
                         "--trials", "400", "--seed", "3", *flags]) == 0
            parallel = capsys.readouterr().out
            assert serial.split("median=")[1].split()[0] == \
                parallel.split("median=")[1].split()[0]

    def test_count_batch_size_is_result_invariant(self, karate_path, capsys):
        assert main(["count", karate_path, "triangle", "--copies", "3",
                     "--trials", "400", "--seed", "3"]) == 0
        default = capsys.readouterr().out
        assert main(["count", karate_path, "triangle", "--copies", "3",
                     "--trials", "400", "--seed", "3",
                     "--batch-size", "7"]) == 0
        tiny_batches = capsys.readouterr().out
        assert default.split("median=")[1].split()[0] == \
            tiny_batches.split("median=")[1].split()[0]

    def test_count_batch_size_requires_fused_and_positive(self, karate_path, capsys):
        assert main(["count", karate_path, "triangle",
                     "--batch-size", "64"]) == 2
        assert "--batch-size" in capsys.readouterr().err
        assert main(["count", karate_path, "triangle", "--copies", "2",
                     "--batch-size", "0"]) == 2
        assert "--batch-size must be >= 1" in capsys.readouterr().err

    def test_count_parallel_rejects_adaptive(self, karate_path, capsys):
        code = main(["count", karate_path, "triangle", "--adaptive",
                     "--backend", "process"])
        assert code == 2
        assert "--adaptive" in capsys.readouterr().err

    def test_count_rejects_dangling_fused_flags(self, karate_path, capsys):
        # Flags that would otherwise be silently ignored must error.
        assert main(["count", karate_path, "triangle", "--mode", "shared"]) == 2
        assert "--mode" in capsys.readouterr().err
        assert main(["count", karate_path, "triangle", "--workers", "2"]) == 2
        assert "--workers" in capsys.readouterr().err
        assert main(["count", karate_path, "triangle", "--backend", "process",
                     "--workers", "0"]) == 2
        assert "--workers must be >= 1" in capsys.readouterr().err

    def test_count_rejects_contradictory_backend_flags(self, karate_path, capsys):
        assert main(["count", karate_path, "triangle", "--backend", "serial",
                     "--workers", "2"]) == 2
        assert "--workers" in capsys.readouterr().err

    def test_count_rejects_removed_backend_flags(self, karate_path, capsys):
        for flags in (["--parallel"], ["--backend", "thread"]):
            with pytest.raises(SystemExit) as info:
                main(["count", karate_path, "triangle", *flags])
            assert info.value.code == 2
            assert flags[0] in capsys.readouterr().err

    def test_count_rejects_workers_with_shards(self, karate_path, capsys):
        # A sharded process run starts one worker per shard, so a
        # --workers value would be accepted and then ignored.
        for backend in ("serial", "process"):
            assert main(["count", karate_path, "triangle", "--algorithm",
                         "turnstile", "--shards", "2", "--backend", backend,
                         "--workers", "3"]) == 2
            err = capsys.readouterr().err
            assert "--workers" in err and "--shards" in err

    def test_experiments_rejects_workers_without_parallel(self, capsys):
        assert main(["experiments", "--only", "e10", "--workers", "2"]) == 2
        assert "--workers" in capsys.readouterr().err

    def test_count_turnstile(self, karate_path, capsys):
        code = main(["count", karate_path, "triangle", "--algorithm", "turnstile",
                     "--trials", "500", "--churn", "20", "--seed", "6"])
        assert code == 0
        assert "turnstile" in capsys.readouterr().out

    def test_ers(self, karate_path, capsys):
        code = main(["ers", karate_path, "--r", "3", "--seed", "7", "--truth"])
        assert code == 0
        output = capsys.readouterr().out
        assert "ers-" in output
        assert "exact=#45" in output

    def test_covers(self, capsys):
        assert main(["covers", "C5"]) == 0
        output = capsys.readouterr().out
        assert "rho (LP)       2.5" in output
        assert "odd cycles     [5]" in output

    def test_covers_list(self, capsys):
        assert main(["covers", "--list"]) == 0
        names = capsys.readouterr().out.split()
        assert "triangle" in names and "gem" in names

    def test_covers_requires_pattern(self, capsys):
        assert main(["covers"]) == 2

    def test_missing_file(self, capsys):
        assert main(["exact", "/nonexistent/g.txt", "triangle"]) == 1

    def test_parser_help_lists_commands(self):
        parser = build_parser()
        text = parser.format_help()
        for command in ("generate", "exact", "count", "ers", "covers", "experiments"):
            assert command in text

    def test_experiments_subcommand(self, capsys):
        assert main(["experiments", "--only", "e10"]) == 0
        assert "E10" in capsys.readouterr().out

    def test_python_dash_m_entry_point(self, tmp_path):
        # ``python -m repro`` must work as a real subprocess.
        import subprocess
        import sys

        completed = subprocess.run(
            [sys.executable, "-m", "repro", "covers", "triangle"],
            capture_output=True,
            text=True,
        )
        assert completed.returncode == 0
        assert "rho (LP)       1.5" in completed.stdout

class TestConvertAndDiskStreams:
    @pytest.fixture()
    def snap_path(self, tmp_path):
        path = tmp_path / "snap.txt"
        path.write_text(
            "# comment\n5 9\n9 5\n3 3\n% other comment\n4294967299 5 123\n5 9\n",
            encoding="utf-8",
        )
        return str(path)

    def test_convert_snap_to_binary(self, snap_path, tmp_path, capsys):
        out = str(tmp_path / "snap.reb")
        assert main(["convert", snap_path, out]) == 0
        captured = capsys.readouterr().out
        assert "wrote insertion-only stream" in captured
        assert "n=4 length=2 m=2" in captured

    def test_convert_to_npz(self, snap_path, tmp_path, capsys):
        out = str(tmp_path / "snap.npz")
        assert main(["convert", snap_path, out]) == 0
        assert "n=4 length=2 m=2" in capsys.readouterr().out

    def test_count_on_converted_stream_matches_across_caches(
        self, karate_path, tmp_path, capsys
    ):
        out = str(tmp_path / "karate.reb")
        assert main(["convert", karate_path, out]) == 0
        capsys.readouterr()
        medians = {}
        for flags in (["--cache", "all"],
                      ["--cache", "lru", "--cache-budget", "8k"],
                      ["--cache", "none"]):
            code = main(["count", out, "triangle", "--copies", "3",
                         "--trials", "200", "--seed", "4", "--truth"] + flags)
            assert code == 0
            output = capsys.readouterr().out
            assert "fgp-3pass-insertion" in output
            medians[tuple(flags)] = output.split("median=")[1].split()[0]
        assert len(set(medians.values())) == 1

    def test_count_disk_rejects_adaptive(self, karate_path, tmp_path, capsys):
        out = str(tmp_path / "karate.reb")
        assert main(["convert", karate_path, out]) == 0
        capsys.readouterr()
        assert main(["count", out, "triangle", "--adaptive"]) == 2
        assert "--adaptive" in capsys.readouterr().err

    def test_cache_budget_requires_lru(self, karate_path, capsys):
        code = main(["count", karate_path, "triangle", "--copies", "2",
                     "--trials", "50", "--cache", "all",
                     "--cache-budget", "1M"])
        assert code == 2
        assert "--cache-budget requires --cache lru" in capsys.readouterr().err

    def test_count_disk_rejects_churn(self, karate_path, tmp_path, capsys):
        out = str(tmp_path / "karate.reb")
        assert main(["convert", karate_path, out]) == 0
        capsys.readouterr()
        code = main(["count", out, "triangle", "--algorithm", "turnstile",
                     "--churn", "10"])
        assert code == 2
        assert "--churn" in capsys.readouterr().err

    def test_cache_flag_on_in_memory_fused_run(self, karate_path, capsys):
        code = main(["count", karate_path, "triangle", "--copies", "2",
                     "--trials", "100", "--seed", "2", "--cache", "lru",
                     "--cache-budget", "4k"])
        assert code == 0
        assert "fgp-3pass-insertion" in capsys.readouterr().out

    def test_cache_flag_reaches_shards_of_edge_list(
        self, karate_path, capsys, monkeypatch
    ):
        import repro.streams.datasets as datasets
        from repro.streams.cache import LRUBatchCache

        views = []
        make_views = datasets.stream_shard_views

        def recording_views(stream, shards, cache="none"):
            views.extend(make_views(stream, shards, cache=cache))
            return views

        monkeypatch.setattr(datasets, "stream_shard_views", recording_views)
        code = main(["count", karate_path, "triangle", "--algorithm", "turnstile",
                     "--shards", "2", "--trials", "8", "--cache", "lru",
                     "--cache-budget", "4096"])
        assert code == 0
        assert "fgp-3pass-turnstile" in capsys.readouterr().out
        assert len(views) == 2
        for view in views:
            assert isinstance(view.cache_policy, LRUBatchCache)
            assert view.cache_policy.budget_bytes == 4096


class TestCliWorlds:
    FAST = ["--families", "gnp", "--scenarios", "insertion",
            "--estimators", "insertion", "--patterns", "triangle",
            "--budgets", "30", "--copies", "2", "--seed", "5"]

    def test_list_cells(self, capsys):
        assert main(["worlds", "--list-cells", *self.FAST]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-1] == "1 cell(s)"
        assert out[0] == "gnp(n=64,p=0.15)|insertion|insertion|triangle|t30"

    def test_tiny_sweep_writes_schema_valid_json(self, tmp_path, capsys):
        import json

        from repro.worlds import validate_sweep_document

        out = str(tmp_path / "sweep.json")
        assert main(["worlds", "--out", out, *self.FAST]) == 0
        stdout = capsys.readouterr().out
        assert "wrote 1 cell(s)" in stdout
        with open(out, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        validate_sweep_document(document)
        assert document["rows"][0]["estimator"] == "insertion"

    def test_resume_reuses_cells(self, tmp_path, capsys):
        out = str(tmp_path / "sweep.json")
        assert main(["worlds", "--out", out, *self.FAST]) == 0
        capsys.readouterr()
        assert main(["worlds", "--out", out, "--resume", *self.FAST]) == 0
        assert "reused" in capsys.readouterr().out

    def test_grid_file_contradicts_shaping_flags(self, tmp_path, capsys):
        import json

        grid = str(tmp_path / "grid.json")
        with open(grid, "w", encoding="utf-8") as handle:
            json.dump({"families": ["gnp"], "budgets": [10]}, handle)
        assert main(["worlds", "--grid", grid, "--copies", "2"]) == 2
        assert "--grid carries the full spec" in capsys.readouterr().err

    def test_invalid_grid_values_exit_one(self, capsys):
        # Parse-time validation: WorldsError is a ReproError, so main()
        # reports it on stderr and exits 1 before any cell runs.
        assert main(["worlds", "--list-cells", "--deletion-rate", "-0.5",
                     "--scenarios", "deletion_heavy",
                     "--families", "gnp"]) == 1
        assert "deletion rate" in capsys.readouterr().err
        assert main(["worlds", "--list-cells", "--epsilon", "0",
                     "--families", "gnp"]) == 1
        assert "epsilon" in capsys.readouterr().err

    def test_cells_selector_matching_nothing_exits_one(self, capsys):
        assert main(["worlds", "--cells", "no-such-cell", *self.FAST]) == 1
        assert "match none" in capsys.readouterr().err


class TestCliLive:
    def test_live_feed_query_checkpoint_resume(self, karate_path, tmp_path, capsys):
        checkpoint = str(tmp_path / "live.ckpt")
        code = main(["live", karate_path, "triangle", "--copies", "2",
                     "--trials", "120", "--seed", "3", "--feed-chunk", "20",
                     "--query-every", "30",
                     "--checkpoint", checkpoint, "--checkpoint-every", "40"])
        assert code == 0
        output = capsys.readouterr().out
        assert "query elements=" in output
        assert "checkpoint elements=" in output
        final = [line for line in output.splitlines() if line.startswith("final")]
        assert len(final) == 1

        # Resume from the (complete) checkpoint: every update is skipped
        # and the final median is reproduced bit for bit.
        code = main(["live", karate_path, "triangle", "--copies", "2",
                     "--trials", "120", "--seed", "3", "--feed-chunk", "20",
                     "--checkpoint", checkpoint, "--resume"])
        assert code == 0
        resumed = capsys.readouterr().out
        assert "resumed from" in resumed
        resumed_final = [line for line in resumed.splitlines()
                         if line.startswith("final")]
        assert resumed_final == final

    def test_live_resume_mid_stream_matches_uninterrupted(self, karate_path,
                                                          tmp_path, capsys):
        checkpoint = str(tmp_path / "live.ckpt")
        # Uninterrupted CLI run.
        assert main(["live", karate_path, "triangle", "--copies", "2",
                     "--trials", "80", "--seed", "5"]) == 0
        uninterrupted = capsys.readouterr().out.splitlines()[-1]

        # Simulate a crash after 30 updates: build the same engine the
        # CLI builds (same spec names/seeds/stream order), feed a
        # prefix, snapshot, and let the CLI resume the remainder.
        from repro.engine import EstimatorSpec, LiveEngine
        from repro.engine.estimators import fgp_insertion_estimator
        from repro.graph.io import read_edge_list
        from repro.streams.stream import insertion_stream

        stream = insertion_stream(read_edge_list(karate_path), rng=5)
        engine = LiveEngine(n=stream.n, batch_size=4096)
        for index in range(2):
            name = f"copy-{index}"
            engine.register_spec(EstimatorSpec(
                name=name, factory=fgp_insertion_estimator,
                kwargs=dict(pattern=parse_pattern("triangle"), trials=80,
                            rng=5 + 1 + index, name=name),
            ))
        u, v, d = stream.columns()
        engine.feed((u[:30], v[:30], d[:30]))
        engine.snapshot(checkpoint)

        assert main(["live", karate_path, "triangle", "--copies", "2",
                     "--trials", "80", "--seed", "5",
                     "--checkpoint", checkpoint, "--resume"]) == 0
        resumed = capsys.readouterr().out
        assert "resumed from" in resumed
        assert resumed.splitlines()[-1] == uninterrupted

    def test_live_stdin_requires_n(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("0 1\n"))
        assert main(["live", "-", "triangle", "--trials", "10"]) == 1
        assert "--n" in capsys.readouterr().err

    def test_live_checkpoint_every_requires_checkpoint(self, karate_path, capsys):
        assert main(["live", karate_path, "triangle",
                     "--checkpoint-every", "10"]) == 2
        assert "--checkpoint" in capsys.readouterr().err

    def test_live_stdin_turnstile(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr(
            "sys.stdin", io.StringIO("0 1\n1 2\n0 2\n# comment\n0 1 -1\n")
        )
        code = main(["live", "-", "triangle", "--algorithm", "turnstile",
                     "--n", "6", "--copies", "2", "--trials", "20"])
        assert code == 0
        out = capsys.readouterr().out
        assert "final elements=4 m=2" in out


class TestLiveDegradedReport:
    """``repro live`` under full degradation: exit 2, not a traceback.

    Regression tier: the report path used to call ``statistics.median``
    on an empty estimate dict and die with a bare ``StatisticsError``.
    """

    def test_fully_degraded_report_exits_two(self, karate_path, monkeypatch,
                                             capsys):
        from repro.engine.live import LiveEngine
        from repro.errors import EngineError

        def raise_all_lost(self, names=None):
            raise EngineError(
                "every registered estimator was lost with its worker "
                "(lost: copy-0, copy-1); no estimates survive"
            )

        monkeypatch.setattr(LiveEngine, "estimate", raise_all_lost)
        code = main(["live", karate_path, "triangle", "--copies", "2",
                     "--trials", "50", "--seed", "3"])
        assert code == 2
        err = capsys.readouterr().err
        assert "cannot report an estimate" in err
        assert "copy-0" in err


class TestServeCommand:
    """Flag validation for ``repro serve`` (the server itself is
    exercised end-to-end in tests/test_service.py)."""

    def test_scheduled_checkpoints_require_root(self, capsys):
        assert main(["serve", "--checkpoint-every", "10"]) == 2
        assert "--root" in capsys.readouterr().err

    def test_bad_feed_byte_budget_exits_two(self, capsys):
        assert main(["serve", "--max-feed-bytes", "lots"]) == 2
        assert "--max-feed-bytes" in capsys.readouterr().err

    def test_bad_limits_exit_two(self, capsys):
        assert main(["serve", "--max-streams", "0"]) == 2
        assert "--max-streams" in capsys.readouterr().err
        assert main(["serve", "--max-deltas", "0"]) == 2
        assert "--max-deltas" in capsys.readouterr().err
