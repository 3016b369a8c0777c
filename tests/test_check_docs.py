"""Tests for the docs check, ``tools/check_docs.py``.

The check keeps README and ARCHITECTURE honest as the CLI and the
module tree change: a fenced ``python -m repro`` command may only name
real subcommands and flags, each ``--backend VALUE`` on it must be one
of the CLI's ``choices`` (so a doc cannot advertise a removed backend),
and every dotted module or repo-relative path must exist.  Each rule is
driven here through a small document written to a temporary file and
checked against the real CLI source.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_check_docs():
    path = ROOT / "tools" / "check_docs.py"
    spec = importlib.util.spec_from_file_location("check_docs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check_docs = _load_check_docs()


def _errors(tmp_path, body):
    """The check's errors for a document holding *body*."""
    path = tmp_path / "DOC.md"
    path.write_text(body, encoding="utf-8")
    cli_source = (ROOT / "src" / "repro" / "cli.py").read_text(encoding="utf-8")
    runner_source = (
        ROOT / "src" / "repro" / "experiments" / "runner.py"
    ).read_text(encoding="utf-8")
    return check_docs.check_document(path, cli_source, runner_source)


def _fenced(*lines):
    return "```bash\n" + "\n".join(lines) + "\n```\n"


def test_repository_docs_are_clean(capsys):
    assert check_docs.main() == 0
    assert "are clean" in capsys.readouterr().out


def test_a_removed_backend_in_a_fenced_command_is_reported(tmp_path):
    errors = _errors(
        tmp_path,
        _fenced("python -m repro count graph.txt triangle --backend thread"),
    )
    assert len(errors) == 1
    assert "--backend 'thread'" in errors[0]
    assert "['process', 'serial']" in errors[0]


@pytest.mark.parametrize(
    "flags",
    ["--backend process --workers 2", "--backend=serial", "--backend serial|process"],
)
def test_the_cli_backend_choices_pass(tmp_path, flags):
    body = _fenced(f"python -m repro count graph.txt triangle --copies 4 {flags}")
    assert _errors(tmp_path, body) == []


def test_backend_values_outside_fenced_blocks_are_prose(tmp_path):
    # Only commands a reader would paste are checked.
    body = "The thread tier was run as `--backend thread` before it was removed.\n"
    assert _errors(tmp_path, body) == []


def test_unknown_subcommands_and_flags_are_reported(tmp_path):
    errors = _errors(
        tmp_path,
        _fenced(
            "python -m repro frobnicate graph.txt",
            "python -m repro count graph.txt triangle --frobnicate",
        ),
    )
    assert any("unknown subcommand 'frobnicate'" in error for error in errors)
    assert any("unknown flag --frobnicate" in error for error in errors)


def test_dangling_module_and_path_references_are_reported(tmp_path):
    body = (
        "See `repro.engine.core.StreamEngine` and `docs/ARCHITECTURE.md`.\n"
        "Not `repro.threadpool` nor `benchmarks/bench_threads.py`.\n"
    )
    errors = _errors(tmp_path, body)
    assert sorted(errors) == [
        "DOC.md: dangling module reference repro.threadpool",
        "DOC.md: dangling path reference benchmarks/bench_threads.py",
    ]
